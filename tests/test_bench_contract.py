"""The benchmark's per-layer tracer still finds every function it rebinds.

`bench/spans.py` looks dhsim functions up by module and name; a rename or
deletion in the package would otherwise surface only as a failed traced
benchmark run.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tables(spans):
    for table in (spans.TIMED, spans.COUNTED):
        for mod, names in table.items():
            for name in names:
                yield mod, name


def test_every_traced_name_resolves(spans):
    for mod, name in _tables(spans):
        module = importlib.import_module(f"dhsim.{mod}")
        assert callable(getattr(module, name, None)), f"dhsim.{mod}.{name}"


def test_install_then_uninstall_restores(spans):
    modules = [importlib.import_module("dhsim")] + [
        importlib.import_module(f"dhsim.{m}") for m in spans.MODULES]
    before = [dict(vars(module)) for module in modules]
    tracer = spans.Tracer()
    tracer.install()
    try:
        engine = importlib.import_module("dhsim.engine")
        assert engine.expectation is not before[modules.index(engine)]["expectation"]
    finally:
        tracer.uninstall()
    for module, saved in zip(modules, before):
        for attr, value in saved.items():
            assert getattr(module, attr) is value, f"{module.__name__}.{attr}"
