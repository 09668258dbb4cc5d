"""README.md names the package's functions as `module.name` (or
`dhsim.module.name`) and their methods and fields as `Class.name`; every
such name must exist, so a rename or a removal cannot leave a stale
mention behind."""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "dhsim").glob("*.py")
                 if p.stem != "__init__")
# A backticked span that starts with a module name and an attribute; a file
# name such as `pauli.py` is not a reference.
REFERENCE = re.compile(r"`(?:dhsim\.)?(%s)\.(?!py`)([A-Za-z_]\w*)" % "|".join(MODULES))


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _classes() -> dict[str, type]:
    """Every class a dhsim module defines, by name."""
    classes = {}
    for module in MODULES:
        for name, value in vars(importlib.import_module(f"dhsim.{module}")).items():
            if isinstance(value, type) and value.__module__.startswith("dhsim."):
                classes[name] = value
    return classes


def test_every_module_reference_in_the_readme_resolves():
    found = sorted(set(REFERENCE.findall(_readme())))
    assert found
    missing = [f"{module}.{name}" for module, name in found
               if not hasattr(importlib.import_module(f"dhsim.{module}"), name)]
    assert not missing


def test_every_class_attribute_in_the_readme_resolves():
    """A backticked `Class.name`, after any module path: the longest class
    name is tried first, so `DescriptorSet.rows` is not read as
    `Descriptor`."""
    classes = _classes()
    names = "|".join(sorted(classes, key=len, reverse=True))
    found = sorted(set(re.findall(r"`(?:[\w.]+\.)?(%s)\.([A-Za-z_]\w*)" % names,
                                  _readme())))
    assert ("PauliSum", "from_key") in found and ("PauliSum", "as_key") in found
    missing = [f"{cls}.{name}" for cls, name in found
               if not hasattr(classes[cls], name)]
    assert not missing
