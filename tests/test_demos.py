"""Every narrative demo runs to completion against the current API and
prints exactly its pinned text, ``tests/data/demos/<demo>.txt``."""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINS = pathlib.Path(__file__).parent / "data" / "demos"


def test_demos_found():
    assert len(DEMOS) >= 5
    assert sorted(p.stem for p in PINS.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert out == (PINS / f"{path.stem}.txt").read_text(encoding="utf-8")
