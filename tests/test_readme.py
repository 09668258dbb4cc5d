"""README.md names the package's functions as `module.name` (or
`dhsim.module.name`); every such name must exist, so a rename or a removal
cannot leave a stale mention behind."""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "dhsim").glob("*.py")
                 if p.stem != "__init__")
# A backticked span that starts with a module name and an attribute; a file
# name such as `pauli.py` is not a reference.
REFERENCE = re.compile(r"`(?:dhsim\.)?(%s)\.(?!py`)([A-Za-z_]\w*)" % "|".join(MODULES))


def test_every_module_reference_in_the_readme_resolves():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    found = sorted(set(REFERENCE.findall(text)))
    assert found
    missing = [f"{module}.{name}" for module, name in found
               if not hasattr(importlib.import_module(f"dhsim.{module}"), name)]
    assert not missing
