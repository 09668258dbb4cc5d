"""Source-level guards on who may know which format.

The packed Pauli key layout lives behind `dhsim.pauli`: no other module
reads a sum's term map or names a private key helper, and the public key
helpers (`x_mask`, `slot_key`, `key_phase`, `key_support`, `render_term`,
`PauliSum.from_key` and `PauliSum.as_key`) serve only the packed rows of
`dhsim.engine`: the functions that build, fold and unpack them (a row's
one-term sums by `row_descriptor`), the four
that read a set's averages (`expectations`), its diagonal's kernel
(`z_kernel`), its descriptor text (`descriptor_texts`) and its singles
(`single_averages`) off them, and the signed-string readers of the
two-qubit analyses (`rows_of`, `row_strings`, `all_strings`,
`string_product`, `strings_commute`, `vacuum_sign`).  The dense oracle
is the independent ground truth, so it uses only the public Pauli API
(letter tuples and coefficients) and never a private name of
`dhsim.pauli`.
Floats decide nothing outside the oracle: only `oracle.py` calls an
eigenvalue routine or imports numpy, `relative.py` imports neither numpy
nor the oracle, and no module imports the oracle at module level, so an
exact report loads neither.  The command line imports only `pauli` and
`engine` at module level; each analysis module loads where a report uses it.
Every record type is a `typing.NamedTuple`, so no module imports
`dataclasses`, which a one-shot report would pay for with `inspect`.
Each rule of a product is written once: a key's Y count in
`pauli.key_phase` and a coefficient's quarter turn in one `ComplexDyadic`
method.  `engine.rows_of` is the one switch between rows and sums: no
other function reads `DescriptorSet.rows`, and a set keeps one stored
form, so `descriptor_set` builds no sum and only `DescriptorSet.descriptor`
and `rows_of` read the `sums` field.
"""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "dhsim"
MODULES = sorted(SRC.glob("*.py"))
KEY_FORMAT = re.compile(r"\._terms\b"
                        r"|\b(_pack|_unpack|_CODE|_LETTER_OF_CODE|_BYTE_LETTERS)\b")
KEY_HELPERS = {"x_mask", "slot_key", "key_phase", "key_support", "render_term",
               "from_key", "as_key"}
PACKED_ROW_FUNCTIONS = {"_fresh_rows", "descriptor_set", "row_descriptor",
                        "row_support", "fold",
                        "expectations", "z_kernel", "descriptor_texts",
                        "single_averages", "rows_of", "row_strings",
                        "all_strings", "string_product", "strings_commute",
                        "vacuum_sign"}


def test_sources_found():
    assert SRC / "pauli.py" in MODULES and SRC / "oracle.py" in MODULES


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "pauli.py"],
                         ids=lambda p: p.name)
def test_key_format_stays_in_pauli(path):
    hits = [f"{path.name}:{k}: {line.strip()}"
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if KEY_FORMAT.search(line)]
    assert not hits


def _nodes_by_function(tree):
    """(enclosing function name, node) for every node of a module; a
    function's own node is inside it."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                      ast.AsyncFunctionDef))
                     else where)
            yield inner, child
            yield from walk(child, inner)
    return walk(tree, "<module>")


def _names_by_function(tree):
    """(enclosing function name, name) for every bare name, attribute and
    imported name in a module; an import's place is ``"import"``."""
    for where, node in _nodes_by_function(tree):
        if isinstance(node, ast.Name):
            yield where, node.id
        elif isinstance(node, ast.Attribute):
            yield where, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (("import", alias.name) for alias in node.names)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "pauli.py"],
                         ids=lambda p: p.name)
def test_key_helpers_serve_only_the_packed_rows(path):
    """Only ``engine`` imports a key helper, and only its packed-row
    functions call one; every other module reads a row through them."""
    allowed = ({"import"} | PACKED_ROW_FUNCTIONS if path.name == "engine.py" else set())
    hits = [f"{path.name}:{where} uses {name}"
            for where, name in _names_by_function(
                ast.parse(path.read_text(encoding="utf-8")))
            if name in KEY_HELPERS and where not in allowed]
    assert not hits


def test_oracle_uses_no_private_pauli_name():
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("pauli"):
            private += [a.name for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "pauli" and node.attr.startswith("_")):
            private.append(node.attr)
    assert not private


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "oracle.py"],
                         ids=lambda p: p.name)
def test_no_eigvalsh_outside_oracle(path):
    assert "eigvalsh" not in path.read_text(encoding="utf-8")


def test_relative_imports_neither_numpy_nor_oracle():
    tree = ast.parse((SRC / "relative.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [f"{node.module or ''}.{a.name}" for a in node.names]
    assert not [name for name in imported
                if name.split(".")[0] == "numpy" or "oracle" in name.split(".")]


def _imported_modules(node) -> list[str]:
    """Dotted names an import statement loads, relative ones with their dots."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [base] + [f"{base}.{a.name}" for a in node.names]
    return []


def _module_level(tree):
    """Statements run on import: everything outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "oracle.py"],
                         ids=lambda p: p.name)
def test_only_oracle_imports_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [name for node in ast.walk(tree) for name in _imported_modules(node)]
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [name for node in ast.walk(tree) for name in _imported_modules(node)]
    assert not [name for name in imported if name.split(".")[0] == "dataclasses"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_oracle_not_imported_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [name for node in _module_level(tree)
                for name in _imported_modules(node)]
    assert not [name for name in imported if "oracle" in name.split(".")]


def test_cli_imports_only_pauli_and_engine_at_module_level():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    siblings = set()
    for node in _module_level(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "dhsim"):
            module = (node.module or "").removeprefix("dhsim").lstrip(".")
            siblings.update([module] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            siblings.update(a.name.split(".")[1] for a in node.names
                            if a.name.startswith("dhsim."))
    assert siblings == {"pauli", "engine"}


def test_every_exported_name_resolves():
    import dhsim
    missing = [name for name in dhsim.__all__ if not hasattr(dhsim, name)]
    assert not missing
    assert len(set(dhsim.__all__)) == len(dhsim.__all__)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_sibling_name(path):
    """No module imports a ``_``-prefixed name from a sibling or reads one as
    ``sibling._name``: each operation has one public form."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = {p.stem for p in MODULES}
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "dhsim"):
            for alias in node.names:
                if _private(alias.name):
                    private.append(alias.name)
                elif alias.name in siblings:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name.startswith("dhsim.") and alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            private.append(f"{node.value.id}.{node.attr}")
    assert not private


def _calls_by_function(tree):
    """(enclosing function name, called name) for every call in a module;
    the called name is a bare name or an attribute's last part."""
    for where, node in _nodes_by_function(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name:
                yield where, name


def test_one_step_function():
    """A descriptor set's gate rewrite and an ancilla's identity slot are
    each applied in one place: ``_rewrite`` is called only by
    ``engine.apply_gate``, and ``extended`` only by ``engine.add_ancilla``;
    ``engine.fold`` steps packed rows instead."""
    callers = {name: {f"{path.name}:{where}"
                      for path in MODULES
                      for where, called in _calls_by_function(
                          ast.parse(path.read_text(encoding="utf-8")))
                      if called == name}
               for name in ("_rewrite", "extended")}
    assert callers == {"_rewrite": {"engine.py:apply_gate"},
                       "extended": {"engine.py:add_ancilla"}}


# Two rules of a product, as ``ast.unparse`` writes them for any names: the
# Y slots of a key, ``k & k >> 1 & m``, and a turn of numerators by i,
# ``re, im = -im, re``.
PRODUCT_RULES = {"y count": re.compile(r"(\w+) & \1 >> 1 & \w+"),
                 "quarter turn": re.compile(r"(\w+), (\w+) = \(-\2, \1\)")}


def test_one_copy_of_each_product_rule():
    """A string product's sign and a coefficient's quarter turn are each
    written once: the Y count of a key only in ``pauli.key_phase``, and
    the numerators' turn by i only in ``ComplexDyadic._times``, which
    ``sum_mul`` and ``__mul__`` call."""
    places = {rule: {f"{path.name}:{where}"
                     for path in MODULES
                     for where, node in _nodes_by_function(
                         ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, (ast.BinOp, ast.Assign))
                     and pattern.fullmatch(ast.unparse(node))}
              for rule, pattern in PRODUCT_RULES.items()}
    assert places == {"y count": {"pauli.py:key_phase"},
                      "quarter turn": {"pauli.py:_times"}}


def test_rows_read_only_by_rows_of():
    """Every reader of a set's packed rows asks ``engine.rows_of``, which
    also reads them off a set of signed strings; nothing else reads the
    ``rows`` field."""
    readers = {f"{path.name}:{where}"
               for path in MODULES
               for where, node in _nodes_by_function(
                   ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "rows"}
    assert readers == {"engine.py:rows_of"}


def test_sums_read_only_by_descriptor():
    """A set stores its rows or its sums, never both: only
    ``DescriptorSet.descriptor`` and ``rows_of``'s fallback read the
    ``sums`` field, and ``descriptor_set`` builds no one-term sum."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    readers = {f"{name}:{where}"
               for name, tree in trees.items()
               for where, node in _nodes_by_function(tree)
               if isinstance(node, ast.Attribute) and node.attr == "sums"}
    assert readers == {"engine.py:descriptor", "engine.py:rows_of"}
    assert "from_key" not in {called for where, called in _calls_by_function(
        trees["engine.py"]) if where == "descriptor_set"}
