"""Source-level guards on who may know which format.

The packed Pauli key layout lives behind `dhsim.pauli`: no other module
reads a sum's term map or names a private key helper, and the public key
helpers (`x_mask`, `slot_key`, `key_phase`, `key_support`, `render_term`,
`PauliSum.from_key` and `PauliSum.as_key`) serve only the packed rows of
`dhsim.engine`: the functions that build, step, fold and unpack them (a
descriptor's row by `descriptor_row`, a gate's step by `_step`, which
`fold` and `apply_gate` call, a row's one-term sum by
`DescriptorSet.component`), the four that read a set's averages
(`expectations`), its diagonal's kernel (`z_kernel`), its descriptor text
(`descriptor_texts`) and its singles (`single_averages`) off them, and
the signed-string readers of the two-qubit analyses (`row_strings`,
`all_strings`, `string_product`, `strings_commute`, `vacuum_sign`).  The dense oracle
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
method.  A set stores its rows alone, `(n, rows, history)`, and only
`engine.descriptor_set` builds one past the constructor; a gate is stepped
on rows by one function, `engine._step`, and no module forms a product of
sums for a set: `density` and `uniqueness` use no `PauliSum` algebra.
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
PACKED_ROW_FUNCTIONS = {"_fresh_rows", "descriptor_set", "descriptor_row",
                        "component", "row_support", "_step", "apply_gate", "fold",
                        "expectations", "z_kernel", "descriptor_texts",
                        "single_averages", "row_strings",
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


def _callers(name: str) -> set[str]:
    """Every ``module:function`` in ``src`` that calls ``name``."""
    return {f"{path.name}:{where}"
            for path in MODULES
            for where, called in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")))
            if called == name}


def test_one_step_function():
    """A gate is stepped on packed rows in one place: ``engine._step`` is
    called only by ``fold`` and ``apply_gate``; no sum rewrite
    (``_rewrite``) or identity slot (``PauliSum.extended``) is applied."""
    assert _callers("_step") == {"engine.py:fold", "engine.py:apply_gate"}
    assert _callers("_rewrite") == _callers("extended") == set()


def test_analyses_use_no_sum_algebra():
    """``density`` and ``uniqueness`` read a set's rows: neither imports
    nor calls a product, an average of sums, an inner product of sums or a
    component product."""
    algebra = {"sum_mul", "vacuum_expectation", "inner_products", "component_product"}
    hits = [f"{path.name}:{where} uses {name}"
            for path in (SRC / "density.py", SRC / "uniqueness.py")
            for where, name in _names_by_function(ast.parse(path.read_text(encoding="utf-8")))
            if name in algebra]
    assert not hits


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


def test_a_set_is_its_rows():
    """A set stores its rows alone, and only ``descriptor_set`` builds one
    past the constructor, which reads descriptors into rows."""
    from dhsim.engine import DescriptorSet
    assert DescriptorSet._fields == ("n", "rows", "history")
    builders = {f"{path.name}:{where}"
                for path in MODULES
                for where, node in _nodes_by_function(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("__new__", "_make")
                and "DescriptorSet" in {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}}
    assert builders == {"engine.py:descriptor_set"}


def test_rows_read_only_by_rows_of():
    """There is no ``rows_of`` switch any more, as a set has no other form
    to fall back on: no module defines or calls ``rows_of``, and the
    ``rows`` field is read only by the functions that step, extend or read
    packed rows."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    assert not {node.name for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "rows_of"}
    assert _callers("rows_of") == set()
    readers = {f"{path.name}:{where}"
               for path in MODULES
               for where, node in _nodes_by_function(
                   ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "rows"}
    assert readers == {"engine.py:apply_gate", "engine.py:add_ancilla",
                       "engine.py:component", "engine.py:expectations",
                       "engine.py:descriptor_texts", "engine.py:single_averages",
                       "density.py:diagonal_probabilities",
                       "uniqueness.py:_signed_pair_rows", "uniqueness.py:validate_basis"}


def test_sums_read_only_by_descriptor():
    """A set's sums exist only when ``DescriptorSet.descriptor`` asks for
    them: no module reads a ``sums`` field, the one-term sum of a row is
    built only by ``DescriptorSet.component``, which ``descriptor`` calls, and ``descriptor_set``
    builds none."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    readers = {f"{name}:{where}"
               for name, tree in trees.items()
               for where, node in _nodes_by_function(tree)
               if isinstance(node, ast.Attribute) and node.attr == "sums"}
    assert readers == set()
    assert _callers("from_key") == {"engine.py:component"}
    assert "engine.py:descriptor" in _callers("component")
    assert "from_key" not in {called for where, called in _calls_by_function(
        trees["engine.py"]) if where == "descriptor_set"}
