"""The package keeps only what a run or the benchmark uses.

Every module-level function and class in ``src/conicflow``, and every
method other than a dunder, must be named somewhere in the package or in
the benchmark's program files (``perfbench/*.py``) outside its own
definition.  A name counts when it is read as a variable, as an attribute,
or as a string constant (the benchmark names the functions it traces by
string); an import alone does not count, so re-exporting a name from
``__init__.py`` keeps nothing alive.  Code that only the tests call belongs
in ``tests/oracles.py``.

Only ``geometry.py`` names the Dijkstra solver and the edge-graph builder,
and it calls each once, so a state's ``distance_rows`` stay its only
distance pass.

Every SuperLU factor takes the grid's ordering and panel by keyword, so a
new factor site cannot fall back to SuperLU's own choices.
"""

import ast
from pathlib import Path

import conicflow

PACKAGE = Path(conicflow.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _definitions(tree):
    """(name, first line, last line) of each module-level def and class and
    of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of each variable read, attribute and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unreferenced_names():
    """``module:name`` of each definition that nothing outside it names."""
    files = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    refs = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(trees[path]):
            if not any(p != path or not first <= line <= last for p, line in refs.get(name, ())):
                unused.append(f"{path.stem}:{name}")
    return unused


def test_every_definition_has_a_caller_outside_the_tests():
    assert PERFBENCH.is_dir()
    assert unreferenced_names() == []


#: what a distance pass needs; only ``geometry.py`` may name them
DISTANCE_PASS = {"_csgraph_dijkstra", "_edge_graph"}


def _names(tree):
    """Each name the module reads, imports, defines or spells as a string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    yield from (name for name, _ in _references(tree))


def test_only_geometry_makes_a_distance_pass():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    naming = {mod for mod, tree in trees.items() if DISTANCE_PASS & set(_names(tree))}
    assert naming == {"geometry"}
    calls = [node.func.id for node in ast.walk(trees["geometry"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in DISTANCE_PASS]
    assert sorted(calls) == sorted(DISTANCE_PASS)


#: what every ``splu`` call in the package passes (``SphereGrid.ordering``
#: and ``SphereGrid.panel_size``, or the 1-D stepper's pre-permuted order)
FACTOR_KEYWORDS = {"permc_spec", "panel_size"}


def test_every_factor_names_its_ordering_and_panel():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                    node.func, "id", None)
                if name == "splu":
                    calls.append((path.stem, {kw.arg for kw in node.keywords}))
    assert {mod for mod, _ in calls} == {"flow", "geometry"}
    assert [mod for mod, kws in calls if not FACTOR_KEYWORDS <= kws] == []
