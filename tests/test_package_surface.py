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
and it has one call site of each, so a state's ``distance_rows`` stay its
only distance pass: one edge graph, the marked rows always, and an axis
row only when the triangle bound cannot rule it out of the diameter.

Only ``soliton.soliton_profile`` calls ``solve_c``, so cone weights reach
c by one route, and every soliton is the ``SolitonSpec`` it returns.

Only ``flow.run_background`` calls ``geometry.background_metric``, so a run
and a report on it build their background by one route.

Every SuperLU factor takes its ordering and panel by keyword, so a new
factor site cannot fall back to SuperLU's own choices.

The modules import one another in one order, marked_sphere < soliton <
geometry < functionals < diagnostics < flow < cli, with no deferred
import to break a cycle; only ``__init__.py`` stands outside it.

No module imports ``scipy.optimize``: the soliton's root-finder is the
package's own, and the import alone costs ~15 MB of resident memory.

No module imports ``warnings``: the package raises no warning for a caller
to silence, and ``soliton-table`` prints its caveats itself.

Only ``flow._ImplicitStepper`` trims the C heap: once in ``__init__``, after
the order probe, and once in ``_factor``, under a guard on
``floor_above_target``, so a trim on every step cannot come back unnoticed.

The 1-D and 2-D grids share one code path except in a fixed set of
definitions, each with its reason, so a new fork on the grid's kind cannot
come in unnoticed.
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
#: or the stepper's pre-permuted order, and ``geometry.PANEL_SIZE``)
FACTOR_KEYWORDS = {"permc_spec", "panel_size"}


def _calls(tree, name):
    """Each call of ``name``, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                yield node


def test_every_factor_names_its_ordering_and_panel():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _calls(ast.parse(path.read_text()), "splu"):
            calls.append((path.stem, {kw.arg for kw in node.keywords}))
    assert {mod for mod, _ in calls} == {"flow", "geometry"}
    assert [mod for mod, kws in calls if not FACTOR_KEYWORDS <= kws] == []


#: the package's modules, each importing only modules to its left
LAYERS = ("marked_sphere", "soliton", "geometry", "functionals", "diagnostics", "flow", "cli")


def _package_imports(tree):
    """(line, module) of each import of a package module, at any depth; an
    import from the package itself (``from . import __version__``) names
    ``__init__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("conicflow."):
                    yield node.lineno, alias.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level and parts[0] != "conicflow":
                continue
            module = parts[0] if node.level else (parts + [""])[1]
            if module:
                yield node.lineno, module
            else:
                for alias in node.names:
                    yield node.lineno, alias.name if alias.name in LAYERS else "__init__"


def test_imports_form_the_layer_order():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(LAYERS) | {"__init__"}
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        rank = LAYERS.index(path.stem)
        for line, module in _package_imports(ast.parse(path.read_text())):
            if module != "__init__" and LAYERS.index(module) >= rank:
                upward.append(f"{path.stem}:{line} imports {module}")
    assert upward == []


def test_only_soliton_profile_solves_for_c():
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for call in _calls(tree, "solve_c"):
            sites += [f"{path.stem}:{name}" for name, first, last in _definitions(tree)
                      if first <= call.lineno <= last]
    assert sites == ["soliton:soliton_profile"]


def test_only_run_background_builds_a_background():
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for call in _calls(tree, "background_metric"):
            sites += [f"{path.stem}:{name}" for name, first, last in _definitions(tree)
                      if first <= call.lineno <= last]
    assert sites == ["flow:run_background"]


def _imported_modules(tree):
    """Dotted name of each module an import names, at any depth
    (``from scipy import optimize`` names ``scipy.optimize``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_scipy_optimize():
    importing = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if any(name == "scipy.optimize" or name.startswith("scipy.optimize.")
               for name in _imported_modules(ast.parse(path.read_text())))
    ]
    assert importing == []


def test_no_module_imports_warnings():
    importing = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if "warnings" in _imported_modules(ast.parse(path.read_text()))
    ]
    assert importing == []


def _guards(scope, node):
    """Each name read by the test of an ``if`` in ``scope`` around ``node``."""
    for branch in ast.walk(scope):
        if isinstance(branch, ast.If) and any(n is node for b in branch.body for n in ast.walk(b)):
            yield from (name for name, _ in _references(branch.test))


def test_only_the_stepper_trims_the_heap():
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for name in ("malloc_trim", "_malloc_trim"):
            for call in _calls(tree, name):
                scope = [(method, fn) for method, fn in methods
                         if fn.lineno <= call.lineno <= fn.end_lineno]
                method, fn = scope[0] if scope else (call.lineno, tree)
                sites.append((f"{path.stem}:{method}", "floor_above_target" in _guards(fn, call)))
    # the trim before a factorization stops once the floor rule has fired
    assert sorted(sites) == [("flow:_ImplicitStepper.__init__", False),
                             ("flow:_ImplicitStepper._factor", True)]


#: the definitions that fork on the grid's kind, each for its reason
GRID_KIND_FORKS = [
    "diagnostics:_residual_floor",  # the sampled-profile floor (ROADMAP item 5)
    "flow:FlowConfig.axisymmetric",  # perfbench builds either grid
    "flow:_initial_field",  # the bump sits on the axis
    "flow:run_background",  # perfbench builds either grid
    "geometry:SphereGrid.ground_solve",  # the 1-D LU keeps the axis round-off
    "geometry:SphereGrid.ordering",  # COLAMD keeps the 1-D round-off
    "geometry:_assemble_grid",  # the 1-D grid has no zonal links or diagonals
]


def _is_n_lon(node):
    return (isinstance(node, ast.Name) and node.id == "n_lon") or (
        isinstance(node, ast.Attribute) and node.attr == "n_lon")


def _grid_kind_tests(tree):
    """(line) of each comparison of ``n_lon`` against 1 and each read of
    ``.axisymmetric``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_is_n_lon(x) for x in operands) and any(
                    isinstance(x, ast.Constant) and x.value == 1 for x in operands):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "axisymmetric":
            yield node.lineno


def test_grid_kind_forks_are_the_known_ones():
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(f"{cls.name}.{fn.name}", fn.lineno, fn.end_lineno) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) for fn in cls.body
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        scopes += list(_definitions(tree))
        for line in _grid_kind_tests(tree):
            # the innermost definition around the site: a method before its class
            name = next((name for name, first, last in scopes if first <= line <= last), line)
            sites.add(f"{path.stem}:{name}")
    assert sorted(sites) == GRID_KIND_FORKS
