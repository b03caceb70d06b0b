"""The package's intra-module imports form an acyclic graph that points one way.

Layers, lowest first: errors -> core_model -> feasibility / flow_sim ->
s_family -> routing / metering_opt -> render_io.  A module may import
only from a lower layer.  ``__init__`` re-exports everything and is not
a layer.  No module keeps an import it does not read, or a private
module-level name that nothing in the package references, and every
top-level function and class, and every method and property of a
top-level class (dunders aside), is named outside its own definition:
called or read somewhere in the package, exported by ``__init__``, or
listed in ``PUBLIC_ACCESSORS``.  Outside
``core_model``, no module reads a number with ``Fraction(x)``: a number
a caller passes goes through ``core_model``'s one reader, and no module
calls the memoised readers of documents and specs, ``_read_numbers`` and
``_keyed_numbers``.  The package depends on the standard library alone:
every absolute import names a standard-library module, and importing the
package loads no numpy.
"""

import ast
import graphlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xltops"

LAYER = {
    "errors": 0,
    "core_model": 1,
    "feasibility": 2,
    "flow_sim": 2,
    "s_family": 3,
    "routing": 4,
    "metering_opt": 4,
    "render_io": 5,
}

# Read-side methods kept for the package's users, though nothing in the package calls them.
PUBLIC_ACCESSORS = frozenset({
    "AssignmentTensor.share",  # named in the README; the benchmark's oracle reads shares through it
    "GateSignTable.gates",  # one train's gate signs at one station
    "LoadProfile.load",  # the Fraction load rows; otherwise alive only by json.load's name
})


def package_trees() -> dict[str, ast.Module]:
    """Each module's parsed source, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in PACKAGE.glob("*.py")}


def package_imports() -> dict[str, set[str]]:
    """Each module's set of sibling modules named in a relative import."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        targets = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    targets.update(alias.name for alias in node.names)
                else:
                    targets.add(node.module.split(".")[0])
        graph[path.stem] = targets
    return graph


def test_every_module_has_a_layer():
    assert set(package_imports()) == set(LAYER)


def test_imports_point_down_the_layers():
    edges = {(m, t) for m, targets in package_imports().items() for t in targets}
    assert {(m, t) for m, t in edges if LAYER[t] >= LAYER[m]} == set()


def test_import_graph_is_acyclic():
    graphlib.TopologicalSorter(package_imports()).prepare()  # raises CycleError


def _reads(tree: ast.AST) -> set[str]:
    """The bare names a module reads."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _named(tree: ast.AST) -> Counter[str]:
    """How often a tree reads each name, reads it as an attribute, or imports it by name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _attributes(tree: ast.AST) -> Counter[str]:
    """How often a tree reads each name as an attribute: the only way code names a method."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _module_names(node: ast.stmt) -> list[str]:
    """The names a module-level definition or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for target in targets if target is not None
            for n in ast.walk(target) if isinstance(n, ast.Name)]


def test_no_unused_imports_or_private_names():
    """Every import is read by its module (``__init__`` re-exports, so it is exempt),
    and every module-level private name is referenced somewhere in the package."""
    trees = package_trees()
    referenced = set().union(*map(_named, trees.values()))
    unused = []
    for module, tree in sorted(trees.items()):
        reads = _reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and module != "__init__":
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in reads:
                        unused.append(f"{module}: unused import {name}")
            unused += [
                f"{module}: unreferenced {name}" for name in _module_names(node)
                if name.startswith("_") and not name.startswith("__") and name not in referenced
            ]
    assert unused == []


def _methods(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    """A class's methods and properties, dunders aside."""
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def dead_definitions(trees: dict[str, ast.Module], allowed: frozenset[str]) -> list[str]:
    """Top-level functions and classes whose name nothing reads outside their own definition,
    and methods of top-level classes, unless ``allowed`` lists them as ``Class.method``,
    whose name nothing reads as an attribute outside their own definition."""
    named, attributes = Counter(), Counter()
    for tree in trees.values():
        named.update(_named(tree))
        attributes.update(_attributes(tree))
    dead = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if named[node.name] == _named(node)[node.name]:
                    dead.append(f"{module}: {node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [f"{module}: {node.name}.{method.name}" for method in _methods(node)
                         if f"{node.name}.{method.name}" not in allowed
                         and attributes[method.name] == _attributes(method)[method.name]]
    return dead


def test_every_top_level_function_and_class_is_named_elsewhere():
    """Methods and properties too: each is read outside its definition or is a public accessor."""
    assert dead_definitions(package_trees(), PUBLIC_ACCESSORS) == []


def test_dead_definitions_reports_only_the_dead_method():
    box = ast.parse(
        "class Box:\n"
        "    def __init__(self, x):\n"
        "        self.x = x\n"
        "    def used(self):\n"
        "        return self.x\n"
        "    def dead(self):\n"
        "        return self.dead()\n"
        "    def listed(self):\n"
        "        return self.x\n"
        "def make():\n"
        "    return Box(1).used()\n"
    )
    trees = {"box": box, "__init__": ast.parse("from .box import Box, make")}
    assert dead_definitions(trees, frozenset({"Box.listed"})) == ["box: Box.dead"]
    assert dead_definitions(trees, frozenset()) == ["box: Box.dead", "box: Box.listed"]


def test_public_accessors_name_existing_methods():
    methods = {f"{node.name}.{method.name}" for tree in package_trees().values()
               for node in tree.body if isinstance(node, ast.ClassDef)
               for method in _methods(node)}
    assert PUBLIC_ACCESSORS <= methods


def test_absolute_imports_are_standard_library():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.stem}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_importing_the_package_loads_no_numpy():
    code = ("import sys, xltops; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            cwd=PACKAGE.parent, check=True, timeout=60)
    assert result.stdout == "[]\n"


def test_only_core_model_reads_a_number_into_a_fraction():
    """Outside ``core_model``, ``Fraction(...)`` with one argument takes a literal: a caller's
    number goes through ``core_model._as_fraction``, which reads floats to within 1e-9 and
    refuses booleans, and the other calls name a numerator and a denominator."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "core_model":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            arguments = [*node.args, *(k.value for k in node.keywords)]
            literal = len(arguments) == 1 and isinstance(arguments[0], ast.Constant)
            if name == "Fraction" and len(arguments) == 1 and not literal:
                reads.append(f"{path.stem}:{node.lineno}: {ast.unparse(node)}")
    assert reads == []


def test_only_core_model_calls_the_memoised_readers():
    """``_read_numbers`` and ``_keyed_numbers`` read documents and specs once, inside
    ``core_model``; elsewhere a spec's numbers are taken as it keeps them."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "core_model":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in ("_read_numbers", "_keyed_numbers"):
                    calls.append(f"{path.stem}:{node.lineno}: {ast.unparse(node)}")
    assert calls == []
