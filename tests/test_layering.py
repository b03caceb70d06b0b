"""The package's intra-module imports form an acyclic graph that points one way.

Layers, lowest first: errors -> core_model -> feasibility / s_family ->
routing / flow_sim -> metering_opt -> render_io.  A module may import
only from a lower layer.  ``__init__`` re-exports everything and is not
a layer.
"""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xltops"

LAYER = {
    "errors": 0,
    "core_model": 1,
    "feasibility": 2,
    "s_family": 2,
    "routing": 3,
    "flow_sim": 3,
    "metering_opt": 4,
    "render_io": 5,
}

# s_family -> flow_sim: greedy_presentation_refine lives in s_family but
# scores candidates with flow_sim; the benchmark's tracer looks it up on
# s_family, so moving it next to the flow code waits for a benchmark change.
UPWARD_EXCEPTIONS = {("s_family", "flow_sim")}


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
    upward = {(m, t) for m, t in edges if LAYER[t] >= LAYER[m]}
    assert upward == UPWARD_EXCEPTIONS


def test_import_graph_is_acyclic():
    graphlib.TopologicalSorter(package_imports()).prepare()  # raises CycleError
