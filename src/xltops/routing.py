"""Minimum-transfer routing on bar charts.

A trip is a sequence of riding legs.  Each leg is served by one train
type and requires the boarding and alighting bars to share at least one
whole unit of the train on that type's chart.  Changing bars — whether
on the same train type or across types via a same-label connector —
costs one transfer, so the transfer count is the leg count minus one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import UnreachableError
from .s_family import BarChart, MultiTrainChart


@dataclass(frozen=True)
class RouteLeg:
    train: str
    board: str
    alight: str


@dataclass(frozen=True)
class RoutePlan:
    origin: str
    destination: str
    legs: tuple[RouteLeg, ...]

    @property
    def transfers(self) -> int:
        return max(0, len(self.legs) - 1)


@dataclass(frozen=True)
class ConnectivityGraph:
    """Riding edges per train type over a shared station-type universe."""

    types: tuple[str, ...]
    # (train, i, j) with i < j lexicographically, undirected
    riding_edges: frozenset[tuple[str, str, str]]
    train_labels: tuple[str, ...]

    def neighbors(self, station_type: str) -> list[tuple[str, str]]:
        """(train, other type) pairs reachable in one riding leg."""
        out = []
        for train, i, j in sorted(self.riding_edges):
            if i == station_type:
                out.append((train, j))
            elif j == station_type:
                out.append((train, i))
        return out

    def has_edge(self, train: str, a: str, b: str) -> bool:
        i, j = sorted((a, b))
        return (train, i, j) in self.riding_edges


def build_graph(chart: BarChart | MultiTrainChart) -> ConnectivityGraph:
    """Riding edges are bar pairs overlapping by >= 1 whole unit.

    Same-label connectors across train types need no explicit edges:
    paths may switch train type freely at any station type, and only
    boardings are counted.
    """
    if isinstance(chart, BarChart):
        charts = (("1", chart),)
    else:
        charts = chart.charts
    types = charts[0][1].labels()
    edges = set()
    for train, c in charts:
        for a in range(len(types)):
            for b in range(a + 1, len(types)):
                i, j = sorted((types[a], types[b]))
                if c.pair_overlap(i, j) >= 1:
                    edges.add((train, i, j))
    return ConnectivityGraph(
        types=types,
        riding_edges=frozenset(edges),
        train_labels=tuple(train for train, _ in charts),
    )


def min_transfers(graph: ConnectivityGraph, origin: str, destination: str) -> int:
    """Fewest transfers between two station types; 0 for the same type."""
    if origin not in graph.types or destination not in graph.types:
        raise KeyError(f"unknown station type in ({origin!r}, {destination!r})")
    if origin == destination:
        return 0
    dist = {origin: 0}
    queue = deque([origin])
    while queue:
        node = queue.popleft()
        if node == destination:
            return dist[node] - 1
        for _, other in graph.neighbors(node):
            if other not in dist:
                dist[other] = dist[node] + 1
                queue.append(other)
    raise UnreachableError(f"no route from {origin} to {destination}")


def optimal_plans(
    graph: ConnectivityGraph, origin: str, destination: str
) -> tuple[RoutePlan, ...]:
    """Every distinct minimum-transfer plan, including train-type choices."""
    if origin == destination:
        return (RoutePlan(origin, destination, ()),)
    best = min_transfers(graph, origin, destination)  # raises if unreachable
    target_legs = best + 1

    plans: list[RoutePlan] = []

    def extend(at: str, legs: tuple[RouteLeg, ...]) -> None:
        if at == destination and legs:
            plans.append(RoutePlan(origin, destination, legs))
            return
        if len(legs) == target_legs:
            return
        visited = {origin} | {leg.alight for leg in legs}
        for train, other in graph.neighbors(at):
            if other not in visited:
                extend(other, legs + (RouteLeg(train, at, other),))

    extend(origin, ())
    return tuple(sorted(plans, key=lambda p: tuple((l.board, l.alight, l.train) for l in p.legs)))


def transfer_matrix(graph: ConnectivityGraph) -> dict[tuple[str, str], int]:
    """min_transfers over every ordered type pair."""
    return {
        (i, j): min_transfers(graph, i, j)
        for i in graph.types
        for j in graph.types
    }


def matrix_worst_pair(
    matrix: dict[tuple[str, str], int]
) -> tuple[tuple[str, str], int]:
    """Hardest ordered pair of a transfer matrix (lexicographically smallest witness)."""
    worst = max(matrix.values())
    witness = min(pair for pair, t in matrix.items() if t == worst)
    return witness, worst


def worst_pair(graph: ConnectivityGraph) -> tuple[tuple[str, str], int]:
    """Hardest ordered pair (lexicographically smallest witness) and its cost."""
    return matrix_worst_pair(transfer_matrix(graph))  # raises UnreachableError if disconnected
