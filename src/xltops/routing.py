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
from functools import cached_property

from .errors import UnknownStationType, UnreachableError
from .s_family import BarChart, MultiTrainChart, as_multichart


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

    @cached_property
    def _adjacency(self) -> dict[str, list[tuple[str, str]]]:
        """Each type's (train, other type) pairs, in sorted edge order; [] if isolated."""
        adjacency: dict[str, list[tuple[str, str]]] = {t: [] for t in self.types}
        for train, i, j in sorted(self.riding_edges):
            adjacency.setdefault(i, []).append((train, j))
            adjacency.setdefault(j, []).append((train, i))
        return adjacency

    def _adjacent(self, station_type: str) -> list[tuple[str, str]]:
        try:
            return self._adjacency[station_type]
        except KeyError:
            raise UnknownStationType(f"unknown station type {station_type!r}") from None

    def neighbors(self, station_type: str) -> list[tuple[str, str]]:
        """(train, other type) pairs reachable in one riding leg."""
        return list(self._adjacent(station_type))

    def distances(self, origin: str) -> dict[str, int]:
        """Fewest riding legs from ``origin`` to every type it reaches."""
        self._adjacent(origin)  # UnknownStationType for a type the graph lacks
        adjacency = self._adjacency
        dist = {origin: 0}
        queue = deque([origin])
        while queue:
            node = queue.popleft()
            for _, other in adjacency[node]:
                if other not in dist:
                    dist[other] = dist[node] + 1
                    queue.append(other)
        return dist


def build_graph(chart: BarChart | MultiTrainChart) -> ConnectivityGraph:
    """Riding edges are bar pairs overlapping by >= 1 whole unit.

    Each train's unskipped bars are sorted by their span clipped to
    [0, M], and each bar is paired with the later bars that start at
    least one unit before it ends; the scan stops at the first later bar
    that does not, as every bar after it starts later still.  No overlap
    test is needed: an unskipped bar of a valid chart with M >= 1 covers
    a unit, so a later bar that starts before this one ends shares its
    own first unit with it (and with M <= 0 no bar ends above 0).

    Same-label connectors across train types need no explicit edges:
    paths may switch train type freely at any station type, and only
    boardings are counted.
    """
    charts = as_multichart(chart).charts
    types = charts[0][1].labels()
    edges = set()
    for train, c in charts:
        M = c.M
        spans = sorted(
            (max(bar.b - bar.d, 0), min(bar.b, M), bar.label) for bar in c.bars if not bar.skipped
        )
        for a, (_, hi, i) in enumerate(spans):
            for lo2, _, j in spans[a + 1 :]:
                if lo2 > hi - 1:
                    break
                edges.add((train, i, j) if i < j else (train, j, i))
    return ConnectivityGraph(
        types=types,
        riding_edges=frozenset(edges),
        train_labels=tuple(train for train, _ in charts),
    )


def _check_types(graph: ConnectivityGraph, origin: str, destination: str) -> None:
    if origin not in graph.types or destination not in graph.types:
        raise UnknownStationType(f"unknown station type in ({origin!r}, {destination!r})")


def min_transfers(graph: ConnectivityGraph, origin: str, destination: str) -> int:
    """Fewest transfers between two station types; 0 for the same type."""
    _check_types(graph, origin, destination)
    if origin == destination:
        return 0
    legs = graph.distances(origin).get(destination)
    if legs is None:
        raise UnreachableError(f"no route from {origin} to {destination}")
    return legs - 1


def optimal_plans(
    graph: ConnectivityGraph, origin: str, destination: str
) -> tuple[RoutePlan, ...]:
    """Every distinct minimum-transfer plan, including train-type choices.

    One BFS from the destination gives each type's legs to go; a plan
    only ever steps to a neighbour one leg closer, so the search walks
    the shortest-path DAG and every branch it takes ends in a plan.
    """
    _check_types(graph, origin, destination)
    if origin == destination:
        return (RoutePlan(origin, destination, ()),)
    to_go = graph.distances(destination)
    if origin not in to_go:
        raise UnreachableError(f"no route from {origin} to {destination}")

    plans: list[RoutePlan] = []

    def extend(at: str, legs: tuple[RouteLeg, ...]) -> None:
        if at == destination:
            plans.append(RoutePlan(origin, destination, legs))
            return
        closer = to_go[at] - 1
        for train, other in graph.neighbors(at):
            if to_go.get(other) == closer:
                extend(other, legs + (RouteLeg(train, at, other),))

    extend(origin, ())
    return tuple(sorted(plans, key=lambda p: tuple((l.board, l.alight, l.train) for l in p.legs)))


def transfer_matrix(graph: ConnectivityGraph) -> dict[tuple[str, str], int]:
    """min_transfers over every ordered type pair, from one BFS per origin."""
    matrix = {}
    for i in graph.types:
        legs = graph.distances(i)
        for j in graph.types:
            if j not in legs:
                raise UnreachableError(f"no route from {i} to {j}")
            matrix[(i, j)] = max(0, legs[j] - 1)
    return matrix


def matrix_worst_pair(
    matrix: dict[tuple[str, str], int]
) -> tuple[tuple[str, str], int]:
    """Hardest ordered pair of a transfer matrix (lexicographically smallest witness)."""
    worst = max(matrix.values())
    witness = min(pair for pair, t in matrix.items() if t == worst)
    return witness, worst
