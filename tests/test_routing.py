"""Minimum-transfer routing: edges, paths, plans and the step-path oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xltops import (
    Bar,
    BarChart,
    build_ftr3,
    build_graph,
    build_s52_2,
    generate_s,
    matrix_worst_pair,
    min_transfers,
    optimal_plans,
    transfer_matrix,
)
from xltops.errors import UnknownStationType, UnreachableError
from xltops.routing import ConnectivityGraph
from xltops.s_family import MultiTrainChart

from conftest import (
    oracle_min_transfers,
    oracle_optimal_plans,
    oracle_pair_overlap,
    seed_from_env,
)


def test_staggered_chart_edge_set(fig4_routing_chart):
    graph = build_graph(fig4_routing_chart)
    present = {("A", "B"), ("B", "C"), ("B", "D"), ("C", "D")}
    absent = {("A", "C"), ("A", "D")}
    for i, j in present:
        assert ("1", i, j) in graph.riding_edges
    for i, j in absent:
        assert ("1", i, j) not in graph.riding_edges


def test_staggered_chart_transfer_counts(fig4_routing_chart):
    graph = build_graph(fig4_routing_chart)
    assert min_transfers(graph, "A", "D") == 1
    assert min_transfers(graph, "A", "C") == 1
    assert min_transfers(graph, "B", "D") == 0
    plans = optimal_plans(graph, "A", "D")
    assert all(plan.transfers == 1 for plan in plans)
    assert [(leg.board, leg.alight) for leg in plans[0].legs] == [("A", "B"), ("B", "D")]


def test_single_type_chart_has_no_edges():
    graph = build_graph(BarChart(M=4, bars=(Bar("A", 4, 4),)))
    assert not graph.riding_edges
    assert min_transfers(graph, "A", "A") == 0


def test_same_type_is_always_zero_transfers():
    graph = build_graph(generate_s(5, 2, 4))
    for label in graph.types:
        assert min_transfers(graph, label, label) == 0
        (plan,) = optimal_plans(graph, label, label)
        assert plan.legs == ()


def test_unreachable_pair_raises():
    chart = BarChart(M=8, bars=(Bar("A", 4, 4), Bar("B", 0, 4)))
    graph = build_graph(chart)
    with pytest.raises(UnreachableError):
        min_transfers(graph, "A", "B")
    with pytest.raises(UnreachableError):
        matrix_worst_pair(transfer_matrix(graph))
    with pytest.raises(KeyError):
        min_transfers(graph, "A", "Z")


def test_worst_pair_witness_is_lexicographically_smallest():
    graph = build_graph(generate_s(5, 2, 4))
    pair, worst = matrix_worst_pair(transfer_matrix(graph))
    matrix = transfer_matrix(graph)
    assert worst == max(matrix.values())
    assert pair == min(p for p, t in matrix.items() if t == worst)


def test_s52_single_chart_worst_is_three():
    graph = build_graph(build_s52_2().chart("1"))
    assert matrix_worst_pair(transfer_matrix(graph))[1] == 3


def test_s52_pair_worst_is_one_with_two_a_to_e_plans():
    graph = build_graph(build_s52_2())
    assert matrix_worst_pair(transfer_matrix(graph))[1] == 1
    plans = optimal_plans(graph, "A", "E")
    routes = {tuple((l.train, l.board, l.alight) for l in p.legs) for p in plans}
    assert routes == {
        (("1", "A", "B"), ("2", "B", "E")),
        (("2", "A", "D"), ("1", "D", "E")),
    }


def test_ftr3_union_is_fully_connected_without_transfers():
    graph = build_graph(build_ftr3())
    matrix = transfer_matrix(graph)
    assert set(matrix.values()) == {0}


def test_connectors_only_appear_through_shared_labels():
    # the two S(5,2) charts connect only via same-label columns: a trip
    # using both trains must pass through a type both serve (all of them here)
    graph = build_graph(build_s52_2())
    for plan in optimal_plans(graph, "A", "E"):
        for prev, nxt in zip(plan.legs, plan.legs[1:]):
            assert prev.alight == nxt.board


@given(st.integers(min_value=2, max_value=7))
@settings(deadline=None)
def test_symmetry_of_min_transfers(C):
    chart = generate_s(C, 2, 4)
    graph = build_graph(chart)
    for i in graph.types:
        for j in graph.types:
            assert min_transfers(graph, i, j) == min_transfers(graph, j, i)


def test_triangle_property_on_random_charts():
    rng = random.Random(seed_from_env() + 3)
    for _ in range(50):
        C = rng.randint(2, 5)
        d = rng.randint(2, 6)
        M = rng.randint(d, d + 8)
        labels = [chr(ord("A") + i) for i in range(C)]
        chart = BarChart(
            M=M,
            bars=tuple(Bar(lab, rng.randint(1, M + d - 1), d) for lab in labels),
        )
        graph = build_graph(chart)
        try:
            matrix = transfer_matrix(graph)
        except UnreachableError:
            continue
        for i in labels:
            for j in labels:
                for m in labels:
                    assert matrix[(i, j)] <= matrix[(i, m)] + matrix[(m, j)] + 1


def test_random_charts_match_step_path_oracle():
    rng = random.Random(seed_from_env() + 4)
    for _ in range(60):
        C = rng.randint(2, 5)
        d = rng.randint(2, 5)
        M = rng.randint(d, d + 6)
        labels = [chr(ord("A") + i) for i in range(C)]
        bars = tuple(
            Bar(lab, rng.choice([0, rng.randint(1, M + d - 1)]), d) for lab in labels
        )
        chart = BarChart(M=M, bars=bars)
        graph = build_graph(chart)
        for i in labels:
            for j in labels:
                expected = oracle_min_transfers([("1", chart)], i, j)
                if expected is None:
                    with pytest.raises(UnreachableError):
                        min_transfers(graph, i, j)
                else:
                    assert min_transfers(graph, i, j) == expected


@pytest.mark.parametrize("origin,destination", [("Z", "Z"), ("A", "Z")])
def test_unknown_station_type_raises_typed_error(origin, destination):
    graph = build_graph(generate_s(3, 2, 4))
    with pytest.raises(UnknownStationType):
        min_transfers(graph, origin, destination)
    with pytest.raises(UnknownStationType):
        optimal_plans(graph, origin, destination)


def test_unknown_type_has_no_distances_or_neighbors():
    graph = build_graph(BarChart(M=8, bars=(Bar("A", 4, 4), Bar("B", 6, 4), Bar("C", 0, 4))))
    for call in (graph.distances, graph.neighbors):
        with pytest.raises(UnknownStationType):
            call("ZZ")
    # a type the graph has but no bar reaches is isolated, not unknown
    assert graph.distances("C") == {"C": 0}
    assert graph.neighbors("C") == []
    assert graph.distances("A") == {"A": 0, "B": 1}
    assert graph.neighbors("A") == [("1", "B")]


def _random_bars(rng, labels, M):
    """Bars over one universe, mixing the shapes a sweep over spans could get wrong."""
    bars = []
    for label in labels:
        d = rng.randint(1, 6)
        shape = rng.choice(["skip", "low", "high", "any", "copy", "same start"])
        if shape == "skip" or M + d - 1 < 1:
            b = 0
        elif shape == "low":  # clipped at 0
            b = rng.randint(1, min(d, M + d - 1))
        elif shape == "high":  # clipped at M
            b = rng.randint(max(1, M), M + d - 1)
        elif shape in ("copy", "same start") and bars and bars[-1].b:
            prev = bars[-1]
            if shape == "copy":  # nested in, or equal to, the bar before
                d = rng.randint(1, prev.d)
                b = rng.randint(prev.b - prev.d + d, prev.b)
            else:  # starts at the same unit as the bar before
                b = prev.b - prev.d + d
            if not 1 <= b <= M + d - 1:
                b = 0
        else:
            b = rng.randint(1, M + d - 1)
        bars.append(Bar(label, b, d))
    rng.shuffle(bars)
    return tuple(bars)


def _random_multichart(rng):
    C = rng.randint(1, 9)
    labels = [f"T{c}" for c in rng.sample(range(40), C)]
    if rng.random() < 0.25:  # a D <= 1 step puts every bar past the one below it
        base = generate_s(C, rng.choice([Fraction(1), Fraction(1, 2), Fraction(2, 3)]), 2)
        M = int(base.M)
        bars = [Bar(label, int(bar.b), bar.d) for label, bar in zip(labels, base.bars)]
        charts = [tuple(rng.sample(bars, C))]
        charts += [_random_bars(rng, labels, M) for _ in range(rng.randint(0, 2))]
    else:
        M = rng.choice([0, 1, 2, rng.randint(3, 12)])  # M = 0 bars cover no unit
        charts = [_random_bars(rng, labels, M) for _ in range(rng.randint(1, 3))]
    trains = [str(k + 1) for k in range(len(charts))]
    return MultiTrainChart(
        charts=tuple((train, BarChart(M=M, bars=bars)) for train, bars in zip(trains, charts)),
        rotation=tuple(trains),
    )


def _all_pairs_graph(multichart):
    types = multichart.charts[0][1].labels()
    edges = {
        (train, *sorted((x, y)))
        for train, chart in multichart.charts
        for a, x in enumerate(types)
        for y in types[a + 1 :]
        if oracle_pair_overlap(chart, x, y) >= 1
    }
    return ConnectivityGraph(
        types=types,
        riding_edges=frozenset(edges),
        train_labels=tuple(train for train, _ in multichart.charts),
    )


def test_riding_edges_match_the_all_pairs_rule():
    rng = random.Random(seed_from_env() + 5)
    edges = 0
    for _ in range(200):
        multichart = _random_multichart(rng)
        graph = build_graph(multichart)
        assert graph == _all_pairs_graph(multichart)
        edges += len(graph.riding_edges)
    assert edges > 1000


@pytest.mark.parametrize("M", [0, -1])
def test_bars_of_a_train_without_units_share_none(M):
    chart = BarChart(M=M, bars=(Bar("A", 1, 4), Bar("B", 2, 4), Bar("C", 1, 3)))
    assert build_graph(chart).riding_edges == frozenset()


def _plan_legs(plans):
    return [tuple((l.train, l.board, l.alight) for l in p.legs) for p in plans]


def _assert_plans_match_oracle(chart):
    charts = [("1", chart)] if isinstance(chart, BarChart) else list(chart.charts)
    graph = build_graph(chart)
    for i in graph.types:
        for j in graph.types:
            expected = oracle_optimal_plans(charts, i, j)
            if expected is None:
                with pytest.raises(UnreachableError):
                    optimal_plans(graph, i, j)
            else:
                assert _plan_legs(optimal_plans(graph, i, j)) == expected


def test_random_charts_match_plan_enumeration_oracle():
    rng = random.Random(seed_from_env() + 5)
    for _ in range(60):
        C = rng.randint(2, 6)
        d = rng.randint(2, 5)
        M = rng.randint(d, d + 6)
        labels = [chr(ord("A") + i) for i in range(C)]
        bars = tuple(
            Bar(lab, rng.choice([0, rng.randint(1, M + d - 1)]), d) for lab in labels
        )
        _assert_plans_match_oracle(BarChart(M=M, bars=bars))


@pytest.mark.parametrize("D", [Fraction(2), Fraction(3), Fraction(5, 2)])
@pytest.mark.parametrize("C", range(2, 11))
def test_s_family_plans_match_plan_enumeration_oracle(C, D):
    _assert_plans_match_oracle(generate_s(C, D, D.numerator))


@pytest.mark.parametrize("build", [build_s52_2, build_ftr3])
def test_multi_train_plans_match_plan_enumeration_oracle(build):
    _assert_plans_match_oracle(build())


def test_s60_3_transfers_and_worst_pair_plans():
    # reach strict_floor(3) = 2 bars per leg, so |i - j| bars apart take
    # ceil(|i - j| / 2) legs; the 59 bars between the end types split into
    # 30 legs of 1 or 2 bars in exactly 30 ways
    chart = generate_s(60, 3, 3)
    graph = build_graph(chart)
    position = {label: n for n, label in enumerate(chart.labels())}
    matrix = transfer_matrix(graph)
    for (i, j), transfers in matrix.items():
        gap = abs(position[i] - position[j])
        assert transfers == (-(-gap // 2) - 1 if gap else 0)
    (origin, destination), worst = matrix_worst_pair(transfer_matrix(graph))
    assert worst == 29
    assert {position[origin], position[destination]} == {0, 59}
    plans = optimal_plans(graph, origin, destination)
    assert len(plans) == 30
    assert all(plan.transfers == 29 for plan in plans)
