"""Step-family charts, closed-form formulas and multi-train constructions."""

import hashlib
import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import xltops.flow_sim as flow_sim
import xltops.routing as routing
from xltops import (
    Bar,
    BarChart,
    MultiTrainChart,
    SFamilySpec,
    build_ftr3,
    build_s52_2,
    chart_from_json,
    chart_to_json,
    chart_to_protocol,
    check,
    compose_skip_stop,
    fr_i,
    generate_s,
    greedy_presentation_refine,
    max_connected_classes,
    max_length_with_transfers,
    spec_to_json,
    stops_per_train,
    strict_floor,
    train_length_ratio,
    worst_case_transfers,
)
from xltops.errors import (
    DimensionMismatch,
    NonIntegralStep,
    SubsetCoverage,
    UnreachableError,
)
from xltops.s_family import FTR3_GROUPS

from conftest import make_line, oracle_min_transfers


SWEEP_D = [Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4)]


def integral_d(D: Fraction) -> int:
    """Smallest platform length making the step h = d/D a whole unit."""
    return D.numerator


# ---------------------------------------------------------------------------
# strict_floor and the chart generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "D,expected",
    [(Fraction(1, 2), 0), (1, 0), (Fraction(3, 2), 1), (2, 1), (Fraction(5, 2), 2), (3, 2), (4, 3)],
)
def test_strict_floor_values(D, expected):
    assert strict_floor(D) == expected


@given(st.fractions(min_value=Fraction(1, 100), max_value=100))
def test_strict_floor_is_largest_natural_strictly_below(D):
    sf = strict_floor(D)
    assert sf >= 0 and sf < D
    assert sf + 1 >= D


def test_generate_s_3_2_geometry():
    chart = generate_s(3, 2, 4)
    assert chart.M == 8
    assert {bar.label: bar.b for bar in chart.bars} == {"A": 4, "B": 6, "C": 8}
    assert all(bar.d == 4 for bar in chart.bars)


def test_generate_s_rejects_fractional_steps():
    with pytest.raises(NonIntegralStep):
        generate_s(3, Fraction(3, 2), 4)  # h = 8/3 units
    # a single type never needs a step
    assert generate_s(1, Fraction(3, 2), 4).M == 4


def test_sfamily_spec_derived_quantities():
    params = SFamilySpec(C=5, D=Fraction(2), d=4)
    assert params.h == 2 and params.M == 12
    assert generate_s(params.C, params.D, params.d).M == 12


def test_bar_chart_validation():
    with pytest.raises(DimensionMismatch):
        BarChart(M=4, bars=(Bar("A", 4, 4), Bar("A", 2, 4)))
    with pytest.raises(DimensionMismatch):
        Bar("A", 4, 0) and BarChart(M=4, bars=(Bar("A", 4, 0),))
    skipped = BarChart(M=4, bars=(Bar("A", 0, 4),))
    assert skipped.overlap("A") == 0 and skipped.covered_units("A") == ()


# ---------------------------------------------------------------------------
# Closed-form formulas against their values and the chart oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "C,D,expected",
    [(2, 2, Fraction(3, 2)), (3, 2, 2), (3, 3, Fraction(5, 3)), (7, 4, Fraction(5, 2)), (5, 2, 3)],
)
def test_train_length_ratio_values(C, D, expected):
    assert train_length_ratio(C, Fraction(D)) == expected


@pytest.mark.parametrize("T,D,expected", [(0, 2, 2), (1, 4, 7), (0, 3, 3)])
def test_max_connected_classes_values(T, D, expected):
    assert max_connected_classes(T, Fraction(D)) == expected


@pytest.mark.parametrize("C,D,expected", [(5, 2, 3), (3, 2, 1), (3, 3, 0), (7, 4, 1)])
def test_worst_case_transfers_values(C, D, expected):
    assert worst_case_transfers(C, Fraction(D)) == expected


def test_worst_case_transfers_unreachable_without_overlap():
    with pytest.raises(UnreachableError):
        worst_case_transfers(2, 1)  # bars touch but never overlap


def test_max_length_with_transfers_values():
    assert max_length_with_transfers(1, Fraction(2)) == 2
    assert max_length_with_transfers(0, Fraction(2)) == Fraction(3, 2)


def capacity_report_against(reference_units):
    spec, line = fr_i(), make_line(("R", "F"), [[0, 1], [0, 0]])
    profile = flow_sim.simulate_loads(flow_sim.build_assignment(spec, line), [1, 0], line,
                                      flow_sim.section_capacities(spec))
    return flow_sim.capacity_report(profile, spec, line, reference_units=reference_units)


@pytest.mark.parametrize(
    "call",
    [
        lambda: generate_s(3.0, 2, 4),
        lambda: generate_s(3, 2, 4.0),
        lambda: BarChart(M=8, bars=(Bar("A", 2.5, 4),)),
        lambda: BarChart(M=8, bars=(Bar("A", 4, "4"),)),
        lambda: BarChart(M=8.0, bars=(Bar("A", 4, 4),)),
        lambda: max_length_with_transfers(-3, 2),
        lambda: max_length_with_transfers(1, 0),
        lambda: max_connected_classes(1, 0),
        lambda: max_connected_classes(-1, 2),
        lambda: max_connected_classes(0.5, 2),
        lambda: capacity_report_against(0),
        lambda: capacity_report_against(-8),
        lambda: train_length_ratio(2.5, 2),
        lambda: train_length_ratio(True, 2),
        lambda: worst_case_transfers(2.5, 2),
        lambda: worst_case_transfers(True, 2),
        lambda: worst_case_transfers(3, 0),
        lambda: worst_case_transfers(1, -1),
    ],
    ids=["generate_s-C", "generate_s-d", "bar-b", "bar-d", "chart-M", "length-T", "length-D",
         "classes-D", "classes-T", "classes-fractional-T", "report-zero", "report-negative",
         "ratio-fractional-C", "ratio-boolean-C", "transfers-fractional-C", "transfers-boolean-C",
         "transfers-zero-D", "transfers-one-class-negative-D"],
)
def test_geometry_and_closed_forms_refuse_bad_input(call):
    with pytest.raises(DimensionMismatch):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: train_length_ratio(3, float("nan")),
        lambda: worst_case_transfers(3, "x"),
        lambda: max_connected_classes(1, float("inf")),
        lambda: max_length_with_transfers(1, float("-inf")),
        lambda: train_length_ratio(3, None),
    ],
    ids=["ratio-nan", "transfers-string", "classes-infinite", "length-minus-infinity",
         "ratio-none"],
)
def test_closed_forms_refuse_a_d_that_is_no_finite_number(call):
    """D is read once; a NaN, an infinity or a non-number is a DimensionMismatch,
    not the ValueError, OverflowError or TypeError of ``Fraction(D)``."""
    with pytest.raises(DimensionMismatch, match="D > 0"):
        call()


@pytest.mark.parametrize("D", SWEEP_D)
@pytest.mark.parametrize("C", range(1, 9))
def test_formula_sweep_matches_chart_enumeration(C, D):
    d = integral_d(D)
    chart = generate_s(C, D, d)
    assert Fraction(chart.M, d) == train_length_ratio(C, D)
    graph = routing.build_graph(chart)
    _, worst = routing.matrix_worst_pair(routing.transfer_matrix(graph))
    assert worst == worst_case_transfers(C, D)
    # the formula triple agrees: smallest T whose reach covers C types
    by_reach = next(T for T in range(C + 1) if max_connected_classes(T, D) >= C)
    assert worst == by_reach
    # strict train-length bound in worst-case transfers
    assert chart.M < (2 + worst) * d
    assert max_length_with_transfers(worst, D) < 2 + worst


# ---------------------------------------------------------------------------
# Multi-train constructions
# ---------------------------------------------------------------------------


def test_ftr3_groups_pair_every_subtype_combination():
    seen = set()
    for groups in FTR3_GROUPS.values():
        assert groups["F"][0] == "A" or "A" in groups["F"]
        seen.add(frozenset(groups["F"]))
        seen.add(frozenset(groups["R"]))
    # the three F-groups partition the 2-subsets containing A
    assert {frozenset(g) for g in (("A", "B"), ("A", "C"), ("A", "D"))} <= seen


def test_ftr3_charts_follow_s32_geometry():
    mtc = build_ftr3()
    assert mtc.M == 8 and len(mtc.charts) == 3
    for _, chart in mtc.charts:
        assert sorted(chart.labels()) == ["A", "B", "C", "D", "T"]
        assert sorted(bar.b for bar in chart.bars) == [4, 4, 6, 8, 8]


def test_s52_2_swaps_middle_bars():
    mtc = build_s52_2()
    one, two = mtc.chart("1"), mtc.chart("2")
    assert one.bar("B").b == 10 and two.bar("B").b == 6
    assert one.bar("D").b == 6 and two.bar("D").b == 10
    for label in ("A", "C", "E"):
        assert one.bar(label).b == two.bar(label).b


def test_multichart_requires_shared_geometry():
    a = generate_s(3, 2, 4)
    b = generate_s(3, 3, 3)
    with pytest.raises(DimensionMismatch):
        MultiTrainChart(charts=(("1", a), ("2", b)), rotation=("1", "2"))
    with pytest.raises(DimensionMismatch):
        MultiTrainChart(charts=(("1", a),), rotation=("1", "2"))
    with pytest.raises(DimensionMismatch, match="train labels must be unique"):
        MultiTrainChart(charts=(("1", a), ("1", a)), rotation=("1",))


def test_multichart_refuses_a_string_rotation():
    a, b = generate_s(3, 2, 4), generate_s(3, 2, 4)
    with pytest.raises(DimensionMismatch, match="not the string '12'"):
        MultiTrainChart(charts=(("1", a), ("2", b)), rotation="12")
    assert MultiTrainChart(charts=(("1", a), ("2", b)), rotation=["2", "1"]).rotation == ("2", "1")


# ---------------------------------------------------------------------------
# Skip-stop composition
# ---------------------------------------------------------------------------

FIG8_SHORT = ["T", "A", "B", "A", "B"] * 3

FIG8_LONG = (
    ["D", "C", "D", "C", "D", "C", "D"]
    + ["T"]
    + ["A", "B", "A", "B", "A", "B"]
    + ["T"]
    + ["C", "D", "C", "D", "C", "D"]
    + ["T"]
    + ["A", "B", "A", "B", "A", "B", "A"]
)


def test_skip_stop_two_trains_fifteen_stations():
    base = generate_s(2, 2, 4)
    mtc = compose_skip_stop(base, [("1", ("T", "A")), ("2", ("T", "B"))])
    assert len(FIG8_SHORT) == 15
    assert stops_per_train(mtc, FIG8_SHORT) == {"1": 9, "2": 9}


def test_skip_stop_two_trains_twentynine_stations():
    base = generate_s(3, 2, 4)
    mtc = compose_skip_stop(base, [("1", ("T", "A", "B")), ("2", ("T", "C", "D"))])
    assert len(FIG8_LONG) == 29
    assert FIG8_LONG[0] == "D" and FIG8_LONG[-1] == "A"
    assert stops_per_train(mtc, FIG8_LONG) == {"1": 16, "2": 16}


def test_skip_stop_coverage_errors():
    base = generate_s(2, 2, 4)
    with pytest.raises(SubsetCoverage):
        compose_skip_stop(base, [("1", ("T",))])  # wrong subset size
    with pytest.raises(SubsetCoverage):
        compose_skip_stop(
            base, [("1", ("T", "A")), ("2", ("T", "B"))], universe=("T", "A", "B", "C")
        )


def test_skipped_types_get_zero_displacement():
    base = generate_s(2, 2, 4)
    mtc = compose_skip_stop(base, [("1", ("T", "A")), ("2", ("T", "B"))])
    assert mtc.chart("1").bar("B").skipped
    assert mtc.chart("2").bar("A").skipped


# ---------------------------------------------------------------------------
# Chart -> protocol expansion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "chart", [generate_s(3, 2, 4), generate_s(5, 2, 4), build_ftr3(), build_s52_2()]
)
def test_chart_protocols_are_feasible(chart):
    spec = chart_to_protocol(chart)
    assert check(spec).feasible


def test_chart_protocol_tables_mirror_chart_geometry():
    chart = generate_s(3, 2, 4)
    spec = chart_to_protocol(chart)
    assert spec.trains[0].M == 8 and spec.trains[0].N == 8
    # bar A covers units 1..4, C covers 5..8
    a = spec.a[0]
    iA, iC = spec.stations.index("A"), spec.stations.index("C")
    assert [row[iA] for row in a] == [1, 1, 1, 1, 0, 0, 0, 0]
    assert [row[iC] for row in a] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert spec.eol_rule is not None
    assert spec.eol_rule.first_types == frozenset({"C"})  # rear-aligned bar
    assert spec.eol_rule.last_types == frozenset({"A"})  # front-aligned bar


def test_chart_protocol_stop_table_reflects_skips():
    base = generate_s(2, 2, 4)
    mtc = compose_skip_stop(base, [("1", ("T", "A")), ("2", ("T", "B"))])
    spec = chart_to_protocol(mtc)
    types = spec.stations.types
    assert spec.s[0][types.index("B")] == 0
    assert spec.s[1][types.index("A")] == 0
    assert spec.epsilon is not None  # rotation recorded for multi-train charts


def test_chart_json_round_trip():
    for chart in (generate_s(4, 2, 4), build_s52_2()):
        back = chart_from_json(json.loads(json.dumps(chart_to_json(chart))))
        assert back == chart


# ---------------------------------------------------------------------------
# Routing oracle on generated charts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("C,D", [(5, 2), (7, 4), (4, Fraction(3, 2))])
def test_min_transfers_matches_step_path_enumeration(C, D):
    D = Fraction(D)
    chart = generate_s(C, D, integral_d(D))
    graph = routing.build_graph(chart)
    for i in chart.labels():
        for j in chart.labels():
            assert routing.min_transfers(graph, i, j) == oracle_min_transfers(
                [("1", chart)], i, j
            )


# ---------------------------------------------------------------------------
# Greedy presentation refinement
# ---------------------------------------------------------------------------


def nonuniform_refinement_case(seed):
    """A seeded fr_h, fr_i or ftr spec with uneven unit capacities, and a line for it."""
    from xltops import fr_h, fr_i, ftr

    rng = random.Random(f"refine-nonuniform/{seed}")
    spec = (fr_h(rng.randint(1, 3)), fr_i([rng.randint(1, 4) for _ in range(4)]), ftr(2))[seed % 3]
    train = spec.trains[0]
    caps = tuple(rng.choice((1, 2, 3, 5)) for _ in range(train.M))
    spec = replace(spec, trains=(replace(train, capacities=caps),))
    S = rng.randint(3, 7)
    A = [[rng.randint(1, 9) if sp > z and rng.random() < 0.6 else 0 for sp in range(S)]
         for z in range(S)]
    return spec, make_line([rng.choice(spec.stations.types) for _ in range(S)], A)


def test_refinement_never_worsens_peak_density(fr_line_full):
    from xltops import fr_h

    def density(candidate, line):
        assignment = flow_sim.build_assignment_split(candidate, line)
        rates = [line.demand_rate(z) for z in range(line.S)]
        profile = flow_sim.simulate_loads(
            assignment, rates, line, flow_sim.section_capacities(candidate)
        )
        return flow_sim.max_unit_density(profile.load, candidate.section_sizes(0))

    cases = [(fr_h(), fr_line_full), *map(nonuniform_refinement_case, range(45))]
    refined_count = 0
    for spec, line in cases:
        try:
            refined = greedy_presentation_refine(spec, line)
        except UnreachableError:  # a demanded pair no part can serve
            continue
        refined_count += 1
        assert check(refined).feasible
        assert density(refined, line) <= density(spec, line), line.station_types
    assert refined_count >= 30


def golden_refinement_case(seed):
    """A seeded fr_h or ftr line of 5-40 stations with uneven unit capacities."""
    from xltops import fr_h, ftr

    rng = random.Random(f"refine-golden/{seed}")
    spec = (fr_h(rng.randint(1, 3)), ftr(rng.randint(1, 2)))[seed % 2]
    S = rng.randint(5, 40)
    A = [[Fraction(rng.randint(1, 9), rng.randint(1, 3)) if sp > z and rng.random() < 0.5 else 0
          for sp in range(S)] for z in range(S)]
    train = spec.trains[0]
    caps = tuple(rng.choice((1, 2, 3, 5)) for _ in range(train.M))
    spec = replace(spec, trains=(replace(train, capacities=caps),))
    types = [rng.choice(spec.stations.types) for _ in range(S)]
    for z, sp in itertools.combinations(range(S), 2):
        if {types[z], types[sp]} == {"F", "R"} and seed % 2:  # ftr serves F-R only by transfer
            A[z][sp] = 0
    return spec, make_line(types, A, H=Fraction(rng.randint(1, 3), rng.randint(1, 4)))


GOLDEN_REFINEMENTS = [  # sha256 of the refined spec's sorted-key JSON, per seed
    "9c96ac6cbf30989da12a1919f4d55cecff4c88cd595304e1f977a0d18b7eebdb",
    "af4aed416450e88ab6ed37d316a5f931a06eb85d71dbe35582eedcee3c5dcaef",
    "0573b284520108e64052dde655de1cc4319706d6541759f9844ef61df5304a9b",
    "895c18a23823a4a970de851a6671da8ab00d10687f84411514270de277c8d052",
    "1cbd9f9cf7629981452d8486d9661bf363e02eafed5f987255c86904b42cfb9d",
    "5c65ddc708690c5f07edf111d876271a6adc9794f4f241a99b637c6915e04df7",
    "942c3490b7d50f6a47c16ba39751cd0940a894241e0a31df90c8e212dcac01ff",
    "14ec495f9e96112efa463a47e5e7eba4dd15678f59a9f7bfd75cb5fcc2ab9bc7",
]


@pytest.mark.parametrize("seed", range(len(GOLDEN_REFINEMENTS)))
def test_refinement_matches_recorded_specs(seed):
    refined = greedy_presentation_refine(*golden_refinement_case(seed))
    doc = json.dumps(spec_to_json(refined), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_REFINEMENTS[seed]


def test_refinement_requires_classified_line():
    from xltops import fr_h

    line = replace(make_line(("F", "R"), [[0, 1], [0, 0]]), station_types=None)
    with pytest.raises(DimensionMismatch):
        greedy_presentation_refine(fr_h(), line)


def test_a_multichart_needs_a_chart_and_one_type_universe():
    with pytest.raises(DimensionMismatch, match="^at least one chart is required$"):
        MultiTrainChart(charts=(), rotation=())
    first = generate_s(3, 2, 4)
    other = BarChart(M=8, bars=(Bar("A", b=4, d=4), Bar("B", b=6, d=4), Bar("Z", b=8, d=4)))
    with pytest.raises(DimensionMismatch, match="share the station-type universe"):
        MultiTrainChart(charts=(("1", first), ("2", other)), rotation=("1", "2"))


def test_charts_that_give_one_type_two_platform_lengths_have_no_protocol():
    first = generate_s(3, 2, 4)
    longer = BarChart(M=8, bars=(Bar("A", b=4, d=4), Bar("B", b=6, d=4), Bar("C", b=8, d=5)))
    mtc = MultiTrainChart(charts=(("1", first), ("2", longer)), rotation=("1", "2"))
    with pytest.raises(DimensionMismatch, match="^bar C: platform length differs across charts$"):
        chart_to_protocol(mtc)
