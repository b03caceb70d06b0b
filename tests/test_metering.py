"""Exact metering LP against grid-search and vertex-enumeration oracles."""

import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from xltops import LineInstance, build_assignment, flow_sim, fr_i, metering_opt
from xltops.errors import (
    BadSectionCount,
    DimensionMismatch,
    InfeasibleMinRates,
    SearchSpaceTooLarge,
    UnknownStationType,
)
from xltops.metering_opt import (
    MeteringProblem,
    _ClassificationLP,
    _LineLP,
    _admitted,
    _compositions,
    _station_choices,
    even_density_check,
    solve_inner_lp,
    solve_outer,
)

from conftest import (
    load_coefficients,
    make_line,
    oracle_loads,
    oracle_lp_max,
    oracle_metering_outer,
    oracle_simplex_max,
    seed_from_env,
)

Z = Fraction(0)
FR_TYPES = ("F", "R", "F", "R")


def _classifications(S):
    """Every fr_i classification of S stations, as the outer search visits them."""
    return itertools.product(*_station_choices(S))


def fr_problem(A, M_min=(), unit_capacity=1, M=12, fixed_delta=FR_TYPES, **kwargs):
    line = make_line(FR_TYPES, A, M_min=M_min)
    return MeteringProblem(
        line=line,
        M=M,
        unit_capacity=Fraction(unit_capacity),
        fixed_station_types=fixed_delta,
        **kwargs,
    )


def pairwise_demand(ff, fr, rf, rr):
    """4-station F/R line demand hitting each section with one flow."""
    return [
        [Z, Z, Fraction(ff), Fraction(fr)],
        [Z, Z, Fraction(rf), Fraction(rr)],
        [Z, Z, Z, Z],
        [Z, Z, Z, Z],
    ]


def test_slack_capacities_leave_rates_at_demand():
    problem = fr_problem(pairwise_demand(3, 3, 3, 3), unit_capacity=100)
    sol = solve_inner_lp(problem, FR_TYPES, (3, 3, 3, 3))
    assert sol.E == (Fraction(6), Fraction(6), Z, Z)
    assert sol.objective == 12


def test_min_rates_equal_to_demand_pin_the_solution():
    A = pairwise_demand(1, 1, 1, 1)
    problem = fr_problem(A, M_min=(2, 2, 0, 0))
    sol = solve_inner_lp(problem, FR_TYPES, (3, 3, 3, 3))
    assert sol.E == (Fraction(2), Fraction(2), Z, Z)


def test_fractional_section_sizes_are_rejected_not_truncated():
    problem = fr_problem(pairwise_demand(3, 3, 3, 3))
    with pytest.raises(DimensionMismatch, match="section sizes must be whole numbers"):
        solve_inner_lp(problem, FR_TYPES, (3.9, 3, 3, 3))
    with pytest.raises(DimensionMismatch, match="section sizes must be whole numbers"):
        solve_outer(replace(problem, fixed_sizes=(3.9, 3, 3, 3)))
    assert solve_inner_lp(problem, FR_TYPES, (3.0, 3, 3, 3)).section_sizes == (3, 3, 3, 3)


@pytest.mark.parametrize("c", [0, -1, Fraction(-1, 2)])
def test_nonpositive_unit_capacity_is_rejected(c):
    with pytest.raises(DimensionMismatch, match=f"unit capacity must be positive, not {c}$"):
        fr_problem(pairwise_demand(3, 3, 3, 3), unit_capacity=c)


@pytest.mark.parametrize(
    "field, value, message",
    [("unit_capacity", True, "unit capacity must be a finite number, not True"),
     ("unit_capacity", math.inf, "unit capacity must be a finite number, not inf"),
     ("unit_capacity", math.nan, "unit capacity must be a finite number, not nan"),
     ("unit_capacity", "x", "unit capacity must be a finite number, not 'x'"),
     ("M", 8.0, "the unit count M must be a whole number, not 8.0"),
     ("M", True, "the unit count M must be a whole number, not True")],
    ids=["c-true", "c-inf", "c-nan", "c-string", "M-float", "M-true"],
)
def test_a_problem_refuses_a_capacity_or_unit_count_of_the_wrong_kind(field, value, message):
    fields = {"line": make_line(FR_TYPES, pairwise_demand(3, 3, 3, 3)), "M": 12,
              "unit_capacity": 1, field: value}
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        MeteringProblem(**fields)


def test_a_problem_reads_int_fraction_and_float_capacities_exactly():
    line = make_line(FR_TYPES, pairwise_demand(3, 3, 3, 3))
    expected = solve_inner_lp(MeteringProblem(line, 12, Fraction(1, 2)), FR_TYPES, (3, 3, 3, 3))
    assert solve_inner_lp(MeteringProblem(line, np.int64(12), 0.5), FR_TYPES,
                          (3, 3, 3, 3)) == expected
    assert solve_inner_lp(MeteringProblem(line, 12, 1), FR_TYPES, (3, 3, 3, 3)) == \
        solve_inner_lp(MeteringProblem(line, 12, Fraction(1)), FR_TYPES, (3, 3, 3, 3))


def test_infeasible_min_rates_raise():
    problem = fr_problem(pairwise_demand(9, 0, 0, 0), M_min=(9, 0, 0, 0), unit_capacity=1)
    with pytest.raises(InfeasibleMinRates):
        solve_inner_lp(problem, FR_TYPES, (3, 3, 3, 3))


# ---------------------------------------------------------------------------
# Grid-search oracle on a hand-built instance
# ---------------------------------------------------------------------------

GRID_A = [
    [Z, Fraction(3, 10), Fraction(6, 10), Fraction(6, 10)],
    [Z, Z, Fraction(5, 10), Fraction(4, 10)],
    [Z, Z, Z, Z],
    [Z, Z, Z, Z],
]
GRID_MIN = (Fraction(1, 10), Fraction(1, 10), Z, Z)


def test_inner_lp_matches_grid_search_oracle():
    problem = fr_problem(GRID_A, M_min=GRID_MIN, unit_capacity=Fraction(1, 6))
    sol = solve_inner_lp(problem, FR_TYPES, (3, 3, 3, 3))
    assert sol.E == (Fraction(5, 6), Fraction(9, 10), Z, Z)
    assert sol.objective == Fraction(26, 15)

    # Oracle: dense lattice over the two free rates with section capacity
    # 1/2 and independently derived load coefficients.  Station 1 splits
    # 0.3/0.6/0.6 over (F,R), (F,F), (F,R); station 2 splits 0.5/0.4 over
    # (R,F), (R,R); so the binding loads are 0.4*E1 (section 1),
    # 0.6*E1 (section 2 on link 1), (5/9)*E2 (section 3), (4/9)*E2.
    e1 = np.arange(0.1, 1.5 + 1e-9, 1e-3)
    e2 = np.arange(0.1, 0.9 + 1e-9, 1e-3)
    E1, E2 = np.meshgrid(e1, e2)
    cap = 0.5
    ok = (
        (0.4 * E1 <= cap + 1e-12)
        & (0.6 * E1 <= cap + 1e-12)
        & ((5 / 9) * E2 <= cap + 1e-12)
        & ((4 / 9) * E2 <= cap + 1e-12)
    )
    best = float((E1 + E2)[ok].max())
    assert abs(best - float(sol.objective)) < 1e-3


# ---------------------------------------------------------------------------
# Vertex-enumeration oracle on random instances
# ---------------------------------------------------------------------------


def unit_vector_coefficients(spec, line):
    """Load-constraint matrix recovered by probing the simulator.

    Loads are linear in the entry rates, so running the per-flow oracle
    with each unit entry vector reads the coefficient columns directly —
    a mechanism independent of the LP's own matrix assembly.
    """
    assignment = build_assignment(spec, line)
    S = line.S
    N = assignment.N
    columns = []
    for z in range(S):
        probe = [Fraction(0)] * S
        probe[z] = Fraction(1)
        columns.append(oracle_loads(assignment, probe, line))
    rows, tags = [], []
    for n in range(N):
        for s in range(S - 1):
            rows.append([columns[z][n][s] for z in range(S)])
            tags.append((n, s))
    return rows, tags


def lp_oracle(problem, station_types, sizes):
    spec = fr_i(sizes)
    line = replace(problem.line, station_types=tuple(station_types))
    rows, _ = unit_vector_coefficients(spec, line)
    S = line.S
    caps = [Fraction(problem.unit_capacity) * m for m in sizes]
    A_ub, b_ub = [], []
    for z in range(S):
        upper = [Fraction(0)] * S
        upper[z] = Fraction(1)
        A_ub.append(upper)
        b_ub.append(line.demand_rate(z))
        lower = [Fraction(0)] * S
        lower[z] = Fraction(-1)
        A_ub.append(lower)
        b_ub.append(-line.M_min[z])
    for i, row in enumerate(rows):
        A_ub.append(row)
        b_ub.append(caps[i // (S - 1)])
    result = oracle_lp_max([Fraction(1)] * S, A_ub, b_ub)
    return result[0] if result else None


def test_inner_lp_matches_vertex_enumeration_on_random_instances():
    rng = random.Random(seed_from_env() + 8)
    for _ in range(25):
        A = pairwise_demand(
            Fraction(rng.randint(0, 8), 2),
            Fraction(rng.randint(0, 8), 2),
            Fraction(rng.randint(0, 8), 2),
            Fraction(rng.randint(0, 8), 2),
        )
        c = Fraction(rng.randint(1, 4), 2)
        sizes = tuple(rng.randint(1, 4) for _ in range(4))
        problem = fr_problem(A, unit_capacity=c, M=sum(sizes))
        sol = solve_inner_lp(problem, FR_TYPES, sizes)
        assert sol.objective == lp_oracle(problem, FR_TYPES, sizes)


def test_inner_lp_profile_matches_per_flow_microsimulation():
    rng = random.Random(seed_from_env() + 12)
    for _ in range(12):
        S = rng.randint(3, 8)
        types = ("R", *(rng.choice("FR") for _ in range(S - 2)), "F")
        A = [
            [Fraction(rng.randint(0, 6), rng.randint(1, 2)) if sp > z else Z for sp in range(S)]
            for z in range(S)
        ]
        sizes = tuple(rng.randint(1, 4) for _ in range(4))
        problem = MeteringProblem(
            line=make_line(types, A, H=Fraction(rng.randint(1, 3), 2)),
            M=sum(sizes),
            unit_capacity=Fraction(rng.randint(1, 4), 2),
        )
        sol = solve_inner_lp(problem, types, sizes)
        assignment = build_assignment(fr_i(sizes), problem.line)
        assert [list(row) for row in sol.profile.load] == oracle_loads(
            assignment, sol.E, problem.line
        )
        assert sol.profile.overcrowded == ()


def test_optimum_certificate_every_rate_is_pinned():
    problem = fr_problem(GRID_A, M_min=GRID_MIN, unit_capacity=Fraction(1, 6))
    sol = solve_inner_lp(problem, FR_TYPES, (3, 3, 3, 3))
    for z in range(4):
        at_bound = any(
            b.kind in ("lower", "upper") and b.indices == (z + 1,) for b in sol.binding
        )
        in_binding_load = any(
            b.kind == "load" and sol.E[z] > 0 for b in sol.binding
        )
        assert at_bound or in_binding_load


def test_objective_monotone_in_capacity():
    rng = random.Random(seed_from_env() + 9)
    for _ in range(10):
        A = pairwise_demand(*(Fraction(rng.randint(0, 6)) for _ in range(4)))
        small = solve_inner_lp(fr_problem(A, unit_capacity=1), FR_TYPES, (3, 3, 3, 3))
        large = solve_inner_lp(fr_problem(A, unit_capacity=2), FR_TYPES, (3, 3, 3, 3))
        assert large.objective >= small.objective


# ---------------------------------------------------------------------------
# Outer enumeration
# ---------------------------------------------------------------------------


def test_outer_search_recovers_equal_sizing():
    problem = fr_problem(pairwise_demand(3, 3, 3, 3))
    sol = solve_outer(problem)
    assert sol.section_sizes == (3, 3, 3, 3)
    assert sol.objective == 12
    report = even_density_check(sol)
    assert report.ratio == 1 and report.unused_sections == ()


def test_outer_search_recovers_uneven_sizing():
    problem = fr_problem(pairwise_demand(4, 4, 1, 3))
    sol = solve_outer(problem)
    assert sol.section_sizes == (4, 4, 1, 3)
    assert sol.objective == 12


def test_outer_is_at_least_inner():
    problem = fr_problem(pairwise_demand(5, 2, 1, 4))
    outer = solve_outer(problem)
    for sizes in [(3, 3, 3, 3), (2, 4, 2, 4), (6, 2, 2, 2)]:
        inner = solve_inner_lp(problem, FR_TYPES, sizes)
        assert outer.objective >= inner.objective


def test_outer_cap_is_enforced():
    problem = fr_problem(pairwise_demand(3, 3, 3, 3))
    with pytest.raises(SearchSpaceTooLarge):
        solve_outer(problem, cap=5)


@pytest.mark.parametrize("S", [1, 2, 3, 5])
@pytest.mark.parametrize("M", [3, 4, 7])
def test_the_cap_counts_the_candidates_the_search_lists(S, M):
    free = MeteringProblem(make_line(("F",) * S, [[Z] * S for _ in range(S)]), M, 1)
    count = len(list(_classifications(S))) * len(list(_compositions(M, 4)))
    with pytest.raises(SearchSpaceTooLarge, match=f"^{count} candidates exceed the cap of -1$"):
        solve_outer(free, cap=-1)
    if count:
        solve_outer(free, cap=count)  # at the cap the search runs


def test_a_long_line_is_refused_before_any_classification_is_listed():
    """2^38 classifications of 40 stations times C(11, 3) sizings: counted, never listed."""
    S = 40
    free = MeteringProblem(make_line(("F",) * S, [[Z] * S for _ in range(S)]), 12, 1)
    with pytest.raises(SearchSpaceTooLarge, match=f"^{2**38 * 165} candidates"):
        solve_outer(free)
    with pytest.raises(SearchSpaceTooLarge, match=f"^{2**38} candidates"):
        solve_outer(replace(free, fixed_sizes=(3, 3, 3, 3)))
    wide = replace(free, line=make_line(("R", "F"), [[Z, Z], [Z, Z]]), M=150)
    with pytest.raises(SearchSpaceTooLarge, match=f"^{math.comb(149, 3)} candidates"):
        solve_outer(wide, cap=10**5)


def outer_brute_force(problem):
    """Full product-space enumeration with the vertex-enumeration LP."""
    spec0 = fr_i((1, 1, 1, problem.M - 3))
    labels = spec0.stations.types
    S = problem.line.S
    choices = []
    for s in range(S):
        opts = labels
        if s == 0:
            opts = tuple(t for t in labels if t in spec0.eol_rule.first_types)
        elif s == S - 1:
            opts = tuple(t for t in labels if t in spec0.eol_rule.last_types)
        choices.append(opts)
    sizings = [
        tuple(b - a for a, b in itertools.pairwise((0, *cuts, problem.M)))
        for cuts in itertools.combinations(range(1, problem.M), 3)
    ]
    best = None
    for delta in itertools.product(*choices):
        for sizes in sizings:
            value = lp_oracle(problem, delta, sizes)
            if value is None:
                continue
            if best is None or value > best[0]:
                best = (value, delta, sizes)
    return best


def test_outer_matches_full_brute_force_on_three_stations():
    A = [[Z, Fraction(2), Fraction(3)], [Z, Z, Fraction(4)], [Z, Z, Z]]
    line = LineInstance(
        stations=("a", "b", "c"), platform_lengths=(9, 9, 9), H=1, A=A
    )
    problem = MeteringProblem(
        line=line, M=6, unit_capacity=Fraction(1)
    )
    sol = solve_outer(problem)
    value, delta, sizes = outer_brute_force(problem)
    assert sol.objective == value
    assert sol.station_types == delta
    assert sol.section_sizes == sizes


def test_unused_section_is_flagged():
    problem = fr_problem(pairwise_demand(3, 3, 0, 3))
    sol = solve_inner_lp(problem, FR_TYPES, (3, 3, 3, 3))
    report = even_density_check(sol)
    assert 3 in report.unused_sections
    assert report.ratio is None


@pytest.mark.parametrize(
    "sizes, error, message",
    [
        ((0, 4, 4, 4), BadSectionCount, "fr_i needs exactly 4 positive section sizes"),
        ((3, 3, 3), DimensionMismatch, "section sizes must partition the train"),
    ],
)
def test_outer_rejects_bad_fixed_sizes(sizes, error, message):
    problem = fr_problem(pairwise_demand(3, 3, 3, 3), fixed_sizes=sizes)
    with pytest.raises(error, match=message):
        solve_outer(problem)


def test_a_fixed_classification_of_the_wrong_form_is_refused():
    """The classification is checked as the line checks its own: one label per
    station, each a label of fr_i, and a string is not read as its characters."""
    A = pairwise_demand(3, 3, 3, 3)
    with pytest.raises(DimensionMismatch, match="one label per station"):
        solve_outer(fr_problem(A, fixed_delta=("F", "R", "F")))
    with pytest.raises(UnknownStationType, match="'Z'"):
        solve_outer(fr_problem(A, fixed_delta=("F", "R", "Z", "R")))
    with pytest.raises(DimensionMismatch, match="not the string 'FRFR'"):
        solve_inner_lp(fr_problem(A), "FRFR", (3, 3, 3, 3))
    with pytest.raises(DimensionMismatch, match="not the string 'FRFR'"):
        solve_outer(fr_problem(A, fixed_delta="FRFR"))
    with pytest.raises(DimensionMismatch, match="one label per station"):
        solve_inner_lp(fr_problem(A), ("F", "R", "F", "R", "F"), (3, 3, 3, 3))


@pytest.mark.parametrize("M", [0, 3, -2])
def test_outer_with_fewer_units_than_sections_is_refused(M):
    """fr_i's four sections need M >= 4: a typed refusal, not an empty search."""
    for fixed_delta in (FR_TYPES, None):
        with pytest.raises(BadSectionCount, match=f"at least 4 units, not M = {M}$"):
            solve_outer(fr_problem(pairwise_demand(3, 3, 3, 3), M=M, fixed_delta=fixed_delta))
    line = LineInstance(stations=("a", "b"), platform_lengths=(9, 9), H=1, A=[[0, 1], [0, 0]])
    with pytest.raises(BadSectionCount):
        solve_outer(MeteringProblem(line, M, 1))


# ---------------------------------------------------------------------------
# Outer search against the one-LP-per-candidate oracle
# ---------------------------------------------------------------------------


def random_metering_problem(rng, S, free_types):
    A = [
        [Fraction(rng.randint(0, 6), rng.randint(1, 3)) if sp > z else Z for sp in range(S)]
        for z in range(S)
    ]
    M_min = [sum(row, Z) * Fraction(rng.randint(0, 3), 4) for row in A]
    types = ("R", *(rng.choice("FR") for _ in range(S - 2)), "F") if S > 1 else ("R",)
    return MeteringProblem(
        line=make_line(types, A, H=Fraction(rng.randint(1, 3), 2), M_min=M_min),
        M=rng.randint(4, 7),
        unit_capacity=Fraction(rng.randint(1, 6), 2),
        fixed_station_types=None if free_types else types,
    )


def assert_outer_matches_oracle(problem):
    expected = oracle_metering_outer(problem)
    if expected is None:
        with pytest.raises(InfeasibleMinRates, match="no enumerated candidate"):
            solve_outer(problem)
    else:
        assert solve_outer(problem) == expected
    return expected


def skips_a_sizing(problem, station_types):
    try:
        solve_inner_lp(problem, station_types, (1, 1, 1, problem.M - 3))
    except InfeasibleMinRates:
        return True
    return False


def test_outer_matches_exhaustive_oracle_on_random_lines():
    rng = random.Random(seed_from_env() + 21)
    partly_skipped = 0
    for trial in range(36):
        problem = random_metering_problem(rng, S=1 + trial % 6, free_types=trial % 12 < 6)
        best = assert_outer_matches_oracle(problem)
        assert best is None or best.profile.unserved == ()  # fr_i presents every F/R pair
        partly_skipped += best is not None and skips_a_sizing(problem, best.station_types)
    assert partly_skipped  # a winner whose classification also has skipped sizings


def test_skipped_sizings_are_exactly_those_without_feasible_rates():
    rng = random.Random(seed_from_env() + 23)
    problems = [replace(random_metering_problem(rng, S, free_types=False), M=6)
                for S in (2, 3, 3, 3)]
    # Station 1's minimum rate of 1.5 c rides section 3 alone, so one unit of it is overloaded
    # whatever the draw, and two units carry it.
    heavy = metering_workload_problem(rng, 4, 6)
    problems.append(replace(heavy, line=replace(heavy.line, station_types=("R", "F", "F", "F"))))
    outcomes = set()
    for problem in problems:
        types = problem.line.station_types
        for sizes in (s for s in itertools.product(range(1, 4), repeat=4) if sum(s) == 6):
            expected = lp_oracle(problem, types, sizes)
            try:
                value = solve_inner_lp(problem, types, sizes).objective
            except InfeasibleMinRates:
                value = None
            assert value == expected
            outcomes.add(value is None)
    assert outcomes == {True, False}


def test_outer_single_station_is_a_first_station():
    problem = MeteringProblem(line=make_line(("F",), [[Z]]), M=4, unit_capacity=1)
    sol = assert_outer_matches_oracle(problem)
    assert sol.station_types == ("R",)
    assert sol.section_sizes == (1, 1, 1, 1)


def test_outer_tie_keeps_the_first_candidate():
    rng = random.Random(seed_from_env() + 22)
    for S in (2, 4, 5):
        problem = replace(random_metering_problem(rng, S, free_types=True), unit_capacity=10**6)
        sol = assert_outer_matches_oracle(problem)
        assert sol.station_types == ("R", *("F",) * (S - 1))
        assert sol.section_sizes == (1, 1, 1, problem.M - 3)


# ---------------------------------------------------------------------------
# Dual cuts of the outer search
# ---------------------------------------------------------------------------


def cut_value(cut, sizes):
    K, W, D = cut
    return Fraction(K + sum(Wn * mn for Wn, mn in zip(W, sizes)), D)


def test_dual_cut_bounds_every_sizing_and_is_tight_at_its_own():
    """The cut from sizing m's duals is >= the vertex-enumeration optimum at
    every feasible sizing m' of the classification, and equal to it at m."""
    rng = random.Random(seed_from_env() + 24)
    pairs = strict = 0
    for S, M in ((2, 7), (2, 7), (3, 6), (3, 6), (3, 6), (4, 5)):
        problem = replace(random_metering_problem(rng, S, free_types=True), M=M)
        floor = sum(problem.line.M_min, Z)  # the LP maximizes sum(E - M_min)
        for delta in _classifications(S):
            optimum = {}
            for sizes in _compositions(M, 4):
                value = lp_oracle(problem, delta, sizes)
                if value is not None:
                    optimum[sizes] = value - floor
            lp = _ClassificationLP(_LineLP(problem), delta)
            for m in optimum:
                cut = lp.cut(lp.solve(m))
                assert cut_value(cut, m) == optimum[m]
                for m2, value in optimum.items():
                    assert cut_value(cut, m2) >= value
                    pairs += 1
                    strict += cut_value(cut, m2) > value
    assert pairs > 100 and strict


def metering_workload_problem(rng, S, M, c=10):
    """A free-classification line shaped like the benchmark's metering jobs:
    dense demand, a heavy first-to-last flow, and a first-station minimum
    rate of 1.5 c that overloads section 3 whenever it has one unit."""
    A = [[Fraction(rng.randint(1, 10)) if sp > z else Z for sp in range(S)] for z in range(S)]
    A[0][S - 1] = Fraction(rng.randint(30 * (S - 2), 45 * (S - 2)))
    M_min = [Fraction(3 * c, 2), Fraction(1), Fraction(1), *(Z,) * (S - 3)]
    line = LineInstance(
        stations=tuple(f"s{z + 1}" for z in range(S)), platform_lengths=(9,) * S, H=1, A=A,
        M_min=M_min,
    )
    return MeteringProblem(line=line, M=M, unit_capacity=Fraction(c))


@pytest.mark.parametrize("S, M, most", [(4, 8, 20), (5, 12, 60)])
def test_dual_cuts_bound_the_lp_count(monkeypatch, S, M, most):
    """Without cuts the outer search solves 80 LPs at S = 4, M = 8 and 960
    at S = 5, M = 12; the answer stays the one-LP-per-candidate oracle's.
    Every LP goes through the one integer kernel, which is counted."""
    rng = random.Random(seed_from_env() + 25)
    simplex, solves = metering_opt._simplex_max, []

    def counted(*args):
        solves.append(args)
        return simplex(*args)

    for _ in range(3):
        problem = metering_workload_problem(rng, S, M)
        expected = oracle_metering_outer(problem) if S == 4 else None
        solves.clear()
        with monkeypatch.context() as patch:
            patch.setattr(metering_opt, "_simplex_max", counted)
            solution = solve_outer(problem)
        assert len(solves) <= most
        assert expected is None or solution == expected


# ---------------------------------------------------------------------------
# Integer-preserving tableau against the rational one
# ---------------------------------------------------------------------------

DENOMINATORS = (1, 2, 3, 5, 7, 12)


def integer_lp(c, A, b):
    """The integer kernel's input for max c.x, A x <= b: each row [A_i | b_i]
    scaled by the lcm k_i of its denominators, and -c by the lcm k_c of its own."""
    scales = [math.lcm(*(a.denominator for a in row), bi.denominator) for row, bi in zip(A, b)]
    rows = [[int(a * k) for a in row] + [int(bi * k)] for row, bi, k in zip(A, b, scales)]
    k_c = math.lcm(*(x.denominator for x in c))
    return [-int(x * k_c) for x in c] + [0], rows, scales, k_c


def tableau_answer(n, tableau):
    """x and the duals y of a final tableau of the integer kernel, as ``Fraction``s:
    x through the basic rows, y through the columns of nonbasic slacks (0 if basic)."""
    obj, od, rows, den, basis, nonbasic = tableau
    m = len(rows)
    assert sorted(basis + nonbasic) == list(range(n + m))
    x, y = [Z] * n, [Z] * m
    for row, d, var in zip(rows, den, basis):
        if var < n:
            x[var] = Fraction(row[-1], d)
    for j, var in enumerate(nonbasic):
        if var >= n:
            y[var - n] = Fraction(obj[j], od)
    return x, y


def integer_simplex(c, A, b):
    """x and y of max c.x, A x <= b through the integer kernel, duals scaled back to A's rows."""
    obj, rows, scales, k_c = integer_lp(c, A, b)
    x, y = tableau_answer(len(c), metering_opt._simplex_max(obj, rows))
    return x, [k * yi / k_c for k, yi in zip(scales, y)]


def random_lp(rng, duplicate=False, zeros=False):
    """A bounded LP with mixed denominators; optionally a repeated row and
    zero right-hand sides, which make ratio-test ties (Bland's second rule)."""
    def frac(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.choice(DENOMINATORS))

    n, m = rng.randint(1, 6), rng.randint(2, 8)
    A = [[frac(-3, 6) for _ in range(n)] for _ in range(m)]
    b = [frac(0, 8) for _ in range(m)]
    if duplicate:
        i, j = rng.sample(range(m), 2)
        A[j], b[j] = list(A[i]), b[i]
    if zeros:
        for i in rng.sample(range(m), rng.randint(1, m)):
            b[i] = Z
    A += [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]  # upper bounds
    b += [frac(1, 9) for _ in range(n)]
    return [frac(-2, 5) for _ in range(n)], A, b


@pytest.mark.parametrize("duplicate, zeros", [(False, False), (True, False), (True, True)],
                         ids=["mixed-denominators", "repeated-rows", "repeated-rows-zero-rhs"])
def test_integer_tableau_matches_the_rational_one(duplicate, zeros):
    rng = random.Random(seed_from_env() + 26)
    for _ in range(300):
        c, A, b = random_lp(rng, duplicate, zeros)
        assert integer_simplex(c, A, b) == oracle_simplex_max(c, A, b)


def test_integer_tableau_breaks_a_ratio_tie_by_the_smaller_basic_variable():
    """x enters with ratio 0 in rows 1 and 2; Bland's rule pivots on row 1,
    so row 1's dual carries the objective and row 2's is 0."""
    c, b = [Fraction(1)], [Z, Z, Fraction(1)]
    A = [[Fraction(1, 2)], [Fraction(1, 3)], [Fraction(1)]]
    assert integer_simplex(c, A, b) == ([Z], [Fraction(2), Z, Z])
    assert oracle_simplex_max(c, A, b) == ([Z], [Fraction(2), Z, Z])


@pytest.mark.parametrize("S, M", [(4, 8), (5, 12), (6, 12)])
def test_integer_tableau_matches_the_rational_one_on_every_search_lp(monkeypatch, S, M):
    """Every LP that the outer search solves on workload-shaped lines, against
    the rational tableau on the same rows and objective as ``Fraction``s."""
    rng = random.Random(seed_from_env() + 27)
    simplex, solved = metering_opt._simplex_max, []

    def checked(obj, rows):
        n = len(obj) - 1
        assert obj[n:] == [0]
        assert all(len(row) == n + 1 for row in rows)
        c = [-Fraction(v) for v in obj[:n]]
        A = [[Fraction(a) for a in row[:n]] for row in rows]
        b = [Fraction(row[-1]) for row in rows]
        result = simplex(obj, rows)
        assert tableau_answer(n, result) == oracle_simplex_max(c, A, b)
        solved.append(result)
        return result

    monkeypatch.setattr(metering_opt, "_simplex_max", checked)
    for _ in range(2):
        solve_outer(metering_workload_problem(rng, S, M))
    assert solved


@pytest.mark.parametrize("c", [Fraction(1), Fraction(2, 3)], ids=["integral-c", "fractional-c"])
def test_sizing_screen_skips_exactly_the_sizings_rhs_rejects(c):
    """On random classifications, ``admits`` is false exactly when ``rhs``
    raises, and exactly when the per-flow oracle's minimum-rate loads
    exceed c*m somewhere."""
    rng = random.Random(seed_from_env() + 28)
    outcomes = set()
    for _ in range(8):
        S = rng.randint(2, 5)
        problem = replace(random_metering_problem(rng, S, free_types=True), M=7, unit_capacity=c)
        delta = rng.choice(list(_classifications(S)))
        lp = _ClassificationLP(_LineLP(problem), delta)
        line = replace(problem.line, station_types=delta)
        for sizes in _compositions(problem.M, 4):
            base = oracle_loads(build_assignment(fr_i(sizes), line), line.M_min, line)
            overloaded = any(x > c * m for row, m in zip(base, sizes) for x in row)
            try:
                lp.rhs(sizes)
                rejected = False
            except InfeasibleMinRates:
                rejected = True
            assert lp.admits(sizes) is not rejected
            assert rejected is overloaded
            outcomes.add(rejected)
    assert outcomes == {True, False}
    # A minimum-rate load of exactly c*m fits: station 1 puts 3c on section 1.
    tight = fr_problem(pairwise_demand(3 * c, 0, 0, 0), M_min=(3 * c, 0, 0, 0),
                       unit_capacity=c, M=7)
    lp = _ClassificationLP(_LineLP(tight), FR_TYPES)
    assert lp.admits((3, 2, 1, 1)) and not lp.admits((2, 3, 1, 1))
    # The message names the first link loaded beyond c*m, past one loaded to exactly c*m.
    line = make_line(("F",) * 3, [[Z, 2 * c, Z], [Z, Z, 3 * c], [Z] * 3], M_min=(2 * c, 3 * c, Z))
    lp = _ClassificationLP(_LineLP(MeteringProblem(line=line, M=7, unit_capacity=c)), ("F",) * 3)
    with pytest.raises(InfeasibleMinRates, match="overload section 1 on link 2$"):
        lp.rhs((2, 3, 1, 1))


# ---------------------------------------------------------------------------
# Setup once per line against the setup once per classification
# ---------------------------------------------------------------------------


def per_classification_setup(problem, delta):
    """rows, B0, ck and least of one classification's LP, formed from
    ``build_assignment`` on the line classified by ``delta`` and the
    reference ``load_coefficients``: each load row
    (k, r) scaled by k_lo * den(c) and divided by the gcd of its entries, B0
    (the minimum rates' load, negated) and ck = num(c) * k * k_lo."""
    line, c = problem.line, Fraction(problem.unit_capacity)
    S = line.S
    rows, B0s, cks = [], [], [0] * S
    for z, lo in enumerate(line.M_min):
        b = line.demand_rate(z) - lo
        rows.append((0,) * z + (b.denominator,) + (0,) * (S - 1 - z))
        B0s.append(b.numerator)
    k_lo = math.lcm(*(x.denominator for x in line.M_min))
    lo_k = [x.numerator * (k_lo // x.denominator) for x in line.M_min]
    least = []
    classified = replace(line, station_types=delta)
    for table in load_coefficients(build_assignment(fr_i(), classified), line):
        most = 0
        for k, row in table:
            B0 = -c.denominator * sum(a * x for a, x in zip(row, lo_k))
            ck = c.numerator * k * k_lo
            row = [a * k_lo * c.denominator for a in row]
            g = math.gcd(B0, ck, *row)
            rows.append(tuple(a // g for a in row))
            B0s.append(B0 // g)
            cks.append(ck // g)
            most = max(most, -(B0 // ck))
        least.append(most)
    return rows, B0s, cks, least


def fractional_problem(rng, S, M=8):
    """A line with fractional A, H, c and M_min, and for S > 2 an origin with no demand."""
    A = [[Fraction(rng.randint(0, 6), rng.randint(1, 4)) if sp > z else Z
          for sp in range(S)] for z in range(S)]
    if S > 2:
        A[rng.randrange(S - 1)] = [Z] * S  # an origin with no demand
    M_min = [sum(row, Z) * Fraction(rng.randint(0, 3), rng.randint(4, 6)) for row in A]
    line = LineInstance(
        stations=tuple(f"s{z + 1}" for z in range(S)), platform_lengths=(9,) * S,
        H=Fraction(rng.randint(1, 5), rng.randint(1, 4)), A=A, M_min=M_min,
    )
    return MeteringProblem(line=line, M=M,
                           unit_capacity=Fraction(rng.randint(1, 9), rng.randint(1, 4)))


def test_line_setup_gives_each_classification_the_rows_of_its_own_setup():
    """Entry for entry, on fractional A, H, c and M_min with an origin that
    demands nothing: the primitive integer form of a row is unique, so the
    setup shared by a line's classifications changes no pivot of any LP.
    A classification keeps the reference's nonzero rows in order, each with
    its (section, link) label, and every row it leaves out is all zero."""
    rng = random.Random(seed_from_env() + 30)
    checked = 0
    for S in (1, 2, 3, 4, 5, 6, 7):
        for _ in range(2):
            problem = fractional_problem(rng, S)
            line_lp = _LineLP(problem)
            for delta in _classifications(S):
                lp = _ClassificationLP(line_lp, delta)
                rows, B0, ck, least = per_classification_setup(problem, delta)
                kept = [*range(S), *(S + n * (S - 1) + s for n, s in lp.labels)]
                assert kept == sorted(set(kept)) and all(0 <= s < S - 1 for _, s in lp.labels)
                assert lp.rows == [rows[i] for i in kept]
                assert (lp.B0, lp.ck) == ([B0[i] for i in kept], [ck[i] for i in kept])
                assert lp.section == [0] * S + [n for n, _ in lp.labels]
                assert all(not any(row) for i, row in enumerate(rows) if i not in kept)
                assert lp.least == least
                checked += 1
    assert checked == 2 * (1 + 1 + 2 + 4 + 8 + 16 + 32)


def _x(tableau, S):
    """x = E - M_min of a solved tableau."""
    rows, den, basis = tableau[2:5]
    value = {var: Fraction(row[-1], d) for row, d, var in zip(rows, den, basis)}
    return tuple(value.get(z, Z) for z in range(S))


def test_a_solve_on_the_kept_rows_is_the_solve_on_every_row():
    """Leaving out the all-zero load rows changes no answer.  Against an LP on
    every row of the reference setup, each solved sizing gives the same
    objective, x, cut (K, W, D) and binding constraints, on fractional lines
    with an origin that demands nothing."""
    rng = random.Random(seed_from_env() + 32)
    solved = dropped = 0
    for S in (1, 2, 3, 4, 5, 6, 7):
        problem = fractional_problem(rng, S)
        line_lp = _LineLP(problem)
        section = [0] * S + [n for n in range(4) for _ in range(S - 1)]
        labels = [("upper", (z + 1,)) for z in range(S)] + [
            ("load", (n + 1, s + 1)) for n in range(4) for s in range(S - 1)]
        for delta in _classifications(S):
            lp = _ClassificationLP(line_lp, delta)
            rows, B0, ck, _ = per_classification_setup(problem, delta)
            dropped += len(rows) - len(lp.rows)
            line = replace(problem.line, station_types=delta)
            for sizes in rng.sample(list(_compositions(problem.M, 4)), 4):
                if not lp.admits(sizes):
                    continue
                kept = lp.solve(sizes)
                full = metering_opt._simplex_max(
                    [-1] * S + [0],
                    [[*row, b + k * sizes[n]] for row, b, k, n in zip(rows, B0, ck, section)])
                assert (kept[0][-1] * full[1], _x(kept, S)) == (full[0][-1] * kept[1], _x(full, S))
                obj, od, _, _, basis, nonbasic = full
                y = {var - S: obj[j] for j, var in enumerate(nonbasic) if var >= S}
                W = [sum(y[i] * ck[i] for i in y if section[i] == n) for n in range(4)]
                assert lp.cut(kept) == (sum(y[i] * B0[i] for i in y), W, od)
                value = {var for row, var in zip(full[2], basis) if row[-1]}
                binding = [("lower", (z + 1,)) for z in range(S) if z not in value]
                binding += [tag for i, tag in enumerate(labels, start=S) if i not in value]
                solution = lp.solution(line, sizes, kept)
                assert [(b.kind, b.indices) for b in solution.binding] == binding
                solved += 1
    assert solved and dropped


def test_the_admitted_sizings_are_listed_once_per_least_vector():
    """Each classification is handed exactly the sizings ``admits`` passes, in
    lexicographic order, from one list per distinct vector of least sizes
    (a least size of 0 counts as 1, since every section has a unit)."""
    rng = random.Random(seed_from_env() + 33)
    shared = screened = 0
    for S in (1, 2, 3, 4, 5, 6, 7):
        for c in (Fraction(1, 4), Fraction(1), None):
            problem = fractional_problem(rng, S)
            if c is not None:
                problem = replace(problem, unit_capacity=c)
            line_lp, sizings, lists = _LineLP(problem), list(_compositions(problem.M, 4)), {}
            least = set()
            for delta in _classifications(S):
                lp = _ClassificationLP(line_lp, delta)
                admitted = _admitted(lp, sizings, lists)
                assert admitted == [m for m in _compositions(problem.M, 4) if lp.admits(m)]
                least.add(tuple(max(m, 1) for m in lp.least))
                screened += len(admitted) < len(sizings)
            assert len(lists) == len(least)
            shared += len(least) > 1
    assert shared and screened


def test_a_classified_line_is_the_line_read_again_with_its_labels():
    """``LineInstance.classified`` equals ``replace(line, station_types=...)``,
    derived integers included, and refuses bad labels with the same errors."""
    rng = random.Random(seed_from_env() + 34)
    for S in (1, 2, 3, 4, 5, 6, 7):
        line = fractional_problem(rng, S).line
        for delta in [*_classifications(S), None]:
            for labels in (delta, None if delta is None else list(delta)):
                copy, fresh = line.classified(labels), replace(line, station_types=labels)
                assert copy == fresh and copy.station_types == delta
                assert (copy._k, copy._sums, copy._flows) == (fresh._k, fresh._sums, fresh._flows)
                assert copy.flows == fresh.flows and copy.A is line.A
        delta = next(iter(_classifications(S)))
        for labels in ("F" * S, delta + ("F",), delta[1:]):
            with pytest.raises(DimensionMismatch) as want:
                replace(line, station_types=labels)
            with pytest.raises(DimensionMismatch, match="one label per station|not the string"):
                line.classified(labels)
            with pytest.raises(DimensionMismatch) as got:
                metering_opt._classified(line, labels)
            assert str(got.value) == str(want.value)
        with pytest.raises(UnknownStationType, match="'Z'"):
            metering_opt._classified(line, ("Z",) + delta[1:])


def test_the_search_builds_one_assignment_and_thins_the_line_at_most_twice(monkeypatch):
    """Once for the rows of every classification, once for the winner's loads.
    The winner's classified line is a copy of the line already read, so a
    search reads no line again; it is the one line that reads fr_i's
    presentation, with a free classification and a fixed one."""
    problem = metering_workload_problem(random.Random(seed_from_env() + 31), 5, 8)
    owners = {"build_assignment": flow_sim, "type_pair_sections": flow_sim, "_thinned": flow_sim,
              "__post_init__": LineInstance}
    calls = dict.fromkeys(owners, 0)
    for name, owner in owners.items():
        def counted(*args, name=name, original=getattr(owner, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, counted)
    free = solve_outer(problem)
    counts = {"free": dict(calls)}
    calls.update(dict.fromkeys(owners, 0))
    fixed = solve_outer(replace(problem, fixed_station_types=free.station_types))
    counts["fixed"] = calls
    assert fixed == free
    for search, count in counts.items():
        assert count["build_assignment"] == count["type_pair_sections"] == 1, search
        assert count["__post_init__"] == 0 and count["_thinned"] <= 2, search


def test_each_fr_i_type_pair_rides_the_one_section_that_presents_it():
    """``_SECTION`` is fr_i's presentation table read once: F->F rides section 1,
    F->R section 2, R->F section 3 and R->R section 4."""
    spec = fr_i()
    types = spec.stations.types
    ti, presenting = flow_sim.type_pair_sections(spec, make_line(types, [[Z] * 2] * 2))
    assert ti == (0, 1)
    assert {(i, j): presenting[x][y] for x, i in enumerate(types) for y, j in enumerate(types)} == {
        pair: [n] for pair, n in metering_opt._SECTION.items()}
    assert metering_opt._SECTION == {("F", "F"): 0, ("F", "R"): 1, ("R", "F"): 2, ("R", "R"): 3}


# ---------------------------------------------------------------------------
# Golden and metamorphic gates of the outer search
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"


def assert_outer_matches_golden(path):
    """E, classification, sizes and binding set of each recorded line."""
    for case in json.loads(path.read_text()):
        S = len(case["A"])
        line = LineInstance(
            stations=tuple(f"s{z + 1}" for z in range(S)), platform_lengths=(9,) * S, H=1,
            A=[[Fraction(x) for x in row] for row in case["A"]],
            M_min=[Fraction(x) for x in case["M_min"]],
        )
        problem = MeteringProblem(
            line=line, M=case["M"], unit_capacity=Fraction(case["unit_capacity"])
        )
        sol = solve_outer(problem)
        assert [str(x) for x in sol.E] == case["E"]
        assert list(sol.station_types) == case["station_types"]
        assert list(sol.section_sizes) == case["section_sizes"]
        assert [[b.kind, list(b.indices)] for b in sol.binding] == case["binding"]


def test_outer_matches_the_recorded_s8_answers():
    """S = 8, M = 12 workload-shaped lines, answers recorded from the
    rational-tableau search."""
    assert_outer_matches_golden(DATA / "metering_s8_golden.json")


def test_outer_matches_the_recorded_s10_answers():
    """S = 10, M = 12 workload-shaped lines (``metering_workload_problem`` on
    ``random.Random(1)``), answers recorded from the search that scaled each
    LP row per sizing and kept its duals and cuts as ``Fraction``s."""
    assert_outer_matches_golden(DATA / "metering_s10_golden.json")


def test_outer_solves_exactly_the_recorded_lps(monkeypatch):
    """The (classification, sizing) pairs whose LP the outer search solves, in
    order, on workload-shaped lines, recorded from the search that kept its
    duals and cuts as ``Fraction``s.  A cut that prunes one sizing more or
    less, or a screen that lets one more through, changes the list."""
    recorded = json.loads((DATA / "metering_lp_order.json").read_text())
    solve, solved = _ClassificationLP.solve, []

    def listed(lp, sizes):
        solved.append([list(lp.station_types), list(sizes)])
        return solve(lp, sizes)

    monkeypatch.setattr(_ClassificationLP, "solve", listed)
    runs = []
    for (S, M), cases in itertools.groupby(recorded["lines"], key=lambda c: (c["S"], c["M"])):
        rng = random.Random(recorded["seed"])
        for case in cases:
            solved.clear()
            solve_outer(metering_workload_problem(rng, S, M))
            assert solved == case["solved"]
            runs.append((S, M, len(solved)))
    assert [n for *_, n in runs] == [8, 8, 8, 25, 22, 25, 46, 54, 47]
    assert [(S, M) for S, M, _ in runs] == [(4, 8)] * 3 + [(5, 12)] * 3 + [(6, 12)] * 3


@pytest.mark.parametrize("t", [Fraction(3), Fraction(2, 7)])
def test_scaling_demand_minimum_rates_and_capacity_scales_only_E(t):
    rng = random.Random(seed_from_env() + 29)
    for S, M in ((4, 8), (5, 8), (5, 9)):
        problem = metering_workload_problem(rng, S, M)
        line = problem.line
        scaled = replace(
            problem,
            line=replace(line, A=[[t * x for x in row] for row in line.A],
                         M_min=[t * m for m in line.M_min]),
            unit_capacity=t * problem.unit_capacity,
        )
        sol, big = solve_outer(problem), solve_outer(scaled)
        assert big.E == tuple(t * e for e in sol.E)
        assert big.objective == t * sol.objective
        assert (big.station_types, big.section_sizes, big.binding) == (
            sol.station_types, sol.section_sizes, sol.binding)
