"""Exact metering LP against grid-search and vertex-enumeration oracles."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from xltops import LineInstance, build_assignment, fr_i
from xltops.errors import InfeasibleMinRates, SearchSpaceTooLarge
from xltops.metering_opt import (
    MeteringProblem,
    even_density_check,
    solve_inner_lp,
    solve_outer,
)

from conftest import make_line, oracle_loads, oracle_lp_max, seed_from_env

Z = Fraction(0)
FR_TYPES = ("F", "R", "F", "R")


def fr_problem(A, M_min=(), unit_capacity=1, M=12, fixed_delta=FR_TYPES, **kwargs):
    line = make_line(FR_TYPES, A, M_min=M_min)
    return MeteringProblem(
        line=line,
        spec_factory=fr_i,
        M=M,
        N=4,
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
    from dataclasses import replace

    spec = problem.spec_factory(sizes)
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
            spec_factory=fr_i,
            M=sum(sizes),
            N=4,
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


def outer_brute_force(problem):
    """Full product-space enumeration with the vertex-enumeration LP."""
    spec0 = problem.spec_factory((1, 1, 1, problem.M - 3))
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
        for cuts in itertools.combinations(range(1, problem.M), problem.N - 1)
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
        line=line, spec_factory=fr_i, M=6, N=4, unit_capacity=Fraction(1)
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
