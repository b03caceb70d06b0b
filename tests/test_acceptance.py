"""Acceptance gate: every headline claim, one pass/fail line each."""

import itertools
import random
import time
from fractions import Fraction

import pytest

import xltops.routing as routing
from xltops import (
    LineInstance,
    access_penalty_ftr,
    build_assignment,
    build_ftr3,
    build_graph,
    build_s52_2,
    capacity_report,
    check,
    compose_skip_stop,
    fr_h,
    fr_i,
    ftr,
    gate_door_consistency,
    generate_s,
    headway_capacity_reduction,
    headway_correction,
    matrix_worst_pair,
    max_connected_classes,
    max_length_with_transfers,
    section_capacities,
    simulate_loads,
    size_sections_proportional,
    stops_per_train,
    train_length_ratio,
    transfer_matrix,
    worst_case_transfers,
)
from xltops.metering_opt import MeteringProblem, solve_inner_lp, solve_outer
from xltops.s_family import chart_to_protocol

from conftest import (
    access_penalty_ftr_mc,
    exactly_one_ftr,
    make_line,
    oracle_loads,
    oracle_violations,
    random_spec,
    seed_from_env,
)
from test_flow_sim import full_rates, random_instance
from test_metering import (
    FR_TYPES,
    GRID_A,
    GRID_MIN,
    Z,
    fr_problem,
    lp_oracle,
    outer_brute_force,
    pairwise_demand,
)
from test_s_family import FIG8_LONG, FIG8_SHORT, SWEEP_D, integral_d


def report(number: int, name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number} - {name}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_proportional_sizing():
    even = size_sections_proportional([Fraction(1, 4)] * 4, 12)
    uneven = size_sections_proportional(
        [Fraction(1, 3), Fraction(1, 3), Fraction(1, 12), Fraction(1, 4)], 12
    )
    report(1, "proportional section sizing", even == (3, 3, 3, 3) and uneven == (4, 4, 1, 3))


def test_criterion_2_capacity_gains(fr_line_full, ftr_line_full):
    def gain(spec, line, reference=None):
        profile = simulate_loads(
            build_assignment(spec, line), full_rates(line), line, section_capacities(spec)
        )
        return capacity_report(profile, spec, line, reference_units=reference).gain

    ok = (
        gain(fr_i(), fr_line_full) == Fraction(4, 3)
        and gain(exactly_one_ftr(), ftr_line_full) == Fraction(2)
        and gain(fr_i(), fr_line_full, reference=8) == Fraction(3, 2)
    )
    report(2, "capacity gains 4/3, 2 and 3/2", ok)


def test_criterion_3_step_family_formulas():
    start = time.monotonic()
    ok = True
    for C, D in itertools.product(range(1, 9), SWEEP_D):
        d = integral_d(D)
        chart = generate_s(C, D, d)
        ok &= Fraction(chart.M, d) == train_length_ratio(C, D)
        _, worst = matrix_worst_pair(transfer_matrix(build_graph(chart)))
        ok &= worst == worst_case_transfers(C, D)
        ok &= worst == next(
            T for T in range(C + 1) if max_connected_classes(T, D) >= C
        )
    spot = {
        (2, Fraction(2)): (Fraction(3, 2), 0),
        (3, Fraction(2)): (Fraction(2), 1),
        (3, Fraction(3)): (Fraction(5, 3), 0),
        (7, Fraction(4)): (Fraction(5, 2), 1),
        (5, Fraction(2)): (Fraction(3), 3),
    }
    for (C, D), (ratio, transfers) in spot.items():
        ok &= train_length_ratio(C, D) == ratio
        ok &= worst_case_transfers(C, D) == transfers
    elapsed = time.monotonic() - start
    report(3, "step-family formulas vs chart enumeration", ok and elapsed < 10)


def test_criterion_4_strict_length_bound():
    ok = True
    for C, D in itertools.product(range(1, 9), SWEEP_D):
        d = integral_d(D)
        chart = generate_s(C, D, d)
        _, worst = matrix_worst_pair(transfer_matrix(build_graph(chart)))
        ok &= chart.M < (2 + worst) * d
        ok &= max_length_with_transfers(worst, D) < 2 + worst
    report(4, "strict train-length bound", ok)


def test_criterion_5_multi_train_claims():
    union_ok = set(transfer_matrix(build_graph(build_ftr3())).values()) == {0}
    mtc = build_s52_2()
    pair_ok = matrix_worst_pair(transfer_matrix(build_graph(mtc)))[1] == 1
    singles_ok = all(
        matrix_worst_pair(transfer_matrix(build_graph(mtc.chart(label))))[1] == 3
        for label in ("1", "2")
    )
    report(5, "multi-train connectivity claims", union_ok and pair_ok and singles_ok)


def test_criterion_6_skip_stop_counts():
    short = compose_skip_stop(generate_s(2, 2, 4), [("1", ("T", "A")), ("2", ("T", "B"))])
    long = compose_skip_stop(
        generate_s(3, 2, 4), [("1", ("T", "A", "B")), ("2", ("T", "C", "D"))]
    )
    ok = (
        stops_per_train(short, FIG8_SHORT) == {"1": 9, "2": 9}
        and stops_per_train(long, FIG8_LONG) == {"1": 16, "2": 16}
    )
    report(6, "skip-stop 9-of-15 and 16-of-29", ok)


def test_criterion_7_access_penalty():
    start = time.monotonic()
    exact = access_penalty_ftr(("F", "R", "T")) == Fraction(1, 27)
    estimate = access_penalty_ftr_mc(("F", "R", "T"), draws=10**6, seed=seed_from_env())
    elapsed = time.monotonic() - start
    report(
        7,
        "access penalty 1/27 with Monte-Carlo oracle",
        exact and abs(estimate - 1 / 27) < 0.001 and elapsed < 5,
    )


def test_criterion_8_headway_correction():
    dh = headway_correction(70, 30)
    reduction = headway_capacity_reduction(70, 30, 157)
    report(
        8,
        "headway correction 2.333 s and ~1.5% capacity effect",
        abs(dh - 2.333) < 0.001 and abs(reduction - 0.015) < 0.001,
    )


def test_criterion_9_feasibility_oracle():
    rng = random.Random(seed_from_env())
    start = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        spec = random_spec(rng)
        got = {(v.constraint, *v.indices) for v in check(spec).violations}
        if got != oracle_violations(spec):
            mismatches += 1
    elapsed = time.monotonic() - start
    report(9, "constraint checker vs nested-loop oracle", mismatches == 0 and elapsed < 30)


def test_criterion_10_load_model_oracle():
    rng = random.Random(seed_from_env() + 5)
    mismatches = 0
    for _ in range(200):
        spec, line, rates = random_instance(rng)
        assignment = build_assignment(spec, line)
        profile = simulate_loads(assignment, rates, line, section_capacities(spec))
        if [list(row) for row in profile.load] != oracle_loads(assignment, rates, line):
            mismatches += 1
    report(10, "load model vs per-flow microsimulation", mismatches == 0)


def test_criterion_11_metering_lp():
    start = time.monotonic()
    # inner LP on the hand-built four-station instance vs dense lattice
    problem = fr_problem(GRID_A, M_min=GRID_MIN, unit_capacity=Fraction(1, 6))
    sol = solve_inner_lp(problem, FR_TYPES, (3, 3, 3, 3))
    grid_ok = abs(float(sol.objective) - float(Fraction(26, 15))) < 1e-3
    exact_ok = sol.objective == lp_oracle(problem, FR_TYPES, (3, 3, 3, 3))
    # outer enumeration on a three-station line vs full brute force
    A = [[Z, Fraction(2), Fraction(3)], [Z, Z, Fraction(4)], [Z, Z, Z]]
    line = LineInstance(stations=("a", "b", "c"), platform_lengths=(9, 9, 9), H=1, A=A)
    small = MeteringProblem(
        line=line, M=6, unit_capacity=Fraction(1)
    )
    outer = solve_outer(small)
    value, delta, sizes = outer_brute_force(small)
    outer_ok = (
        outer.objective == value
        and outer.station_types == delta
        and outer.section_sizes == sizes
    )
    elapsed = time.monotonic() - start
    report(11, "metering LP vs oracles", grid_ok and exact_ok and outer_ok and elapsed < 60)


def test_criterion_12_gate_door_closure():
    builtins = [
        fr_h(),
        fr_i(),
        ftr(),
        exactly_one_ftr(),
        chart_to_protocol(generate_s(3, 2, 4)),
        chart_to_protocol(build_ftr3()),
        chart_to_protocol(build_s52_2()),
    ]
    ok = all(gate_door_consistency(spec) == [] for spec in builtins)
    report(12, "gate/door consistency closure", ok)
