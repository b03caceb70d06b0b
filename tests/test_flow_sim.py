"""Assignment, load simulation, capacity metrics and the access penalty."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xltops import (
    access_penalty_ftr,
    access_penalty_ftr_mc,
    build_assignment,
    build_assignment_split,
    capacity_report,
    fr_h,
    fr_i,
    headway_capacity_reduction,
    headway_correction,
    section_capacities,
    simulate_loads,
    size_sections_proportional,
)
from xltops.errors import (
    AmbiguousAssignment,
    DimensionMismatch,
    NonpositiveSpeed,
)

from conftest import (
    exactly_one_ftr,
    make_line,
    oracle_loads,
    seed_from_env,
)


def full_rates(line):
    return [line.demand_rate(z) for z in range(line.S)]


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------


def test_partial_presentation_gives_one_section_per_pair(fr_line_full):
    spec = fr_i()
    assignment = build_assignment(spec, fr_line_full)
    expected = {(0, 2): 0, (0, 3): 1, (1, 2): 2, (1, 3): 3}
    for (z, sp), n in expected.items():
        for m in range(4):
            assert assignment.share(m, z, sp) == (1 if m == n else 0)


def test_assignment_vanishes_for_backward_pairs(fr_line_full):
    assignment = build_assignment(fr_i(), fr_line_full)
    for n in range(assignment.N):
        for z in range(assignment.S):
            for sp in range(z + 1):
                assert assignment.share(n, z, sp) == 0


def test_full_presentation_is_ambiguous(fr_line_full):
    with pytest.raises(AmbiguousAssignment):
        build_assignment(fr_h(), fr_line_full)


def test_balanced_split_shares_by_capacity(fr_line_full):
    spec = fr_h()
    assignment = build_assignment_split(spec, fr_line_full, rule="balanced")
    # pair (F, F) is presented by sections 1-3 of equal capacity
    shares = [assignment.share(n, 0, 2) for n in range(4)]
    assert shares == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(0)]
    total = sum(assignment.share(n, 0, 3) for n in range(4))
    assert total == 1


def test_end_preference_split_fills_quiet_sections_first(fr_line_full):
    spec = fr_h()
    assignment = build_assignment_split(spec, fr_line_full, rule="end_preference")
    # (F, F) goes whole to the quietest presenting section (section 1)
    assert assignment.share(0, 0, 2) == 1
    for z in range(4):
        for sp in range(z + 1, 4):
            total = sum(assignment.share(n, z, sp) for n in range(4))
            assert total in (0, 1)
    with pytest.raises(ValueError):
        build_assignment_split(spec, fr_line_full, rule="nearest")


# ---------------------------------------------------------------------------
# Load simulation against the per-flow oracle
# ---------------------------------------------------------------------------


def test_zero_demand_means_zero_loads():
    line = make_line(("F", "R"), [[0, 0], [0, 0]])
    profile = simulate_loads(
        build_assignment(fr_i(), line), [0, 0], line, section_capacities(fr_i())
    )
    assert all(x == 0 for row in profile.load for x in row)


def test_entry_rates_must_cover_every_station(fr_line_full):
    spec = fr_i()
    assignment = build_assignment(spec, fr_line_full)
    with pytest.raises(DimensionMismatch):
        simulate_loads(assignment, [1, 1, 0], fr_line_full, section_capacities(spec))


def test_single_flow_conservation():
    Z = Fraction(0)
    line = make_line(("F", "R", "F"), [[Z, Z, Fraction(100)], [Z] * 3, [Z] * 3], H=Fraction(1, 10))
    spec = fr_i()
    profile = simulate_loads(
        build_assignment(spec, line), full_rates(line), line, section_capacities(spec)
    )
    assert profile.load[0] == (Fraction(10), Fraction(10))  # section 1 carries F-F
    assert all(profile.load[n] == (Z, Z) for n in (1, 2, 3))


def test_metered_entries_are_thinned_proportionally():
    Z = Fraction(0)
    line = make_line(("F", "R", "F"), [[Z, Fraction(2), Fraction(6)], [Z] * 3, [Z] * 3])
    spec = fr_i()
    # halve the entry rate: both flows from station 1 shrink by the same factor
    profile = simulate_loads(
        build_assignment(spec, line), [Fraction(4), Z, Z], line, section_capacities(spec)
    )
    assert profile.load[0][0] == Fraction(3)  # F-F flow 6 -> 3
    assert profile.load[1][0] == Fraction(1)  # F-R flow 2 -> 1


def test_overcrowding_is_reported_not_fatal(fr_line_full):
    spec = fr_i()
    tiny = tuple(Fraction(1) for _ in range(4))
    profile = simulate_loads(
        build_assignment(spec, fr_line_full), full_rates(fr_line_full), fr_line_full, tiny
    )
    assert (0, 0) in profile.overcrowded and len(profile.overcrowded) > 0


def random_instance(rng):
    S = rng.randint(2, 5)
    types = [rng.choice("FR") for _ in range(S)]
    A = [[Fraction(0)] * S for _ in range(S)]
    for z in range(S):
        for sp in range(z + 1, S):
            A[z][sp] = Fraction(rng.randint(0, 6), rng.randint(1, 3))
    line = make_line(types, A, H=Fraction(rng.randint(1, 3), rng.randint(1, 3)))
    sizes = [rng.randint(1, 3) for _ in range(4)]
    spec = fr_i(sizes)
    rates = [
        line.demand_rate(z) * Fraction(rng.randint(0, 4), 4) for z in range(S)
    ]
    return spec, line, rates


def test_loads_match_per_flow_microsimulation():
    rng = random.Random(seed_from_env() + 5)
    for _ in range(200):
        spec, line, rates = random_instance(rng)
        assignment = build_assignment(spec, line)
        profile = simulate_loads(assignment, rates, line, section_capacities(spec))
        expected = oracle_loads(assignment, rates, line)
        assert [list(row) for row in profile.load] == expected


def test_increasing_one_entry_rate_never_decreases_loads():
    rng = random.Random(seed_from_env() + 6)
    for _ in range(50):
        spec, line, rates = random_instance(rng)
        assignment = build_assignment(spec, line)
        before = simulate_loads(assignment, rates, line, section_capacities(spec))
        z = rng.randrange(line.S)
        bumped = list(rates)
        bumped[z] = line.demand_rate(z)
        after = simulate_loads(assignment, bumped, line, section_capacities(spec))
        for n in range(before.N):
            for s in range(before.links):
                assert after.load[n][s] >= before.load[n][s]


def long_split_instance(rng, S):
    """A classified fr_h line of S stations with sparse, uneven demand."""
    types = ["R", *(rng.choice("FR") for _ in range(S - 2)), "F"]
    A = [[Fraction(0)] * S for _ in range(S)]
    for z in range(S):
        if rng.random() < 0.2:
            continue  # some stations originate no demand at all
        for sp in range(z + 1, S):
            if rng.random() < 0.6:
                A[z][sp] = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    line = make_line(types, A, H=Fraction(rng.randint(1, 3), rng.randint(1, 3)))
    rates = [line.demand_rate(z) * Fraction(rng.randint(0, 4), 4) for z in range(S)]
    return line, rates


@pytest.mark.parametrize("rule", ["balanced", "end_preference"])
def test_split_loads_match_per_flow_microsimulation_on_long_lines(rule):
    rng = random.Random(f"{seed_from_env()}/long/{rule}")
    spec = fr_h()
    for S in (2, 3, 9, 17, 24, 30):
        line, rates = long_split_instance(rng, S)
        assignment = build_assignment_split(spec, line, rule=rule)
        profile = simulate_loads(assignment, rates, line, section_capacities(spec))
        assert [list(row) for row in profile.load] == oracle_loads(assignment, rates, line)


# ---------------------------------------------------------------------------
# Proportional sizing
# ---------------------------------------------------------------------------


def test_equal_quarters_split_evenly():
    assert size_sections_proportional([Fraction(1, 4)] * 4, 12) == (3, 3, 3, 3)


def test_uneven_fractions_use_largest_remainders():
    fractions = [Fraction(1, 3), Fraction(1, 3), Fraction(1, 12), Fraction(1, 4)]
    assert size_sections_proportional(fractions, 12) == (4, 4, 1, 3)


def test_single_fraction_takes_whole_train():
    assert size_sections_proportional([Fraction(1)], 7) == (7,)


def test_sizing_rejects_non_unit_sum():
    with pytest.raises(DimensionMismatch):
        size_sections_proportional([Fraction(1, 2)], 4)


@given(
    st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=40),
)
@settings(deadline=None)
def test_sizing_error_below_one_unit(raw, M):
    total = sum(raw)
    if total == 0:
        raw, total = [Fraction(1)], Fraction(1)
    fractions = [x / total for x in raw]
    sizes = size_sections_proportional(fractions, M)
    assert sum(sizes) == M
    for f, m in zip(fractions, sizes):
        assert abs(f * M - m) < 1


# ---------------------------------------------------------------------------
# Capacity reports
# ---------------------------------------------------------------------------


def test_fr_gain_is_four_thirds(fr_line_full):
    spec = fr_i()
    profile = simulate_loads(
        build_assignment(spec, fr_line_full),
        full_rates(fr_line_full),
        fr_line_full,
        section_capacities(spec),
    )
    report = capacity_report(profile, spec, fr_line_full)
    assert report.occupancy == (1, 1, 1, 1)
    assert report.gain == Fraction(4, 3)


def test_ftr_gain_is_two(ftr_line_full):
    spec = exactly_one_ftr()
    profile = simulate_loads(
        build_assignment(spec, ftr_line_full),
        full_rates(ftr_line_full),
        ftr_line_full,
        section_capacities(spec),
    )
    report = capacity_report(profile, spec, ftr_line_full)
    assert report.mlp_link == 2
    assert report.occupancy == (1, 1, 1, 1)
    assert report.gain == Fraction(2)


def test_short_platform_reference_gives_three_halves(fr_line_full):
    spec = fr_i()
    profile = simulate_loads(
        build_assignment(spec, fr_line_full),
        full_rates(fr_line_full),
        fr_line_full,
        section_capacities(spec),
    )
    report = capacity_report(profile, spec, fr_line_full, reference_units=8)
    assert report.gain == Fraction(3, 2)


def test_mlp_is_scale_invariant_and_ties_go_left():
    rng = random.Random(seed_from_env() + 7)
    for _ in range(30):
        spec, line, rates = random_instance(rng)
        assignment = build_assignment(spec, line)
        caps = section_capacities(spec)
        one = capacity_report(simulate_loads(assignment, rates, line, caps), spec, line)
        doubled = [2 * r for r in rates]
        two = capacity_report(simulate_loads(assignment, doubled, line, caps), spec, line)
        assert one.mlp_link == two.mlp_link


# ---------------------------------------------------------------------------
# Access penalty and headway correction
# ---------------------------------------------------------------------------


def test_access_penalty_analytic_value():
    assert access_penalty_ftr(("F", "R", "T")) == Fraction(1, 27)


def test_access_penalty_zero_when_all_pairs_served():
    assert access_penalty_ftr(("T", "T", "T")) == 0
    assert access_penalty_ftr(("F", "T")) == 0


def test_access_penalty_monte_carlo_oracle():
    estimate = access_penalty_ftr_mc(("F", "R", "T"), draws=10**6, seed=seed_from_env())
    assert abs(estimate - 1 / 27) < 0.001


def test_headway_correction_values():
    assert abs(headway_correction(70, 30) - 2.333) < 0.001
    assert headway_correction(0, 30) == 0
    assert abs(headway_correction(200, 30) - 6.67) < 0.01
    with pytest.raises(NonpositiveSpeed):
        headway_correction(70, 0)


def test_capacity_reduction_is_about_one_and_a_half_percent():
    reduction = headway_capacity_reduction(70, 30, 157)
    assert abs(reduction - 0.015) < 0.001
