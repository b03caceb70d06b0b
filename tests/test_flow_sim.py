"""Assignment, load simulation, capacity metrics and the access penalty."""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xltops import (
    access_penalty_ftr,
    build_assignment,
    build_s52_2,
    build_assignment_split,
    capacity_report,
    chart_to_protocol,
    fr_h,
    fr_i,
    ftr,
    generate_s,
    greedy_presentation_refine,
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
    XltError,
)
import xltops.core_model as core_model
import xltops.flow_sim as flow_sim
import xltops.s_family as s_family
from xltops.flow_sim import (
    LoadProfile,
    capacity_shares,
    link_sums,
    max_load_point,
    max_unit_density,
)

from conftest import (
    access_penalty_ftr_mc,
    exactly_one_ftr,
    load_coefficients,
    make_line,
    oracle_end_preference,
    oracle_loads,
    oracle_pair_overlap,
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


def test_simulate_loads_needs_one_capacity_per_section(fr_line_full):
    """Three capacities for fr_i's four sections would leave section 4 untested."""
    assignment = build_assignment(fr_i(), fr_line_full)
    for caps in ((1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(DimensionMismatch, match=f"{len(caps)} section capacities for 4"):
            simulate_loads(assignment, full_rates(fr_line_full), fr_line_full, caps)


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
    with pytest.raises(ValueError) as raised:
        build_assignment_split(spec, fr_line_full, rule="nearest")
    assert isinstance(raised.value, XltError)
    assert str(raised.value) == "unknown split rule 'nearest'"


def test_capacity_shares_follow_section_capacity():
    caps = (1, 1, 3, 0)
    assert capacity_shares([1, 2], caps) == ((1, 1, 4), (2, 3, 4))
    assert capacity_shares([2, 3], caps) == ((2, 3, 3),)  # no share for zero capacity
    assert capacity_shares([3], caps) == ((3, 1, 1),)  # none has capacity: even split
    assert capacity_shares([], caps) == ()


def test_presented_flows_share_out_in_full():
    # No demand, so fr_h presenting each pair by two or three sections is not ambiguous.
    line = make_line(("R", "F", "R", "F"), [[0] * 4 for _ in range(4)])
    assignment = build_assignment(fr_h(), line)
    for z in range(4):
        for sp in range(z + 1, 4):
            shares = assignment.flows[z][sp]
            assert len(shares) > 1 and sum(Fraction(p, q) for _, p, q in shares) == 1
    profile = simulate_loads(assignment, [0] * 4, line, section_capacities(fr_h()))
    assert all(x == 0 for row in profile.load for x in row)


def test_float_unit_capacities_read_as_line_numbers_do():
    spec = fr_i()
    spec = replace(spec, trains=(replace(spec.trains[0], capacities=(0.3,) * 12),))
    assert section_capacities(spec) == (Fraction(9, 10),) * 4
    line = make_line(("F", "R", "F"), [[0, 0, 3], [0, 0, 0], [0, 0, 0]], H=0.3)
    profile = simulate_loads(
        build_assignment(spec, line), full_rates(line), line, section_capacities(spec)
    )
    assert profile.load[0] == (Fraction(9, 10),) * 2
    assert profile.overcrowded == ()


def written(rng, x: Fraction):
    """x as a caller may write it: an int, a float, a "p/q" string or a Fraction."""
    forms = [Fraction, lambda x: f"{x.numerator}/{x.denominator}"]
    if x.denominator == 1:
        forms.append(int)
    if 10 % x.denominator == 0:  # a decimal, so its float reads back as x
        forms.append(float)
    return rng.choice(forms)(x)


def random_capacity_spec(rng):
    """fr_h, fr_i or ftr with unit capacities of mixed forms, zeros included; and each
    section's capacity, summed here as ``Fraction``s."""
    sizes = tuple(rng.randint(1, 3) for _ in range(4))
    spec = rng.choice((fr_h(rng.randint(1, 3)), fr_i(sizes), ftr(rng.randint(1, 2))))
    train = spec.trains[0]
    empty = rng.sample(range(train.N), rng.randint(0, train.N))  # sections of zero capacity
    values = [Fraction(0) if row.index(1) in empty or rng.random() < 0.2
              else Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 10))) for row in spec.u[0]]
    caps = tuple(sum((x for x, row in zip(values, spec.u[0]) if row[n]), Fraction(0))
                 for n in range(train.N))
    train = replace(train, capacities=tuple(written(rng, x) for x in values))
    return replace(spec, trains=(train,)), caps


def test_balanced_shares_are_integers_that_follow_section_capacity():
    """Each presented flow's shares are integer triples (n, p, q) whose p's sum to q, and
    each share is the section's capacity over the presenting sections' total: an even
    split if that total is 0, all of the flow for a lone presenting section."""
    rng = random.Random(seed_from_env() + 47)
    forms = set()
    for _ in range(150):
        spec, caps = random_capacity_spec(rng)
        forms.update(map(type, spec.trains[0].capacities))
        assert section_capacities(spec) == caps
        S = rng.randint(2, 6)
        types = [rng.choice(spec.stations.types) for _ in range(S)]
        ti = spec.stations.indices(types)
        assignment = build_assignment_split(spec, make_line(types, [[0] * S] * S))
        for z, sp in itertools.combinations(range(S), 2):
            shares = assignment.flows[z][sp]
            sections = [n for n in range(len(caps)) if spec.p[0][n][ti[z]][ti[sp]]]
            assert bool(shares) == bool(sections)
            assert all(type(x) is int for share in shares for x in share)
            assert all(p > 0 for _, p, _ in shares)  # a listed share is never 0
            if shares:
                (q,) = {q for _, _, q in shares}
                assert sum(p for _, p, _ in shares) == q
            total = sum((caps[n] for n in sections), Fraction(0))
            for n in range(len(caps)):
                if n not in sections:
                    expected = 0
                elif len(sections) == 1:
                    expected = 1
                elif total == 0:
                    expected = Fraction(1, len(sections))
                else:
                    expected = caps[n] / total
                assert assignment.share(n, z, sp) == expected
    assert forms == {int, float, str, Fraction}


def test_a_built_train_is_not_read_again(monkeypatch):
    """Section capacities, both splits and the refinement take the integers the train kept
    when it was built: no number is read again."""
    spec = fr_h()
    caps = (0.3, "1/2", Fraction(2, 3), 1) * 3
    spec = replace(spec, trains=(replace(spec.trains[0], capacities=caps),))
    line = make_line(("F", "R", "F", "R"), [[0, 1, 2, 3], [0, 0, 1, 2], [0, 0, 0, 1], [0] * 4])
    reads = []

    def counted(name, read):
        def wrapper(*args):
            reads.append(name)
            return read(*args)
        return wrapper

    for module in (core_model, flow_sim, s_family):
        for name in ("_read_numbers", "_keyed_numbers", "_as_fraction"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    C_n = section_capacities(spec)
    for rule in ("balanced", "end_preference"):
        build_assignment_split(spec, line, rule=rule)
    greedy_presentation_refine(spec, line)
    assert reads == []
    assert C_n == (Fraction(22, 15), Fraction(9, 5), Fraction(59, 30), Fraction(13, 6))


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


def by_row(rows, riders):
    """Riders (row, z, sp, p, q) grouped as ``link_sums`` takes them: (z, sp, p, q) per row."""
    grouped = [[] for _ in range(rows)]
    for row, *rider in riders:
        grouped[row].append(tuple(rider))
    return grouped


def link_loads(rows, S, riders):
    """Each row of ``link_sums`` as loads, one ``Fraction(v, k)`` each."""
    return [[Fraction(v, k) for v in row] for k, row in link_sums(S, by_row(rows, riders))]


def test_link_loads_puts_each_rider_on_the_links_it_rides():
    riders = [(0, 0, 3, 1, 1), (1, 1, 2, 2, 1), (0, 2, 3, 10, 2)]
    assert link_loads(2, 4, riders) == [[1, 1, 6], [0, 2, 0]]
    assert link_loads(1, 1, []) == [[]]


def naive_link_loads(rows, S, riders):
    """One ``Fraction`` sum per row and link over the riders on it."""
    return [[sum((Fraction(p, q) for r, z, sp, p, q in riders if r == row and z <= s < sp),
                 Fraction(0)) for s in range(S - 1)] for row in range(rows)]


@pytest.mark.parametrize("S", [1, 2, 3, 7, 12])
def test_link_loads_match_a_per_link_fraction_sum(S):
    """Denominators up to 10^9, zero and negative amounts, unreduced pairs,
    riders to the last station, and rows no rider reaches."""
    rng = random.Random(seed_from_env() + 41 + S)
    for _ in range(40):
        rows = rng.randint(1, 5)
        riders = []
        for _ in range(rng.randint(0, 30) if S > 1 else 0):
            z = rng.randrange(S - 1)
            sp = S - 1 if rng.random() < 0.3 else rng.randint(z + 1, S - 1)
            q = rng.choice((1, 2, 6, rng.randint(1, 10**9)))
            p = rng.choice((0, rng.randint(-10**9, 10**9), rng.randint(-9, 9)))
            t = rng.choice((1, 1, 4))  # p·t/(q·t): not in lowest terms
            riders.append((rng.randrange(rows - 1) if rows > 1 else 0, z, sp, p * t, q * t))
        loads = link_loads(rows, S, riders)
        assert loads == naive_link_loads(rows, S, riders)
        assert all(type(x) is Fraction for row in loads for x in row)
        if rows > 1:
            assert loads[-1] == [0] * (S - 1)  # the last row gets no riders
        sums = link_sums(S, by_row(rows, riders))
        assert [[Fraction(v, k) for v in row] for k, row in sums] == loads
        assert sums[-1][0] == 1 or rows == 1


def test_unit_density_stays_exact_on_integral_loads():
    """Whole-number loads, as Fractions or as ints over a common denominator
    (the refinement's rows), still give a Fraction density, never a float."""
    loads = link_loads(2, 3, [(0, 0, 2, 6, 1), (1, 1, 2, 4, 2)])
    assert loads == [[6, 6], [0, 2]]
    for rows in (loads, [[6, 6], [0, 2]], [[10**17 + 1, 0], [0, 0]]):
        density = max_unit_density(rows, [4, 3])
        assert type(density) is Fraction and density == Fraction(max(rows[0]), 4)


def test_demand_no_section_presents_is_reported():
    # On S(3, 2) no unit stops at both A and C, so the A -> C flow has no section.
    spec = chart_to_protocol(generate_s(3, 2, 4), ("A", "B", "C"))
    line = make_line(("A", "B", "C"), [[0, 1, 10], [0, 0, 2], [0, 0, 0]], H=Fraction(1, 2))
    assignment = build_assignment_split(spec, line)
    profile = simulate_loads(assignment, full_rates(line), line, section_capacities(spec))
    assert profile.unserved == ((0, 2, 5),)
    assert [list(row) for row in profile.load] == oracle_loads(assignment, full_rates(line), line)
    metered = simulate_loads(assignment, [0, 2, 0], line, section_capacities(spec))
    assert metered.unserved == ()


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


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**40, 10**40), st.integers(1, 10**30), st.integers(2, 10**6))
def test_int_over_int_is_the_float_of_the_fraction_to_the_bit(v, k, t):
    """``xlt simulate`` prints a load v/k as v / k.  True division of ints is correctly
    rounded, so it is ``float(Fraction(v, k))`` bit for bit, also when v and k share a factor."""
    for a, b in ((v, k), (v * t, k * t)):
        assert (a / b).hex() == float(Fraction(a, b)).hex()


def test_equal_loads_through_different_scales_give_equal_profiles():
    """A profile keeps each row reduced, so equal loads compare and hash equal whatever
    scale they were summed over: an entry rate of Fraction(2, 4), 1/2 or 0.5, and A as
    ints, as whole floats, or with one row divided by 3, which puts the line on scale 3
    and thins the same flows over other denominators.  ``load`` reads as the oracle."""
    spec = fr_i()
    types = ("R", "F", "R", "F", "F")
    A = [[0, 3, 1, 2, 6], [0, 0, 4, 0, 2], [0, 0, 0, 5, 1], [0, 0, 0, 0, 7], [0] * 5]
    thirds = [row if z != 1 else [Fraction(x, 3) for x in row] for z, row in enumerate(A)]
    lines = [make_line(types, A, H=Fraction(1, 2)),
             make_line(types, [[float(x) for x in row] for row in A], H=0.5),
             make_line(types, thirds, H="1/2")]
    assert [line._k for line in lines] == [1, 1, 3]
    runs, profiles = [], []
    for line in lines:
        for half in (Fraction(2, 4), Fraction(1, 2), 0.5):
            rates = [4, half, 3, 2, 0]
            runs.append((line, rates))
            profiles.append(simulate_loads(build_assignment(spec, line), rates, line,
                                           section_capacities(spec)))
    assert flow_sim._thinned(lines[0], runs[0][1]) != flow_sim._thinned(lines[2], runs[0][1])
    assert len(set(profiles)) == 1 and len({hash(p) for p in profiles}) == 1
    for profile, (line, rates) in zip(profiles, runs):
        assert all(math.gcd(k, *row) == 1 for k, row in profile.rows)
        assert all(type(x) is Fraction for row in profile.load for x in row)
        assert [list(row) for row in profile.load] == oracle_loads(
            build_assignment(spec, line), rates, line)
    assert any(x for row in profiles[0].load for x in row)


@pytest.mark.parametrize("A0, k", [([0, 2, 4], 1), ([0, Fraction(1, 3), Fraction(1, 2)], 6)])
def test_entry_rates_are_checked_against_each_stations_demand_on_the_lines_scale(A0, k):
    """0 <= E_z <= A_z is tested on the line's integers: a rate at the demand passes, and
    one just above it or below 0 is refused, also when A puts the line on a scale k > 1."""
    line = make_line(("R", "F", "R"), [A0, [0, 0, 1], [0, 0, 0]])
    assert line._k == k
    spec = fr_i()
    assignment, caps = build_assignment(spec, line), section_capacities(spec)
    A_0 = sum(A0, Fraction(0))
    assert simulate_loads(assignment, [A_0, 1, 0], line, caps).load[1] == (0, 1)
    for bad in (A_0 + Fraction(1, 10**9), Fraction(-1, 10**9), A_0 + 1, math.ceil(A_0 + 1)):
        with pytest.raises(DimensionMismatch, match="lies outside"):
            simulate_loads(assignment, [bad, 1, 0], line, caps)


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


def coefficient_cases(rng):
    """fr_i under its exact assignment, fr_h under both splits and chart protocols, S <= 30."""
    for S in (2, 5, 12, 30):
        spec, line, rates = random_instance(rng)
        yield build_assignment(spec, line), line, rates
        line, rates = long_split_instance(rng, S)
        for rule in ("balanced", "end_preference"):
            yield build_assignment_split(fr_h(), line, rule=rule), line, rates
        chart = generate_s(*rng.choice([(3, 2), (4, 3), (5, 2)]), 6)
        labels = [bar.label for bar in chart.bars]
        types = [rng.choice(labels) for _ in range(S)]
        A = [[Fraction(rng.randint(0, 6), rng.randint(1, 3)) if sp > z else 0 for sp in range(S)]
             for z in range(S)]
        line = make_line(types, A, H=Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        rates = [line.demand_rate(z) * Fraction(rng.randint(0, 4), 4) for z in range(S)]
        yield build_assignment_split(chart_to_protocol(chart, types), line), line, rates


def test_load_coefficients_reproduce_per_flow_microsimulation():
    rng = random.Random(f"{seed_from_env()}/coefficients")
    for assignment, line, rates in coefficient_cases(rng):
        coef = load_coefficients(assignment, line)
        assert all(type(a) is int for table in coef for k, row in table for a in (k, *row))
        loads = [[sum((Fraction(a, k) * e for a, e in zip(row, rates)), Fraction(0))
                  for k, row in table] for table in coef]
        assert loads == oracle_loads(assignment, rates, line)


@pytest.mark.parametrize("rule", ["balanced", "end_preference"])
def test_unserved_matches_a_per_flow_oracle(rule):
    """Each demanded flow between types whose bars share no unit is reported unserved,
    in (origin, destination) order, at H·E_z·A[z][sp]/A_z passengers per train."""
    rng = random.Random(f"{seed_from_env()}/unserved/{rule}")
    reported = 0
    for _ in range(40):
        chart = generate_s(*rng.choice([(4, 2), (5, 2), (6, 3)]), 6)  # far bars do not meet
        labels = [bar.label for bar in chart.bars]
        S = rng.randint(2, 14)
        types = [rng.choice(labels) for _ in range(S)]
        A = [[Fraction(rng.randint(0, 6), rng.randint(1, 3)) if sp > z else 0 for sp in range(S)]
             for z in range(S)]
        line = make_line(types, A, H=Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        rates = [line.demand_rate(z) * Fraction(rng.randint(0, 4), 4) for z in range(S)]
        spec = chart_to_protocol(chart, types)
        assignment = build_assignment_split(spec, line, rule=rule)
        profile = simulate_loads(assignment, rates, line, section_capacities(spec))
        expected = []
        for z in range(S):
            for sp in range(z + 1, S):
                if A[z][sp] and rates[z] and oracle_pair_overlap(chart, types[z], types[sp]) == 0:
                    A_z = sum(A[z], Fraction(0))
                    expected.append((z, sp, line.H * rates[z] * A[z][sp] / A_z))
        assert profile.unserved == tuple(expected)
        reported += len(expected)
    assert reported > 40


@pytest.mark.parametrize("ctor", [fr_h, ftr])
def test_end_preference_matches_the_per_link_reference(ctor):
    rng = random.Random(f"{seed_from_env()}/end-preference/{ctor.__name__}")
    for trial in range(150):
        spec = ctor(rng.randint(1, 2))
        train = spec.trains[0]
        if trial % 5 == 0:
            caps = (0,) * train.M  # no section ever has room
        else:
            caps = tuple(rng.choice([0, 0, Fraction(1, 2), 1, 2, 4]) for _ in range(train.M))
        spec = replace(spec, trains=(replace(train, capacities=caps),))
        S = rng.randint(2, 12)
        types = [rng.choice(spec.stations.types) for _ in range(S)]
        A = [[Fraction(0)] * S for _ in range(S)]
        for z in range(S):
            for sp in range(z + 1, S):
                if rng.random() < 0.6:
                    A[z][sp] = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        line = make_line(types, A, H=Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        expected = oracle_end_preference(spec, line)
        assert build_assignment_split(spec, line, rule="end_preference") == expected


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


def test_sizing_rejects_a_negative_fraction():
    with pytest.raises(DimensionMismatch, match="nonnegative"):
        size_sections_proportional([Fraction(-1, 2), Fraction(3, 2)], 4)


@pytest.mark.parametrize("M", [5.5, -4, True], ids=["fractional", "negative", "boolean"])
def test_sizing_rejects_a_unit_count_that_is_not_a_whole_number(M):
    with pytest.raises(DimensionMismatch, match="unit count M"):
        size_sections_proportional([Fraction(1, 2), Fraction(1, 2)], M)


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
        halved = [r / 2 for r in rates]  # doubling could exceed a station's demand
        two = capacity_report(simulate_loads(assignment, halved, line, caps), spec, line)
        assert one.mlp_link == two.mlp_link


def fraction_sum_max_load_point(profile):
    """The first link of maximum total load, each column summed as ``Fraction``s."""
    totals = [sum(column, Fraction(0)) for column in zip(*profile.load)]
    return totals.index(max(totals))


def test_max_load_point_breaks_ties_left_across_rows_of_different_scales():
    # Links 0 and 1 both total 5/6, over rows of scale 2, 3 and 6.
    profile = LoadProfile(rows=((2, (1, 0, 0)), (3, (1, 0, 1)), (6, (0, 5, 1))), C_n=(),
                          overcrowded=(), unserved=())
    assert max_load_point(profile) == fraction_sum_max_load_point(profile) == 0
    rng = random.Random(seed_from_env() + 43)
    ties = 0
    for _ in range(300):
        links = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 5)):
            k = rng.choice((1, 2, 3, 6, 10**9 + 7))
            row = [rng.randint(0, 3) * rng.choice((1, k)) for _ in range(links)]
            g = math.gcd(k, *row)
            rows.append((k // g, tuple(v // g for v in row)))
        profile = LoadProfile(rows=tuple(rows), C_n=(), overcrowded=(), unserved=())
        totals = [sum(column, Fraction(0)) for column in zip(*profile.load)]
        ties += totals.count(max(totals)) > 1
        assert max_load_point(profile) == fraction_sum_max_load_point(profile)
    assert ties >= 10  # about 30 in 300 under any seed


def test_one_station_line_has_no_maximum_load_point():
    spec = fr_i()
    line = make_line(("R",), [[0]])
    profile = simulate_loads(
        build_assignment(spec, line), [Fraction(0)], line, section_capacities(spec)
    )
    assert profile.links == 0
    with pytest.raises(DimensionMismatch, match="no maximum load point"):
        max_load_point(profile)
    with pytest.raises(DimensionMismatch, match="no maximum load point"):
        capacity_report(profile, spec, line)


# ---------------------------------------------------------------------------
# Access penalty and headway correction
# ---------------------------------------------------------------------------


def test_access_penalty_analytic_value():
    assert access_penalty_ftr(("F", "R", "T")) == Fraction(1, 27)


def test_access_penalty_zero_when_all_pairs_served():
    assert access_penalty_ftr(("T", "T", "T")) == 0
    assert access_penalty_ftr(("F", "T")) == 0
    assert access_penalty_ftr(()) == 0


def test_access_penalty_counts_both_directions_of_each_f_r_pair():
    # c_F = c_R = 2 of 5: 2·2·2/25 of the pairs, each at spacing/6.
    assert access_penalty_ftr(("F", "F", "R", "T", "R")) == Fraction(4, 75)


def test_access_penalty_monte_carlo_oracle():
    estimate = access_penalty_ftr_mc(("F", "R", "T"), draws=10**6, seed=seed_from_env())
    assert abs(estimate - 1 / 27) < 0.001


@pytest.mark.parametrize(
    "call",
    [
        lambda: headway_capacity_reduction(10, 30, float("nan")),
        lambda: headway_capacity_reduction(10, 30, -1 / 3),
        lambda: headway_capacity_reduction(10, 30, 0),
        lambda: headway_capacity_reduction(10, 30, float("inf")),
        lambda: headway_correction(-5, 30),
        lambda: headway_correction(float("nan"), 30),
        lambda: headway_correction(float("inf"), 30),
        lambda: headway_correction("70", 30),
    ],
    ids=["base-nan", "base-negative", "base-zero", "base-infinite", "length-negative",
         "length-nan", "length-infinite", "length-string"],
)
def test_headway_formulas_refuse_a_bad_length_or_base_headway(call):
    """A non-finite or negative extra length, or a non-finite or nonpositive base
    headway, is a DimensionMismatch: not a NaN, a negative headway or a bare
    ZeroDivisionError."""
    with pytest.raises(DimensionMismatch):
        call()


def test_headway_correction_values():
    assert abs(headway_correction(70, 30) - 2.333) < 0.001
    assert headway_correction(0, 30) == 0
    assert abs(headway_correction(200, 30) - 6.67) < 0.01
    with pytest.raises(NonpositiveSpeed):
        headway_correction(70, 0)
    with pytest.raises(NonpositiveSpeed):
        headway_correction(10, float("nan"))
    with pytest.raises(NonpositiveSpeed):
        headway_capacity_reduction(10, float("nan"), 120)


def test_capacity_reduction_is_about_one_and_a_half_percent():
    reduction = headway_capacity_reduction(70, 30, 157)
    assert abs(reduction - 0.015) < 0.001


def test_assignment_needs_a_single_train_type():
    spec = chart_to_protocol(build_s52_2())
    assert spec.K == 2
    line = make_line(("A", "C", "E"), [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(DimensionMismatch, match="single train type"):
        build_assignment(spec, line)
