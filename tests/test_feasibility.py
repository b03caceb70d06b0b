"""Constraint checker vs an independent nested-loop oracle."""

import random
import time

import numpy as np
import pytest

from xltops import check, check_eol, check_presentation_standard, fr_h, fr_i, ftr
from xltops.core_model import StationTypeCatalog, TrainTypeSpec, build_protocol
from xltops.errors import NonConsecutiveSection, XltError

from xltops.feasibility import Violation

from conftest import (
    exactly_one_ftr,
    flipped_specs,
    float_e4_specs,
    make_line,
    oracle_violations,
    random_spec,
    seed_from_env,
)


def as_tuples(report):
    return {(v.constraint, *v.indices) for v in report.violations}


def by_constraint(report, constraint):
    return [v for v in report.violations if v.constraint == constraint]


@pytest.mark.parametrize("ctor", [fr_h, fr_i, ftr])
def test_builtin_constructors_are_feasible(ctor):
    assert check(ctor()).feasible


def per_entry_e2_e5(spec):
    """E2 and E5 entry by entry, in check's order and with its details."""
    out = []
    types = spec.stations.types
    for k in range(spec.K):
        for n, row in enumerate(spec.a[k]):
            for i, x in enumerate(row):
                if x and not spec.s[k][i]:
                    out.append(Violation("E2", (k, n + 1, types[i]),
                                         f"section {n + 1} aligned at skipped type {types[i]}"))
        for n, row in enumerate(spec.v[k]):
            for i, x in enumerate(row):
                if x and not spec.a[k][n][i]:
                    out.append(Violation(
                        "E5", (k, n + 1, types[i]),
                        f"section {n + 1} opens doors at type {types[i]} without alignment"))
    return out


def test_e2_and_e5_match_the_per_entry_rule_on_changed_specs():
    specs = flipped_specs(random.Random(seed_from_env() + 8), 300)
    assert len(specs) > 250
    found = {"E2": 0, "E5": 0}
    for spec in specs:
        expected = per_entry_e2_e5(spec)
        assert [v for v in check(spec).violations if v.constraint in found] == expected
        for v in expected:
            found[v.constraint] += 1
    assert min(found.values()) > 50


def test_random_specs_match_oracle_exactly():
    rng = random.Random(seed_from_env())
    start = time.monotonic()
    for _ in range(1000):
        spec = random_spec(rng)
        assert as_tuples(check(spec)) == oracle_violations(spec)
    assert time.monotonic() - start < 30


def test_build_protocol_rejects_exactly_the_split_sections():
    """E1 lives in build_protocol: it refuses a u table iff some section has a gap."""
    rng = random.Random(seed_from_env() + 3)
    cat = StationTypeCatalog(types=("F",), d={"F": 9})
    refused = 0
    for _ in range(500):
        M = rng.randint(1, 7)
        N = rng.randint(1, M)
        # Every unit in exactly one section and no section empty: only a gap can fail.
        owner = list(range(N)) + [rng.randrange(N) for _ in range(M - N)]
        rng.shuffle(owner)
        if rng.random() < 0.3:
            owner.sort()
        u = np.zeros((M, N), dtype=int)
        u[range(M), owner] = 1
        split = any(
            u[b, n] and u[bp, n] and not all(u[m, n] for m in range(b, bp + 1))
            for n in range(N)
            for b in range(M)
            for bp in range(b + 1, M)
        )
        zeros = np.zeros((N, 1), dtype=int)
        tables = dict(u=[u], s=[[1]], a=[zeros], v=[zeros], p=[zeros[:, :, None]])
        train = TrainTypeSpec.uniform("t", M=M, N=N)
        if split:
            refused += 1
            with pytest.raises(NonConsecutiveSection):
                build_protocol(cat, [train], **tables)
        else:
            assert check(build_protocol(cat, [train], **tables)).feasible
    # The split count over 500 draws averages about 99 (standard deviation about 8.5)
    # across seeds; this bound holds with room on either side.
    assert 60 < refused < 140


def _single_train(a=None, v=None, p=None, s=None, d=6, M=4, N=2):
    cat = StationTypeCatalog(types=("F", "R"), d={"F": d, "R": d})
    train = TrainTypeSpec.uniform("t", M=M, N=N)
    u = np.zeros((M, N), dtype=int)
    per = M // N
    for n in range(N):
        u[n * per : (n + 1) * per, n] = 1
    a = np.ones((N, 2), dtype=int) if a is None else np.asarray(a)
    v = a.copy() if v is None else np.asarray(v)
    p = np.einsum("ni,nj->nij", a, a) if p is None else np.asarray(p)
    s = np.ones((1, 2), dtype=int) if s is None else np.asarray(s)
    return build_protocol(cat, [train], u=[u], s=s, a=[a], v=[v], p=[p])


def test_alignment_at_skipped_type_is_flagged():
    spec = _single_train(s=[[1, 0]])
    report = check(spec)
    assert {v.indices for v in by_constraint(report, "E2")} == {(0, 1, "R"), (0, 2, "R")}


def test_nonconsecutive_alignment_is_flagged():
    spec = _single_train(a=[[1, 0], [0, 0], [1, 0]], M=6, N=3)
    report = check(spec)
    assert [v.indices for v in by_constraint(report, "E3")] == [(0, "F", 1, 3)]


def test_platform_overrun_is_flagged():
    spec = _single_train(d=3)  # two aligned 2-unit sections on a 3-unit platform
    report = check(spec)
    assert {v.indices for v in by_constraint(report, "E4")} == {(0, "F"), (0, "R")}


def test_doors_without_alignment_flagged():
    spec = _single_train(a=[[1, 0], [1, 0]], v=[[1, 1], [1, 0]], p=np.zeros((2, 2, 2)))
    report = check(spec)
    assert [v.indices for v in by_constraint(report, "E5")] == [(0, 1, "R")]


def test_presentation_without_doors_flagged():
    p = np.zeros((2, 2, 2), dtype=int)
    p[0, 0, 1] = 1  # section 1 presents R at F but has no doors at R
    spec = _single_train(a=[[1, 0], [1, 1]], p=p)
    report = check(spec)
    assert [v.indices for v in by_constraint(report, "E6")] == [(0, 1, "F", "R")]


ALL_PAIRS = [("F", "F"), ("F", "R"), ("R", "F"), ("R", "R")]


def test_presentation_standards_distinguish_protocol_variants():
    # full presentation: every pair covered, but middle pairs twice
    full = check_presentation_standard(fr_h(), "at_least_one", ALL_PAIRS)
    assert full.feasible
    exact = check_presentation_standard(fr_h(), "exactly_one", ALL_PAIRS)
    assert {v.indices for v in exact.violations} == {(0, i, j) for i, j in ALL_PAIRS}
    # partial presentation: exactly one section per pair
    assert check_presentation_standard(fr_i(), "exactly_one", ALL_PAIRS).feasible


def test_presentation_standard_rejects_unknown_mode():
    with pytest.raises(ValueError) as raised:
        check_presentation_standard(fr_h(), "at_most_one", ALL_PAIRS)
    assert isinstance(raised.value, XltError)
    assert str(raised.value) == "unknown presentation mode 'at_most_one'"


def test_eol_rule_requires_rear_first_and_front_last():
    spec = fr_i()
    good = make_line(("R", "F"), [[0, 1], [0, 0]])
    assert check_eol(spec, good).feasible
    bad = make_line(("F", "R"), [[0, 1], [0, 0]])
    report = check_eol(spec, bad)
    assert {v.indices for v in report.violations} == {(1, "F"), (2, "R")}


def test_removing_alignment_never_creates_e2_violations():
    rng = random.Random(seed_from_env() + 1)
    checked = 0
    for _ in range(200):
        spec = random_spec(rng)
        k = rng.randrange(spec.K)
        ones = [(n, i) for n, row in enumerate(spec.a[k]) for i, x in enumerate(row) if x == 1]
        if not ones:
            continue
        n, i = ones[rng.randrange(len(ones))]
        a2 = [[list(row) for row in ak] for ak in spec.a]
        a2[k][n][i] = 0
        # doors and presentation must shrink accordingly to stay comparable
        v2 = [[[min(x, y) for x, y in zip(vrow, arow)] for vrow, arow in zip(vk, ak)]
              for vk, ak in zip(spec.v, a2)]
        p2 = [[[[x * vrow[i] * vrow[j] for j, x in enumerate(row)] for i, row in enumerate(rows)]
               for rows, vrow in zip(pk, vk)] for pk, vk in zip(spec.p, v2)]
        spec2 = build_protocol(
            spec.stations, spec.trains, u=spec.u, s=spec.s, a=a2, v=v2, p=p2
        )
        before = {v.indices for v in by_constraint(check(spec), "E2")}
        after = {v.indices for v in by_constraint(check(spec2), "E2")}
        assert after <= before
        checked += 1
    assert checked > 150


def test_removing_boundary_alignment_never_creates_e3_violations():
    rng = random.Random(seed_from_env() + 2)
    checked = 0
    for _ in range(300):
        spec = random_spec(rng)
        k = rng.randrange(spec.K)
        ak = spec.a[k]
        # only drop a 1 that is first or last in its column's aligned set
        candidates = []
        for i, column in enumerate(zip(*ak)):
            rows = [n for n, x in enumerate(column) if x]
            if rows:
                candidates.extend([(rows[0], i), (rows[-1], i)])
        if not candidates:
            continue
        n, i = candidates[rng.randrange(len(candidates))]
        a2 = [[list(row) for row in ak] for ak in spec.a]
        a2[k][n][i] = 0
        spec2 = build_protocol(
            spec.stations, spec.trains, u=spec.u, s=spec.s, a=a2, v=spec.v, p=spec.p
        )
        before = {v.indices for v in by_constraint(check(spec), "E3")}
        after = {v.indices for v in by_constraint(check(spec2), "E3")}
        assert after <= before
        checked += 1
    assert checked > 100


def test_e4_float_sums_at_the_platform_length():
    """E4 sums float unit lengths and allows 1e-12 over the platform; its detail uses {:g}."""
    got = {
        name: [(v.constraint, v.indices, v.detail) for v in check(spec).violations]
        for name, spec in float_e4_specs().items()
    }
    assert got == {
        "ten-tenths": [],
        "ten-tenths-two-sections": [],
        "one-two-seven-tenths": [],
        "eleven-tenths": [("E4", (0, "F"), "aligned length 1.1 exceeds platform 1 at type F")],
        "over-by-2e-12": [("E4", (0, "F"), "aligned length 1 exceeds platform 1 at type F")],
        "over-by-5e-13": [],
        "two-types": [("E4", (0, "F"), "aligned length 1.2 exceeds platform 1 at type F")],
        "thirds-of-seven": [("E4", (0, "R"), "aligned length 4.66667 exceeds platform 4 at type R")],
    }


def test_a_pair_that_no_section_presents_breaks_the_minimum_standard():
    """ftr aligns no section at both F and R, so F->R has no section; F->F has two."""
    report = check_presentation_standard(ftr(), "at_least_one", [("F", "R"), ("F", "F")])
    assert as_tuples(report) == {("PS_MIN", 0, "F", "R")}
    assert len(report) == 1 and not report.feasible


def test_a_spec_without_an_end_of_line_rule_passes_the_end_of_line_check():
    spec = exactly_one_ftr()
    assert spec.eol_rule is None
    report = check_eol(spec, make_line(("R", "T", "F"), [[0] * 3 for _ in range(3)]))
    assert report.feasible and len(report) == 0
