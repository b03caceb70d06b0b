"""Shared fixtures and independent oracles for the test suite.

Oracles deliberately re-derive results through a different mechanism
than the implementation: plain nested loops for constraint checking,
station-by-station per-flow bookkeeping for loads, a per-link load
table for the end-preference split, exhaustive step-path
enumeration for routing, vertex enumeration for linear programs, the
rational (``Fraction``) simplex tableau for the integer one, one LP per
candidate for the metering search, and sampling for the access penalty.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from xltops import (
    AssignmentTensor,
    Bar,
    BarChart,
    LineInstance,
    ProtocolSpec,
    StationTypeCatalog,
    TrainTypeSpec,
    build_protocol,
    build_s52_2,
    chart_to_protocol,
    compose_skip_stop,
    fr_h,
    fr_i,
    generate_s,
    section_capacities,
    solve_inner_lp,
)
from xltops.errors import AmbiguousAssignment, InfeasibleMinRates, XltError
from xltops.flow_sim import type_pair_sections


def seed_from_env(default: int = 12345) -> int:
    return int(os.environ.get("XLT_SEED", default))


# ---------------------------------------------------------------------------
# Random protocol specs (structurally valid, behaviourally arbitrary)
# ---------------------------------------------------------------------------


def random_spec(rng: random.Random) -> ProtocolSpec:
    C = rng.randint(1, 3)
    types = tuple("FRT"[:C])
    catalog = StationTypeCatalog(types=types, d={t: rng.randint(1, 5) for t in types})
    K = rng.randint(1, 2)
    trains, u, a, v, p = [], [], [], [], []
    for k in range(K):
        M = rng.randint(2, 6)
        N = rng.randint(1, M)
        trains.append(TrainTypeSpec.uniform(f"k{k}", M=M, N=N))
        cuts = sorted(rng.sample(range(1, M), N - 1)) if N > 1 else []
        bounds = [0, *cuts, M]
        uk = np.zeros((M, N), dtype=int)
        for n in range(N):
            uk[bounds[n] : bounds[n + 1], n] = 1
        u.append(uk)
        a.append(np.array([[rng.randint(0, 1) for _ in range(C)] for _ in range(N)]))
        v.append(np.array([[rng.randint(0, 1) for _ in range(C)] for _ in range(N)]))
        p.append(
            np.array(
                [[[rng.randint(0, 1) for _ in range(C)] for _ in range(C)] for _ in range(N)]
            )
        )
    s = np.array([[rng.randint(0, 1) for _ in range(C)] for _ in range(K)])
    return build_protocol(catalog, trains, u=u, s=s, a=a, v=v, p=p)


def float_e4_specs() -> dict[str, ProtocolSpec]:
    """One-train specs whose float unit lengths put E4's aligned sums near a platform length.

    Tables are plain nested lists.  Each spec aligns at types whose
    aligned float sum is within an ulp or two of the platform length
    (0.1 ten times sums to 0.9999999999999999), or over it by more than
    the 1e-12 tolerance.
    """
    cases = {
        # name: (unit lengths, section sizes, alignment per section, platform length per type)
        "ten-tenths": ((0.1,) * 10, (10,), ((1,),), (1,)),
        "ten-tenths-two-sections": ((0.1,) * 10, (5, 5), ((1,), (1,)), (1,)),
        "one-two-seven-tenths": ((0.1, 0.2, 0.7), (1, 1, 1), ((1,), (1,), (1,)), (1,)),
        "eleven-tenths": ((0.1,) * 11, (11,), ((1,),), (1,)),
        "over-by-2e-12": ((1 + 2e-12,), (1,), ((1,),), (1,)),
        "over-by-5e-13": ((1 + 5e-13,), (1,), ((1,),), (1,)),
        "two-types": ((0.3,) * 4, (2, 2), ((1, 1), (1, 1)), (1, 2)),
        "thirds-of-seven": ((7 / 3,) * 3, (1, 1, 1), ((1, 0), (1, 1), (1, 1)), (7, 4)),
    }
    specs = {}
    for name, (lengths, sizes, a, d) in cases.items():
        types = tuple("FR"[: len(d)])
        M, N = len(lengths), len(sizes)
        train = TrainTypeSpec(label="x", M=M, lengths=lengths, capacities=(1.0,) * M, N=N)
        owner = [n for n, size in enumerate(sizes) for _ in range(size)]
        u = [[int(owner[m] == n) for n in range(N)] for m in range(M)]
        a = [list(row) for row in a]
        p = [[[x * y for y in row] for x in row] for row in a]
        specs[name] = build_protocol(
            StationTypeCatalog(types=types, d=dict(zip(types, d))), [train],
            u=[u], s=[[1] * len(types)], a=[a], v=[a], p=[p],
        )
    return specs


def _base_protocol(rng: random.Random) -> ProtocolSpec:
    kind = rng.choice(["fr_h", "fr_i", "chart", "classified chart", "s52", "skip-stop"])
    if kind == "fr_h":
        return fr_h(rng.randint(1, 3))
    if kind == "fr_i":
        return fr_i([rng.randint(1, 3) for _ in range(4)])
    if kind == "s52":
        return chart_to_protocol(build_s52_2())
    chart = generate_s(rng.randint(2, 6), rng.choice([2, 3]), 6)
    if kind == "skip-stop":
        labels = chart.labels()
        return chart_to_protocol(
            compose_skip_stop(chart, [("1", labels), ("2", ("Z",) + labels[1:])])
        )
    classification = None
    if kind == "classified chart":
        classification = [rng.choice(chart.labels()) for _ in range(rng.randint(2, 6))]
    return chart_to_protocol(chart, classification)


def flipped_specs(rng: random.Random, count: int) -> list[ProtocolSpec]:
    """Seeded fr_h, fr_i and chart_to_protocol specs with a few a, v, s or p bits changed.

    A change sets one entry to its complement, or copies a section's
    door row into one of its presentation rows.  Specs whose changes
    break a structural invariant are left out, so fewer than ``count``
    may be returned.
    """
    specs = []
    for _ in range(count):
        spec = _base_protocol(rng)
        s = [list(row) for row in spec.s]
        a = [[list(row) for row in table] for table in spec.a]
        v = [[list(row) for row in table] for table in spec.v]
        p = [[[list(row) for row in rows] for rows in table] for table in spec.p]
        for _ in range(rng.randint(0, 4)):
            k = rng.randrange(spec.K)
            n, i = rng.randrange(spec.trains[k].N), rng.randrange(spec.C)
            table = rng.choice(["s", "a", "v", "p", "p", "p = v"])
            if table == "s":
                s[k][i] ^= 1
            elif table == "p = v":
                p[k][n][i] = list(v[k][n])
            elif table == "p":
                p[k][n][i][rng.randrange(spec.C)] ^= 1
            else:
                (a if table == "a" else v)[k][n][i] ^= 1
        try:
            specs.append(build_protocol(
                spec.stations, spec.trains, u=spec.u, s=s, a=a, v=v, p=p,
                delta=spec.delta, epsilon=spec.epsilon, eol_rule=spec.eol_rule,
            ))
        except XltError:
            continue
    return specs


# ---------------------------------------------------------------------------
# Nested-loop constraint oracle
# ---------------------------------------------------------------------------


def oracle_violations(spec: ProtocolSpec) -> set[tuple]:
    """Re-evaluate all six behavioural constraints with literal loops."""
    found: set[tuple] = set()
    types = spec.stations.types
    for k, train in enumerate(spec.trains):
        M, N, C = train.M, train.N, spec.C
        uk, ak, vk, pk, sk = spec.u[k], spec.a[k], spec.v[k], spec.p[k], spec.s[k]
        for n in range(N):
            for b in range(M):
                for bp in range(b + 1, M):
                    if uk[b][n] and uk[bp][n]:
                        if any(not uk[m][n] for m in range(b, bp + 1)):
                            found.add(("E1", k, n + 1, b + 1, bp + 1))
        for n in range(N):
            for i in range(C):
                if ak[n][i] and not sk[i]:
                    found.add(("E2", k, n + 1, types[i]))
        for i in range(C):
            for na in range(N):
                for nb in range(na + 1, N):
                    if ak[na][i] and ak[nb][i]:
                        if any(not ak[n][i] for n in range(na, nb + 1)):
                            found.add(("E3", k, types[i], na + 1, nb + 1))
        for i in range(C):
            total = 0.0
            for n in range(N):
                if ak[n][i]:
                    for m in range(M):
                        if uk[m][n]:
                            total += train.lengths[m]
            if total > spec.stations.d[types[i]] + 1e-12:
                found.add(("E4", k, types[i]))
        for n in range(N):
            for i in range(C):
                if vk[n][i] and not ak[n][i]:
                    found.add(("E5", k, n + 1, types[i]))
        for n in range(N):
            for i in range(C):
                for j in range(C):
                    if pk[n][i][j] and not (vk[n][i] and vk[n][j]):
                        found.add(("E6", k, n + 1, types[i], types[j]))
    return found


# ---------------------------------------------------------------------------
# Station-by-station per-flow load oracle
# ---------------------------------------------------------------------------


def oracle_loads(assignment, entry_rates, line: LineInstance):
    """Walk the line, boarding and alighting each O-D flow explicitly."""
    S = line.S
    N = assignment.N
    onboard = [{} for _ in range(N)]  # per section: {(z, sp): passengers}
    loads = [[Fraction(0)] * (S - 1) for _ in range(N)]
    for s in range(S):
        for n in range(N):
            for (z, sp) in [key for key in onboard[n] if key[1] == s]:
                del onboard[n][(z, sp)]
        A_s = line.demand_rate(s)
        if A_s > 0 and entry_rates[s] > 0:
            for sp in range(s + 1, S):
                flow = line.H * Fraction(entry_rates[s]) * line.A[s][sp] / A_s
                if flow == 0:
                    continue
                for n in range(N):
                    share = assignment.share(n, s, sp)
                    if share:
                        onboard[n][(s, sp)] = onboard[n].get((s, sp), Fraction(0)) + flow * share
        if s < S - 1:
            for n in range(N):
                loads[n][s] = sum(onboard[n].values(), Fraction(0))
    return loads


def load_coefficients(
    assignment: AssignmentTensor, line: LineInstance
) -> list[list[tuple[int, list[int]]]]:
    """coef[n][s] = (k, row): row[z]/k passengers per train on section n over link s per unit of E_z.

    Per unit of E_z, the flow from z to sp carries H·A[z][sp]/A_z passengers per train,
    and section n takes ``assignment.share(n, z, sp)`` of them over links z .. sp-1.  Each
    load is a ``Fraction`` sum over those flows, and each section's rows are put over the
    lcm k of their denominators.
    """
    S = line.S
    coef = []
    for n in range(assignment.N):
        unit = [[Fraction(0)] * S for _ in range(S)]  # unit[z][sp]: section n's flow per unit of E_z
        for z, row in enumerate(line.A):
            A_z = sum(row, Fraction(0))
            for sp in range(z + 1, S):
                if row[sp]:
                    unit[z][sp] = line.H * row[sp] / A_z * assignment.share(n, z, sp)
        table = [[sum(unit[z][s + 1:], Fraction(0)) if z <= s else Fraction(0) for z in range(S)]
                 for s in range(S - 1)]
        k = math.lcm(*(x.denominator for row in table for x in row))
        coef.append([(k, [int(x * k) for x in row]) for row in table])
    return coef


def oracle_end_preference(spec: ProtocolSpec, line: LineInstance) -> AssignmentTensor:
    """The end-preference split from a per-link load table per section.

    Flows are placed in (origin, destination) order; each takes its
    quietest presenting section whose load stays within capacity on every
    link it rides, else the section whose heaviest such link is lightest.
    """
    ti, presenting = type_pair_sections(spec, line)
    N = spec.trains[0].N
    S = line.S
    caps = section_capacities(spec)
    busyness = [sum(map(sum, spec.p[0][n])) for n in range(N)]
    preference = [[sorted(sec, key=busyness.__getitem__) for sec in row] for row in presenting]
    running = [[Fraction(0)] * (S - 1) for _ in range(N)]
    flows = [[()] * S for _ in range(S)]
    for z, sp in itertools.combinations(range(S), 2):
        candidates = preference[ti[z]][ti[sp]]
        if line.A[z][sp] == 0 or not candidates:
            continue
        pax = line.H * line.A[z][sp]
        for n in candidates:
            if all(running[n][link] + pax <= caps[n] for link in range(z, sp)):
                chosen = n
                break
        else:
            chosen = min(candidates, key=lambda n: max(running[n][z:sp]))
        flows[z][sp] = ((chosen, 1, 1),)
        for link in range(z, sp):
            running[chosen][link] += pax
    return AssignmentTensor(N, tuple(map(tuple, flows)))


# ---------------------------------------------------------------------------
# Exhaustive step-path routing oracle
# ---------------------------------------------------------------------------


def oracle_pair_overlap(chart: BarChart, label_i: str, label_j: str) -> int:
    """Whole units shared by two bars on the train (riding feasibility)."""
    bi, bj = chart.bar(label_i), chart.bar(label_j)
    if bi.skipped or bj.skipped:
        return 0
    lo = max(bi.b - bi.d, bj.b - bj.d, 0)
    hi = min(bi.b, bj.b, chart.M)
    return max(0, hi - lo)


def oracle_min_transfers(charts, origin: str, destination: str):
    """Enumerate all simple leg sequences; None when unreachable.

    ``charts`` is a list of (train label, BarChart).
    """
    if origin == destination:
        return 0
    types = charts[0][1].labels()
    best = None
    max_legs = len(types)

    def extend(at: str, visited: frozenset, legs: int):
        nonlocal best
        if legs > max_legs or (best is not None and legs >= best + 1):
            return
        for _, chart in charts:
            for other in types:
                if other in visited:
                    continue
                if oracle_pair_overlap(chart, at, other) >= 1:
                    if other == destination:
                        cand = legs + 1 - 1
                        if best is None or cand < best:
                            best = cand
                    else:
                        extend(other, visited | {other}, legs + 1)

    extend(origin, frozenset({origin}), 0)
    return best


def oracle_optimal_plans(charts, origin: str, destination: str):
    """Every minimum-leg plan as (train, board, alight) triples; None when unreachable.

    Extends every simple leg sequence straight from ``oracle_pair_overlap``,
    capped at the fewest legs ``oracle_min_transfers`` finds, and sorts
    the plans by their (board, alight, train) legs.
    """
    if origin == destination:
        return [()]
    best = oracle_min_transfers(charts, origin, destination)
    if best is None:
        return None
    types = charts[0][1].labels()
    cap = best + 1
    plans = []

    def extend(at: str, visited: frozenset, legs: tuple):
        if at == destination:
            plans.append(legs)
            return
        if len(legs) == cap:
            return
        for train, chart in charts:
            for other in types:
                if other not in visited and oracle_pair_overlap(chart, at, other) >= 1:
                    extend(other, visited | {other}, legs + ((train, at, other),))

    extend(origin, frozenset({origin}), ())
    return sorted(plans, key=lambda legs: [(board, alight, train) for train, board, alight in legs])


# ---------------------------------------------------------------------------
# Exact LP oracles: vertex enumeration and the rational simplex tableau
# ---------------------------------------------------------------------------


def _solve_square(rows, rhs):
    """Gaussian elimination over Fraction; None if singular."""
    n = len(rhs)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def oracle_lp_max(c, A_ub, b_ub, A_eq=(), b_eq=()):
    """Maximize c.x over {A_ub x <= b_ub, A_eq x = b_eq} by vertex enumeration."""
    n = len(c)
    rows = [list(r) for r in A_ub] + [list(r) for r in A_eq]
    rhs = list(b_ub) + list(b_eq)
    eq_idx = list(range(len(b_ub), len(rhs)))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        if any(i not in combo for i in eq_idx):
            continue
        x = _solve_square([rows[i] for i in combo], [rhs[i] for i in combo])
        if x is None:
            continue
        feasible = all(
            sum(rows[i][j] * x[j] for j in range(n)) <= rhs[i] for i in range(len(b_ub))
        ) and all(
            sum(rows[i][j] * x[j] for j in range(n)) == rhs[i] for i in eq_idx
        )
        if not feasible:
            continue
        val = sum(c[j] * x[j] for j in range(n))
        if best is None or val > best[0]:
            best = (val, x)
    return best


def oracle_simplex_max(c, A_ub, b_ub):
    """Primal simplex over a ``Fraction`` tableau: maximize c.x, A_ub x <= b_ub, x >= 0.

    The rational tableau the metering LP used before its integer-preserving
    one: Bland's rule (first improving column; least ratio, ties to the
    smallest basic variable), every pivot row divided by its pivot.  Returns
    an optimal x and the duals y, the slack columns of the final objective row.
    """
    n = len(c)
    m = len(b_ub)
    # Tableau rows: [A | I | b]; objective row: [-c | 0 | 0].
    rows = [list(A_ub[i]) + [Fraction(int(i == j)) for j in range(m)] + [b_ub[i]] for i in range(m)]
    obj = [-Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if (best is None or ratio < best[0]
                        or (ratio == best[0] and basis[i] < basis[best[1]])):
                    best = (ratio, i)
        if best is None:
            raise ArithmeticError("objective unbounded (missing upper bounds)")
        _, leave = best
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter]:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
        if obj[enter]:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, rows[leave])]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rows[i][-1]
    return x, obj[n:n + m]


# ---------------------------------------------------------------------------
# Exhaustive metering search, one LP per candidate
# ---------------------------------------------------------------------------


def oracle_metering_outer(problem):
    """Best candidate of the full (classification, sizing) product; None if none is feasible.

    Every candidate goes through the one-candidate ``solve_inner_lp`` in
    lexicographic order, candidates whose minimum rates overload a
    section (or whose pairs are presented ambiguously) are skipped, and
    the first strict maximum wins.
    """
    spec = fr_i()
    types, rule, S, M = spec.stations.types, spec.eol_rule, problem.line.S, problem.M
    if problem.fixed_station_types is not None:
        deltas = [tuple(problem.fixed_station_types)]
    else:
        choices = []
        for s in range(S):
            if s == 0:
                choices.append(tuple(t for t in types if t in rule.first_types))
            elif s == S - 1:
                choices.append(tuple(t for t in types if t in rule.last_types))
            else:
                choices.append(types)
        deltas = list(itertools.product(*choices))
    if problem.fixed_sizes is not None:
        sizings = [tuple(problem.fixed_sizes)]
    else:
        sizings = [
            tuple(b - a for a, b in itertools.pairwise((0, *cuts, M)))
            for cuts in itertools.combinations(range(1, M), 3)
        ]
    best = None
    for delta in deltas:
        for sizes in sizings:
            try:
                sol = solve_inner_lp(problem, delta, sizes)
            except (InfeasibleMinRates, AmbiguousAssignment):
                continue
            if best is None or sol.objective > best.objective:
                best = sol
    return best


# ---------------------------------------------------------------------------
# Monte-Carlo access-penalty oracle
# ---------------------------------------------------------------------------


def access_penalty_ftr_mc(
    spacing_pattern=("F", "R", "T"),
    draws: int = 10**6,
    seed: int | None = None,
) -> float:
    """Monte-Carlo estimate of the access penalty (stochastic oracle).

    Draws origin and destination types from the pattern frequencies and,
    for affected trips, samples the per-end extra distances and keeps
    the cheaper end.
    """
    rng = np.random.default_rng(seed)
    labels = sorted(set(spacing_pattern))
    freq = np.array([list(spacing_pattern).count(l) for l in labels], dtype=float)
    freq /= freq.sum()
    o = rng.choice(len(labels), size=draws, p=freq)
    d = rng.choice(len(labels), size=draws, p=freq)
    name = np.array(labels)
    affected = (
        ((name[o] == "F") & (name[d] == "R")) | ((name[o] == "R") & (name[d] == "F"))
    )
    extra_origin = rng.uniform(0.0, 0.5, size=draws)
    extra_dest = rng.uniform(0.0, 0.5, size=draws)
    extra = np.where(affected, np.minimum(extra_origin, extra_dest), 0.0)
    return float(extra.mean())


# ---------------------------------------------------------------------------
# Canonical fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def fig4_routing_chart() -> BarChart:
    """Four staggered bars whose riding edges are A-B, B-C, B-D, C-D."""
    return BarChart(
        M=19,
        bars=(
            Bar("A", b=8, d=8),
            Bar("B", b=10, d=8),
            Bar("D", b=19, d=10),
            Bar("C", b=21, d=13),
        ),
    )


@pytest.fixture
def fig4_uniform_chart() -> BarChart:
    """Same displacements with uniform 8-unit platforms (parts fixture)."""
    return BarChart(
        M=19,
        bars=(
            Bar("A", b=8, d=8),
            Bar("B", b=10, d=8),
            Bar("D", b=19, d=8),
            Bar("C", b=21, d=8),
        ),
    )


def make_line(station_types, A, H=1, platform=9, M_min=(), platform_lengths=None):
    S = len(station_types)
    return LineInstance(
        stations=tuple(f"S{i + 1}" for i in range(S)),
        platform_lengths=platform_lengths or (platform,) * S,
        H=H,
        A=A,
        M_min=M_min,
        station_types=tuple(station_types),
    )


@pytest.fixture
def fr_line_full():
    """Four-station F/R line loading all four fr_i sections to capacity 3."""
    Z = Fraction(0)
    A = [
        [Z, Z, Fraction(3), Fraction(3)],
        [Z, Z, Fraction(3), Fraction(3)],
        [Z, Z, Z, Z],
        [Z, Z, Z, Z],
    ]
    return make_line(("F", "R", "F", "R"), A)


def exactly_one_ftr():
    """F/T/R protocol with a 1:1 pair-to-section correspondence.

    Sections of two units; platforms span two sections.  Section 1
    carries F-F trips, 2 the F/T mixtures, 3 the T/R mixtures, 4 R-R.
    """
    stations = StationTypeCatalog(types=("F", "T", "R"), d={"F": 4, "T": 4, "R": 4})
    train = TrainTypeSpec.uniform("xlt", M=8, N=4)
    u = np.zeros((8, 4), dtype=int)
    for n in range(4):
        u[2 * n : 2 * n + 2, n] = 1
    a = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 1]])
    v = a.copy()
    p = np.zeros((4, 3, 3), dtype=int)
    F, T, R = 0, 1, 2
    p[0, F, F] = 1
    p[1, F, T] = p[1, T, F] = p[1, T, T] = 1
    p[2, T, R] = p[2, R, T] = 1
    p[3, R, R] = 1
    s = np.array([[1, 1, 1]])
    return build_protocol(stations, [train], u=[u], s=s, a=[a], v=[v], p=[p])


@pytest.fixture
def ftr_line_full():
    """Six-station F/T/R line loading all four sections at one link."""
    Z = Fraction(0)
    A = [[Z] * 6 for _ in range(6)]
    A[0][3] = Fraction(2)  # F -> F
    A[1][4] = Fraction(2)  # T -> T
    A[2][4] = Fraction(2)  # R -> T
    A[2][5] = Fraction(2)  # R -> R
    return make_line(("F", "T", "R", "F", "T", "R"), A, platform=4)
