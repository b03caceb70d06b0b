"""Entry-rate metering: inner linear program and outer search.

The inner problem picks station entry rates E_s maximizing total
passengers served, subject to per-station bounds M_s <= E_s <= A_s and
no overcrowding of any train section on any link.  fr_i presents every
F/R type pair, so every admitted passenger finds a section: the
objective sum E is all served demand, and the profile's ``unserved`` is
empty.  The outer problem
searches station classifications and section sizings of the fr_i
protocol, whose presentation, and so every LP row, does not depend on
the sizing: the LP is built once per classification, and a sizing sets
only its right-hand side, the capacities C_n less the minimum rates' loads.
So the optimal duals of one sizing's LP stay dual feasible for every
sizing of that classification, and by weak duality bound its value by
an affine function of the sizes (a Benders optimality cut); the outer
search solves only the sizings that no such cut rules out.  Before any
LP, a sizing is screened by one integer comparison per section: the
minimum rates fit it only if each section has at least the least size
m with c*m at or above that section's heaviest minimum-rate load.

The inner solver is an exact primal simplex on an integer-preserving
tableau (Edmonds 1967; Bareiss 1968), with Bland's rule, so it
terminates without cycling.  Each row is scaled by the lcm of its
denominators, and a pivot on p = T[r][e] updates every other row to
(p*a - f*b) // d, where d is the previous pivot (1 at the start); the
division is exact, and no gcd is taken.  Every entry is then d times its
value in the rational tableau of the row-scaled problem, with d > 0 and
every row scale positive.  So each sign test and each ratio comparison
(made by cross-multiplying) agrees with the rational tableau's, and
both make the same pivots and give the same x and duals y.  Rates are
shifted by their lower bounds so the all-minimum solution is the
starting vertex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from . import flow_sim
from .core_model import LineInstance, _whole, fr_i, fraction_sum, over_lcm
from .errors import BadSectionCount, DimensionMismatch, InfeasibleMinRates, SearchSpaceTooLarge

_SPEC = fr_i()  # the type labels, end-of-line rule and presentation of every candidate
_N = _SPEC.trains[0].N


@dataclass(frozen=True)
class MeteringProblem:
    """A line, the fr_i train's M units, and the classification and sizing if fixed.

    ``unit_capacity`` is passengers per unit, so a section of size m
    holds c*m passengers per train.
    """

    line: LineInstance
    M: int
    unit_capacity: Fraction | int
    fixed_station_types: tuple[str, ...] | None = None
    fixed_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.unit_capacity > 0:
            raise DimensionMismatch(f"unit capacity must be positive, not {self.unit_capacity}")


@dataclass(frozen=True)
class BindingConstraint:
    kind: str  # "lower", "upper", or "load"
    indices: tuple  # (station,) or (section, link), 1-based


@dataclass(frozen=True)
class MeteringSolution:
    E: tuple[Fraction, ...]
    station_types: tuple[str, ...]
    section_sizes: tuple[int, ...]
    objective: Fraction
    profile: flow_sim.LoadProfile
    binding: tuple[BindingConstraint, ...]


def _simplex_max(
    c: Sequence[Fraction],
    A_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
) -> tuple[list[Fraction], list[Fraction]]:
    """Maximize c.x subject to A_ub x <= b_ub, x >= 0 (all b_ub >= 0).

    Returns an optimal x and optimal duals y, the slack columns of the
    final objective row: y >= 0, y.A_ub >= c and y.b_ub = c.x.

    The tableau holds integers only (see the module docstring): row i is
    scaled by the lcm k_i of its denominators and the objective by k_c,
    the slack columns start as the identity, and every entry is d times
    its value in the rational tableau of that scaled problem.  x_j is
    rhs / d in its basic row, and y_i = k_i * obj_i / (d * k_c).
    """
    n = len(c)
    m = len(b_ub)
    scales = [math.lcm(*(a.denominator for a in row), b.denominator) for row, b in zip(A_ub, b_ub)]
    rows = [
        [a.numerator * (k // a.denominator) for a in row]
        + [int(i == j) for j in range(m)]
        + [b.numerator * (k // b.denominator)]
        for i, (row, b, k) in enumerate(zip(A_ub, b_ub, scales))
    ]
    k_c = math.lcm(*(x.denominator for x in c))
    obj = [-x.numerator * (k_c // x.denominator) for x in c] + [0] * (m + 1)
    basis = list(range(n, n + m))
    d = 1  # the last pivot: every division by it below is exact
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            if rows[i][enter] > 0:
                if leave is None:
                    leave = i
                    continue
                # rhs_i / a_i against rhs_leave / a_leave, cross-multiplied (both a > 0)
                here = rows[i][-1] * rows[leave][enter]
                there = rows[leave][-1] * rows[i][enter]
                if here < there or (here == there and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("objective unbounded (missing upper bounds)")
        pivot = rows[leave]
        p = pivot[enter]
        for i in range(m):
            if i != leave:
                f = rows[i][enter]
                rows[i] = [(p * a - f * b) // d for a, b in zip(rows[i], pivot)]
        f = obj[enter]
        obj = [(p * a - f * b) // d for a, b in zip(obj, pivot)]
        d = p
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(rows[i][-1], d)
    return x, [Fraction(k * y, d * k_c) for k, y in zip(scales, obj[n:n + m])]


def _check_sizes(problem: MeteringProblem, section_sizes: Sequence[int]) -> tuple[int, ...]:
    try:
        sizes = tuple(_whole(m) for m in section_sizes)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"section sizes must be whole numbers: {exc}") from None
    if sum(sizes) != problem.M or len(sizes) != _N:
        raise DimensionMismatch("section sizes must partition the train")
    if min(sizes) < 1:
        raise BadSectionCount("fr_i needs exactly 4 positive section sizes")
    return sizes


class _ClassificationLP:
    """The LP in x = E - M_min of one classification: its rows (upper bounds,
    then loads per section and link) and the load ``base`` the minimum rates
    put on each section and link are fixed; a sizing sets C_n - base."""

    def __init__(self, problem: MeteringProblem, station_types: Sequence[str]) -> None:
        self.station_types = tuple(station_types)
        self.line = line = replace(problem.line, station_types=self.station_types)
        self.assignment = flow_sim.build_assignment(_SPEC, line)
        self.c = Fraction(problem.unit_capacity)
        self.lo = line.M_min
        self.slack = [line.demand_rate(z) - lo for z, lo in enumerate(self.lo)]
        unit = [[Fraction(int(z == y)) for y in range(line.S)] for z in range(line.S)]
        coef = flow_sim.load_coefficients(self.assignment, line)
        self.rows = unit + [row for table in coef for row in table]
        self.base = flow_sim.section_loads(self.assignment, line, self.lo)
        # Per section, the least size m with c*m >= its heaviest minimum-rate load.
        self.least = [math.ceil(max(row, default=0) / self.c) for row in self.base]

    def admits(self, sizes: tuple[int, ...]) -> bool:
        """Whether the minimum rates fit the sizing: no section below its least size."""
        return all(m >= least for m, least in zip(sizes, self.least))

    def rhs(self, sizes: tuple[int, ...]) -> list[Fraction]:
        """Right-hand sides for one sizing: the demand slack, then C_n - base."""
        C_n = [self.c * m for m in sizes]
        for n, (m, least) in enumerate(zip(sizes, self.least)):
            if m < least:
                s = next(s for s, load in enumerate(self.base[n]) if load > C_n[n])
                raise InfeasibleMinRates(f"minimum rates overload section {n + 1} on link {s + 1}")
        return self.slack + [C_n[n] - load for n, row in enumerate(self.base) for load in row]

    def solve(self, b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
        """Optimal x and duals y against the right-hand sides b."""
        return _simplex_max([Fraction(1)] * len(self.lo), self.rows, b)

    def cut(self, y: Sequence[Fraction]) -> tuple[int, list[int], int]:
        """(K, W, D) with sum x*(m) <= (K + sum_n W_n m_n) / D for every feasible sizing m.

        y is dual feasible for every sizing, since only b depends on it, so
        weak duality bounds each optimum by y.b(m) = k + w.m with
        k = y.b(0) = y.slack - y.base and w_n = c times the sum of section n's duals.
        D is the lcm of the denominators of k and w, and K = k*D, W = w*D.
        """
        S = len(self.lo)
        b_at_zero = self.slack + [-load for row in self.base for load in row]
        k = fraction_sum(yj * bj for yj, bj in zip(y, b_at_zero))
        w = [self.c * fraction_sum(y[S + n * (S - 1):S + (n + 1) * (S - 1)]) for n in range(_N)]
        D, (K, *W) = over_lcm([k, *w])
        return K, W, D

    def solution(self, sizes: tuple[int, ...], x: list, b: list) -> MeteringSolution:
        S = len(self.lo)
        E = tuple(lo + dx for lo, dx in zip(self.lo, x))
        C_n = tuple(self.c * m for m in sizes)
        tags = [BindingConstraint("upper", (z + 1,)) for z in range(S)] + [
            BindingConstraint("load", (n + 1, s + 1)) for n in range(_N) for s in range(S - 1)
        ]
        binding = [BindingConstraint("lower", (z + 1,)) for z in range(S) if E[z] == self.lo[z]]
        for row, rhs, tag in zip(self.rows, b, tags):
            if sum(r * dx for r, dx in zip(row, x)) == rhs:
                binding.append(tag)
        return MeteringSolution(
            E=E,
            station_types=self.station_types,
            section_sizes=sizes,
            objective=sum(E, Fraction(0)),
            profile=flow_sim.simulate_loads(self.assignment, E, self.line, C_n),
            binding=tuple(binding),
        )


def solve_inner_lp(
    problem: MeteringProblem,
    station_types: Sequence[str],
    section_sizes: Sequence[int],
) -> MeteringSolution:
    """Optimal entry rates for a fixed classification and sizing."""
    sizes = _check_sizes(problem, section_sizes)
    lp = _ClassificationLP(problem, station_types)
    b = lp.rhs(sizes)
    return lp.solution(sizes, lp.solve(b)[0], b)


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`, lex order."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def _classifications(S: int):
    """Every fr_i classification of S stations; a lone station is a first station."""
    types, rule = _SPEC.stations.types, _SPEC.eol_rule
    first = tuple(t for t in types if t in rule.first_types)
    last = tuple(t for t in types if t in rule.last_types)
    choices = (first if s == 0 else last if s == S - 1 else types for s in range(S))
    return itertools.product(*choices)


def solve_outer(problem: MeteringProblem, cap: int = 10**6) -> MeteringSolution:
    """Best (classification, sizing, rates) over every candidate.

    Candidates are visited in lexicographic order of the
    (classification, sizes) encoding; the first optimum found wins, so
    ties resolve to the lexicographically smallest candidate.  Each
    classification's LP is built once, and the solution is assembled
    for the winner only.  A sizing whose minimum rates overload a
    section is skipped, and so is one that a dual cut of an earlier
    sizing of the same classification bounds at or below the incumbent:
    it can at best tie an earlier candidate, so the answer is the one
    that solving every candidate's LP gives.
    """
    if problem.fixed_station_types is not None:
        deltas = [tuple(problem.fixed_station_types)]
    else:
        deltas = list(_classifications(problem.line.S))
    if problem.fixed_sizes is not None:
        sizings = [tuple(problem.fixed_sizes)]
    else:
        sizings = list(_compositions(problem.M, _N))

    count = len(deltas) * len(sizings)
    if count > cap:
        raise SearchSpaceTooLarge(f"{count} candidates exceed the cap of {cap}")
    sizings = [_check_sizes(problem, sizes) for sizes in sizings]

    best = None  # (sum of x, lp, sizes, x, b); sum(E) exceeds sum(x) by the same sum(M_min)
    for delta in deltas:
        lp = _ClassificationLP(problem, delta)
        cuts = []  # (K, W, D) from each solved sizing's duals
        for sizes in sizings:
            if not lp.admits(sizes):
                continue
            # (K + W.m) / D <= best, cross-multiplied: D and the denominator are positive.
            if best is not None and any(
                (K + sum(Wn * mn for Wn, mn in zip(W, sizes))) * best[0].denominator
                <= best[0].numerator * D
                for K, W, D in cuts
            ):
                continue
            b = lp.rhs(sizes)
            x, y = lp.solve(b)
            cuts.append(lp.cut(y))
            if best is None or sum(x) > best[0]:
                best = (sum(x), lp, sizes, x, b)
    if best is None:
        raise InfeasibleMinRates("no enumerated candidate admits feasible rates")
    return best[1].solution(*best[2:])


@dataclass(frozen=True)
class EvenDensityReport:
    densities: tuple[Fraction, ...]  # passengers per unit at the MLP
    ratio: Fraction | None  # max/min over nonzero-size sections; None if a density is 0
    unused_sections: tuple[int, ...]  # 1-based sections with zero MLP density


def even_density_check(solution: MeteringSolution) -> EvenDensityReport:
    """Per-section passenger density at the maximum load point."""
    profile = solution.profile
    mlp = flow_sim.max_load_point(profile)
    densities = tuple(
        profile.load[n][mlp] / solution.section_sizes[n]
        if solution.section_sizes[n]
        else Fraction(0)
        for n in range(profile.N)
    )
    unused = tuple(n + 1 for n, x in enumerate(densities) if x == 0)
    ratio = None
    if densities and min(densities) > 0:
        ratio = max(densities) / min(densities)
    return EvenDensityReport(densities=densities, ratio=ratio, unused_sections=unused)
