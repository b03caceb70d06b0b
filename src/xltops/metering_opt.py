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
LP, the sizings are screened: the minimum rates fit one only if each
section has at least the least size m with c*m at or above that
section's heaviest minimum-rate load.  The admitted sizings are listed
once per distinct vector of least sizes, and every classification with
that vector walks the same list.

The search runs on Python integers from the line's setup to the winner.
What no classification changes is set up once per search: each demanded
flow per unit of its origin's entry rate, as integers over one scale D
(``flow_sim.unit_flows``), the upper bounds, M_min over the lcm k_lo of
its denominators, and c.  A classification picks only the section each
flow rides, from fr_i's fixed map of type pair to section (``_SECTION``),
so its load rows come from one ``flow_sim.link_sums`` call, and the
minimum rates' load is a row times M_min.  A load row is scaled by
k_lo*den(c), with ck_i = num(c)*D*k_lo, an upper bound by the denominator
of A_z - M_min_z, and each is divided by the gcd of its entries, B0_i and
ck_i, which makes it the one primitive integer form of its constraint.  So a sizing's right-hand side is the integer B0_i +
ck_i*m_n, and the scaled LP, the rational one times positive numbers
row by row, makes the rational one's pivots and gives the same bounds.
A load row with no nonzero entry is left out (the first rule of LP
presolve; Andersen and Andersen 1995): its rhs c*m_n > 0 is never
eliminated, so its slack stays basic, it never wins a ratio test and
never binds, and the pivots, x, duals and cuts are those of every row.
Each kept load row carries its (section, link) label.

The inner solver is an exact primal simplex with Bland's rule on an
integer dictionary (Chvatal 1983, ch. 2-3), rows over their own den_i > 0
(Edmonds 1967; Bareiss 1968): row i holds only the n nonbasic columns and
its rhs, basis[i] and nonbasic[j] name the variables of row i and column j,
and the objective row is over od > 0.  A pivot on p = T[r][e] keeps row r,
but entry e, now the leaving variable's column, becomes den_r, and den_r = p;
a row with f = T[i][e] != 0 becomes p*T[i] - f*T[r] over den_i*p, entry
e = -f*den_r, reduced by the gcd of its entries and denominator.  Each row
is the full tableau's row less columns that hold den_i or 0, so every gcd,
sign test and ratio comparison (cross-multiplied) agrees with the rational
tableau's: same pivots, same x and duals y.  The duals, the cuts and the
incumbent stay integers over od; ``Fraction``s are formed for the winner
alone, on a copy of the line already read (``LineInstance.classified``).
Rates are shifted by their lower bounds so the all-minimum solution is
the starting vertex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import flow_sim
from .core_model import LineInstance, _integer, _number, _whole_sizes, fr_i, over_lcm
from .errors import BadSectionCount, DimensionMismatch, InfeasibleMinRates, SearchSpaceTooLarge

_SPEC = fr_i()  # the type labels, end-of-line rule and presentation of every candidate
_N = _SPEC.trains[0].N
_SECTION = {  # (origin type, destination type): the one section of fr_i that presents it
    (i, j): n for n, rows in enumerate(_SPEC.p[0]) for x, i in enumerate(_SPEC.stations.types)
    for y, j in enumerate(_SPEC.stations.types) if rows[x][y]}


@dataclass(frozen=True)
class MeteringProblem:
    """A line, the fr_i train's M units, and the classification and sizing if fixed.

    ``unit_capacity`` is passengers per unit, read as the line reads its
    numbers and kept as a ``Fraction``: a section of size m holds c*m per train.
    """

    line: LineInstance
    M: int
    unit_capacity: Fraction | int
    fixed_station_types: tuple[str, ...] | None = None
    fixed_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not _integer(self.M):
            raise DimensionMismatch(f"the unit count M must be a whole number, not {self.M!r}")
        c = _number(self.unit_capacity, "unit capacity must be a finite number")
        object.__setattr__(self, "unit_capacity", c)
        if not c > 0:
            raise DimensionMismatch(f"unit capacity must be positive, not {c}")


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


def _simplex_max(obj: list[int], rows: list[list[int]]) -> tuple:
    """Optimal tableau of max c.x subject to A x <= b, x >= 0 (all b >= 0), on integers.

    ``rows`` holds each row [A_i | b_i] as integers and ``obj`` is [-c | 0];
    slack i is variable n + i, and Bland's rule compares variables, not
    columns.  Returns (obj, od, rows, den, basis, nonbasic): row i is basic
    variable basis[i] and column j holds nonbasic[j], the objective row is
    obj / od and row i is rows[i] / den[i] (see the module docstring).  So
    x_j is rows[i][-1] / den[i] in its basic row, obj[-1] / od is c.x, and
    the duals y_i, obj[j] / od where slack i is nonbasic[j] and 0 where it
    is basic, give y >= 0, y.A >= c and y.b = c.x.
    """
    m, n = len(rows), len(obj) - 1
    den, od = [1] * m, 1
    basis, nonbasic = list(range(n, n + m)), list(range(n))
    while True:
        enter = min((j for j in range(n) if obj[j] < 0), key=nonbasic.__getitem__, default=None)
        if enter is None:
            return obj, od, rows, den, basis, nonbasic
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
        pivot = rows[leave]  # keeps its integers; column enter now holds the leaving variable
        p, pivot[enter] = pivot[enter], den[leave]
        for i in range(m):
            f = rows[i][enter]
            if f and i != leave:
                rows[i], den[i] = _eliminate(rows[i], den[i], pivot, p, f, enter)
        obj, od = _eliminate(obj, od, pivot, p, obj[enter], enter)
        den[leave] = p
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]


def _eliminate(row: Sequence[int], d: int, pivot: Sequence[int], p: int, f: int, e: int) -> tuple:
    """(p*row - f*pivot, d*p), with row's entry e read as 0, divided by their gcd."""
    row = [p * a - f * b for a, b in zip(row, pivot)]
    row[e] -= p * f
    d *= p
    g = math.gcd(d, *row)
    if g > 1:
        return [a // g for a in row], d // g
    return row, d


def _check_sizes(problem: MeteringProblem, section_sizes: Sequence[int]) -> tuple[int, ...]:
    sizes = _whole_sizes(section_sizes)
    if sum(sizes) != problem.M or len(sizes) != _N:
        raise DimensionMismatch("section sizes must partition the train")
    if min(sizes) < 1:
        raise BadSectionCount("fr_i needs exactly 4 positive section sizes")
    return sizes


def _classified(line: LineInstance, station_types: Sequence[str]) -> LineInstance:
    """The line under a caller's classification, checked by the line and by fr_i's labels."""
    line = line.classified(station_types)
    _SPEC.stations.indices(line.station_types)
    return line


class _LineLP:
    """What the LPs of one line's classifications share (see the module docstring)."""

    def __init__(self, problem: MeteringProblem) -> None:
        line = problem.line
        self.c = c = problem.unit_capacity
        self.lo = line.M_min
        S = line.S
        self.rows, self.B0 = [], []
        for z, lo in enumerate(self.lo):  # x_z <= A_z - M_min_z, times its denominator
            b = line.demand_rate(z) - lo
            self.rows.append((0,) * z + (b.denominator,) + (0,) * (S - 1 - z))
            self.B0.append(b.numerator)
        k_lo, self.lo_k = over_lcm(self.lo)  # M_min times the lcm of its denominators
        self.D, self.flows = flow_sim.unit_flows(line)
        self.scale, self.ck = k_lo * c.denominator, c.numerator * self.D * k_lo


class _ClassificationLP:
    """The LP in x = E - M_min of one classification: its rows (upper bounds,
    then loads per section and link) are fixed, and a sizing sets only the
    right-hand sides, C_n less the minimum rates' loads on load rows.

    Row i is kept scaled (see the module docstring): the integer row, B0_i,
    its rhs at zero sizes, and ck_i, its coefficient of m_n (0 on an upper bound).
    A load row with no nonzero entry is left out: its rhs c*m_n > 0 keeps its
    slack basic in every tableau, so it changes no pivot and never binds.
    ``labels`` holds the 0-based (section, link) of each load row kept, and
    ``section`` the section of every row (0 on an upper bound, whose ck is 0)."""

    def __init__(self, line_lp: _LineLP, station_types: tuple[str, ...]) -> None:
        self.c, self.lo = line_lp.c, line_lp.lo
        self.station_types = types = station_types
        S, d, ck = len(self.lo), self.c.denominator, line_lp.ck
        # fr_i presents each type pair with one section: a flow rides row section*S + z.
        riders = [[] for _ in range(_N * S)]
        for z, sp, v in line_lp.flows:
            riders[_SECTION[types[z], types[sp]] * S + z].append((z, sp, v, 1))
        sums = flow_sim.link_sums(S, riders)
        self.rows, self.B0, self.ck = list(line_lp.rows), list(line_lp.B0), [0] * S
        self.section, self.labels = [0] * S, []
        self.least = []  # per section, the least m with c*m at or above its heaviest base load
        for n in range(_N):  # row[z]/D: section n's load on link s per unit of E_z
            least = 0
            for s, row in enumerate(zip(*(column for _, column in sums[n * S:(n + 1) * S]))):
                if not any(row):
                    continue
                self.section.append(n)
                self.labels.append((n, s))
                B0 = -d * sum(a * x for a, x in zip(row, line_lp.lo_k))
                row = [a * line_lp.scale for a in row]
                g = math.gcd(B0, ck, *row)
                self.rows.append(tuple(a // g for a in row))
                self.B0.append(B0 // g)
                self.ck.append(ck // g)
                least = max(least, -(B0 // ck))
            self.least.append(least)

    def admits(self, sizes: tuple[int, ...]) -> bool:
        """Whether the minimum rates fit the sizing: no section below its least size."""
        return all(m >= least for m, least in zip(sizes, self.least))

    def rhs(self, sizes: tuple[int, ...]) -> list[int]:
        """Scaled right-hand sides for one sizing: the demand slacks, then C_n less the loads."""
        b = [B0 + ck * sizes[n] for B0, ck, n in zip(self.B0, self.ck, self.section)]
        for n, (m, least) in enumerate(zip(sizes, self.least)):
            if m < least:
                s = next(s for (k, s), x in zip(self.labels, b[len(self.lo):]) if k == n and x < 0)
                raise InfeasibleMinRates(f"minimum rates overload section {n + 1} on link {s + 1}")
        return b

    def solve(self, sizes: tuple[int, ...]) -> tuple:
        """The optimal tableau of ``_simplex_max`` for one sizing."""
        obj = [-1] * len(self.lo) + [0]
        return _simplex_max(obj, [[*row, b] for row, b in zip(self.rows, self.rhs(sizes))])

    def cut(self, tableau: tuple) -> tuple[int, list[int], int]:
        """(K, W, D) with sum x*(m) <= (K + sum_n W_n m_n) / D for every feasible sizing m.

        The duals y_i = Y_i / od of the scaled rows are dual feasible for
        every sizing, since only b depends on it, so weak duality bounds each
        optimum by y.b(m) = sum_i y_i (B0_i + ck_i m_n): K = sum Y_i B0_i,
        W_n = the sum of Y_i ck_i over section n's rows, and D = od.  Y_i is
        the objective entry of slack i's column while it is nonbasic, else 0.
        """
        obj, od, S = tableau[0], tableau[1], len(self.lo)
        y = {var - S: obj[j] for j, var in enumerate(tableau[5]) if var >= S}
        K = sum(yi * self.B0[i] for i, yi in y.items())
        W = [0] * _N
        for i, yi in y.items():
            W[self.section[i]] += yi * self.ck[i]
        return K, W, od

    def solution(self, line: LineInstance, sizes: tuple, tableau: tuple) -> MeteringSolution:
        """The rates, binding constraints and load profile of a solved sizing.

        ``line`` is the line under this LP's classification.  A basic variable's
        value is its row's rhs over the row's den, and every nonbasic one is 0;
        a bound or a load binds where its slack is 0.
        """
        S = len(self.lo)
        rows, den, basis = tableau[2:5]
        value = {var: Fraction(row[-1], d) for row, d, var in zip(rows, den, basis) if row[-1]}
        E = tuple(lo + value.get(z, 0) for z, lo in enumerate(self.lo))
        C_n = tuple(self.c * m for m in sizes)
        assignment = flow_sim.build_assignment(_SPEC, line)
        binding = [BindingConstraint("lower", (z + 1,)) for z in range(S) if z not in value]
        binding += [BindingConstraint("upper", (z + 1,)) for z in range(S) if S + z not in value]
        binding += [BindingConstraint("load", (n + 1, s + 1))
                    for i, (n, s) in enumerate(self.labels, start=2 * S) if i not in value]
        return MeteringSolution(
            E=E,
            station_types=line.station_types,
            section_sizes=sizes,
            objective=sum(E, Fraction(0)),
            profile=flow_sim.simulate_loads(assignment, E, line, C_n),
            binding=tuple(binding),
        )


def solve_inner_lp(
    problem: MeteringProblem,
    station_types: Sequence[str],
    section_sizes: Sequence[int],
) -> MeteringSolution:
    """Optimal entry rates for a fixed classification and sizing."""
    sizes = _check_sizes(problem, section_sizes)
    line = _classified(problem.line, station_types)
    lp = _ClassificationLP(_LineLP(problem), line.station_types)
    return lp.solution(line, sizes, lp.solve(sizes))


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`, lex order."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def _station_choices(S: int) -> list[tuple[str, ...]]:
    """The fr_i types each of S stations may take (a lone station is a first station)."""
    types, rule = _SPEC.stations.types, _SPEC.eol_rule
    first = tuple(t for t in types if t in rule.first_types)
    last = tuple(t for t in types if t in rule.last_types)
    return [first if s == 0 else last if s == S - 1 else types for s in range(S)]


def _admitted(lp: _ClassificationLP, sizings: list, lists: dict) -> list:
    """The sizings that admit ``lp``'s minimum rates, in order; ``lists`` keeps
    them per least size of each section, so each such vector screens them once.
    Every sizing gives each section a unit, so a least size of 0 counts as 1."""
    least = tuple(max(m, 1) for m in lp.least)
    if least not in lists:
        lists[least] = list(filter(lp.admits, sizings))
    return lists[least]


def solve_outer(problem: MeteringProblem, cap: int = 10**6) -> MeteringSolution:
    """Best (classification, sizing, rates) over every candidate.

    Candidates are visited in lexicographic order of the
    (classification, sizes) encoding; the first optimum found wins, so
    ties resolve to the lexicographically smallest candidate.  Only a fixed
    classification or sizing, or else M, is checked, after the cap, which
    counts the candidates before any is listed.  The line part of the LP is
    set up once per search, each classification's rows once (all-zero load
    rows left out), the admitted sizings once per vector of least sizes,
    and the classified line, a copy of the line already read, and the
    solution for the winner only.  A sizing whose minimum rates overload a
    section is skipped, and so is one that a dual cut of an earlier sizing
    of the same classification bounds at or below the incumbent: it can at
    best tie an earlier candidate, so the answer is the one that solving
    every candidate's LP gives.
    """
    fixed_types, fixed_sizes = problem.fixed_station_types, problem.fixed_sizes
    choices = _station_choices(problem.line.S)
    count = 1 if fixed_types is not None else math.prod(map(len, choices))
    if fixed_sizes is None:  # the compositions of M into _N parts
        count *= math.comb(max(problem.M - 1, 0), _N - 1)
    if count > cap:
        raise SearchSpaceTooLarge(f"{count} candidates exceed the cap of {cap}")
    fixed = fixed_sizes is not None
    if not fixed and problem.M < _N:
        raise BadSectionCount(f"fr_i needs at least {_N} units, not M = {problem.M}")
    sizings = [_check_sizes(problem, fixed_sizes)] if fixed else list(_compositions(problem.M, _N))
    deltas = itertools.product(*choices)  # listed lazily
    classified = None  # the line under a fixed classification, whose labels the LP then reads
    if fixed_types is not None:
        classified = _classified(problem.line, fixed_types)
        deltas = [classified.station_types]

    # (num, den, lp, sizes, tableau): sum(x) = num/den; sum(E) exceeds it by sum(M_min)
    best, line_lp = None, _LineLP(problem)
    admitted = {}  # per least size of each section, the sizings that admit the minimum rates
    for delta in deltas:
        lp = _ClassificationLP(line_lp, delta)
        cuts = []  # (K, W, D) from each solved sizing's duals
        for sizes in _admitted(lp, sizings, admitted):
            # (K + W.m) / D <= best, cross-multiplied: D and the denominator are positive.
            if cuts and any(
                (K + sum(map(mul, W, sizes))) * best[1] <= best[0] * D for K, W, D in cuts
            ):
                continue
            tableau = lp.solve(sizes)
            cuts.append(lp.cut(tableau))
            value, od = tableau[0][-1], tableau[1]
            if best is None or value * best[1] > best[0] * od:
                best = (value, od, lp, sizes, tableau)
    if best is None:
        raise InfeasibleMinRates("no enumerated candidate admits feasible rates")
    line = classified or problem.line.classified(best[2].station_types)
    return best[2].solution(line, *best[3:])


@dataclass(frozen=True)
class EvenDensityReport:
    densities: tuple[Fraction, ...]  # passengers per unit at the MLP
    ratio: Fraction | None  # max/min over nonzero-size sections; None if a density is 0
    unused_sections: tuple[int, ...]  # 1-based sections with zero MLP density


def even_density_check(solution: MeteringSolution) -> EvenDensityReport:
    """Per-section passenger density at the maximum load point."""
    profile = solution.profile
    mlp = flow_sim.max_load_point(profile)
    densities = tuple(x / m if m else Fraction(0)
                      for x, m in zip(profile.loads_at(mlp), solution.section_sizes))
    unused = tuple(n + 1 for n, x in enumerate(densities) if x == 0)
    ratio = None
    if densities and min(densities) > 0:
        ratio = max(densities) / min(densities)
    return EvenDensityReport(densities=densities, ratio=ratio, unused_sections=unused)
