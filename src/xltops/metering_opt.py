"""Entry-rate metering: inner linear program and outer enumeration.

The inner problem picks station entry rates E_s maximizing total
passengers served, subject to per-station bounds M_s <= E_s <= A_s and
no overcrowding of any train section on any link.  The outer problem
additionally enumerates station classifications and section sizings.

The inner solver is an exact primal simplex over ``fractions.Fraction``
(Bland's rule, so it terminates without cycling).  Rates are shifted by
their lower bounds so the all-minimum solution is the starting vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

from . import flow_sim
from .core_model import LineInstance, ProtocolSpec
from .errors import (
    AmbiguousAssignment,
    DimensionMismatch,
    InfeasibleMinRates,
    SearchSpaceTooLarge,
)


@dataclass(frozen=True)
class MeteringProblem:
    """A line, a protocol family parameterized by section sizes, and flags.

    ``spec_factory(sizes)`` must return the protocol for a candidate
    sizing; the classification is supplied separately so the outer
    search can vary it.  ``unit_capacity`` is passengers per unit, so a
    section of size m holds c*m passengers per train.
    """

    line: LineInstance
    spec_factory: Callable[[Sequence[int]], ProtocolSpec]
    M: int
    N: int
    unit_capacity: Fraction | int
    fixed_station_types: tuple[str, ...] | None = None
    fixed_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for s in range(self.line.S):
            if self.line.M_min[s] > self.line.demand_rate(s):
                raise DimensionMismatch(
                    f"minimum rate at station {s + 1} exceeds its demand"
                )


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
) -> list[Fraction]:
    """Maximize c.x subject to A_ub x <= b_ub, x >= 0 (all b_ub >= 0)."""
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
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
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
    return x


def solve_inner_lp(
    problem: MeteringProblem,
    station_types: Sequence[str],
    section_sizes: Sequence[int],
) -> MeteringSolution:
    """Optimal entry rates for a fixed classification and sizing."""
    sizes = tuple(int(m) for m in section_sizes)
    if sum(sizes) != problem.M or len(sizes) != problem.N:
        raise DimensionMismatch("section sizes must partition the train")
    spec = problem.spec_factory(sizes)
    line = replace(problem.line, station_types=tuple(station_types))
    assignment = flow_sim.build_assignment(spec, line)
    C_n = tuple(Fraction(problem.unit_capacity) * m for m in sizes)
    S = line.S
    lo = tuple(line.M_min)
    hi = tuple(line.demand_rate(z) for z in range(S))
    coef = flow_sim.load_coefficients(assignment, line)

    # Shift x = E - lo; x >= 0.  Box rows then load rows.
    A_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    tags: list[BindingConstraint] = []
    for z in range(S):
        row = [Fraction(0)] * S
        row[z] = Fraction(1)
        A_ub.append(row)
        b_ub.append(hi[z] - lo[z])
        tags.append(BindingConstraint("upper", (z + 1,)))
    for n in range(assignment.N):
        for s in range(S - 1):
            base = sum((coef[n][s][z] * lo[z] for z in range(S)), Fraction(0))
            if base > C_n[n]:
                raise InfeasibleMinRates(
                    f"minimum rates overload section {n + 1} on link {s + 1}"
                )
            A_ub.append(list(coef[n][s]))
            b_ub.append(C_n[n] - base)
            tags.append(BindingConstraint("load", (n + 1, s + 1)))

    x = _simplex_max([Fraction(1)] * S, A_ub, b_ub)
    E = tuple(lo[z] + x[z] for z in range(S))

    binding: list[BindingConstraint] = []
    for z in range(S):
        if E[z] == lo[z]:
            binding.append(BindingConstraint("lower", (z + 1,)))
    for row, b, tag in zip(A_ub, b_ub, tags):
        if sum((row[z] * x[z] for z in range(S)), Fraction(0)) == b:
            binding.append(tag)

    profile = flow_sim.load_profile(coef, E, C_n)
    return MeteringSolution(
        E=E,
        station_types=tuple(station_types),
        section_sizes=sizes,
        objective=sum(E, Fraction(0)),
        profile=profile,
        binding=tuple(binding),
    )


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`, lex order."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def _classifications(problem: MeteringProblem, type_labels: tuple[str, ...]):
    S = problem.line.S
    spec = problem.spec_factory(next(_compositions(problem.M, problem.N)))
    choices: list[tuple[str, ...]] = []
    for s in range(S):
        opts = type_labels
        if spec.eol_rule is not None:
            if s == 0:
                opts = tuple(t for t in type_labels if t in spec.eol_rule.first_types)
            elif s == S - 1:
                opts = tuple(t for t in type_labels if t in spec.eol_rule.last_types)
        choices.append(opts)
    return itertools.product(*choices)


def solve_outer(problem: MeteringProblem, cap: int = 10**6) -> MeteringSolution:
    """Best (classification, sizing, rates) by exhaustive enumeration.

    Candidates are generated in lexicographic order of the
    (classification, sizes) encoding; the first optimum found wins, so
    ties resolve to the lexicographically smallest candidate.
    """
    spec0 = problem.spec_factory(next(_compositions(problem.M, problem.N)))
    type_labels = spec0.stations.types

    if problem.fixed_station_types is not None:
        deltas = [tuple(problem.fixed_station_types)]
    else:
        deltas = list(_classifications(problem, type_labels))
    if problem.fixed_sizes is not None:
        sizings = [tuple(problem.fixed_sizes)]
    else:
        sizings = list(_compositions(problem.M, problem.N))

    count = len(deltas) * len(sizings)
    if count > cap:
        raise SearchSpaceTooLarge(f"{count} candidates exceed the cap of {cap}")

    best: MeteringSolution | None = None
    for delta in deltas:
        for sizes in sizings:
            try:
                sol = solve_inner_lp(problem, delta, sizes)
            except (InfeasibleMinRates, AmbiguousAssignment):
                continue
            if best is None or sol.objective > best.objective:
                best = sol
    if best is None:
        raise InfeasibleMinRates("no enumerated candidate admits feasible rates")
    return best


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
