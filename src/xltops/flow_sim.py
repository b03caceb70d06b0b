"""Steady-state passenger assignment and load accounting.

Loads are exact rationals (``fractions.Fraction``), so the aggregated
formula can be compared bit-for-bit against a per-flow microsimulation;
floating point appears only at output.  They are summed as integers:
a flow or rider is an unreduced pair (p, q) meaning p/q passengers per
train, each row of loads is accumulated over one scale k (the lcm of its
riders' q), and a load is formed as ``Fraction(v, k)`` only where one is
reported, so a whole row of sums costs one gcd per link rather than one
per addition.  The overcrowding test and the thinning of entry rates
work on the same integer numerators and denominators.

Conventions: stations are 0-based indices along the travel direction;
link ``s`` is the stretch departing station ``s`` (0 .. S-2).  Loads are
passengers per train, i.e. rate times headway H.

Entry rates E are thinned proportionally over destinations, in one
place (``_thinned``): the flow from z to sp in ``LineInstance.flows``
carries H·E_z·A[z][sp]/A_z passengers per train (A_z is the demand rate
from z), and section n takes share(n, z, sp) of them over links
z .. sp-1.  ``link_sums`` puts riders on links for every caller: each adds
its integer p·(k/q) at z and takes it off at sp in a difference row, and
one prefix sum per row gives k times the loads.  Loads are linear in E,
and ``unit_flows`` gives the metering LP each demanded flow per unit of
its origin's entry rate: the flows at full demand, divided by A_z, as
integers over one scale, once per line.  Each classification puts them
through one ``link_sums`` call with a row per (section, origin).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core_model import (
    LineInstance,
    ProtocolSpec,
    _integer,
    _read_numbers,
    fraction_sum,
    over_lcm,
)
from .errors import AmbiguousAssignment, DimensionMismatch, NonpositiveSpeed


Shares = tuple[tuple[int, Fraction], ...]  # (section n, share) pairs of one flow


@dataclass(frozen=True)
class AssignmentTensor:
    """Fraction of each O-D flow boarding each section, stored sparsely.

    ``flows[z][sp]`` lists the ``(n, share)`` pairs with a nonzero share
    of the flow from station z to station sp riding section n; shares are
    1 under an exactly-one presentation and may be fractional under a
    split rule.  ``share`` reads 0 for a section that is not listed.
    """

    N: int
    flows: tuple[tuple[Shares, ...], ...]  # S x S

    @property
    def S(self) -> int:
        return len(self.flows)

    def share(self, n: int, z: int, sp: int) -> Fraction:
        return next((x for m, x in self.flows[z][sp] if m == n), Fraction(0))


@dataclass(frozen=True)
class LoadProfile:
    """Per-section loads on every link, section capacities, and demand left behind."""

    load: tuple[tuple[Fraction, ...], ...]  # N x (S-1)
    C_n: tuple[Fraction, ...]
    overcrowded: tuple[tuple[int, int], ...]  # (section n, link s), 0-based
    unserved: tuple[tuple[int, int, Fraction], ...]  # (z, sp, pax per train) no section presents

    @property
    def N(self) -> int:
        return len(self.load)

    @property
    def links(self) -> int:
        return len(self.load[0]) if self.load else 0


@dataclass(frozen=True)
class CapacityReport:
    """Maximum load point, occupancy there, and the gain over ordinary trains."""

    mlp_link: int  # 0-based link index
    occupancy: tuple[Fraction, ...]  # per section, at the MLP
    line_capacity: Fraction  # pax/hour through the MLP at 100% occupancy
    reference_units: Fraction
    gain: Fraction  # full XLT units at the MLP / reference units


def type_pair_sections(spec: ProtocolSpec, line: LineInstance) -> tuple[tuple[int, ...], list]:
    """Each station's type index, and the sections presenting each type pair, ascending."""
    if spec.K != 1:
        raise DimensionMismatch("assignment is defined for a single train type")
    if line.station_types is None:
        raise DimensionMismatch("line must carry a station classification")
    pk, C = spec.p[0], spec.C
    presenting = [[[n for n, rows in enumerate(pk) if rows[i][j]] for j in range(C)]
                  for i in range(C)]
    return spec.stations.indices(line.station_types), presenting


def capacity_shares(sections: Sequence[int], caps: Sequence[Fraction]) -> Shares:
    """The balanced split: a flow's shares of the sections presenting it.

    Shares are proportional to section capacity, so a section of zero
    capacity takes none; if every presenting section has zero capacity,
    the flow splits evenly.  Shares sum to 1 unless no section presents,
    and a lone presenting section takes all of the flow.
    """
    if len(sections) == 1:
        return ((sections[0], Fraction(1)),)
    total = fraction_sum(caps[n] for n in sections)
    if total == 0:
        return tuple((n, Fraction(1, len(sections))) for n in sections)
    return tuple((n, caps[n] / total) for n in sections if caps[n])


def _balanced(spec: ProtocolSpec, ti: Sequence[int], presenting: list) -> AssignmentTensor:
    """Give every forward station pair the capacity shares of its type pair."""
    caps = section_capacities(spec)
    table = [[capacity_shares(sec, caps) for sec in row] for row in presenting]
    S = len(ti)
    return AssignmentTensor(
        spec.trains[0].N,
        tuple(tuple(table[ti[z]][ti[sp]] if sp > z else () for sp in range(S)) for z in range(S)),
    )


def build_assignment(spec: ProtocolSpec, line: LineInstance) -> AssignmentTensor:
    """All-or-nothing assignment from the presentation table.

    Requires a single train type and an exactly-one presentation over
    the demanded pairs; raises AmbiguousAssignment otherwise.  A pair
    nobody demands may be presented by several sections: it gets the
    balanced split's shares and carries nothing.
    """
    ti, presenting = type_pair_sections(spec, line)
    for z, sp, _ in line.flows:
        sections = presenting[ti[z]][ti[sp]]
        if len(sections) > 1:
            i, j = spec.stations.types[ti[z]], spec.stations.types[ti[sp]]
            raise AmbiguousAssignment(f"{len(sections)} sections present pair {i}->{j}")
    return _balanced(spec, ti, presenting)


def build_assignment_split(
    spec: ProtocolSpec, line: LineInstance, rule: str = "balanced"
) -> AssignmentTensor:
    """Fractional assignment when several sections present the same pair.

    "balanced" splits each flow over the presenting sections in
    proportion to section capacity.  "end_preference" sends each flow to
    the presenting section with the fewest advertised pairs (commuters
    favoring the quieter end sections), overflowing to the next choice
    only when a link load would exceed the section capacity.

    Flows are placed in (origin, destination) order, so when a flow from
    z is placed, each section's load never rises over links z, z+1, ...:
    its heaviest link is z, and an on-board tally per section (boarded so
    far less alighted) is all the capacity test and the fallback read.
    The tally, the flows and the capacities are integers over one scale D.
    """
    if rule not in ("balanced", "end_preference"):
        raise ValueError(f"unknown split rule {rule!r}")
    ti, presenting = type_pair_sections(spec, line)
    if rule == "balanced":
        return _balanced(spec, ti, presenting)
    N = spec.trains[0].N
    S = line.S
    caps = section_capacities(spec)
    busyness = [sum(map(sum, rows)) for rows in spec.p[0]]
    # Quietest presenting section first; the sort is stable, so ties keep section order.
    preference = [[sorted(sec, key=busyness.__getitem__) for sec in row] for row in presenting]
    h, g = line.H.numerator, line.H.denominator
    D = math.lcm(*{g * x.denominator for _, _, x in line.flows}, *(c.denominator for c in caps))
    room = [c.numerator * (D // c.denominator) for c in caps]  # D times each capacity
    pax_of = [[0] * S for _ in range(S)]  # D times passengers per train of each flow
    for z, sp, x in line.flows:
        pax_of[z][sp] = h * x.numerator * (D // (g * x.denominator))
    aboard = [0] * N  # per section, as the train leaves station z
    alighting = [[0] * N for _ in range(S)]  # per station, per section
    flows = [[()] * S for _ in range(S)]
    whole = [((n, Fraction(1)),) for n in range(N)]  # one shares tuple per section
    for z in range(S):
        aboard = [x - y for x, y in zip(aboard, alighting[z])]
        for sp in range(z + 1, S):
            candidates = preference[ti[z]][ti[sp]]
            pax = pax_of[z][sp]
            if not pax or not candidates:
                continue
            chosen = next((n for n in candidates if aboard[n] + pax <= room[n]), None)
            if chosen is None:
                chosen = min(candidates, key=aboard.__getitem__)
            flows[z][sp] = whole[chosen]
            aboard[chosen] += pax
            alighting[sp][chosen] += pax
    return AssignmentTensor(N, tuple(map(tuple, flows)))


def section_capacities(spec: ProtocolSpec) -> tuple[Fraction, ...]:
    """C_n = sum of unit capacities over each section of the first train type.

    Float capacities convert as ``LineInstance`` converts its numbers, so
    0.3 reads 3/10 rather than the nearest binary fraction, and each
    distinct capacity is converted once.
    """
    k, units = over_lcm(_read_numbers(spec.trains[0].capacities, {}))
    return tuple(Fraction(sum(x for x, bit in zip(units, column) if bit), k)
                 for column in zip(*spec.u[0]))


def link_sums(rows: int, S: int, riders: Iterable[tuple]) -> list[tuple[int, list[int]]]:
    """Each row's scale k and k times its loads on links 0 .. S-2.

    A rider (row, z, sp, p, q) puts p/q passengers (q > 0; p and q need
    not be coprime) on links z .. sp-1 of its row.  A row's k is the lcm
    of its riders' q, 1 if it has none; each rider adds p·(k/q) at z and
    takes it off at sp in an integer difference row, prefix-summed once.
    """
    by_row = [[] for _ in range(rows)]
    for rider in riders:
        by_row[rider[0]].append(rider)
    sums = []
    for row in by_row:
        k = math.lcm(*{q for *_, q in row})
        diff = [0] * S  # entry S-1 takes the off-entries of riders to the last station
        for _, z, sp, p, q in row:
            v = p * (k // q)
            diff[z] += v
            diff[sp] -= v
        sums.append((k, list(itertools.accumulate(diff[:-1]))))
    return sums


def _thinned(line: LineInstance, entry_rates: Sequence[Fraction]) -> list[tuple]:
    """(z, sp, p, q) of each flow with riders: p/q = H·E_z·A[z][sp]/A_z passengers per train.

    Each station's H·E_z/A_z and the test 0 <= E_z <= A_z are worked on integer
    numerators and denominators; p/q need not be in lowest terms.
    """
    if len(entry_rates) != line.S:
        raise DimensionMismatch(f"{len(entry_rates)} entry rates for {line.S} stations")
    h, g = line.H.numerator, line.H.denominator
    scale = []  # H·E_z/A_z per station, as (numerator, denominator) in lowest terms
    for z, e in enumerate(map(Fraction, entry_rates)):
        A_z = line.demand_rate(z)
        p, q = e.numerator, e.denominator
        a, b = A_z.numerator, A_z.denominator
        if p < 0 or p * b > a * q:
            raise DimensionMismatch(f"entry rate {e} at station {z + 1} lies outside [0, {A_z}]")
        p, q = h * p * b, g * q * a
        d = math.gcd(p, q)
        scale.append((p // d, q // d) if p else (0, 1))
    return [(z, sp, x.numerator * scale[z][0], x.denominator * scale[z][1])
            for z, sp, x in line.flows if scale[z][0]]


def _riders(assignment: AssignmentTensor, flows: list[tuple]) -> Iterator[tuple]:
    """Each section's share of each thinned flow, as riders of ``link_sums``.

    The assignment shares one tuple of shares between the flows of a type pair, so
    each tuple is split into (section, numerator, denominator) once.
    """
    split: dict[int, list[tuple]] = {}  # by id of a tuple of shares
    for z, sp, p, q in flows:
        shares = assignment.flows[z][sp]
        parts = split.get(id(shares))
        if parts is None:
            parts = split[id(shares)] = [(n, x.numerator, x.denominator) for n, x in shares]
        for n, a, b in parts:
            yield n, z, sp, p * a, q * b


def unit_flows(line: LineInstance) -> tuple[int, list[tuple[int, int, int]]]:
    """(D, [(z, sp, v)]): each demanded flow carries v/D passengers per train per unit of E_z.

    The flows at full demand, H·A[z][sp], are divided by A_z = a_z/b_z and put over one
    scale D: the lcm of their denominators times the lcm L of the a_z.
    """
    demand = [line.demand_rate(z) for z in range(line.S)]
    flows = _thinned(line, demand)
    Q = math.lcm(*{q for *_, q in flows})
    L = math.lcm(*{demand[z].numerator for z, *_ in flows})
    return Q * L, [(z, sp, p * (Q // q) * demand[z].denominator * (L // demand[z].numerator))
                   for z, sp, p, q in flows]


def simulate_loads(
    assignment: AssignmentTensor,
    entry_rates: Sequence[Fraction],
    line: LineInstance,
    C_n: Sequence[Fraction],
) -> LoadProfile:
    """Aggregate section loads per link, entry rates thinned as the module docstring sets out.

    Overcrowding and demand that no section presents are reported, not fatal.
    """
    if len(C_n) != assignment.N:
        raise DimensionMismatch(f"{len(C_n)} section capacities for {assignment.N} sections")
    flows = _thinned(line, entry_rates)
    sums = link_sums(assignment.N, line.S, _riders(assignment, flows))
    load = tuple(tuple(Fraction(v, k) for v in row) for k, row in sums)
    caps = tuple(Fraction(c) for c in C_n)
    over = []
    for n, ((k, row), C) in enumerate(zip(sums, caps)):
        c, d = C.numerator * k, C.denominator  # a load v/k exceeds C when v·d > c
        over += [(n, s) for s, v in enumerate(row) if v * d > c]
    unserved = tuple(
        (z, sp, Fraction(p, q)) for z, sp, p, q in flows if not assignment.flows[z][sp]
    )
    return LoadProfile(load=load, C_n=caps, overcrowded=tuple(over), unserved=unserved)


def max_unit_density(rows: Sequence[Sequence[Fraction]], section_sizes: Sequence[int]) -> Fraction:
    """Largest passengers-per-unit figure anywhere in per-section load rows.

    Rows of integers (loads times a common denominator) give the figure
    times that denominator; either way a ``Fraction`` is formed only for
    each row's maximum.
    """
    worst = Fraction(0)
    for n, row in enumerate(rows):
        if section_sizes[n] and row:
            worst = max(worst, Fraction(max(row), section_sizes[n]))
    return worst


def max_load_point(profile: LoadProfile) -> int:
    """The first link (0-based) of maximum total load: ties go to the left."""
    if not profile.links:
        raise DimensionMismatch("a load profile with no links has no maximum load point")
    totals = [fraction_sum(column) for column in zip(*profile.load)]
    return totals.index(max(totals))


def size_sections_proportional(
    od_type_fractions: Sequence[Fraction], M: int
) -> tuple[int, ...]:
    """Integer section sizes proportional to the demand fractions.

    Largest-remainder rounding; sizes sum to M exactly and each differs
    from its exact proportional value by less than one unit.
    """
    if not _integer(M) or M < 0:
        raise DimensionMismatch(f"the unit count M must be a whole number >= 0, not {M!r}")
    fractions = [Fraction(f) for f in od_type_fractions]
    if sum(fractions) != 1 or min(fractions) < 0:
        raise DimensionMismatch("fractions must be nonnegative and sum to 1")
    exact = [f * M for f in fractions]
    base = [int(x) for x in exact]  # floor: exact values are nonnegative
    remainder = M - sum(base)
    order = sorted(range(len(base)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:remainder]:
        base[i] += 1
    return tuple(base)


def capacity_report(
    profile: LoadProfile,
    spec: ProtocolSpec,
    line: LineInstance,
    reference_units: int | Fraction | None = None,
) -> CapacityReport:
    """Locate the maximum load point and compare against ordinary trains.

    The reference is the largest ordinary train fully fitting the
    shortest platform (overridable, e.g. for effective platform lengths).
    """
    mlp = max_load_point(profile)
    occupancy = tuple(
        (profile.load[n][mlp] / profile.C_n[n]) if profile.C_n[n] > 0 else Fraction(0)
        for n in range(profile.N)
    )
    if reference_units is None:
        reference_units = min(spec.stations.lengths())
    reference_units = Fraction(reference_units)
    if reference_units <= 0:
        raise DimensionMismatch(f"reference units must be positive, not {reference_units}")
    sizes = spec.section_sizes(0)
    full_units = sum(
        (Fraction(sizes[n]) * min(occupancy[n], Fraction(1)) for n in range(profile.N)),
        Fraction(0),
    )
    gain = full_units / reference_units
    line_capacity = sum(profile.C_n, Fraction(0)) / line.H
    return CapacityReport(
        mlp_link=mlp,
        occupancy=occupancy,
        line_capacity=line_capacity,
        reference_units=reference_units,
        gain=gain,
    )


# ---------------------------------------------------------------------------
# F/T/R access penalty and headway correction
# ---------------------------------------------------------------------------


def _unserved_pair_fraction(spacing_pattern: Sequence[str]) -> Fraction:
    """Share of O-D type pairs with no direct F/T/R connection: 2·c_F·c_R/n².

    Direct travel exists between equal types and to/from T; only the
    F-R pairs (both directions) force a shift or transfer.  An empty
    pattern has none.
    """
    n = len(spacing_pattern)
    return Fraction(2 * spacing_pattern.count("F") * spacing_pattern.count("R"), n * n or 1)


def access_penalty_ftr(spacing_pattern: Sequence[str] = ("F", "R", "T")) -> Fraction:
    """Average extra access distance, as a fraction of the station spacing.

    Affected passengers shift one trip end to a second-best station,
    choosing the cheaper end; the per-end extra distance is uniform on
    [0, spacing/2], so the conditional mean of the cheaper of the two
    ends is spacing/6.
    """
    return _unserved_pair_fraction(spacing_pattern) / 6


def headway_correction(extra_length_m: float, cruise_speed_mps: float) -> float:
    """Extra minimum headway in seconds for a train lengthened by ΔL meters."""
    if not cruise_speed_mps > 0:  # NaN too
        raise NonpositiveSpeed("cruise speed must be positive")
    return extra_length_m / cruise_speed_mps


def headway_capacity_reduction(
    extra_length_m: float, cruise_speed_mps: float, base_headway_s: float
) -> float:
    """Relative throughput loss when the base headway grows by ΔL/v."""
    dh = headway_correction(extra_length_m, cruise_speed_mps)
    return dh / (base_headway_s + dh)
