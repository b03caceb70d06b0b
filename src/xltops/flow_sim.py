"""Steady-state passenger assignment and load accounting.

Loads are exact rationals, so the aggregated formula can be compared
bit-for-bit against a per-flow microsimulation; floating point appears
only at output.  From the line to the printed number they stay Python
integers: ``LineInstance`` keeps its demand as integers over one scale
and a train its unit capacities, a flow or rider is an unreduced pair
(p, q) meaning p/q passengers per train, a flow's share of a section is
one too, (n, p, q), and each section's loads are one integer row over
one scale k.  A ``fractions.Fraction`` is formed only where a caller
reads one, so a whole row of sums costs one gcd per row rather than one
per addition.  The overcrowding test, the maximum load point and the
thinning of entry rates work on the same integers.

Conventions: stations are 0-based indices along the travel direction;
link ``s`` is the stretch departing station ``s`` (0 .. S-2).  Loads are
passengers per train, i.e. rate times headway H.

Entry rates E are thinned proportionally over destinations, in one
place (``_thinned``): the flow from z to sp in ``LineInstance.flows``
carries H·E_z·A[z][sp]/A_z passengers per train (A_z is the demand rate
from z), and section n takes share(n, z, sp) of them over links
z .. sp-1.  ``link_sums`` puts riders on links for every caller, each
of which builds its rows of riders directly: a rider adds its integer
p·(k/q) at z and takes it off at sp in a difference row, and one prefix
sum per row gives k times the loads.  A ``LoadProfile`` keeps each
section's row reduced, (k, row) with gcd(k, *row) = 1, so equal loads
compare equal, and forms ``load`` as ``Fraction``s on first read.  Loads
are linear in E, and ``unit_flows`` gives the metering LP each demanded
flow per unit of its origin's entry rate: the flows at full demand,
divided by A_z, as integers over one scale, once per line.  Each
classification puts them through one ``link_sums`` call with a row per
(section, origin).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core_model import (
    LineInstance,
    ProtocolSpec,
    _integer,
    _number,
    _real,
)
from .errors import AmbiguousAssignment, DimensionMismatch, NonpositiveSpeed, UnknownMode


Shares = tuple[tuple[int, int, int], ...]  # (n, p, q): p/q of one flow rides section n


@dataclass(frozen=True)
class AssignmentTensor:
    """Fraction of each O-D flow boarding each section, stored sparsely.

    ``flows[z][sp]`` lists integer triples (n, p, q): p/q > 0 of the flow
    from z to sp rides section n (p and q need not be coprime; ``()``: no
    section presents it).  ``share`` forms the ``Fraction`` when read, 0
    for a section that is not listed.
    """

    N: int
    flows: tuple[tuple[Shares, ...], ...]  # S x S

    @property
    def S(self) -> int:
        return len(self.flows)

    def share(self, n: int, z: int, sp: int) -> Fraction:
        return next((Fraction(p, q) for m, p, q in self.flows[z][sp] if m == n), Fraction(0))


@dataclass(frozen=True)
class LoadProfile:
    """Per-section loads on every link, section capacities, and demand left behind.

    ``rows[n]`` is section n's loads as integers: (k, row) with row[s]/k
    passengers per train on link s and gcd(k, *row) = 1, so equal loads
    give equal rows.  ``load`` forms them as ``Fraction``s when first read.
    """

    rows: tuple[tuple[int, tuple[int, ...]], ...]  # N x (k, S-1 integers)
    C_n: tuple[Fraction, ...]
    overcrowded: tuple[tuple[int, int], ...]  # (section n, link s), 0-based
    unserved: tuple[tuple[int, int, Fraction], ...]  # (z, sp, pax per train) no section presents

    @functools.cached_property
    def load(self) -> tuple[tuple[Fraction, ...], ...]:  # N x (S-1)
        return tuple(tuple(Fraction(v, k) for v in row) for k, row in self.rows)

    @property
    def N(self) -> int:
        return len(self.rows)

    @property
    def links(self) -> int:
        return len(self.rows[0][1]) if self.rows else 0

    def loads_at(self, s: int) -> tuple[Fraction, ...]:
        """Each section's load on link s."""
        return tuple(Fraction(row[s], k) for k, row in self.rows)


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


def capacity_shares(sections: Sequence[int], caps: Sequence[int]) -> Shares:
    """The balanced split: a flow's shares of the sections presenting it.

    Shares are proportional to section capacity (``caps``, integers over
    any one scale), (n, c_n, Σc), so a section of zero capacity takes none;
    if every presenting section has zero capacity, the flow splits evenly,
    (n, 1, len).  A lone presenting section takes it all, (n, 1, 1).
    """
    if len(sections) == 1:
        return ((sections[0], 1, 1),)
    total = sum(caps[n] for n in sections)
    if total == 0:
        return tuple((n, 1, len(sections)) for n in sections)
    return tuple((n, caps[n], total) for n in sections if caps[n])


def _balanced(spec: ProtocolSpec, ti: Sequence[int], presenting: list) -> AssignmentTensor:
    """Give every forward station pair the capacity shares of its type pair."""
    _, caps = _section_units(spec)
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
    for z, sp, _ in line._flows:
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
    The tally, the flows and the capacities are integers over one scale D,
    a multiple of the line's demand scale times H's denominator.
    """
    if rule not in ("balanced", "end_preference"):
        raise UnknownMode(f"unknown split rule {rule!r}")
    ti, presenting = type_pair_sections(spec, line)
    if rule == "balanced":
        return _balanced(spec, ti, presenting)
    N = spec.trains[0].N
    S = line.S
    kc, caps = _section_units(spec)  # kc times each section capacity
    busyness = [sum(map(sum, rows)) for rows in spec.p[0]]
    # Quietest presenting section first; the sort is stable, so ties keep section order.
    preference = [[sorted(sec, key=busyness.__getitem__) for sec in row] for row in presenting]
    # A flow of k·A[z][sp] = v carries H·v/k = h·v/(g·k) passengers per train.
    h, gk = line.H.numerator, line.H.denominator * line._k
    D = math.lcm(gk, kc)
    room = [c * (D // kc) for c in caps]  # D times each capacity
    pax_of = [[0] * S for _ in range(S)]  # D times passengers per train of each flow
    for z, sp, v in line._flows:
        pax_of[z][sp] = h * (D // gk) * v
    aboard = [0] * N  # per section, as the train leaves station z
    alighting = [[0] * N for _ in range(S)]  # per station, per section
    flows = [[()] * S for _ in range(S)]
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
            flows[z][sp] = ((chosen, 1, 1),)
            aboard[chosen] += pax
            alighting[sp][chosen] += pax
    return AssignmentTensor(N, tuple(map(tuple, flows)))


def _section_units(spec: ProtocolSpec) -> tuple[int, list[int]]:
    """(k, [k·C_n]): the first train type's section capacities over its units' scale k."""
    k, units = spec.trains[0]._units
    return k, [sum(x for x, bit in zip(units, column) if bit) for column in zip(*spec.u[0])]


def section_capacities(spec: ProtocolSpec) -> tuple[Fraction, ...]:
    """C_n = sum of unit capacities over each section of the first train type.

    The capacities are those the ``TrainTypeSpec`` read when it was built,
    as ``LineInstance`` reads its numbers: 0.3 reads 3/10 rather than the
    nearest binary fraction.
    """
    k, caps = _section_units(spec)
    return tuple(Fraction(c, k) for c in caps)


def link_sums(S: int, rows: Iterable[Sequence[tuple]]) -> list[tuple[int, list[int]]]:
    """Each row's scale k and k times its loads on links 0 .. S-2.

    A row lists its riders: a rider (z, sp, p, q) puts p/q passengers (q > 0;
    p and q need not be coprime) on links z .. sp-1.  A row's k is the lcm
    of its riders' q, 1 if it has none; each rider adds p·(k/q) at z and
    takes it off at sp in an integer difference row, prefix-summed once.
    """
    sums = []
    for row in rows:
        k = math.lcm(*{q for _, _, _, q in row})
        diff = [0] * S  # entry S-1 takes the off-entries of riders to the last station
        for z, sp, p, q in row:
            v = p * (k // q)
            diff[z] += v
            diff[sp] -= v
        sums.append((k, list(itertools.accumulate(diff[:-1]))))
    return sums


def _thinned(line: LineInstance, entry_rates: Sequence[Fraction]) -> list[tuple]:
    """(z, sp, p, q) of each flow with riders: p/q = H·E_z·A[z][sp]/A_z passengers per train.

    The line's scale k cancels: with H = h/g, A[z][sp] = v/k and A_z = n_z/k,
    p/q = h·E_z·v/(g·n_z).  Each station's h·E_z/(g·n_z) and the test
    0 <= E_z <= A_z are worked on integers; p/q need not be in lowest terms.
    """
    if len(entry_rates) != line.S:
        raise DimensionMismatch(f"{len(entry_rates)} entry rates for {line.S} stations")
    h, g, k = line.H.numerator, line.H.denominator, line._k
    scale = []  # h·E_z/(g·n_z) per station, as (numerator, denominator) in lowest terms
    for z, (e, n) in enumerate(zip(entry_rates, line._sums)):
        e = _number(e, "entry rates must be finite numbers")
        p, q = e.numerator, e.denominator
        if p < 0 or p * k > n * q:
            raise DimensionMismatch(
                f"entry rate {e} at station {z + 1} lies outside [0, {line.demand_rate(z)}]")
        p, q = h * p, g * q * n
        d = math.gcd(p, q)
        scale.append((p // d, q // d) if p else (0, 1))
    return [(z, sp, v * scale[z][0], scale[z][1]) for z, sp, v in line._flows if scale[z][0]]


def unit_flows(line: LineInstance) -> tuple[int, list[tuple[int, int, int]]]:
    """(D, [(z, sp, v)]): each demanded flow carries v/D passengers per train per unit of E_z.

    The flows at full demand, H·A[z][sp], are divided by A_z = n_z/k and put over
    one scale D: the lcm Q of their denominators times the lcm L of the n_z.
    """
    flows = _thinned(line, [line.demand_rate(z) for z in range(line.S)])
    k, n = line._k, line._sums
    Q = math.lcm(*{q for _, _, _, q in flows})
    L = math.lcm(*{n[z] for z, _, _, _ in flows})
    return Q * L, [(z, sp, p * (Q // q) * k * (L // n[z])) for z, sp, p, q in flows]


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
    caps = tuple(_number(c, "section capacities must be finite numbers") for c in C_n)
    if min(caps, default=0) < 0:
        raise DimensionMismatch("section capacities must be nonnegative")
    riders = [[] for _ in range(assignment.N)]  # per section
    unserved = []
    for z, sp, p, q in _thinned(line, entry_rates):
        shares = assignment.flows[z][sp]
        if not shares:
            unserved.append((z, sp, Fraction(p, q)))
        for n, a, b in shares:
            riders[n].append((z, sp, p * a, q * b))
    rows, over = [], []
    for n, ((k, row), C) in enumerate(zip(link_sums(line.S, riders), caps)):
        g = math.gcd(k, *row)
        if g > 1:
            k, row = k // g, [v // g for v in row]
        rows.append((k, tuple(row)))
        c, d = C.numerator * k, C.denominator  # a load v/k exceeds C when v·d > c
        over += [(n, s) for s, v in enumerate(row) if v * d > c]
    return LoadProfile(rows=tuple(rows), C_n=caps, overcrowded=tuple(over),
                       unserved=tuple(unserved))


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
    """The first link (0-based) of maximum total load: ties go to the left.

    Each link's total is summed as integers over the lcm K of the rows' scales.
    """
    if not profile.links:
        raise DimensionMismatch("a load profile with no links has no maximum load point")
    K = math.lcm(*(k for k, _ in profile.rows))
    totals = [0] * profile.links
    for k, row in profile.rows:
        m = K // k
        totals = [t + m * v for t, v in zip(totals, row)]
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
    fractions = [_number(f, "fractions must be finite numbers") for f in od_type_fractions]
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
    occupancy = tuple(x / C if C > 0 else Fraction(0)
                      for x, C in zip(profile.loads_at(mlp), profile.C_n))
    if reference_units is None:
        reference_units = min(spec.stations.lengths())
    reference_units = _number(reference_units, "reference units must be a finite number")
    if reference_units <= 0:
        raise DimensionMismatch(f"reference units must be positive, not {reference_units}")
    sizes = spec.section_sizes(0)
    full_units = sum(m * min(x, 1) for m, x in zip(sizes, occupancy))
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
    """Extra minimum headway in seconds for a train lengthened by ΔL >= 0 meters."""
    if not cruise_speed_mps > 0:  # NaN too
        raise NonpositiveSpeed("cruise speed must be positive")
    if not (_real(extra_length_m) and 0 <= extra_length_m < math.inf):  # NaN fails too
        raise DimensionMismatch(
            f"the extra length must be a finite number >= 0, not {extra_length_m!r}")
    return extra_length_m / cruise_speed_mps


def headway_capacity_reduction(
    extra_length_m: float, cruise_speed_mps: float, base_headway_s: float
) -> float:
    """Relative throughput loss when a base headway > 0 grows by ΔL/v."""
    dh = headway_correction(extra_length_m, cruise_speed_mps)
    if not (_real(base_headway_s) and 0 < base_headway_s < math.inf):
        raise DimensionMismatch(
            f"the base headway must be a finite number > 0, not {base_headway_s!r}")
    return dh / (base_headway_s + dh)
