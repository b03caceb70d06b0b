"""Steady-state passenger assignment and load accounting.

Loads are computed in exact rational arithmetic (``fractions.Fraction``)
so that the aggregated formula can be compared bit-for-bit against a
per-flow microsimulation; floating point appears only at output.

Conventions: stations are 0-based indices along the travel direction;
link ``s`` is the stretch departing station ``s`` (0 .. S-2).  Loads are
passengers per train, i.e. rate times headway H.

Entry rates E are thinned proportionally over destinations, so loads are
linear in them, loads = H·coef·E: load[n][s] = H·Σ_{z<=s} acc[n][z][s]/A_z·E_z
with the suffix sum over destinations acc[n][z][S-1] = 0,
acc[n][z][s] = acc[n][z][s+1] + A[z][s+1]·share(n, z, s+1), where A_z is
the demand rate from z (an origin with A_z = 0 adds nothing).
``load_coefficients`` builds the table in one backward pass per origin,
O(N·S²); ``simulate_loads`` and the metering LP both read loads from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core_model import LineInstance, ProtocolSpec, StationTypeCatalog
from .errors import AmbiguousAssignment, DimensionMismatch, NonpositiveSpeed


@dataclass(frozen=True)
class AssignmentTensor:
    """Fraction of each O-D flow boarding each section.

    ``value[n][z][sp]`` is the share of the flow from station z to
    station sp riding section n; entries are 0/1 under an exactly-one
    presentation and may be fractional under a split rule.
    """

    value: tuple[tuple[tuple[Fraction, ...], ...], ...]  # N x S x S

    @property
    def N(self) -> int:
        return len(self.value)

    @property
    def S(self) -> int:
        return len(self.value[0])

    def share(self, n: int, z: int, sp: int) -> Fraction:
        return self.value[n][z][sp]


@dataclass(frozen=True)
class LoadProfile:
    """Per-section loads on every link, plus section capacities."""

    load: tuple[tuple[Fraction, ...], ...]  # N x (S-1)
    C_n: tuple[Fraction, ...]
    overcrowded: tuple[tuple[int, int], ...]  # (section n, link s), 0-based

    @property
    def N(self) -> int:
        return len(self.load)

    @property
    def links(self) -> int:
        return len(self.load[0]) if self.load else 0

    def link_total(self, s: int) -> Fraction:
        return sum((row[s] for row in self.load), Fraction(0))


@dataclass(frozen=True)
class CapacityReport:
    """Maximum load point, occupancy there, and the gain over ordinary trains."""

    mlp_link: int  # 0-based link index
    occupancy: tuple[Fraction, ...]  # per section, at the MLP
    line_capacity: Fraction  # pax/hour through the MLP at 100% occupancy
    reference_units: Fraction
    gain: Fraction  # full XLT units at the MLP / reference units


def _delta_row(line: LineInstance, catalog: StationTypeCatalog) -> list[int]:
    if line.station_types is None:
        raise DimensionMismatch("line must carry a station classification")
    return [catalog.index(t) for t in line.station_types]


def build_assignment(spec: ProtocolSpec, line: LineInstance) -> AssignmentTensor:
    """All-or-nothing assignment from the presentation table.

    Requires a single train type and an exactly-one presentation over
    the demanded pairs; raises AmbiguousAssignment otherwise.
    """
    if spec.K != 1:
        raise DimensionMismatch("assignment is defined for a single train type")
    p = spec.p[0]
    N = spec.trains[0].N
    S = line.S
    ti = _delta_row(line, spec.stations)
    value = [[[Fraction(0)] * S for _ in range(S)] for _ in range(N)]
    for z in range(S):
        for sp in range(z + 1, S):
            i, j = ti[z], ti[sp]
            presenting = [n for n in range(N) if p[n, i, j]]
            if line.A[z][sp] > 0 and len(presenting) > 1:
                raise AmbiguousAssignment(
                    f"{len(presenting)} sections present pair "
                    f"{spec.stations.types[i]}->{spec.stations.types[j]}"
                )
            for n in presenting:
                value[n][z][sp] = Fraction(1)
    return AssignmentTensor(tuple(tuple(tuple(r) for r in plane) for plane in value))


def build_assignment_split(
    spec: ProtocolSpec, line: LineInstance, rule: str = "balanced"
) -> AssignmentTensor:
    """Fractional assignment when several sections present the same pair.

    "balanced" splits each flow over the presenting sections in
    proportion to section capacity.  "end_preference" sends each flow to
    the presenting section with the fewest advertised pairs (commuters
    favoring the quieter end sections), overflowing to the next choice
    only when a link load would exceed the section capacity.
    """
    if rule not in ("balanced", "end_preference"):
        raise ValueError(f"unknown split rule {rule!r}")
    if spec.K != 1:
        raise DimensionMismatch("assignment is defined for a single train type")
    p = spec.p[0]
    N = spec.trains[0].N
    S = line.S
    ti = _delta_row(line, spec.stations)
    caps = section_capacities(spec, 0)
    value = [[[Fraction(0)] * S for _ in range(S)] for _ in range(N)]

    if rule == "balanced":
        for z in range(S):
            for sp in range(z + 1, S):
                i, j = ti[z], ti[sp]
                presenting = [n for n in range(N) if p[n, i, j]]
                total = sum((caps[n] for n in presenting), Fraction(0))
                for n in presenting:
                    if total > 0:
                        value[n][z][sp] = caps[n] / total
                    else:
                        value[n][z][sp] = Fraction(1, len(presenting))
    else:
        busyness = [int(p[n].sum()) for n in range(N)]
        running = [[Fraction(0)] * (S - 1) for _ in range(N)]
        H = line.H
        flows = [
            (z, sp)
            for z in range(S)
            for sp in range(z + 1, S)
            if line.A[z][sp] > 0
        ]
        for z, sp in flows:
            i, j = ti[z], ti[sp]
            presenting = sorted(
                (n for n in range(N) if p[n, i, j]), key=lambda n: (busyness[n], n)
            )
            if not presenting:
                continue
            pax = H * line.A[z][sp]
            chosen = presenting[-1] if presenting else None
            for n in presenting:
                if all(running[n][link] + pax <= caps[n] for link in range(z, sp)):
                    chosen = n
                    break
            else:
                chosen = min(presenting, key=lambda n: max(running[n][z:sp]))
            value[chosen][z][sp] = Fraction(1)
            for link in range(z, sp):
                running[chosen][link] += pax
    return AssignmentTensor(tuple(tuple(tuple(r) for r in plane) for plane in value))


def section_capacities(spec: ProtocolSpec, k: int = 0) -> tuple[Fraction, ...]:
    """C_n = sum of unit capacities over each section."""
    train = spec.trains[k]
    caps = []
    for n in range(1, train.N + 1):
        caps.append(
            sum((Fraction(train.capacities[m - 1]) for m in spec.section_units(k, n)), Fraction(0))
        )
    return tuple(caps)


def load_coefficients(
    assignment: AssignmentTensor, line: LineInstance
) -> list[list[list[Fraction]]]:
    """coef[n][s][z]: passengers per train on section n over link s per unit of E_z."""
    S = line.S
    zero = Fraction(0)
    coef = [[[zero] * S for _ in range(S - 1)] for _ in range(assignment.N)]
    for z in range(S):
        A_z = line.demand_rate(z)
        if A_z == 0:
            continue
        row = line.A[z]
        scale = line.H / A_z
        for table, plane in zip(coef, assignment.value):
            shares = plane[z]
            acc = c = zero
            for sp in range(S - 1, z, -1):
                if shares[sp] and row[sp]:
                    acc += row[sp] * shares[sp]
                    c = acc * scale
                table[sp - 1][z] = c
    return coef


def load_profile(
    coef: Sequence[Sequence[Sequence[Fraction]]],
    entry_rates: Sequence[Fraction],
    C_n: Sequence[Fraction],
) -> LoadProfile:
    """Loads coef·E, with the (section, link) pairs loaded beyond C_n."""
    E = [Fraction(e) for e in entry_rates]
    load = tuple(
        tuple(sum((c * e for c, e in zip(row, E) if c and e), Fraction(0)) for row in table)
        for table in coef
    )
    caps = tuple(Fraction(c) for c in C_n)
    over = tuple((n, s) for n, row in enumerate(load) for s, x in enumerate(row) if x > caps[n])
    return LoadProfile(load=load, C_n=caps, overcrowded=over)


def simulate_loads(
    assignment: AssignmentTensor,
    entry_rates: Sequence[Fraction],
    line: LineInstance,
    C_n: Sequence[Fraction],
) -> LoadProfile:
    """Aggregate section loads per link under FIFO demand thinning.

    Entry rates are thinned proportionally over destinations:
    E_zs' = E_z * A_zs' / A_z.  Overcrowding is reported, not fatal.
    """
    if len(entry_rates) != line.S:
        raise DimensionMismatch(f"{len(entry_rates)} entry rates for {line.S} stations")
    return load_profile(load_coefficients(assignment, line), entry_rates, C_n)


def max_unit_density(
    profile: LoadProfile | Sequence[Sequence[Fraction]], section_sizes: Sequence[int]
) -> Fraction:
    """Largest passengers-per-unit figure anywhere in a profile or in load rows."""
    rows = profile.load if isinstance(profile, LoadProfile) else profile
    worst = Fraction(0)
    for n, row in enumerate(rows):
        if section_sizes[n] and row:
            worst = max(worst, max(row) / section_sizes[n])
    return worst


def max_load_point(profile: LoadProfile) -> int:
    """The first link (0-based) of maximum total load: ties go to the left."""
    totals = [profile.link_total(s) for s in range(profile.links)]
    return totals.index(max(totals))


def size_sections_proportional(
    od_type_fractions: Sequence[Fraction], M: int
) -> tuple[int, ...]:
    """Integer section sizes proportional to the demand fractions.

    Largest-remainder rounding; sizes sum to M exactly and each differs
    from its exact proportional value by less than one unit.
    """
    fractions = [Fraction(f) for f in od_type_fractions]
    if sum(fractions) != 1:
        raise DimensionMismatch("fractions must sum to 1")
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
    """Share of O-D type pairs with no direct F/T/R connection.

    Direct travel exists between equal types and to/from T; only the
    F-R pairs (both directions) force a shift or transfer.
    """
    counts: dict[str, int] = {}
    for label in spacing_pattern:
        counts[label] = counts.get(label, 0) + 1
    total = len(spacing_pattern)
    affected = Fraction(0)
    for i, ci in counts.items():
        for j, cj in counts.items():
            if {i, j} == {"F", "R"}:
                affected += Fraction(ci, total) * Fraction(cj, total)
    return affected


def access_penalty_ftr(spacing_pattern: Sequence[str] = ("F", "R", "T")) -> Fraction:
    """Average extra access distance, as a fraction of the station spacing.

    Affected passengers shift one trip end to a second-best station,
    choosing the cheaper end; the per-end extra distance is uniform on
    [0, spacing/2], so the conditional mean of the cheaper of the two
    ends is spacing/6.
    """
    affected = _unserved_pair_fraction(spacing_pattern)
    if affected == 0:
        return Fraction(0)
    return affected * Fraction(1, 6)


def access_penalty_ftr_mc(
    spacing_pattern: Sequence[str] = ("F", "R", "T"),
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


def headway_correction(extra_length_m: float, cruise_speed_mps: float) -> float:
    """Extra minimum headway in seconds for a train lengthened by ΔL meters."""
    if cruise_speed_mps <= 0:
        raise NonpositiveSpeed("cruise speed must be positive")
    return extra_length_m / cruise_speed_mps


def headway_capacity_reduction(
    extra_length_m: float, cruise_speed_mps: float, base_headway_s: float
) -> float:
    """Relative throughput loss when the base headway grows by ΔL/v."""
    dh = headway_correction(extra_length_m, cruise_speed_mps)
    return dh / (base_headway_s + dh)
