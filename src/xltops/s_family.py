"""Single-train bar-chart model and the step-family protocol generator.

A bar chart describes a single-unit-type protocol: the train is a bar of
M units and each station type i is a bar of length d_i displaced by b_i
units (measured from the rear end of the bar to the front end of the
train's coordinate origin at the train front).  Unit m occupies the
interval [m-1, m]; bar i spans [b_i - d_i, b_i]; b_i = 0 means the type
is skipped.

The step family S(C, D) staggers C equal bars uniformly by h = d/D units
from b = d (bottom) to b = M (top).  Closed-form results:

  length ratio   M/d = 1 + (C-1)/D
  connectivity   C_T = 1 + (T+1) * strict_floor(D)
  worst transfers  min T with C_T >= C
  length cap     M/d with T transfers = 1 + (T+1) * strict_floor(D)/D,
                 always strictly below 2 + T

strict_floor(D) is the largest natural number strictly below D (0 when
D <= 1).  It is used in the length cap as well, since the ordinary floor
would contradict the one-transfer doubling of S(3, 2).
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import flow_sim
from .core_model import (
    EolRule,
    LineInstance,
    ProtocolSpec,
    StationTypeCatalog,
    TrainTypeSpec,
    build_protocol,
    derive_parts,
)
from .errors import (
    DimensionMismatch,
    NonIntegralStep,
    SubsetCoverage,
    UnreachableError,
)


@dataclass(frozen=True)
class Bar:
    """One station-type bar: displacement b and platform length d."""

    label: str
    b: int
    d: int

    @property
    def skipped(self) -> bool:
        return self.b == 0

    def span(self) -> tuple[int, int]:
        return (self.b - self.d, self.b)


@dataclass(frozen=True)
class BarChart:
    """A single-train-type protocol: train length M plus one bar per type."""

    M: int
    bars: tuple[Bar, ...]

    def __post_init__(self) -> None:
        labels = [bar.label for bar in self.bars]
        if len(set(labels)) != len(labels):
            raise DimensionMismatch("bar labels must be unique within a chart")
        for bar in self.bars:
            if bar.d < 1:
                raise DimensionMismatch(f"bar {bar.label}: platform length must be >= 1")
            if not bar.skipped and not (1 <= bar.b <= self.M + bar.d - 1):
                raise DimensionMismatch(
                    f"bar {bar.label}: displacement {bar.b} outside 1..{self.M + bar.d - 1}"
                )

    def labels(self) -> tuple[str, ...]:
        return tuple(bar.label for bar in self.bars)

    def bar(self, label: str) -> Bar:
        for bar in self.bars:
            if bar.label == label:
                return bar
        raise KeyError(label)

    def overlap(self, label: str) -> int:
        """Units of the train covered by the bar (0 for skipped types)."""
        bar = self.bar(label)
        if bar.skipped:
            return 0
        lo, hi = bar.span()
        return max(0, min(hi, self.M) - max(lo, 0))

    def covered_units(self, label: str) -> tuple[int, ...]:
        """1-based unit indices fully inside the bar."""
        bar = self.bar(label)
        if bar.skipped:
            return ()
        lo, hi = bar.span()
        return tuple(range(max(lo, 0) + 1, min(hi, self.M) + 1))

    def pair_overlap(self, label_i: str, label_j: str) -> int:
        """Whole units shared by two bars on the train (riding feasibility)."""
        bi, bj = self.bar(label_i), self.bar(label_j)
        if bi.skipped or bj.skipped:
            return 0
        lo = max(bi.b - bi.d, bj.b - bj.d, 0)
        hi = min(bi.b, bj.b, self.M)
        return max(0, hi - lo)


@dataclass(frozen=True)
class MultiTrainChart:
    """One bar chart per train type plus the dispatch rotation order."""

    charts: tuple[tuple[str, BarChart], ...]
    rotation: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.charts:
            raise DimensionMismatch("at least one chart is required")
        M = self.charts[0][1].M
        universe = set(self.charts[0][1].labels())
        for label, chart in self.charts:
            if chart.M != M:
                raise DimensionMismatch("all charts must share the train length M")
            if set(chart.labels()) != universe:
                raise DimensionMismatch("all charts must share the station-type universe")
        if set(self.rotation) != {label for label, _ in self.charts}:
            raise DimensionMismatch("rotation must name every train type exactly")

    @property
    def M(self) -> int:
        return self.charts[0][1].M

    def train_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.charts)

    def chart(self, train_label: str) -> BarChart:
        for label, chart in self.charts:
            if label == train_label:
                return chart
        raise KeyError(train_label)

    def type_universe(self) -> tuple[str, ...]:
        return self.charts[0][1].labels()


# ---------------------------------------------------------------------------
# Step-family formulas
# ---------------------------------------------------------------------------


def strict_floor(D: Fraction | int) -> int:
    """Largest natural number strictly below D; 0 when D <= 1."""
    D = Fraction(D)
    if D <= 1:
        return 0
    if D.denominator == 1:
        return int(D) - 1
    return math.floor(D)


def _letters(C: int) -> tuple[str, ...]:
    if C <= 26:
        return tuple(string.ascii_uppercase[:C])
    return tuple(f"T{i + 1}" for i in range(C))


@dataclass(frozen=True)
class SFamilySpec:
    """Parameters of one S(C, D) protocol with common platform length d."""

    C: int
    D: Fraction
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "D", Fraction(self.D))
        if self.C < 1 or self.d < 1 or self.D <= 0:
            raise DimensionMismatch("need C >= 1, d >= 1 and D > 0")
        if self.C > 1 and (self.d / self.D).denominator != 1:
            raise NonIntegralStep(
                f"step h = d/D = {self.d}/{self.D} is not a whole number of units"
            )

    @property
    def h(self) -> int:
        return int(self.d / self.D) if self.C > 1 else 0

    @property
    def M(self) -> int:
        return self.d + (self.C - 1) * self.h

    def chart(self) -> BarChart:
        return generate_s(self.C, self.D, self.d)


def generate_s(C: int, D: Fraction | int | str, d: int) -> BarChart:
    """Build the S(C, D) chart: b_i = d + (i-1) d/D, bottom to top.

    Labels run A, B, C, ... from the bottom bar (b = d) upward.
    """
    params = SFamilySpec(C=C, D=Fraction(D), d=d)
    labels = _letters(C)
    bars = tuple(Bar(label=labels[i], b=d + i * params.h, d=d) for i in range(C))
    return BarChart(M=params.M, bars=bars)


def train_length_ratio(C: int, D: Fraction | int | str) -> Fraction:
    """Exact train length in platform lengths: 1 + (C-1)/D."""
    D = Fraction(D)
    if C < 1 or D <= 0:
        raise DimensionMismatch("need C >= 1 and D > 0")
    return 1 + Fraction(C - 1, 1) / D


def max_connected_classes(T: int, D: Fraction | int | str) -> int:
    """Most station types reachable with at most T transfers."""
    if T < 0:
        raise DimensionMismatch("transfer count must be >= 0")
    return 1 + (T + 1) * strict_floor(Fraction(D))

def worst_case_transfers(C: int, D: Fraction | int | str) -> int:
    """Minimal T such that max_connected_classes(T, D) >= C."""
    if C < 1:
        raise DimensionMismatch("need C >= 1")
    if C == 1:
        return 0
    sf = strict_floor(Fraction(D))
    if sf == 0:
        raise UnreachableError(f"D = {D}: bars do not overlap, no transfer count connects {C} types")
    return math.ceil(Fraction(C - 1, sf)) - 1


def max_length_with_transfers(T: int, D: Fraction | int | str) -> Fraction:
    """Longest train (in platform lengths) keeping worst trips at T transfers."""
    D = Fraction(D)
    ratio = 1 + Fraction((T + 1) * strict_floor(D), 1) / D
    assert ratio < 2 + T, "length cap must stay strictly below (2+T) platforms"
    return ratio


# ---------------------------------------------------------------------------
# Multi-train constructions
# ---------------------------------------------------------------------------

FTR3_GROUPS = {
    "1": {"F": ("A", "B"), "R": ("C", "D")},
    "2": {"F": ("A", "C"), "R": ("B", "D")},
    "3": {"F": ("A", "D"), "R": ("B", "C")},
}


def build_ftr3() -> MultiTrainChart:
    """Three-train F/T/R variant: zero-transfer connectivity, double length.

    Every train follows the S(3, 2) geometry (M = 8, d = 4); the trains
    differ only in which station subtypes play the F and R roles.
    """
    charts = []
    for train_label in ("1", "2", "3"):
        groups = FTR3_GROUPS[train_label]
        bars = [Bar(label=sub, b=4, d=4) for sub in groups["F"]]
        bars.append(Bar(label="T", b=6, d=4))
        bars.extend(Bar(label=sub, b=8, d=4) for sub in groups["R"])
        bars.sort(key=lambda bar: (bar.b, bar.label))
        charts.append((train_label, BarChart(M=8, bars=tuple(bars))))
    return MultiTrainChart(charts=tuple(charts), rotation=("1", "2", "3"))


def build_s52_2() -> MultiTrainChart:
    """Two-train S(5, 2): triple-length trains, worst case one transfer.

    Labels run A (top) to E (bottom); the second train swaps the B and D
    bars, which is what opens the one-transfer paths.
    """
    d = 4
    first = {"E": 4, "D": 6, "C": 8, "B": 10, "A": 12}
    second = {"E": 4, "B": 6, "C": 8, "D": 10, "A": 12}
    charts = []
    for train_label, placing in (("1", first), ("2", second)):
        bars = tuple(
            Bar(label=lab, b=b, d=d)
            for lab, b in sorted(placing.items(), key=lambda kv: (kv[1], kv[0]))
        )
        charts.append((train_label, BarChart(M=12, bars=bars)))
    return MultiTrainChart(charts=tuple(charts), rotation=("1", "2"))


def compose_skip_stop(
    chart: BarChart,
    station_subsets: Sequence[tuple[str, Sequence[str]]],
    universe: Sequence[str] | None = None,
) -> MultiTrainChart:
    """Assign each train type to a subset of station types, skipping the rest.

    Each subset lists, bottom to top, the types taking the base chart's
    bar positions; all other universe types get b = 0 (skipped) for that
    train.  The subsets together must cover the universe.
    """
    base = sorted(chart.bars, key=lambda bar: (bar.b, bar.label))
    covered: set[str] = set()
    for train_label, subset in station_subsets:
        if len(subset) != len(base):
            raise SubsetCoverage(
                f"train {train_label}: subset size {len(subset)} != chart bar count {len(base)}"
            )
        covered.update(subset)
    if universe is None:
        universe = tuple(sorted(covered))
    elif covered != set(universe):
        missing = sorted(set(universe) - covered)
        raise SubsetCoverage(f"subsets do not cover types {missing}")

    charts = []
    for train_label, subset in station_subsets:
        placed = {
            label: Bar(label=label, b=bar.b, d=bar.d)
            for label, bar in zip(subset, base)
        }
        skipped_d = base[0].d
        bars = tuple(
            placed.get(label, Bar(label=label, b=0, d=skipped_d)) for label in universe
        )
        charts.append((train_label, BarChart(M=chart.M, bars=bars)))
    return MultiTrainChart(
        charts=tuple(charts), rotation=tuple(label for label, _ in station_subsets)
    )


def stops_per_train(multichart: MultiTrainChart, station_types: Sequence[str]) -> dict[str, int]:
    """Stations each train type serves on a classified line."""
    out = {}
    for train_label, chart in multichart.charts:
        served = {lab for lab in chart.labels() if chart.overlap(lab) >= 1}
        out[train_label] = sum(1 for t in station_types if t in served)
    return out


# ---------------------------------------------------------------------------
# Chart -> protocol tables
# ---------------------------------------------------------------------------


def _chart_eol_rule(charts: Sequence[BarChart]) -> EolRule | None:
    """Types safe at the ends of the line: rear-aligned first, front-aligned last."""
    first = None
    last = None
    for chart in charts:
        top = {bar.label for bar in chart.bars if not bar.skipped and bar.b == chart.M}
        bottom = {bar.label for bar in chart.bars if not bar.skipped and bar.b == bar.d}
        first = top if first is None else first & top
        last = bottom if last is None else last & bottom
    if not first or not last:
        return None
    return EolRule(name="chart", first_types=frozenset(first), last_types=frozenset(last))


def chart_to_protocol(
    chart_or_multichart: BarChart | MultiTrainChart,
    station_classification: Sequence[str] | None = None,
    unit_capacity: float = 1.0,
) -> ProtocolSpec:
    """Expand a chart into the full seven-table protocol.

    Every unit is its own section; doors mirror alignment (v = a) and
    presentation is full (p_nij = a_ni * a_nj).
    """
    if isinstance(chart_or_multichart, BarChart):
        mtc = MultiTrainChart(charts=(("1", chart_or_multichart),), rotation=("1",))
    else:
        mtc = chart_or_multichart

    types = mtc.type_universe()
    d: dict[str, int] = {}
    for _, chart in mtc.charts:
        for bar in chart.bars:
            if d.setdefault(bar.label, bar.d) != bar.d:
                raise DimensionMismatch(f"bar {bar.label}: platform length differs across charts")
    catalog = StationTypeCatalog(types=types, d=d)

    M = mtc.M
    trains, u_t, a_t, v_t, p_t, s_rows = [], [], [], [], [], []
    for train_label, chart in mtc.charts:
        trains.append(TrainTypeSpec.uniform(train_label, M=M, N=M, unit_capacity=unit_capacity))
        u_t.append(np.eye(M, dtype=int))
        a = np.zeros((M, len(types)), dtype=int)
        for i, label in enumerate(types):
            for m in chart.covered_units(label):
                a[m - 1, i] = 1
        a_t.append(a)
        v_t.append(a.copy())
        p_t.append(np.einsum("ni,nj->nij", a, a))
        s_rows.append([1 if chart.overlap(label) >= 1 else 0 for label in types])

    delta = None
    epsilon = None
    if station_classification is not None:
        delta = np.zeros((len(station_classification), len(types)), dtype=int)
        for si, label in enumerate(station_classification):
            delta[si, types.index(label)] = 1
    if len(mtc.rotation) > 1:
        order = [mtc.train_labels().index(lab) for lab in mtc.rotation]
        epsilon = np.zeros((len(order), len(trains)), dtype=int)
        for t, k in enumerate(order):
            epsilon[t, k] = 1

    return build_protocol(
        catalog,
        trains,
        u=u_t,
        s=np.array(s_rows),
        a=a_t,
        v=v_t,
        p=p_t,
        delta=delta,
        epsilon=epsilon,
        eol_rule=_chart_eol_rule([chart for _, chart in mtc.charts]),
    )


# ---------------------------------------------------------------------------
# Greedy part-level presentation refinement
# ---------------------------------------------------------------------------


def greedy_presentation_refine(
    spec: ProtocolSpec,
    line: LineInstance,
    demand: Sequence[Sequence[Fraction]] | None = None,
) -> ProtocolSpec:
    """Reassign O-D type pairs to train parts to flatten the load profile.

    Pairs are processed in descending demand order; each is presented by
    the feasible part (doors open at both types for all its sections)
    that keeps the maximum per-unit density lowest, ties going to the
    lowest part index.  If the result is denser than the input spec under
    a balanced split, the input spec is returned unchanged.
    """
    if spec.K != 1:
        raise DimensionMismatch("refinement works on single-train-type specs")
    if line.station_types is None:
        raise DimensionMismatch("line must be classified")
    k = 0
    types = spec.stations.types
    sizes = spec.section_sizes(k)
    vk = spec.v[k]
    H = line.H
    A = demand if demand is not None else line.A
    S = line.S

    parts = derive_parts(spec, k)

    # Aggregate demand per origin-destination type pair, and its passengers
    # per train on each link before any split.
    totals: dict[tuple[str, str], Fraction] = {}
    per_link: dict[tuple[str, str], list[Fraction]] = {}
    for z in range(S):
        for sp in range(z + 1, S):
            if A[z][sp] > 0:
                pair = (line.station_types[z], line.station_types[sp])
                totals[pair] = totals.get(pair, 0) + A[z][sp]
                pax = per_link.setdefault(pair, [Fraction(0)] * (S - 1))
                riders = H * A[z][sp]
                for link in range(z, sp):
                    pax[link] += riders
    order = sorted(totals, key=lambda pair: (-totals[pair], pair))

    def feasible_parts(i: str, j: str) -> list:
        ii, jj = types.index(i), types.index(j)
        out = []
        for part in parts:
            lo, hi = part.sections
            if all(vk[n - 1, ii] and vk[n - 1, jj] for n in range(lo, hi + 1)):
                out.append(part)
        return out

    # Incremental per-link loads, split inside a part by section size.
    load = [[Fraction(0)] * (S - 1) for _ in range(spec.trains[k].N)]

    def add_pair(pair: tuple[str, str], part, scratch=None) -> list[list[Fraction]]:
        target = scratch if scratch is not None else load
        lo, hi = part.sections
        span = list(range(lo, hi + 1))
        total_units = sum(sizes[n - 1] for n in span)
        pax = per_link[pair]
        for n in span:
            share = Fraction(sizes[n - 1], total_units)
            row = target[n - 1]
            for link, x in enumerate(pax):
                if x:
                    row[link] += x * share
        return target

    assignment: dict[tuple[str, str], int] = {}
    for pair in order:
        candidates = feasible_parts(*pair)
        if not candidates:
            raise UnreachableError(f"no part can serve the demanded pair {pair}")
        best_part, best_score = None, None
        for part in candidates:
            scratch = [row.copy() for row in load]
            add_pair(pair, part, scratch)
            score = flow_sim.max_unit_density(scratch, sizes)
            if best_score is None or score < best_score:
                best_part, best_score = part, score
        assignment[pair] = best_part.index
        add_pair(pair, best_part)

    new_p = np.zeros_like(np.asarray(spec.p[k]))
    for (i, j), part_index in assignment.items():
        lo, hi = parts[part_index - 1].sections
        ii, jj = types.index(i), types.index(j)
        new_p[lo - 1 : hi, ii, jj] = 1
    refined = replace(spec, p=(new_p,))

    # Hold the best-seen solution: never return a denser profile.
    baseline = flow_sim.build_assignment_split(spec, line)
    rates = tuple(line.demand_rate(z) for z in range(S))
    caps = flow_sim.section_capacities(spec, k)
    base_profile = flow_sim.simulate_loads(baseline, rates, line, caps)
    base_density = flow_sim.max_unit_density(base_profile, sizes)
    if flow_sim.max_unit_density(load, sizes) > base_density:
        return spec
    return refined


# ---------------------------------------------------------------------------
# Chart serialization
# ---------------------------------------------------------------------------

from .core_model import SCHEMA_VERSION, _check_schema  # noqa: E402


def chart_to_json(chart: BarChart | MultiTrainChart) -> dict:
    if isinstance(chart, BarChart):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "chart",
            "M": chart.M,
            "bars": [{"label": bar.label, "b": bar.b, "d": bar.d} for bar in chart.bars],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "multichart",
        "charts": [
            {"train": label, "chart": chart_to_json(sub)} for label, sub in chart.charts
        ],
        "rotation": list(chart.rotation),
    }


def chart_from_json(doc: dict) -> BarChart | MultiTrainChart:
    kind = doc.get("kind")
    if kind == "chart":
        _check_schema(doc, "chart")
        return BarChart(
            M=int(doc["M"]),
            bars=tuple(
                Bar(label=x["label"], b=int(x["b"]), d=int(x["d"])) for x in doc["bars"]
            ),
        )
    _check_schema(doc, "multichart")
    return MultiTrainChart(
        charts=tuple(
            (entry["train"], chart_from_json(entry["chart"])) for entry in doc["charts"]
        ),
        rotation=tuple(doc["rotation"]),
    )
