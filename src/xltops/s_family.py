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
from functools import cached_property
from typing import Sequence

from . import flow_sim
from .core_model import (
    DOCUMENT_ERRORS,
    EolRule,
    LineInstance,
    ProtocolSpec,
    SCHEMA_VERSION,
    StationTypeCatalog,
    TrainTypeSpec,
    _check_schema,
    _integer,
    _listed,
    _number,
    _whole,
    build_protocol,
    derive_parts,
    one_hot,
    train_tables,
)
from .errors import (
    DimensionMismatch,
    NonIntegralStep,
    SchemaError,
    SubsetCoverage,
    UnreachableError,
)

_FINITE_D = "need a finite D > 0"  # what reading a D that is no number refuses


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
        if not labels:
            raise DimensionMismatch("a chart needs at least one bar")
        bad = [label for label in labels if not isinstance(label, str)]
        if bad:
            raise DimensionMismatch(f"bar labels must be strings, not {bad[0]!r}")
        if len(set(labels)) != len(labels):
            raise DimensionMismatch("bar labels must be unique within a chart")
        for bar in self.bars:
            if not all(map(_integer, (self.M, bar.b, bar.d))):
                raise DimensionMismatch(f"bar {bar.label}: M, b and d must be whole numbers")
            if bar.d < 1:
                raise DimensionMismatch(f"bar {bar.label}: platform length must be >= 1")
            if not bar.skipped and not (1 <= bar.b <= self.M + bar.d - 1):
                raise DimensionMismatch(
                    f"bar {bar.label}: displacement {bar.b} outside 1..{self.M + bar.d - 1}"
                )

    def labels(self) -> tuple[str, ...]:
        return tuple(bar.label for bar in self.bars)

    @cached_property
    def _by_label(self) -> dict[str, Bar]:
        return {bar.label: bar for bar in self.bars}

    def bar(self, label: str) -> Bar:
        return self._by_label[label]

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


@dataclass(frozen=True)
class MultiTrainChart:
    """One bar chart per train type plus the dispatch rotation order."""

    charts: tuple[tuple[str, BarChart], ...]
    rotation: tuple[str, ...]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "rotation", _listed(self.rotation))
        except TypeError as exc:
            raise DimensionMismatch(str(exc)) from None
        if not self.charts:
            raise DimensionMismatch("at least one chart is required")
        if len(set(self.train_labels())) != len(self.charts):
            raise DimensionMismatch("train labels must be unique")
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

    @cached_property
    def _by_label(self) -> dict[str, BarChart]:
        return dict(self.charts)

    def chart(self, train_label: str) -> BarChart:
        return self._by_label[train_label]

    def type_universe(self) -> tuple[str, ...]:
        return self.charts[0][1].labels()


# ---------------------------------------------------------------------------
# Step-family formulas
# ---------------------------------------------------------------------------


def strict_floor(D: Fraction | int) -> int:
    """Largest natural number strictly below D; 0 when D <= 1."""
    return max(0, math.ceil(_number(D, "D must be a finite number")) - 1)


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
        object.__setattr__(self, "D", _number(self.D, _FINITE_D))
        if not (_integer(self.C) and _integer(self.d)) or self.C < 1 or self.d < 1 or self.D <= 0:
            raise DimensionMismatch("need whole numbers C >= 1 and d >= 1, and D > 0")
        if self.C > 1 and (self.d / self.D).denominator != 1:
            D = self.D if self.D.denominator == 1 else f"({self.D})"
            raise NonIntegralStep(f"step h = d/D = {self.d}/{D} is not a whole number of units")

    @property
    def h(self) -> int:
        return int(self.d / self.D) if self.C > 1 else 0

    @property
    def M(self) -> int:
        return self.d + (self.C - 1) * self.h


def generate_s(C: int, D: Fraction | int | str, d: int) -> BarChart:
    """Build the S(C, D) chart: b_i = d + (i-1) d/D, bottom to top.

    Labels run A, B, C, ... from the bottom bar (b = d) upward.
    """
    params = SFamilySpec(C=C, D=D, d=d)
    labels = _letters(C)
    bars = tuple(Bar(label=labels[i], b=d + i * params.h, d=d) for i in range(C))
    return BarChart(M=params.M, bars=bars)


def train_length_ratio(C: int, D: Fraction | int | str) -> Fraction:
    """Exact train length in platform lengths: 1 + (C-1)/D."""
    D = _number(D, _FINITE_D)
    if not _integer(C) or C < 1 or D <= 0:
        raise DimensionMismatch("need a whole class count C >= 1 and D > 0")
    return 1 + Fraction(C - 1, 1) / D


def max_connected_classes(T: int, D: Fraction | int | str) -> int:
    """Most station types reachable with at most T transfers."""
    D = _number(D, _FINITE_D)
    if not _integer(T) or T < 0 or D <= 0:
        raise DimensionMismatch("need a whole transfer count T >= 0 and D > 0")
    return 1 + (T + 1) * strict_floor(D)


def worst_case_transfers(C: int, D: Fraction | int | str) -> int:
    """Minimal T such that max_connected_classes(T, D) >= C."""
    ratio = _number(D, _FINITE_D)
    if not _integer(C) or C < 1 or ratio <= 0:
        raise DimensionMismatch("need a whole class count C >= 1 and D > 0")
    if C == 1:
        return 0
    sf = strict_floor(ratio)
    if sf == 0:
        raise UnreachableError(f"D = {D}: bars do not overlap, no transfer count connects {C} types")
    return math.ceil(Fraction(C - 1, sf)) - 1


def max_length_with_transfers(T: int, D: Fraction | int | str) -> Fraction:
    """Longest train (in platform lengths) keeping worst trips at T transfers: 1 + (C_T - 1)/D."""
    ratio = 1 + (max_connected_classes(T, D) - 1) / _number(D, _FINITE_D)
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


def as_multichart(chart: BarChart | MultiTrainChart) -> MultiTrainChart:
    """A bar chart as the one-train chart of train type "1"; a multi-train chart as is."""
    if isinstance(chart, BarChart):
        return MultiTrainChart(charts=(("1", chart),), rotation=("1",))
    return chart


def chart_to_protocol(
    chart_or_multichart: BarChart | MultiTrainChart,
    station_classification: Sequence[str] | None = None,
) -> ProtocolSpec:
    """Expand a chart into the full seven-table protocol.

    Every unit is its own section; doors mirror alignment (v = a) and
    presentation is full (p_nij = a_ni * a_nj).
    """
    mtc = as_multichart(chart_or_multichart)
    types = mtc.type_universe()
    d: dict[str, int] = {}
    for _, chart in mtc.charts:
        for bar in chart.bars:
            if d.setdefault(bar.label, bar.d) != bar.d:
                raise DimensionMismatch(f"bar {bar.label}: platform length differs across charts")
    catalog = StationTypeCatalog(types=types, d=d)

    M = mtc.M
    trains, tables = [], []
    for train_label, chart in mtc.charts:
        trains.append(TrainTypeSpec.uniform(train_label, M=M, N=M))
        a = [[0] * len(types) for _ in range(M)]
        for i, label in enumerate(types):
            for m in chart.covered_units(label):
                a[m - 1][i] = 1
        tables.append(train_tables((1,) * M, a))
    u, a, v, p, s = zip(*tables)

    delta = epsilon = None
    if station_classification is not None:
        delta = one_hot(catalog.indices(station_classification), len(types))
    if len(mtc.rotation) > 1:
        epsilon = one_hot(map(mtc.train_labels().index, mtc.rotation), len(trains))
    return build_protocol(
        catalog, trains, u=u, s=s, a=a, v=v, p=p, delta=delta, epsilon=epsilon,
        eol_rule=_chart_eol_rule([chart for _, chart in mtc.charts]),
    )


# ---------------------------------------------------------------------------
# Greedy part-level presentation refinement
# ---------------------------------------------------------------------------


def greedy_presentation_refine(spec: ProtocolSpec, line: LineInstance) -> ProtocolSpec:
    """Reassign O-D type pairs to train parts to flatten the load profile.

    Pairs are processed in descending demand order; each is presented by
    the feasible part (doors open at both types for all its sections)
    that keeps the maximum per-unit density lowest, ties going to the
    lowest part index.  Loads follow the balanced split
    (``flow_sim.capacity_shares``): a pair's passengers share out over
    the sections presenting it in proportion to section capacity, so the
    score of the chosen parts is the refined spec's balanced-split
    density.  If that is higher than the input spec's balanced-split
    density, the input spec is returned unchanged.
    """
    ti, presenting = flow_sim.type_pair_sections(spec, line)
    types = spec.stations.types
    sizes = spec.section_sizes(0)
    _, caps = flow_sim._section_units(spec)
    vk = spec.v[0]
    S = line.S

    parts = derive_parts(spec)

    # Demand per origin-destination type pair (as type indices), as the
    # line's integers: k times the demand rates, each flow a rider of its pair.
    totals: dict[tuple[int, int], int] = {}
    riders: dict[tuple[int, int], list[tuple]] = {}  # each pair's row of link loads
    for z, sp, v in line._flows:
        pair = (ti[z], ti[sp])
        totals[pair] = totals.get(pair, 0) + v
        riders.setdefault(pair, []).append((z, sp, v, 1))
    order = sorted(totals, key=lambda pair: (-totals[pair], types[pair[0]], types[pair[1]]))

    def feasible_spans(i: int, j: int) -> list[range]:
        """0-based sections of each part with doors open at both types throughout."""
        spans = [range(part.sections[0] - 1, part.sections[1]) for part in parts]
        return [span for span in spans if all(vk[n][i] and vk[n][j] for n in span)]

    # Each pair's shares: of the input's presenting sections, then of each feasible span.
    spans, shares = {}, {}
    for pair in order:
        spans[pair] = feasible_spans(*pair)
        if not spans[pair]:
            labels = (types[pair[0]], types[pair[1]])
            raise UnreachableError(f"no part can serve the demanded pair {labels}")
        shares[pair] = [flow_sim.capacity_shares(sections, caps)
                        for sections in (presenting[pair[0]][pair[1]], *spans[pair])]

    # Every load below is an integer: passengers per train times k/H (k the
    # line's scale) times k_share, the lcm of the shares' q.  A positive
    # factor common to all loads, it changes no comparison of densities.
    pax = dict(zip(riders, (row for _, row in flow_sim.link_sums(S, riders.values()))))
    k_share = math.lcm(*{q for options in shares.values() for option in options
                         for _, _, q in option})
    weights = {pair: [[(n, p * (k_share // q)) for n, p, q in option] for option in options]
               for pair, options in shares.items()}

    def add_pair(target: list[list[int]], pair: tuple[int, int], option) -> None:
        for n, w in option:
            target[n] = [a + w * b for a, b in zip(target[n], pax[pair])]

    def density_with(pair: tuple[int, int], option) -> Fraction:
        scratch = load.copy()  # add_pair replaces the rows it changes
        add_pair(scratch, pair, option)
        return flow_sim.max_unit_density(scratch, sizes)

    # Per-link loads of the refined spec so far, and of the input spec.
    load = [[0] * (S - 1) for _ in range(spec.trains[0].N)]
    baseline = [row.copy() for row in load]
    chosen: dict[tuple[int, int], range] = {}
    for pair in order:
        base, *options = weights[pair]
        add_pair(baseline, pair, base)
        # min keeps the first of equal scores: ties go to the lowest part.
        best = min(range(len(options)), key=lambda c: density_with(pair, options[c]))
        chosen[pair] = spans[pair][best]
        add_pair(load, pair, options[best])

    # Hold the best-seen solution: never return a denser profile.
    if flow_sim.max_unit_density(load, sizes) > flow_sim.max_unit_density(baseline, sizes):
        return spec
    C = spec.C
    new_p = tuple(
        tuple(tuple(int(n in chosen.get((i, j), ())) for j in range(C)) for i in range(C))
        for n in range(spec.trains[0].N)
    )
    return replace(spec, p=(new_p,))


# ---------------------------------------------------------------------------
# Chart serialization
# ---------------------------------------------------------------------------


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
    kind = doc.get("kind") if isinstance(doc, dict) else None
    _check_schema(doc, "chart" if kind == "chart" else "multichart")
    try:
        if kind == "chart":
            return BarChart(
                M=_whole(doc["M"]),
                bars=tuple(
                    Bar(label=x["label"], b=_whole(x["b"]), d=_whole(x["d"])) for x in doc["bars"]
                ),
            )
        return MultiTrainChart(
            charts=tuple(
                (entry["train"], chart_from_json(entry["chart"])) for entry in doc["charts"]
            ),
            rotation=_listed(doc["rotation"]),
        )
    except DOCUMENT_ERRORS as exc:
        raise SchemaError(f"malformed chart document: {exc}") from exc
