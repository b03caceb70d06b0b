"""Gate signage, chart rendering and the ``xlt`` command-line interface.

Gate signs are derived purely from the protocol tables: the sign at a
platform slot advertises exactly the destination types presented by the
section aligned there, ``X`` where doors stay shut or nothing is
presented, and ``-`` where no train section reaches.  Renderings are
deterministic (identical input -> identical bytes) so text outputs can
be used as golden files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import feasibility, flow_sim, metering_opt, routing, s_family
from .core_model import (
    DOCUMENT_ERRORS,
    LineInstance,
    ProtocolSpec,
    SCHEMA_VERSION,
    _as_fraction,
    _listed,
    fr_h,
    fr_i,
    ftr,
    line_from_json,
    spec_from_json,
    spec_to_json,
)
from .errors import DimensionMismatch, SchemaError, XltError

NO_TRAIN = "-"
DISEMBARK_ONLY = "X"


@dataclass(frozen=True)
class GateSignTable:
    """Signs per station: for each train type, one sign per platform slot.

    A sign is a comma-joined destination list, ``X`` (disembark only) or
    ``-`` (no aligned section at that slot).
    """

    station_types: tuple[str, ...]
    signs: tuple[tuple[tuple[str, tuple[str, ...]], ...], ...]  # per station: ((train, gates), ...)

    def gates(self, station: int, train_label: str) -> tuple[str, ...]:
        for label, row in self.signs[station]:
            if label == train_label:
                return row
        raise KeyError(train_label)


def _gates_for(spec: ProtocolSpec, k: int, type_index: int, platform: int) -> tuple[str, ...]:
    """Signs along one platform for train type k at a station of one type."""
    ak, vk, pk = spec.a[k], spec.v[k], spec.p[k]
    types = spec.stations.types
    gates: list[str] = []
    if spec.s[k][type_index]:
        sizes = spec.section_sizes(k)
        for n, row in enumerate(ak):
            if not row[type_index]:
                continue
            size = sizes[n]
            if vk[n][type_index]:
                dests = [types[j] for j, x in enumerate(pk[n][type_index]) if x]
                sign = ",".join(dests) if dests else DISEMBARK_ONLY
            else:
                sign = DISEMBARK_ONLY
            gates.extend([sign] * size)
    gates = gates[:platform]
    gates.extend([NO_TRAIN] * (platform - len(gates)))
    return tuple(gates)


def derive_gate_signs(spec: ProtocolSpec, line: LineInstance) -> GateSignTable:
    """Read the platform signage off the alignment/presentation tables."""
    if line.station_types is None:
        raise DimensionMismatch("line carries no station classification")
    rows = []
    for s, i in enumerate(spec.stations.indices(line.station_types)):
        platform = line.platform_lengths[s]
        rows.append(
            tuple(
                (train.label, _gates_for(spec, k, i, platform))
                for k, train in enumerate(spec.trains)
            )
        )
    return GateSignTable(station_types=tuple(line.station_types), signs=tuple(rows))


def gate_door_consistency(spec: ProtocolSpec) -> list[str]:
    """Closure check: every advertised destination must be honorable.

    If a section presents destination j at origin type i, the boarding
    gate exists (section aligned and open at i) and the same section
    opens its doors at type-j stations, so the advertised trip can end.
    """
    problems: list[str] = []
    types = spec.stations.types
    zero = (0,) * spec.C
    for k, train in enumerate(spec.trains):
        ak, vk, pk, sk = spec.a[k], spec.v[k], spec.p[k], spec.s[k]
        skipped = [j for j, x in enumerate(sk) if not x]
        for n, (rows, arow, vrow) in enumerate(zip(pk, ak, vk)):
            # A row equal to the door row, at an open gate, of a train that
            # stops wherever those doors open, advertises nothing it cannot honour.
            stops = not any(vrow[j] for j in skipped)
            for i, row in enumerate(rows):
                if row == zero or (row == vrow and arow[i] and vrow[i] and stops):
                    continue
                where = f"train {train.label}, section {n + 1}"
                for j, x in enumerate(row):
                    if not x:
                        continue
                    if not (arow[i] and vrow[i]):
                        problems.append(
                            f"{where}: advertises {types[j]} at {types[i]} without an open gate"
                        )
                    if not vrow[j]:
                        problems.append(
                            f"{where}: advertises {types[j]} at {types[i]} but cannot open at {types[j]}"
                        )
                    if not sk[j]:
                        problems.append(
                            f"{where}: advertises {types[j]} but the train skips that type"
                        )
    return problems


# ---------------------------------------------------------------------------
# Chart rendering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartRendering:
    text: str
    svg: str


def _bar_row(chart: s_family.BarChart, label: str) -> str:
    cells = ["."] * chart.M
    for m in chart.covered_units(label):
        cells[m - 1] = "#"
    return "".join(cells)


def _render_single_text(chart: s_family.BarChart, title: str) -> list[str]:
    lines = [f"{title}  M={chart.M}"]
    width = max(5, max(len(b.label) for b in chart.bars))  # len("train") == 5
    lines.append(f"{'train'.ljust(width)}  [{'#' * chart.M}]")
    for bar in reversed(chart.bars):  # top of the stack first
        note = "skip" if bar.skipped else f"b={bar.b} d={bar.d}"
        lines.append(f"{bar.label.ljust(width)}  [{_bar_row(chart, bar.label)}]  {note}")
    return lines


def render_chart(
    chart: s_family.BarChart | s_family.MultiTrainChart,
    overlays: Sequence[routing.RoutePlan] = (),
) -> ChartRendering:
    """Deterministic text and SVG pictures of a bar chart (or several)."""
    charts = s_family.as_multichart(chart).charts
    lines: list[str] = []
    for train_label, c in charts:
        if lines:
            lines.append("")
        lines.extend(_render_single_text(c, f"train type {train_label}"))
    for plan in overlays:
        steps = " -> ".join(
            f"{leg.board}-[{leg.train}]-{leg.alight}" for leg in plan.legs
        ) or f"{plan.origin} (no ride)"
        lines.append("")
        lines.append(f"route {plan.origin}->{plan.destination} ({plan.transfers} transfers): {steps}")
    text = "\n".join(lines) + "\n"
    return ChartRendering(text=text, svg=_render_svg(charts, overlays))


def _render_svg(charts, overlays) -> str:
    unit, bar_h, gap = 24, 16, 6
    M = charts[0][1].M
    rows_per_chart = [len(c.bars) + 1 for _, c in charts]
    height = sum(r * (bar_h + gap) + 30 for r in rows_per_chart) + 10
    width = M * unit + 120
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">'
    ]
    y = 10
    chart_y: dict[str, int] = {}
    for train_label, c in charts:
        chart_y[train_label] = y
        out.append(f'<text x="4" y="{y + 12}">train type {train_label}</text>')
        y += 20
        out.append(
            f'<rect x="100" y="{y}" width="{M * unit}" height="{bar_h}" '
            'fill="#444" stroke="black"/>'
        )
        y += bar_h + gap
        for bar in reversed(c.bars):
            units = c.covered_units(bar.label)
            out.append(f'<text x="4" y="{y + 12}">{bar.label}</text>')
            if units:
                x0 = 100 + (units[0] - 1) * unit
                out.append(
                    f'<rect x="{x0}" y="{y}" width="{len(units) * unit}" '
                    f'height="{bar_h}" fill="#9cf" stroke="black"/>'
                )
            y += bar_h + gap
        y += 10
    for plan in overlays:
        for leg in plan.legs:
            c = dict(charts)[leg.train] if len(charts) > 1 else charts[0][1]
            shared = set(c.covered_units(leg.board)) & set(c.covered_units(leg.alight))
            if not shared:
                continue
            x = 100 + (min(shared) - 1) * unit + unit // 2
            y0 = chart_y[leg.train] + 20
            out.append(
                f'<line x1="{x}" y1="{y0}" x2="{x}" y2="{y0 + 60}" '
                'stroke="red" stroke-dasharray="4 3"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    """argparse type for an exact rational such as 3, 0.5 or 7/2."""
    try:
        return _as_fraction(text)  # as the line reads a string
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    spec = spec_from_json(_load_json(args.spec))
    report = feasibility.check(spec)
    doc = {
        "feasible": report.feasible,
        "violations": [
            {"constraint": v.constraint, "indices": list(v.indices), "detail": v.detail}
            for v in report.violations
        ],
    }
    closure = gate_door_consistency(spec)
    doc["gate_door_problems"] = closure
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0 if report.feasible and not closure else 1


def _cmd_generate(args) -> int:
    size = () if args.section_size is None else (args.section_size,)  # () takes the default
    if args.family == "fr_h":
        doc = spec_to_json(fr_h(*size))
    elif args.family == "fr_i":
        doc = spec_to_json(fr_i(args.sizes or (3, 3, 3, 3)))
    elif args.family == "ftr":
        doc = spec_to_json(ftr(*size))
    elif args.family == "s":
        chart = s_family.generate_s(args.C, args.D, args.d)
        doc = s_family.chart_to_json(chart)
    elif args.family == "ftr3":
        doc = s_family.chart_to_json(s_family.build_ftr3())
    elif args.family == "s52_2":
        doc = s_family.chart_to_json(s_family.build_s52_2())
    else:  # pragma: no cover - argparse restricts choices
        raise SchemaError(f"unknown family {args.family!r}")
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_analyze(args) -> int:
    chart = s_family.chart_from_json(_load_json(args.chart))
    graph = routing.build_graph(chart)
    matrix = routing.transfer_matrix(graph)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["", *graph.types])
    for i in graph.types:
        writer.writerow([i, *(matrix[(i, j)] for j in graph.types)])
    pair, worst = routing.matrix_worst_pair(matrix)
    buf.write(f"worst,{pair[0]},{pair[1]},{worst}\n")
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_simulate(args) -> int:
    spec = spec_from_json(_load_json(args.spec))
    line = line_from_json(_load_json(args.line))
    if args.entries:
        rates_doc = _load_json(args.entries)
        if not isinstance(rates_doc, dict) or rates_doc.get("kind") != "rates":
            raise SchemaError("entries file must be a 'rates' document")
        try:
            rates = list(map(_as_fraction, _listed(rates_doc["E"])))  # as the line reads A
        except DOCUMENT_ERRORS as exc:
            raise SchemaError(f"malformed rates document: {exc}") from exc
    else:
        rates = [line.demand_rate(z) for z in range(line.S)]
    if args.split:
        assignment = flow_sim.build_assignment_split(spec, line, rule=args.split)
    else:
        assignment = flow_sim.build_assignment(spec, line)
    C_n = flow_sim.section_capacities(spec)
    profile = flow_sim.simulate_loads(assignment, rates, line, C_n)
    report = flow_sim.capacity_report(profile, spec, line)
    if profile.unserved:
        names = line.stations
        flows = ", ".join(f"{names[z]}->{names[sp]}" for z, sp, _ in profile.unserved)
        pax = sum((x for _, _, x in profile.unserved), Fraction(0))
        print(f"warning: no section presents {flows}: {float(pax):g} passengers per train "
              "left unserved", file=sys.stderr)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["link", *(f"section_{n + 1}" for n in range(profile.N))])
    scales = [k for k, _ in profile.rows]
    for s, column in enumerate(zip(*(row for _, row in profile.rows)), start=1):
        # v / k, int over int, is correctly rounded: float(Fraction(v, k)) to the bit.
        writer.writerow([s, *map(operator.truediv, column, scales)])
    buf.write(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "kind": "capacity_report",
                "mlp_link": report.mlp_link + 1,
                "occupancy": [float(x) for x in report.occupancy],
                "line_capacity": float(report.line_capacity),
                "gain": float(report.gain),
                "overcrowded": [[n + 1, s + 1] for n, s in profile.overcrowded],
            },
            indent=2,
        )
        + "\n"
    )
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_optimize(args) -> int:
    line = line_from_json(_load_json(args.line))
    if line.station_types is None and not args.free_delta:
        raise SchemaError("line needs station_types unless --free-delta is given")
    problem = metering_opt.MeteringProblem(
        line=line,
        M=args.units,
        unit_capacity=args.unit_capacity,
        fixed_station_types=None if args.free_delta else line.station_types,
        fixed_sizes=tuple(args.sizes) if args.sizes else None,
    )
    solution = metering_opt.solve_outer(problem, cap=args.cap)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "metering_solution",
        "E": [str(x) for x in solution.E],
        "station_types": list(solution.station_types),
        "section_sizes": list(solution.section_sizes),
        "objective": str(solution.objective),
        "binding": [
            {"kind": b.kind, "indices": list(b.indices)} for b in solution.binding
        ],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_render(args) -> int:
    chart = s_family.chart_from_json(_load_json(args.chart))
    rendering = render_chart(chart)
    _emit(rendering.svg if args.format == "svg" else rendering.text, args.out)
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xlt", description="Extra-long-train protocol toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a protocol spec for violations")
    q.add_argument("spec")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_validate)

    q = sub.add_parser("generate", help="emit a built-in protocol or chart as JSON")
    q.add_argument("family", choices=["fr_h", "fr_i", "ftr", "s", "ftr3", "s52_2"])
    q.add_argument("--section-size", type=int, dest="section_size")
    q.add_argument("--sizes", type=int, nargs="+")
    q.add_argument("--C", type=int, default=3)
    q.add_argument("--D", type=_fraction, default="2")
    q.add_argument("--d", type=int, default=4)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_generate)

    q = sub.add_parser("analyze", help="routing analysis on a chart")
    qsub = q.add_subparsers(dest="analysis", required=True)
    conn = qsub.add_parser("connectivity", help="type-pair transfer matrix")
    conn.add_argument("chart")
    conn.add_argument("--out")
    conn.set_defaults(func=_cmd_analyze)

    q = sub.add_parser("simulate", help="steady-state loads and capacity report")
    q.add_argument("--spec", required=True)
    q.add_argument("--line", required=True)
    q.add_argument("--entries")
    q.add_argument("--split", choices=["balanced", "end_preference"])
    q.add_argument("--out")
    q.set_defaults(func=_cmd_simulate)

    q = sub.add_parser("optimize", help="entry-rate metering optimization")
    qsub = q.add_subparsers(dest="target", required=True)
    met = qsub.add_parser("metering")
    met.add_argument("--line", required=True)
    met.add_argument("--units", type=int, default=12)
    met.add_argument("--unit-capacity", dest="unit_capacity", type=_fraction, default="1")
    met.add_argument("--sizes", type=int, nargs="+")
    met.add_argument("--free-delta", dest="free_delta", action="store_true")
    met.add_argument("--cap", type=int, default=10**6)
    met.add_argument("--out")
    met.set_defaults(func=_cmd_optimize)

    q = sub.add_parser("render", help="draw a chart as text or SVG")
    q.add_argument("chart")
    q.add_argument("--format", choices=["text", "svg"], default="text")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except XltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
