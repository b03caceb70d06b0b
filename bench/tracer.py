"""Spans around the calls into each xltops module, kept in memory.

The tracer replaces a function at the name its caller looks up (a
module attribute, or a class attribute for ``LineInstance``) with a
wrapper that records one span per call: name, start, end, parent span
and job id.  Nothing in the package changes; ``remove`` puts every
original back.  Self time is a span's duration minus the time its child
spans cover, and since every job runs on one thread the children of a
span never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from fractions import Fraction

from xltops import core_model, feasibility, flow_sim, metering_opt, render_io, routing, s_family

# (owner, attribute, span name).  Both JSON loaders count as one layer
# step, and are wrapped where the CLI and where the benchmark's own
# library calls look them up.
TARGETS = (
    (metering_opt, "solve_outer", "metering_opt.solve_outer"),
    (metering_opt, "solve_inner_lp", "metering_opt.solve_inner_lp"),
    (core_model.LineInstance, "__post_init__", "core_model.line_instance"),
    (render_io, "spec_from_json", "core_model.json_load"),
    (render_io, "line_from_json", "core_model.json_load"),
    (core_model, "spec_from_json", "core_model.json_load"),
    (core_model, "line_from_json", "core_model.json_load"),
    (flow_sim, "build_assignment", "flow_sim.build_assignment"),
    (flow_sim, "build_assignment_split", "flow_sim.build_assignment_split"),
    (flow_sim, "simulate_loads", "flow_sim.simulate_loads"),
    (flow_sim, "capacity_report", "flow_sim.capacity_report"),
    (s_family, "greedy_presentation_refine", "s_family.greedy_presentation_refine"),
    (s_family, "generate_s", "s_family.generate_s"),
    (s_family, "chart_to_protocol", "s_family.chart_to_protocol"),
    (routing, "build_graph", "routing.build_graph"),
    (routing, "transfer_matrix", "routing.transfer_matrix"),
    (routing, "min_transfers", "routing.min_transfers"),
    (routing, "optimal_plans", "routing.optimal_plans"),
    (feasibility, "check", "feasibility.check"),
    (render_io, "render_chart", "render_io.render_chart"),
    (render_io, "gate_door_consistency", "render_io.gate_door_consistency"),
    (render_io, "main", "render_io.main"),
)

# Per-layer metrics: (name, span, statistic).  Each is the median over
# the traced jobs of a per-job figure; a job that never calls the span
# contributes 0.
LAYER_METRICS = (
    ("metering_opt.solve_outer.ms", "metering_opt.solve_outer", "ms"),
    ("metering_opt.solve_inner_lp.calls", "metering_opt.solve_inner_lp", "calls"),
    ("metering_opt.solve_inner_lp.self_ms", "metering_opt.solve_inner_lp", "self_ms"),
    ("metering_opt.skipped", "metering_opt.solve_inner_lp", "raised"),
    ("metering_opt.incumbent_ratio", "metering_opt.solve_inner_lp", "incumbent_ratio"),
    ("core_model.line_instance.calls", "core_model.line_instance", "calls"),
    ("core_model.line_instance.ms", "core_model.line_instance", "ms"),
    ("core_model.json_load.ms", "core_model.json_load", "ms"),
    ("flow_sim.build_assignment.calls", "flow_sim.build_assignment", "calls"),
    ("flow_sim.build_assignment.ms", "flow_sim.build_assignment", "ms"),
    ("flow_sim.build_assignment_split.ms", "flow_sim.build_assignment_split", "ms"),
    ("flow_sim.simulate_loads.calls", "flow_sim.simulate_loads", "calls"),
    ("flow_sim.simulate_loads.ms", "flow_sim.simulate_loads", "ms"),
    ("flow_sim.capacity_report.ms", "flow_sim.capacity_report", "ms"),
    ("s_family.greedy_presentation_refine.self_ms", "s_family.greedy_presentation_refine", "self_ms"),
    ("s_family.generate_s.ms", "s_family.generate_s", "ms"),
    ("s_family.chart_to_protocol.ms", "s_family.chart_to_protocol", "ms"),
    ("routing.build_graph.ms", "routing.build_graph", "ms"),
    ("routing.transfer_matrix.calls", "routing.transfer_matrix", "calls"),
    ("routing.transfer_matrix.ms", "routing.transfer_matrix", "ms"),
    ("routing.min_transfers.calls", "routing.min_transfers", "calls"),
    ("routing.optimal_plans.ms", "routing.optimal_plans", "ms"),
    ("feasibility.check.ms", "feasibility.check", "ms"),
    ("render_io.render_chart.ms", "render_io.render_chart", "ms"),
    ("render_io.gate_door_consistency.ms", "render_io.gate_door_consistency", "ms"),
    ("render_io.main.self_ms", "render_io.main", "self_ms"),
)
LAYER_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count", "raised": "count",
               "incumbent_ratio": "ratio"}

class Tracer:
    """Records spans while installed; ``spans`` holds one list per call:
    ``[name, start_ns, end_ns, parent index or -1, job id, note]``.
    ``note`` is ``{"raised": exception type}`` for a call that raised,
    ``{"objective": ...}`` for a ``solve_inner_lp`` call that returned,
    else None.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        keep_objective = name == "metering_opt.solve_inner_lp"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span)
                span[5] = {"raised": type(exc).__name__}
                raise
            self._close(span)
            if keep_objective:
                span[5] = {"objective": str(result.objective)}
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, job, note) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": i, "name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "job": job, "note": note}) + "\n")

    def per_job(self) -> dict[int, dict[str, dict]]:
        """{job: {span name: {calls, ms, self_ms, raised, incumbent_ratio}}}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, job, note in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        jobs: dict[int, dict[str, dict]] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "raised": 0,
                                         "improved": 0, "best": None})
        )
        for i, (name, start, end, parent, job, note) in enumerate(self.spans):
            if job is None:
                continue
            row = jobs[job][name]
            row["calls"] += 1
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
            if note and "raised" in note:
                row["raised"] += 1
            elif note:
                # solve_outer keeps a candidate only if it beats the best so far.
                objective = Fraction(note["objective"])
                if row["best"] is None or objective > row["best"]:
                    row["best"] = objective
                    row["improved"] += 1
        for rows in jobs.values():
            for row in rows.values():
                solved = row["calls"] - row["raised"]
                row["incumbent_ratio"] = row["improved"] / solved if solved else 0.0
        return jobs

    def layer_metrics(self) -> dict[str, float]:
        jobs = self.per_job()
        out = {}
        for metric, span, stat in LAYER_METRICS:
            values = [rows[span][stat] if span in rows else 0 for rows in jobs.values()]
            out[metric] = float(statistics.median(values)) if values else 0.0
        return out

