"""The benchmark's three workloads: inputs, jobs and output checks.

Every job of a workload has the same shape; only the seed behind its
inputs differs.  ``make_input`` writes the input files a job reads,
``run`` is the timed part and goes through ``xlt`` subcommands run
in-process by ``render_io.main`` (or the library function where the CLI
has no subcommand), ``outputs`` gathers the job's results as bytes for
the digest, and ``check`` compares them against ``oracles``.

Functions of the package are always looked up through their module at
call time (``s_family.chart_to_protocol``, never a name bound at
import), so the tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import string
from fractions import Fraction
from pathlib import Path

from xltops import core_model, flow_sim, render_io, routing, s_family

import oracles


class JobFailed(Exception):
    """An ``xlt`` subcommand returned a nonzero exit code."""


def xlt(*argv) -> None:
    code = render_io.main([str(a) for a in argv])
    if code != 0:
        raise JobFailed(f"xlt {' '.join(map(str, argv))} exited with {code}")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def _line_doc(A, H, M_min=None, station_types=None) -> dict:
    S = len(A)
    doc = {
        "schema_version": 1,
        "kind": "line",
        "stations": [f"s{z + 1}" for z in range(S)],
        "platform_lengths": [9] * S,
        "H": str(H),
        "A": [[int(x) for x in row] for row in A],
    }
    if M_min is not None:
        doc["M_min"] = [int(x) for x in M_min]
    if station_types is not None:
        doc["station_types"] = list(station_types)
    return doc


def _random_demand(rng: random.Random, S: int, lo: int, hi: int) -> list[list[int]]:
    """Dense upper-triangular demand, so every job does the same work."""
    return [[rng.randint(lo, hi) if sp > z else 0 for sp in range(S)] for z in range(S)]


def _parse_simulate(text: str):
    """Split ``xlt simulate`` output into its CSV loads and its JSON report."""
    lines = text.splitlines(keepends=True)
    end = next(i for i, line in enumerate(lines) if line.startswith("{"))
    header, *links = csv.reader(lines[:end])
    report = json.loads("".join(lines[end:]))
    N = len(header) - 1
    load = [[float(row[1 + n]) for row in links] for n in range(N)]
    return load, report


# ---------------------------------------------------------------------------
# metering: the outer search of the exact metering LP
# ---------------------------------------------------------------------------


class Metering:
    """``xlt optimize metering --free-delta`` with fr_i and N = 4 sections.

    Station 1 must be R and station S must be F (the fr end-of-line
    rule), so the middle stations give 2**(S-2) classifications, each
    tried with every sizing of M units into 4 sections.  Station 1 sends
    at least three quarters of its demand to station S, which is R-to-F
    and rides section 3; its minimum rate of 1.5 c therefore overcrowds
    section 3 exactly when that section has one unit.  The other minimum
    rates are 1 pax/h and never overcrowd anything, so the same
    candidates are skipped in every job: those with m3 = 1.
    """

    name = "metering"

    def __init__(self, S: int = 4, M: int = 8, c: int = 10):
        if S < 4:
            raise ValueError("metering needs S >= 4 for two free stations")
        self.S, self.M, self.c = S, M, c

    def shape(self) -> str:
        return f"S={self.S} M={self.M} c={self.c}"

    def make_input(self, rng: random.Random, job_dir: Path) -> dict:
        S, c = self.S, self.c
        A = _random_demand(rng, S, 1, 10)
        A[0][S - 1] = rng.randint(30 * (S - 2), 45 * (S - 2))
        M_min = [0] * S
        M_min[0] = 3 * c // 2
        M_min[1] = M_min[2] = 1
        line = job_dir / "line.json"
        _write_json(line, _line_doc(A, 1, M_min))
        return {"A": A, "M_min": M_min, "line": line, "out": job_dir / "metering.json"}

    def run(self, inp: dict):
        xlt("optimize", "metering", "--line", inp["line"], "--units", self.M,
            "--unit-capacity", self.c, "--free-delta", "--out", inp["out"])
        return None

    def outputs(self, inp: dict, result) -> dict[str, bytes]:
        return {"metering.json": inp["out"].read_bytes()}

    def check(self, inp: dict, outputs: dict[str, bytes]) -> list[str]:
        S, c = self.S, self.c
        A = [[Fraction(x) for x in row] for row in inp["A"]]
        M_min = [Fraction(x) for x in inp["M_min"]]
        A_z = [sum(row, Fraction(0)) for row in A]
        doc = json.loads(outputs["metering.json"])
        E = [Fraction(x) for x in doc["E"]]
        types, sizes = tuple(doc["station_types"]), tuple(doc["section_sizes"])
        objective = Fraction(doc["objective"])
        bad = []
        if any(not (M_min[z] <= E[z] <= A_z[z]) for z in range(S)):
            bad.append("E outside [M_min, A_s]")
        if objective != sum(E):
            bad.append(f"objective {objective} != sum(E) {sum(E)}")
        load = oracles.walk_loads(A, Fraction(1), E, list(types), oracles.FR_I, "single")
        cap = [c * m for m in sizes]
        if any(load[n][s] > cap[n] for n in range(4) for s in range(S - 1)):
            bad.append("a section exceeds c*m under the reported rates")
        for b in doc["binding"]:
            kind, idx = b["kind"], b["indices"]
            tight = {
                "lower": lambda: E[idx[0] - 1] == M_min[idx[0] - 1],
                "upper": lambda: E[idx[0] - 1] == A_z[idx[0] - 1],
                "load": lambda: load[idx[0] - 1][idx[1] - 1] == cap[idx[0] - 1],
            }[kind]()
            if not tight:
                bad.append(f"binding {kind} {idx} is not tight")
        solved = oracles.metering_candidates(A, Fraction(1), M_min, self.M, c)
        feasible = [v for v in solved.values() if v is not None]
        if not 0 < len(feasible) < len(solved):
            bad.append(f"{len(solved) - len(feasible)} of {len(solved)} candidates infeasible")
        if not feasible:
            return bad
        best = max(feasible)
        if abs(float(objective) - best) > 1e-9 * best:
            bad.append(f"objective {float(objective)} != HiGHS maximum {best}")
        own = solved.get((types, sizes))
        if own is None or abs(float(objective) - own) > 1e-9 * best:
            bad.append(f"reported candidate {types} {sizes} does not reach its objective")
        return bad


# ---------------------------------------------------------------------------
# loads: large load profiles on one long line
# ---------------------------------------------------------------------------


class Loads:
    """``xlt simulate`` under fr_i, and under fr_h with both split rules,
    then ``greedy_presentation_refine`` of fr_h, all on one line of S
    stations with dense demand.

    Unit capacity is the median per-unit fr_i load, so that about half
    the (section, link) loads overcrowd and the overcrowding check has
    something to find on both sides.
    """

    name = "loads"

    def __init__(self, S: int = 24):
        self.S = S

    def shape(self) -> str:
        return f"S={self.S} M=12"

    def make_input(self, rng: random.Random, job_dir: Path) -> dict:
        S = self.S
        types = ["R"] + [rng.choice("FR") for _ in range(S - 2)] + ["F"]
        A = _random_demand(rng, S, 1, 9)
        H = Fraction(1, 2)
        cuts = sorted(rng.sample(range(1, 12), 3))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, 12])]
        fri = core_model.spec_to_json(core_model.fr_i(sizes))
        frh = core_model.spec_to_json(core_model.fr_h(3))
        A_frac = [[Fraction(x) for x in row] for row in A]
        rates = [sum(row, Fraction(0)) for row in A_frac]
        unit = oracles.walk_loads(A_frac, H, rates, types, oracles.Presentation.from_spec(fri), "single")
        densities = sorted(x / sizes[n] for n, row in enumerate(unit) for x in row)
        capacity = max(1, round(densities[len(densities) // 2]))
        for doc in (fri, frh):
            doc["trains"][0]["capacities"] = [capacity] * doc["trains"][0]["M"]
        paths = {key: job_dir / f"{key}.json" for key in ("line", "fr_i", "fr_h")}
        line_doc = _line_doc(A, H, station_types=types)
        _write_json(paths["line"], line_doc)
        _write_json(paths["fr_i"], fri)
        _write_json(paths["fr_h"], frh)
        return {"A": A_frac, "H": H, "types": types, "rates": rates, "line_doc": line_doc,
                "fr_i_doc": fri, "fr_h_doc": frh, "paths": paths, "dir": job_dir}

    def run(self, inp: dict):
        p, d = inp["paths"], inp["dir"]
        xlt("simulate", "--spec", p["fr_i"], "--line", p["line"], "--out", d / "fr_i.out")
        for rule in ("balanced", "end_preference"):
            xlt("simulate", "--spec", p["fr_h"], "--line", p["line"], "--split", rule,
                "--out", d / f"{rule}.out")
        spec = core_model.spec_from_json(json.loads(p["fr_h"].read_text()))
        line = core_model.line_from_json(json.loads(p["line"].read_text()))
        return s_family.greedy_presentation_refine(spec, line)

    def outputs(self, inp: dict, result) -> dict[str, bytes]:
        d = inp["dir"]
        out = {f"{name}.out": (d / f"{name}.out").read_bytes()
               for name in ("fr_i", "balanced", "end_preference")}
        out["refined.json"] = _canonical(core_model.spec_to_json(result))
        return out

    def check(self, inp: dict, outputs: dict[str, bytes]) -> list[str]:
        A, H, types, rates = inp["A"], inp["H"], inp["types"], inp["rates"]
        bad = []
        runs = (("fr_i.out", inp["fr_i_doc"], "single"),
                ("balanced.out", inp["fr_h_doc"], "balanced"),
                ("end_preference.out", inp["fr_h_doc"], "end_preference"))
        for name, spec_doc, rule in runs:
            pres = oracles.Presentation.from_spec(spec_doc)
            exact = oracles.walk_loads(A, H, rates, types, pres, rule)
            load, report = _parse_simulate(outputs[name].decode())
            if load != [[float(x) for x in row] for row in exact]:
                bad.append(f"{name}: CSV loads differ from the per-flow walk")
            if report["mlp_link"] != oracles.first_max_link(exact) + 1:
                bad.append(f"{name}: mlp_link {report['mlp_link']} is not the first maximum")
            over = sorted([n + 1, s + 1] for n, row in enumerate(exact)
                          for s, x in enumerate(row) if x > pres.caps[n])
            if sorted(report["overcrowded"]) != over:
                bad.append(f"{name}: overcrowded set differs from loads above capacity")
        spec = core_model.spec_from_json(inp["fr_h_doc"])
        line = core_model.line_from_json(inp["line_doc"])
        pres = oracles.Presentation.from_spec(inp["fr_h_doc"])
        for rule in ("balanced", "end_preference"):
            tensor = flow_sim.build_assignment_split(spec, line, rule=rule)
            for z in range(self.S):
                for sp in range(z + 1, self.S):
                    if A[z][sp] and pres.sections[(types[z], types[sp])]:
                        total = sum(tensor.share(n, z, sp) for n in range(pres.N))
                        if total != 1:
                            bad.append(f"{rule}: shares of flow {z + 1}->{sp + 1} sum to {total}")
        refined = json.loads(outputs["refined.json"])
        before = oracles.walk_loads(A, H, rates, types, pres, "balanced")
        after_pres = oracles.Presentation.from_spec(refined)
        after = oracles.walk_loads(A, H, rates, types, after_pres, "balanced")
        if oracles.max_unit_density(after, after_pres.sizes) > oracles.max_unit_density(before, pres.sizes):
            bad.append("refined presentation is denser per unit than its input")
        return bad


# ---------------------------------------------------------------------------
# charts: routing on a relabelled S(C, D) chart
# ---------------------------------------------------------------------------


def strict_floor(D: Fraction) -> int:
    """Largest natural number strictly below D."""
    return max(0, math.ceil(D) - 1)


class Charts:
    """One S(C, D) chart per job whose C bar labels the seed permutes.

    A job generates the plain chart, analyzes connectivity, renders the
    seeded chart as text and as SVG, validates its protocol and lists
    every optimal plan of the worst pair.  The all-pairs BFS behind the
    transfer matrix and the plan enumeration both take a visible share
    of the job at C = 22, D = 3.
    """

    name = "charts"

    def __init__(self, C: int = 22, D: int = 3, d: int = 3):
        self.C, self.D, self.d = C, Fraction(D), d
        self.h = int(self.d / self.D)
        if self.h * self.D != d:
            raise ValueError("d/D must be a whole number of units")
        self.M = d + (C - 1) * self.h
        letters = string.ascii_uppercase
        self.labels = list(letters[:C]) if C <= 26 else [f"T{i + 1}" for i in range(C)]

    def shape(self) -> str:
        return f"C={self.C} D={self.D} d={self.d} M={self.M}"

    def _chart(self, labels) -> dict:
        return {"schema_version": 1, "kind": "chart", "M": self.M,
                "bars": [{"label": lab, "b": self.d + i * self.h, "d": self.d}
                         for i, lab in enumerate(labels)]}

    def make_input(self, rng: random.Random, job_dir: Path) -> dict:
        labels = list(self.labels)
        rng.shuffle(labels)
        doc = self._chart(labels)
        chart = job_dir / "chart.json"
        _write_json(chart, doc)
        return {"doc": doc, "chart": chart, "dir": job_dir}

    def run(self, inp: dict):
        chart_path, d = inp["chart"], inp["dir"]
        xlt("generate", "s", "--C", self.C, "--D", self.D, "--d", self.d, "--out", d / "generated.json")
        xlt("analyze", "connectivity", chart_path, "--out", d / "connectivity.csv")
        xlt("render", chart_path, "--out", d / "chart.txt")
        xlt("render", chart_path, "--format", "svg", "--out", d / "chart.svg")
        chart = s_family.chart_from_json(json.loads(chart_path.read_text()))
        spec_path = d / "protocol.json"
        _write_json(spec_path, core_model.spec_to_json(s_family.chart_to_protocol(chart)))
        xlt("validate", spec_path, "--out", d / "validate.json")
        worst = (d / "connectivity.csv").read_text().splitlines()[-1].split(",")
        return routing.optimal_plans(routing.build_graph(chart), worst[1], worst[2])

    def outputs(self, inp: dict, result) -> dict[str, bytes]:
        d = inp["dir"]
        out = {name: (d / name).read_bytes() for name in
               ("generated.json", "connectivity.csv", "chart.txt", "chart.svg", "validate.json")}
        out["plans.json"] = _canonical(
            [[[leg.train, leg.board, leg.alight] for leg in plan.legs] for plan in result])
        return out

    def check(self, inp: dict, outputs: dict[str, bytes]) -> list[str]:
        doc, bad = inp["doc"], []
        if json.loads(outputs["generated.json"]) != self._chart(self.labels):
            bad.append("xlt generate s differs from b_i = d + (i-1) d/D")
        labels = [bar["label"] for bar in doc["bars"]]
        position = {lab: i for i, lab in enumerate(labels)}
        bars = {bar["label"]: bar for bar in doc["bars"]}
        reach = strict_floor(self.D)
        expected = oracles.chart_transfers(doc)
        rows = list(csv.reader(io.StringIO(outputs["connectivity.csv"].decode())))
        matrix = {(row[0], j): int(x) for row in rows[1:-1] for j, x in zip(rows[0][1:], row[1:])}
        if matrix != expected:
            bad.append("transfer matrix differs from the BFS over bar overlaps")
        closed = {(i, j): math.ceil(abs(position[i] - position[j]) / reach) - 1 if i != j else 0
                  for i in labels for j in labels}
        if matrix != closed:
            bad.append("transfer matrix differs from ceil(|i-j| / strict_floor(D)) - 1")
        T = max(expected.values())
        pair = min(p for p, t in expected.items() if t == T)
        if rows[-1] != ["worst", pair[0], pair[1], str(T)]:
            bad.append(f"worst pair {rows[-1][1:]} != {[*pair, T]}")
        plans = [tuple(map(tuple, legs)) for legs in json.loads(outputs["plans.json"])]
        if len(set(plans)) != len(plans):
            bad.append("optimal plans repeat")
        for legs in plans:
            stops = [legs[0][1]] + [alight for _, _, alight in legs]
            if (len(legs) != T + 1 or stops[0] != pair[0] or stops[-1] != pair[1]
                    or any(legs[k][2] != legs[k + 1][1] for k in range(len(legs) - 1))
                    or any(oracles.shared_units(bars[b], bars[a], self.M) < 1 for _, b, a in legs)):
                bad.append(f"plan {legs} is not a minimum-leg chain of overlapping bars")
        distance = abs(position[pair[0]] - position[pair[1]])
        count = oracles.bounded_compositions(distance, T + 1, reach)
        if len(plans) != count:
            bad.append(f"{len(plans)} plans, expected {count} compositions")
        report = json.loads(outputs["validate.json"])
        if not report["feasible"] or report["violations"] or report["gate_door_problems"]:
            bad.append("chart protocol does not validate cleanly")
        # Later jobs reuse the job directory, so render from a fresh copy.
        chart, again = inp["dir"] / "check_chart.json", inp["dir"] / "check_render"
        _write_json(chart, doc)
        for name, fmt in (("chart.txt", "text"), ("chart.svg", "svg")):
            xlt("render", chart, "--format", fmt, "--out", again)
            if again.read_bytes() != outputs[name]:
                bad.append(f"rendering {name} twice gave different bytes")
        return bad


WORKLOADS = {"metering": Metering, "loads": Loads, "charts": Charts}

# Tiny shapes for --quick: every step and every check, in a second or two.
QUICK = {"metering": {"S": 4, "M": 5}, "loads": {"S": 8}, "charts": {"C": 8}}
