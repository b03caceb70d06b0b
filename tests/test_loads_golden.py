"""Golden gate of the loads path on mixed denominators.

Three seeded lines (S = 6, 24 and 80) with a fractional headway and
fractional demand such as 7/3, under fr_i and fr_h trains whose unit
capacities are tenths (3/10 and the like).  For each, the fixture holds
the sha256 of ``xlt simulate`` stdout (fr_i at full and at metered entry
rates; fr_h under both splits), of the exact loads behind those figures,
of ``load_coefficients`` under fr_i and the balanced fr_h split, and of
``spec_to_json`` of the refined fr_h and fr_i specs.  The benchmark's
lines have whole demand and H = 1/2, so this is where a load sum over
unlike denominators is checked bit for bit.

The fixture was recorded from the per-rider ``Fraction`` kernel; to
record it again, run ``PYTHONPATH=src python tests/test_loads_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from xltops import (
    LineInstance,
    build_assignment,
    build_assignment_split,
    fr_h,
    fr_i,
    greedy_presentation_refine,
    line_from_json,
    line_to_json,
    main,
    section_capacities,
    simulate_loads,
    spec_from_json,
    spec_to_json,
)

from conftest import load_coefficients

GOLDEN = Path(__file__).parent / "data" / "loads_golden.json"
DEMAND = ("7/3", "1/7", "2/5", "9/10", "3", "5/6", "1", "0", "0", "11/9")


def _sha(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data).encode()
    return hashlib.sha256(data).hexdigest()


def _exact(rows) -> list:
    return [[str(x) for x in row] for row in rows]


def _specs(case: dict) -> dict:
    specs = {"fr_i": spec_to_json(fr_i(case["fr_i_sizes"])), "fr_h": spec_to_json(fr_h(3))}
    for doc in specs.values():
        doc["trains"][0]["capacities"] = list(case["capacities"])
    return specs


def _simulate(tmp: Path, spec: dict, line: dict, *extra) -> bytes:
    paths = []
    for name, doc in (("spec", spec), ("line", line)):
        paths.append(tmp / f"{name}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in ("simulate", "--spec", paths[0], "--line", paths[1], *extra)])
    assert code == 0
    return out.getvalue().encode()


def digests(case: dict, tmp: Path) -> dict:
    """The sha256 of every recorded output of one case."""
    docs = _specs(case)
    specs = {name: spec_from_json(doc) for name, doc in docs.items()}
    line = line_from_json(case["line"])
    rates = [Fraction(x) for x in case["rates"]]
    entries = tmp / "rates.json"
    entries.write_text(json.dumps({"schema_version": 1, "kind": "rates", "E": case["rates"]}))
    out = {
        "simulate fr_i": _simulate(tmp, docs["fr_i"], case["line"]),
        "simulate fr_i metered": _simulate(tmp, docs["fr_i"], case["line"], "--entries", entries),
    }
    assignments = {"fr_i": build_assignment(specs["fr_i"], line)}
    for rule in ("balanced", "end_preference"):
        out[f"simulate fr_h {rule}"] = _simulate(tmp, docs["fr_h"], case["line"], "--split", rule)
        assignments[f"fr_h {rule}"] = build_assignment_split(specs["fr_h"], line, rule)
    for name, assignment in assignments.items():
        caps = section_capacities(specs[name.split()[0]])
        profile = simulate_loads(assignment, rates, line, caps)
        out[f"loads {name} metered"] = _exact(profile.load)
    for name in ("fr_i", "fr_h balanced"):
        coef = load_coefficients(assignments[name], line)
        out[f"coefficients {name}"] = [
            _exact([[Fraction(v, k) for v in row] for k, row in table]) for table in coef]
    for name, spec in specs.items():
        out[f"refined {name}"] = spec_to_json(greedy_presentation_refine(spec, line))
    return {key: _sha(value) for key, value in out.items()}


def test_loads_path_matches_the_recorded_digests(tmp_path):
    for case in json.loads(GOLDEN.read_text()):
        assert digests(case, tmp_path) == case["sha256"], len(case["line"]["stations"])


def _case(S: int) -> dict:
    """A seeded line of S stations and the train capacities of one case."""
    rng = random.Random(f"xltops-loads-golden/{S}")
    types = ["R"] + [rng.choice("FR") for _ in range(S - 2)] + ["F"]
    A = [[Fraction(rng.choice(DEMAND)) if sp > z else 0 for sp in range(S)] for z in range(S)]
    A[0][S - 1] += Fraction(1, 3)  # no empty row but the last
    H = Fraction(rng.choice((2, 3, 5)), rng.choice((3, 7, 9)))
    line = LineInstance(tuple(f"s{z + 1}" for z in range(S)), (9,) * S, H, A, station_types=tuple(types))
    cuts = sorted(rng.sample(range(1, 12), 3))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, 12])]
    if S == 6:
        capacities = ["3/10"] * 12
    else:  # tenths around the median per-unit fr_i load, so about half the loads overcrowd
        profile = simulate_loads(build_assignment(fr_i(sizes), line),
                                 [line.demand_rate(z) for z in range(S)], line, [1] * 4)
        median = statistics.median(x / sizes[n] for n, row in enumerate(profile.load) for x in row)
        capacities = [str(Fraction(round(10 * median * rng.uniform(0.6, 1.4)), 10)) for _ in range(12)]
    rates = [str(line.demand_rate(z) * Fraction(rng.randint(0, 7), 7)) for z in range(S)]
    return {"line": line_to_json(line), "fr_i_sizes": sizes, "capacities": capacities, "rates": rates}


def record() -> None:
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for S in (6, 24, 80):
            case = _case(S)
            case["sha256"] = digests(case, Path(tmp))
            cases.append(case)
    GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, cases)) + "\n]\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
