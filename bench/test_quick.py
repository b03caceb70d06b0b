"""Quick mode of the benchmark, and that its checks can fail.

    PYTHONPATH=src python -m pytest bench/test_quick.py

``--quick`` runs every workload at a tiny shape with every check on,
traced and untraced.  The corruption tests feed each workload's checks
one job's outputs with a single answer changed, and expect a problem.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_mode_passes_every_check(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--trace", trace],
        capture_output=True, text=True, timeout=300, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 6


def _replace_json(data: bytes, key: str, value) -> bytes:
    doc = json.loads(data)
    doc[key] = value
    return json.dumps(doc).encode()


CORRUPTIONS = {
    "metering": lambda out: {
        "metering.json": _replace_json(
            out["metering.json"], "objective",
            str(Fraction(json.loads(out["metering.json"])["objective"]) + 1)),
    },
    "loads": lambda out: {
        "fr_i.out": out["fr_i.out"].replace(b"\n2,", b"\n2,1", 1),
    },
    "charts": lambda out: {
        "connectivity.csv": out["connectivity.csv"].replace(b",0", b",1", 1),
    },
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_catch_a_changed_answer(name, tmp_path):
    wl = workloads.WORKLOADS[name](**workloads.QUICK[name])
    inp = wl.make_input(random.Random(f"corrupt/{name}"), tmp_path)
    outputs = wl.outputs(inp, wl.run(inp))
    assert wl.check(inp, outputs) == []
    changed = {**outputs, **CORRUPTIONS[name](outputs)}
    assert changed != outputs
    assert wl.check(inp, changed)


def test_metering_check_reports_no_feasible_candidate(tmp_path, monkeypatch):
    wl = workloads.Metering(**workloads.QUICK["metering"])
    inp = wl.make_input(random.Random("infeasible"), tmp_path)
    outputs = wl.outputs(inp, wl.run(inp))
    monkeypatch.setattr(workloads.oracles, "metering_candidates",
                        lambda *args: dict.fromkeys(range(3)))
    assert wl.check(inp, outputs)
