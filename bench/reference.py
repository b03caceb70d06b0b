"""Per-layer reference figures at larger shapes, one traced job each.

    python3 bench/reference.py

Runs one job of each workload at each shape below, traced, in a fresh
process with a time limit of TIME_LIMIT seconds, and prints the job
time and every per-layer metric the job moves.  A shape that does not
finish in time is reported as such.  The shapes are those the
roadmap names for per-layer scaling: S in {10, 20, 40, 80} for loads,
C in {10, 26, 60} for charts and outer S in {5, 6, 8} (M = 12) for
metering.  Outputs are not checked here; ``run.py`` does that.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
TIME_LIMIT = 60

CASES = (
    ("loads", {"S": 10}), ("loads", {"S": 20}), ("loads", {"S": 40}), ("loads", {"S": 80}),
    ("charts", {"C": 10}), ("charts", {"C": 26}), ("charts", {"C": 60}),
    ("metering", {"S": 5, "M": 12}), ("metering", {"S": 6, "M": 12}),
    ("metering", {"S": 8, "M": 12}),
)


def one_job(workload: str, shape: dict) -> dict:
    sys.path.insert(0, str(BENCH))
    import run

    tracer = run.Tracer()
    with run.work_dir(f"reference-{workload}") as work:
        ns, _, outputs = run.run_job(run.WORKLOADS[workload](**shape), 1, work, 0, tracer)
    if outputs is None:
        raise RuntimeError("the job failed")
    return {"job_ms": ns / 1e6, **{k: v for k, v in tracer.layer_metrics().items() if v}}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--case":
        workload, shape = sys.argv[2].split(":", 1)
        print(json.dumps(one_job(workload, json.loads(shape))))
        return 0
    print(f"python {sys.version.split()[0]}, one traced job per shape, limit {TIME_LIMIT} s")
    for workload, shape in CASES:
        label = f"{workload} " + " ".join(f"{k}={v}" for k, v in shape.items())
        cmd = [sys.executable, __file__, "--case", f"{workload}:{json.dumps(shape)}"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIME_LIMIT)
        except subprocess.TimeoutExpired:
            print(f"{label}: did not finish in {TIME_LIMIT} s", flush=True)
            continue
        if proc.returncode != 0:
            print(f"{label}: failed\n{proc.stderr}", flush=True)
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        figures = ", ".join(f"{k} {v:.4g}" for k, v in result.items() if k != "job_ms")
        print(f"{label}: job {result['job_ms']:.1f} ms; {figures}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
