"""Benchmark of xltops: the metering, loads and charts workloads.

    python3 bench/run.py [--workload metering|loads|charts|all] [--seed N]
                         [--seconds S] [--trace 0|1] [--quick]

Each workload is a closed loop with one client on one thread: a job
starts only when the previous one has returned.  One untimed warm-up
job runs first; between jobs, outside the timed interval, the finished
job's outputs are checked against computations made apart from the
package (``oracles.py``) and dropped, and garbage is collected.
``--workload all`` runs each workload in a child process of its own.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the digest jobs untraced and traced in pairs,
then the rest of the loop traced, with a span around every call into
the package (``tracer.py``), and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results go
to ``.bench_out/`` at the root of the checkout.
"""

import time

_STARTED = time.perf_counter()  # set-up is timed from here, before xltops is imported

import argparse
import contextlib
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
NAMES = ("metering", "loads", "charts")

# Jobs whose outputs make up the result digest.  Every run does at least
# these, so the digest depends only on the seed and the commit.
DIGEST_JOBS = 8
QUICK_DIGEST_JOBS = 2
# Fresh processes that measure set-up and memory; the metrics are their medians.
PROBES = 7
TAIL_BEYOND = 10

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB"}

# xltops comes from this checkout's src/ and from nowhere else.
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
try:
    import xltops
except ImportError as exc:
    sys.exit(f"error: cannot import xltops from {ROOT / 'src'}: {exc}")
if Path(xltops.__file__).resolve().parent != ROOT / "src" / "xltops":
    sys.exit(f"error: xltops was imported from {xltops.__file__}, not this checkout")

from tracer import LAYER_METRICS, LAYER_UNITS, Tracer  # noqa: E402
from workloads import QUICK, WORKLOADS  # noqa: E402


def job_rng(workload: str, seed: int, job: int) -> random.Random:
    return random.Random(f"xltops-bench/{workload}/{seed}/{job}")


@dataclass
class Job:
    index: int
    ns: int  # timed wall time
    failed: bool
    problems: list[str]
    outputs: dict | None  # kept for the digest jobs only


def run_job(wl, seed, work, index, tracer=None) -> tuple[int, dict, dict | None]:
    """Make job `index`'s inputs, then time the job; traced if `tracer` is given.

    Returns (timed ns, inputs, outputs), with outputs None if the job failed.
    """
    inp = wl.make_input(job_rng(wl.name, seed, index), work)
    gc.collect()
    result, error = None, None
    if tracer is not None:
        tracer.install()
        tracer.job = index
    t0 = time.perf_counter_ns()
    try:
        result = wl.run(inp)
    except Exception:  # a failed job is counted and the loop goes on
        error = traceback.format_exc()
    ns = time.perf_counter_ns() - t0
    if tracer is not None:
        tracer.remove()
    if error:
        print(f"job {index} failed:\n{error}", file=sys.stderr)
        return ns, inp, None
    return ns, inp, wl.outputs(inp, result)


def checked_job(wl, seed, work, index, keep, tracer=None) -> Job:
    """One job, checked straight after it is timed; its outputs are kept if `keep`."""
    ns, inp, outputs = run_job(wl, seed, work, index, tracer)
    if outputs is None:
        return Job(index, ns, True, [], None)
    try:
        problems = wl.check(inp, outputs)
    except Exception:
        problems = [f"the check raised:\n{traceback.format_exc()}"]
    return Job(index, ns, False, [f"job {index}: {p}" for p in problems],
               outputs if keep else None)


def run_loop(wl, seed, work, first, min_jobs, deadline, keep, tracer=None) -> list[Job]:
    """The closed loop: jobs first, first+1, ... until both limits are met."""
    jobs = []
    while len(jobs) < min_jobs or time.perf_counter() < deadline:
        index = first + len(jobs)
        jobs.append(checked_job(wl, seed, work, index, index < keep, tracer))
    return jobs


def digest(jobs: list[Job], count: int) -> str:
    h = hashlib.sha256()
    for job in jobs[:count]:
        h.update(f"job {job.index}\n".encode())
        for name, data in sorted((job.outputs or {"failed": b""}).items()):
            h.update(f"{name} {len(data)}\n".encode())
            h.update(data)
    return h.hexdigest()


def tail(times_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs
    beyond it; the median when there are too few jobs for that."""
    ordered = sorted(times_ms)
    rank = max(len(ordered) // 2 + 1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def probe(workload: str, seed: int, quick: bool) -> dict:
    """Set-up time and peak memory of one fresh process (see ``probe_main``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe"] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_main(name: str, seed: int, quick: bool) -> dict:
    """In a fresh process: import, inputs and the warm-up job (the set-up),
    then job 0, unchecked, so that the peak resident set is the workload's
    own and not the checks'."""
    wl = make_workload(name, quick)
    with work_dir(name) as work:
        setup_s = warm_up(wl, seed, work)
        run_job(wl, seed, work, 0)
    return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb() -> float:
    """Peak resident set of this process, from Linux's VmHWM.  Not ru_maxrss:
    Linux carries that over from the parent process through fork and exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


@contextlib.contextmanager
def work_dir(tag: str):
    """A scratch directory for one process's job files, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"work-{tag}-{os.getpid()}"
    path.mkdir()
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def make_workload(name: str, quick: bool):
    return WORKLOADS[name](**(QUICK[name] if quick else {}))


def warm_up(wl, seed, work) -> float:
    """Run the untimed warm-up job; return the set-up time of this process."""
    wl.run(wl.make_input(job_rng(wl.name, seed, -1), work))
    return time.perf_counter() - _STARTED


def timed_run(wl, seed, work, seconds, min_jobs) -> tuple[list[Job], dict, dict]:
    """Job-time metrics of an untraced loop: (jobs, metrics, details)."""
    jobs = run_loop(wl, seed, work, 0, min_jobs, time.perf_counter() + seconds, min_jobs)
    times_ms = [j.ns / 1e6 for j in jobs if not j.failed]
    tail_ms, tail_pct = tail(times_ms)
    metrics = {
        "jobs_per_s": len(times_ms) / (sum(times_ms) / 1e3),
        "job_p50_ms": statistics.median(times_ms),
        "job_tail_ms": tail_ms,
    }
    details = {"job_tail": {"percentile": tail_pct, "jobs": len(times_ms)}, "job_ms": times_ms}
    return jobs, metrics, details


def traced_run(wl, seed, work, seconds, min_jobs) -> tuple[list[Job], dict, dict]:
    """Per-layer metrics of a traced loop: (jobs, metrics, details).

    The digest jobs run twice, untraced then traced, so that each pair
    measures the tracing overhead on the same input at nearly the same
    moment; the traced loop then runs on.  The returned jobs include the
    untraced ones, which count as attempted.
    """
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    for index in range(min_jobs):
        plain.append(checked_job(wl, seed, work, index, True))
        traced.append(checked_job(wl, seed, work, index, True, tracer))
    traced += run_loop(wl, seed, work, min_jobs, 0, deadline, 0, tracer)
    spans_path = OUT / f"{wl.name}-seed{seed}-spans.jsonl"
    tracer.write_jsonl(spans_path)
    details = {
        "digest_untraced": digest(plain, min_jobs),
        "tracing_overhead": statistics.median(t.ns / p.ns for p, t in zip(plain, traced)) - 1,
        "spans": len(tracer.spans),
        "spans_file": spans_path.name,
    }
    return traced + plain, tracer.layer_metrics(), details


def run_workload(name, seed, seconds, trace, quick) -> dict:
    wl = make_workload(name, quick)
    min_jobs = QUICK_DIGEST_JOBS if quick else DIGEST_JOBS
    with work_dir(name) as work:
        warm_up(wl, seed, work)
        measure = traced_run if trace else timed_run
        jobs, metrics, details = measure(wl, seed, work, seconds, min_jobs)
    doc = {"workload": name, "seed": seed, "shape": wl.shape(), "seconds": seconds,
           "trace": trace, "python": sys.version.split()[0], "digest_jobs": min_jobs,
           "digest": digest(jobs, min_jobs), **details}
    problems = [p for job in jobs for p in job.problems]
    if trace and doc["digest"] != doc["digest_untraced"]:
        problems.append("traced digest differs from the untraced one")
    if not trace:
        probes = [probe(name, seed, quick) for _ in range(1 if quick else PROBES)]
        for key in ("setup_s", "peak_rss_mb"):
            metrics[key] = statistics.median(p[key] for p in probes)
        doc["probes"] = probes
    doc.update(attempted=len(jobs), failed=sum(j.failed for j in jobs),
               problems=problems, metrics=metrics)
    return doc


def report(doc: dict) -> dict:
    """Print one workload's result for people; return its metrics with units."""
    units = dict(END_TO_END_UNITS)
    units.update({m: LAYER_UNITS[stat] for m, _, stat in LAYER_METRICS})
    print(f"== {doc['workload']} ({doc['shape']}), seed {doc['seed']}, "
          f"trace {doc['trace']}: {doc['attempted']} jobs attempted, {doc['failed']} failed")
    out = {}
    for name, value in doc["metrics"].items():
        note = ""
        if name == "job_tail_ms":
            note = f"  (p{doc['job_tail']['percentile']:.1f} of {doc['job_tail']['jobs']} jobs)"
        print(f"  {name:<45} {value:>14.6g} {units[name]}{note}")
        out[name] = {"value": value, "unit": units[name]}
    if doc["trace"]:
        print(f"  tracing overhead on job p50: {100 * doc['tracing_overhead']:+.1f}% "
              f"({doc['spans']} spans)")
    checked = doc["attempted"] - doc["failed"]
    print(f"  checks: {checked} jobs checked, {len(doc['problems'])} problems")
    for problem in doc["problems"][:20]:
        print(f"    {problem}")
    print(f"  digest sha256:{doc['digest']} (jobs 0-{doc['digest_jobs'] - 1})")
    return out


def run_all(args) -> dict:
    """Each workload in a child process of its own; their results combined."""
    results = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: the {name} workload exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results.append((name, json.loads(lines[-1])))
    return {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{k}": v for name, r in results for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--quick", action="store_true",
                        help="tiny shapes and a zero-length loop, every check on")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.quick:
        args.seconds = 0.0
    if args.workload == "all":
        result = run_all(args)
    elif args.probe:
        result = probe_main(args.workload, args.seed, args.quick)
    else:
        doc = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
        path = OUT / f"{doc['workload']}-seed{doc['seed']}-trace{doc['trace']}.json"
        path.write_text(json.dumps(doc, indent=1, default=str) + "\n")
        result = {"correct": not doc["problems"], "attempted": doc["attempted"],
                  "failed": doc["failed"], "metrics": report(doc)}
        print(f"results in {OUT.relative_to(ROOT)}/")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
