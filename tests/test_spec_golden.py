"""Golden gate of the decision tables: spec documents and feasibility reports.

The fixture holds the sha256 of ``spec_to_json`` for every built-in way
to make a protocol: ``fr_i`` at several sizings, ``fr_h`` and ``ftr`` at
several section sizes, ``chart_to_protocol`` of S(C, D) charts up to
C = 60 (bare and classified) and of the multi-train charts, and
``greedy_presentation_refine`` of fr_h, fr_i, ftr and chart specs on
seeded lines.  It also holds, for each of 200 seeded ``random_spec``
specs, the digest of the ``feasibility.check`` report of the spec and of
every spec one table entry away from it (a build that refuses the
mutated tables counts by its error), and the digest of the reports of
the float-unit-length E4 specs of ``conftest.float_e4_specs``.

To record the fixture again, run
``PYTHONPATH=src python tests/test_spec_golden.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from xltops import (
    LineInstance,
    XltError,
    build_ftr3,
    build_s52_2,
    chart_to_protocol,
    check,
    compose_skip_stop,
    derive_parts,
    fr_h,
    fr_i,
    ftr,
    generate_s,
    greedy_presentation_refine,
    spec_from_json,
    spec_to_json,
)

from conftest import float_e4_specs, random_spec

GOLDEN = Path(__file__).parent / "data" / "spec_json_golden.json"
TABLES = ("u", "s", "a", "v", "p")


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _refined(spec, seed: str):
    """The refined spec on a seeded line that demands only type pairs some part can serve."""
    rng = random.Random(seed)
    types = spec.stations.types
    v = spec_to_json(spec)["tables"]["v"][0]
    servable = {
        (i, j)
        for part in derive_parts(spec)
        for i, j in itertools.product(range(len(types)), repeat=2)
        if all(v[n][i] and v[n][j] for n in range(part.sections[0] - 1, part.sections[1]))
    }
    S = 12
    station_types = [rng.randrange(len(types)) for _ in range(S)]
    A = [[rng.randint(0, 9) if sp > z and (station_types[z], station_types[sp]) in servable
          else 0 for sp in range(S)] for z in range(S)]
    line = LineInstance(tuple(f"s{z + 1}" for z in range(S)), (9,) * S, Fraction(1, 2), A,
                        station_types=tuple(types[i] for i in station_types))
    return spec_to_json(greedy_presentation_refine(spec, line))


def built_in_specs() -> dict:
    """Every built-in spec by name, as its document."""
    specs = {}
    for sizes in ((3, 3, 3, 3), (1, 1, 1, 1), (1, 2, 3, 4), (5, 1, 1, 2), (2, 7, 4, 3)):
        specs[f"fr_i{sizes}"] = fr_i(sizes)
    for size in (1, 2, 3, 4):
        specs[f"fr_h({size})"] = fr_h(size)
        specs[f"ftr({size})"] = ftr(size)
    for C, D, d in ((1, 1, 1), (2, 1, 2), (3, 2, 2), (3, 2, 4), (5, 2, 4), (10, 3, 3),
                    (22, 3, 3), (24, 4, 8), (40, 4, 4), (60, 3, 3)):
        chart = generate_s(C, D, d)
        types = tuple(bar.label for bar in chart.bars)
        specs[f"S({C},{D},{d})"] = chart_to_protocol(chart)
        order = random.Random(f"xltops-spec-golden/{C}").choices(types, k=2 * C)
        specs[f"S({C},{D},{d}) classified"] = chart_to_protocol(chart, order)
    skip_stop = compose_skip_stop(generate_s(3, 2, 2), [("1", "ABC"), ("2", "DBC")])
    specs["skip-stop"] = chart_to_protocol(skip_stop, tuple("ADBCA"))
    specs["ftr3"] = chart_to_protocol(build_ftr3())
    specs["s52_2"] = chart_to_protocol(build_s52_2(), tuple("ABCDEDCBA"))
    docs = {name: spec_to_json(spec) for name, spec in specs.items()}
    for name in ("fr_i(1, 2, 3, 4)", "fr_h(3)", "ftr(2)", "S(3,2,4)", "S(5,2,4)", "S(10,3,3)"):
        docs[f"refined {name}"] = _refined(specs[name], f"xltops-spec-golden/{name}")
    return docs


def _report(doc: dict):
    """The check report of a spec document, or the error that refuses it."""
    try:
        spec = spec_from_json(doc)
    except XltError as exc:
        return f"{type(exc).__name__}: {exc}"
    return [[v.constraint, list(v.indices), v.detail] for v in check(spec).violations]


def _entries(table, path=()):
    """The index path of every entry of a nested-list table."""
    for i, x in enumerate(table):
        if isinstance(x, list):
            yield from _entries(x, (*path, i))
        else:
            yield (*path, i)


def mutation_reports(spec) -> list:
    """The check report of the spec and of each one-entry flip of its tables."""
    doc = json.loads(json.dumps(spec_to_json(spec)))
    reports = [_report(doc)]
    for name in TABLES:
        for path in _entries(doc["tables"][name]):
            mutated = json.loads(json.dumps(doc))
            target = mutated["tables"][name]
            for i in path[:-1]:
                target = target[i]
            target[path[-1]] = 1 - target[path[-1]]
            reports.append([name, list(path), _report(mutated)])
    return reports


def digests() -> dict:
    rng = random.Random("xltops-spec-golden")
    return {
        "specs": {name: _sha(doc) for name, doc in built_in_specs().items()},
        "random reports": [_sha(mutation_reports(random_spec(rng))) for _ in range(200)],
        "float E4 reports": {
            name: _sha(mutation_reports(spec)) for name, spec in float_e4_specs().items()
        },
    }


def test_specs_and_reports_match_the_recorded_digests():
    recorded = json.loads(GOLDEN.read_text())
    got = digests()
    for name, sha in recorded["specs"].items():
        assert got["specs"][name] == sha, name
    for i, sha in enumerate(recorded["random reports"]):
        assert got["random reports"][i] == sha, f"random spec {i}"
    assert got == recorded


def record() -> None:
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
