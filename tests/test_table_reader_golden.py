"""Golden gate of the decision-table reader, through ``build_protocol`` and ``spec_from_json``.

Every table of a protocol enters through one reader.  This fixture
pins what that reader makes of many forms of the same tables, for four
base specs (fr_h(1), fr_i((1, 2, 3, 4)), ftr(1) and a classified
S(5, 2, 4) chart spec):

- tuples, lists, numpy int, float and bool arrays, lists of numpy rows
  and numpy scalars as entries;
- one entry set in turn to a number of the right value in another type,
  or to a value that is not 0 or 1;
- one object shared at every depth (a row repeated in a table, a block
  repeated in p, one table given as both a and v);
- shape faults (a row dropped or lengthened at each depth, an extra
  nesting level, a scalar, empty or null table, a missing or an extra
  per-train table, a classification of the wrong rank or width);
- documents and calls with two faults in different tables.

Each input goes through the library (``build_protocol``) and through a
document (``spec_from_json``), and the fixture holds the sha256 of
``spec_to_json`` of the result, or ``ErrorType: message``.  The digest
cannot tell a list from a tuple, or a numpy scalar from an int, so every
spec built is also checked to hold tuples at every level and entries of
type ``int``.

To record the fixture again, run
``PYTHONPATH=src python tests/test_table_reader_golden.py``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from xltops import (
    build_protocol,
    chart_to_protocol,
    fr_h,
    fr_i,
    ftr,
    generate_s,
    spec_from_json,
    spec_to_json,
)

GOLDEN = Path(__file__).parent / "data" / "table_reader_golden.json"
PER_TRAIN = ("u", "a", "v", "p")
DEPTH = {"u": 3, "s": 2, "a": 3, "v": 3, "p": 4, "delta": 2, "epsilon": 2}
# Values put in place of a 1 entry and of a 0 entry.
ENTRIES = {
    1: {"1.0": 1.0, "True": True, "np.bool_": np.bool_(True), "np.int64": np.int64(1),
        "np.float32": np.float32(1.0), "'1'": "1"},
    0: {"0.0": 0.0, "1.5": 1.5, "NaN": math.nan, "None": None, "{}": {}, "2": 2, "-1": -1},
}


def base_specs() -> dict:
    chart = generate_s(5, 2, 4)
    order = random.Random("xltops-table-reader").choices([bar.label for bar in chart.bars], k=9)
    return {"fr_h(1)": fr_h(1), "fr_i(1, 2, 3, 4)": fr_i((1, 2, 3, 4)), "ftr(1)": ftr(1),
            "S(5,2,4) classified": chart_to_protocol(chart, order)}


def _lists(x):
    """x as nested lists."""
    return [_lists(e) for e in x] if isinstance(x, (list, tuple)) else x


def _map_at(x, depth: int, f):
    """x as nested lists down to ``depth``, with f applied to every node at that depth."""
    return f(x) if depth == 0 else [_map_at(e, depth - 1, f) for e in x]


def _first(x, value, path=()):
    """The index path of the first entry equal to ``value``, or None."""
    for i, e in enumerate(x):
        if isinstance(e, list):
            found = _first(e, value, (*path, i))
            if found is not None:
                return found
        elif e == value:
            return (*path, i)
    return None


def _set(x, path, value):
    x = copy.deepcopy(x)
    node = x
    for i in path[:-1]:
        node = node[i]
    node[path[-1]] = value
    return x


def _at_depth(x, depth: int, f):
    """A copy of x with f applied to the first node at ``depth`` (0 is x itself)."""
    x = copy.deepcopy(x)
    if depth == 0:
        return f(x)
    node = x
    for _ in range(depth - 1):
        node = node[0]
    node[0] = f(node[0])
    return x


def _dropped(node):
    return node[:-1]


def _lengthened(node):
    return node + [copy.deepcopy(node[-1])]


def forms(name: str, table) -> dict:
    """Other forms of the same table: containers and entry types."""
    t = _lists(table)
    per = (lambda f: [f(x) for x in t]) if name in PER_TRAIN else (lambda f: f(t))
    depth = DEPTH[name]
    out = {
        "tuples": table,
        "lists": t,
        "np int": per(np.array),
        "np float": per(lambda x: np.array(x, dtype=float)),
        "np bool": per(lambda x: np.array(x, dtype=bool)),
        "lists of np rows": _map_at(t, depth - 1, np.array),
        "np int64 entries": _map_at(t, depth, np.int64),
        "np float64 entries": _map_at(t, depth, np.float64),
        "np int8 entries": _map_at(t, depth, np.int8),
    }
    if name in PER_TRAIN:
        out["np stacked"] = np.array(t)
    for bit, values in ENTRIES.items():
        path = _first(t, bit)
        if path is not None:
            for label, value in values.items():
                out[f"entry {list(path)} = {label}"] = _set(t, path, value)
    return out


def sharings(tables: dict) -> dict:
    """Tables that share one object at some depth: case label -> the tables it replaces."""
    out = {}
    for name, table in tables.items():
        t = _lists(table)
        for kind, convert in (("list", list), ("tuple", tuple)):
            if name == "p":
                row, block = convert(t[0][-1][-1]), convert(t[0][-1])
                out[f"p: one {kind} row everywhere"] = {
                    name: [[[row] * len(b) for b in t[0]], *t[1:]]}
                out[f"p: one {kind} block repeated"] = {
                    name: [[t[0][0], *[block] * (len(t[0]) - 1)], *t[1:]]}
                out[f"p: one {kind} block everywhere"] = {name: [[block] * len(t[0]), *t[1:]]}
            elif name in PER_TRAIN:
                out[f"{name}: one {kind} row everywhere"] = {
                    name: [[convert(t[0][-1])] * len(t[0]), *t[1:]]}
            else:
                out[f"{name}: one {kind} row everywhere"] = {name: [convert(t[-1])] * len(t)}
    a = _lists(tables["a"])
    out["a is v"] = {"a": a, "v": a}
    row = tuple(a[0][0])
    rows = [[row] * len(a[0])]
    out["one row in a, v and p"] = {"a": rows, "v": rows, "p": [[[row] * len(row)] * len(a[0])]}
    return out


def faults(name: str, table) -> dict:
    """Shape faults of one table."""
    t = _lists(table)
    depth = DEPTH[name]
    top = 1 if name in PER_TRAIN else 0  # the depth of one table
    out = {}
    for d in range(1, depth + 1):
        out[f"dropped at depth {d}"] = _at_depth(t, d - 1, _dropped)
        out[f"lengthened at depth {d}"] = _at_depth(t, d - 1, _lengthened)
    out["extra level inside"] = _map_at(t, depth, lambda e: [e])
    out["extra level outside"] = _at_depth(t, top, lambda x: [x])
    out["rows one wider"] = _map_at(t, depth - 1, lambda row: row + [0])
    out["rows one narrower"] = _map_at(t, depth - 1, lambda row: row[:-1])
    out["scalar"] = _at_depth(t, top, lambda x: 1)
    out["empty"] = _at_depth(t, top, lambda x: [])
    out["null"] = _at_depth(t, top, lambda x: None)
    out["one dimension less"] = _at_depth(t, top, lambda x: x[0])
    return out


def _tuples_of_ints(x) -> bool:
    return type(x) is int or type(x) is tuple and all(map(_tuples_of_ints, x))


def _result(make) -> str:
    """sha256 of the spec document ``make()`` returns, or the error it raises."""
    try:
        spec = make()
    except Exception as exc:  # the golden records every error, typed or not
        return f"{type(exc).__name__}: {exc}"
    tables = (spec.u, spec.s, spec.a, spec.v, spec.p, spec.delta, spec.epsilon)
    assert _tuples_of_ints(tuple(t for t in tables if t is not None))
    return hashlib.sha256(json.dumps(spec_to_json(spec), sort_keys=True).encode()).hexdigest()


def results(spec, tables: dict) -> str | list[str]:
    """What the library and a document make of these tables: one result if they agree."""
    doc = json.loads(json.dumps(spec_to_json(spec)))
    doc["tables"] = dict(tables)
    library = {name: tables.get(name) for name in ("u", "s", "a", "v", "p", "delta", "epsilon")}
    got = [_result(lambda: build_protocol(spec.stations, spec.trains, **library,
                                          eol_rule=spec.eol_rule)),
           _result(lambda: spec_from_json(doc))]
    return got[0] if got[0] == got[1] else got


def cases(spec_name: str, spec) -> dict:
    """Every case of one base spec: case name -> tables."""
    base = {"u": spec.u, "s": spec.s, "a": spec.a, "v": spec.v, "p": spec.p}
    for name in ("delta", "epsilon"):
        if getattr(spec, name) is not None:
            base[name] = getattr(spec, name)
    base.setdefault("epsilon", ((1,),) * 3)  # so that every case reads a train classification
    out = {"base": base}
    single = []
    for name, table in base.items():
        for label, value in forms(name, table).items():
            out[f"{name}: {label}"] = {**base, name: value}
        for label, value in faults(name, table).items():
            out[f"{name}: {label}"] = {**base, name: value}
            single.append((name, label, value))
        if name in ("delta", "epsilon"):
            out[f"{name}: absent"] = {k: v for k, v in base.items() if k != name}
    for label, tables in sharings(base).items():
        out[f"shared: {label}"] = {**base, **tables}
    rng = random.Random(f"xltops-table-reader/{spec_name}")
    pairs = [(f, g) for f in single for g in single if f[0] < g[0]]
    for (f_name, f_label, f_value), (g_name, g_label, g_value) in rng.sample(pairs, 60):
        out[f"two faults: {f_name} {f_label}; {g_name} {g_label}"] = {
            **base, f_name: f_value, g_name: g_value}
    out["two faults: s rows one narrower; p dropped at depth 4"] = {
        **base, "s": faults("s", base["s"])["rows one narrower"],
        "p": faults("p", base["p"])["dropped at depth 4"]}
    return out


def digests() -> dict:
    return {
        spec_name: {case: results(spec, tables) for case, tables in cases(spec_name, spec).items()}
        for spec_name, spec in base_specs().items()
    }


@pytest.fixture(scope="module")
def got() -> dict:
    return digests()


def test_every_table_form_reads_as_recorded(got):
    recorded = json.loads(GOLDEN.read_text())
    for spec_name, spec_cases in recorded.items():
        for case, expected in spec_cases.items():
            assert got[spec_name][case] == expected, (spec_name, case)
    assert got == recorded


def test_library_calls_fail_as_documents_do(got):
    # Both read every table before checking any, so a document's error is the
    # library's, wrapped in SchemaError.  A null classification is the one
    # difference: to the library, None means that there is none.
    for spec_name, spec in base_specs().items():
        for case, tables in cases(spec_name, spec).items():
            result = got[spec_name][case]
            if isinstance(result, list) and all(
                tables.get(name, ()) is not None for name in ("delta", "epsilon")
            ):
                library, document = result
                assert library.startswith("ValueError: "), (spec_name, case)
                assert document == "SchemaError: malformed spec document: " + library.split(
                    ": ", 1)[1], (spec_name, case)


def record() -> None:
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
