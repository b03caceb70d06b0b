"""Malformed documents get a documented exit code from ``xlt``, never a traceback.

Each built-in document (spec, line, chart, multichart, rates) has one of
its fields, at any depth, replaced by a junk value, and the matching
``xlt`` subcommands read it through ``main()``.  A junk value may still
make a valid document (a label of "abc"), so exit code 0 is allowed too;
what is not allowed is an exception or any other code.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from xltops import (
    chart_to_json,
    chart_to_protocol,
    compose_skip_stop,
    fr_h,
    generate_s,
    line_to_json,
    main,
    section_capacities,
    spec_from_json,
    spec_to_json,
)

from conftest import make_line

JUNK = st.sampled_from(
    [None, True, False, "abc", "1/0", [], {}, math.inf, -math.inf, math.nan]
) | st.integers(min_value=-1000, max_value=1000)


def _documents() -> dict:
    chart = generate_s(3, 2, 2)  # M = 4
    skip_stop = compose_skip_stop(chart, [("1", ("A", "B", "C")), ("2", ("D", "B", "C"))])
    demand = [[0, 1, 2, 3], [0, 0, 1, 2], [0, 0, 0, 1], [0] * 4]
    line = make_line(("R", "F", "R", "F"), demand, platform=3)
    return {
        "spec": spec_to_json(fr_h(1)),
        "classified spec": spec_to_json(chart_to_protocol(skip_stop, ("A", "D", "B", "C"))),
        "line": line_to_json(line),
        "chart": chart_to_json(chart),
        "multichart": chart_to_json(skip_stop),
        "rates": {"schema_version": 1, "kind": "rates", "E": [6, 3, 1, 0]},
    }


DOCUMENTS = _documents()


def _commands(kind: str, path: str, base: dict) -> list[list[str]]:
    """The subcommands that read a document of this kind, with unchanged other inputs."""

    def simulate(spec, line, split="end_preference", *extra):
        return ["simulate", "--spec", spec, "--line", line, "--split", split, *extra]

    if kind == "spec":
        return [["validate", path], simulate(path, base["line"])]
    if kind == "classified spec":  # two train types: no load simulation
        return [["validate", path]]
    if kind == "line":
        return [simulate(base["spec"], path), simulate(base["spec"], path, "balanced")]
    if kind == "rates":
        return [simulate(base["spec"], base["line"], "end_preference", "--entries", path)]
    return [["render", path], ["render", path, "--format", "svg"], ["analyze", "connectivity", path]]


def _paths(doc, path=()):
    """The path of every value in a document: dict values and list items, at any depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``xlt`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("documents")
    paths = {}
    for kind, doc in DOCUMENTS.items():
        paths[kind] = str(root / f"{kind.replace(' ', '_')}.json")
        with open(paths[kind], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    paths["mutated"] = str(root / "mutated.json")
    return paths


def test_base_documents_are_read_without_error(base):
    for kind in DOCUMENTS:
        for argv in _commands(kind, base[kind], base):
            code, _, err = _run(argv)
            assert (code, err) == (0, ""), argv


@given(data=st.data())
@settings(
    max_examples=600,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_one_junk_field_never_escapes_main(base, data):
    kind = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="document")
    path = data.draw(st.sampled_from(list(_paths(DOCUMENTS[kind]))), label="path")
    doc = _mutated(DOCUMENTS[kind], path, data.draw(JUNK, label="value"))
    with open(base["mutated"], "w", encoding="utf-8") as handle:
        json.dump(doc, handle)  # NaN and Infinity are written as JSON literals
    for argv in _commands(kind, base["mutated"], base):
        code, _, err = _run(argv)
        assert code in (0, 1, 2), argv
        assert not err or err.startswith("error: "), err


def _with(kind, value, *path):
    return _mutated(DOCUMENTS[kind], path, value)


@pytest.mark.parametrize(
    "kind, doc",
    [
        ("spec", _with("spec", 1, "stations", "d")),
        ("spec", _with("spec", {"d": 1}, "stations")),
        ("chart", _with("chart", math.inf, "M")),
        ("line", _with("line", math.inf, "H")),
        ("chart", _with("chart", [], "bars")),
        ("chart", _with("chart", True, "bars", 0, "label")),
        ("chart", _with("chart", 7, "bars", 0, "label")),
        ("line", _with("line", [0] * 5, "M_min")),
        ("line", _with("line", [0], "M_min")),
        ("line", _with("line", [-1, 0, 0, 0], "M_min")),
        ("rates", _with("rates", [-6, 3, 1, 0], "E")),
        ("rates", _with("rates", [7, 3, 1, 0], "E")),
        ("spec", _with("spec", math.nan, "trains", 0, "lengths", 0)),
        ("spec", _with("spec", math.inf, "trains", 0, "lengths", 0)),
        ("line", _with("line", [-1, 3, 3, 3], "platform_lengths")),
        ("line", _with("line", [9.7, 3, 3, 3], "platform_lengths")),
        ("chart", _with("chart", 4.5, "M")),
        ("line", _with("line", True, "A", 0, 1)),
        ("line", _with("line", True, "H")),
        ("line", _with("line", [True, 0, 0, 0], "M_min")),
        ("spec", _with("spec", True, "trains", 0, "capacities", 0)),
        ("spec", _with("spec", math.nan, "trains", 0, "capacities", 0)),
        ("spec", _with("spec", math.inf, "trains", 0, "capacities", 0)),
        ("spec", _with("spec", -1, "trains", 0, "capacities", 0)),
        ("spec", _with("spec", True, "tables", "u", 0, 0, 0)),
        ("line", _with("line", "0123", "A", 0)),
        ("line", _with("line", "0000", "M_min")),
        ("line", _with("line", "abcd", "stations")),
        ("rates", _with("rates", "6310", "E")),
        ("spec", _with("spec", True, "trains", 0, "lengths", 0)),
        ("spec", _with("spec", "FR", "stations", "types")),
        ("spec", _with("spec", "1111", "trains", 0, "capacities")),
        ("spec", _with("spec", "R", "eol_rule", "first_types")),
        ("spec", _with("spec", "F", "eol_rule", "last_types")),
        ("multichart", _with("multichart", "12", "rotation")),
    ],
    ids=["stations-d-1", "stations-without-types", "M-Infinity", "H-Infinity", "no-bars",
         "label-true", "label-7", "M_min-too-long", "M_min-too-short", "M_min-negative", "E-negative",
         "E-above-demand", "length-NaN", "length-Infinity", "platform-negative",
         "platform-fractional", "M-fractional",
         "A-true", "H-true", "M_min-true", "capacity-true", "capacity-NaN", "capacity-Infinity",
         "capacity-negative", "u-entry-true", "A-row-string", "M_min-string", "stations-string",
         "E-string", "length-true", "types-string", "capacities-string", "first_types-string",
         "last_types-string", "rotation-string"],
)
def test_malformed_document_exits_1_with_an_error_line(base, kind, doc):
    with open(base["mutated"], "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    for argv in _commands(kind, base["mutated"], base):
        code, _, err = _run(argv)
        assert code == 1, argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_spec_documents_carry_exact_rational_capacities(tmp_path):
    doc = spec_to_json(fr_h(1))
    doc["trains"][0]["capacities"] = ["3/10", "3/10", "3/10", 1.0]
    spec = spec_from_json(doc)
    assert spec.trains[0].capacities == (Fraction(3, 10),) * 3 + (1.0,)
    assert spec_to_json(spec) == doc
    assert section_capacities(spec) == (Fraction(3, 10),) * 3 + (1,)
    # 3/5 pax from R to F split over sections 2 and 3: each exactly full, none overcrowded.
    line = make_line(("R", "F"), [[0, Fraction(3, 5)], [0, 0]], platform=3)
    paths = []
    for name, content in (("spec", doc), ("line", line_to_json(line))):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(content, handle)
    code, out, err = _run(["simulate", "--split", "balanced", "--spec", paths[0], "--line", paths[1]])
    assert code == 0, err
    report = json.loads(out.split("\n", 2)[2])
    assert report["occupancy"] == [0.0, 1.0, 1.0, 0.0]
    assert report["overcrowded"] == []


def test_unserved_demand_gets_a_warning_line(tmp_path):
    # On S(3, 2) no unit stops at both A and C: the 10 pax/h from A to C have no section.
    spec = chart_to_protocol(generate_s(3, 2, 4), ("A", "B", "C"))
    line = make_line(("A", "B", "C"), [[0, 1, 10], [0, 0, 2], [0, 0, 0]], H=Fraction(1, 2))
    paths = []
    for name, content in (("spec", spec_to_json(spec)), ("line", line_to_json(line))):
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(content, handle)
    argv = ["simulate", "--split", "balanced", "--spec", paths[0], "--line", paths[1]]
    code, out, err = _run(argv)
    assert code == 0
    assert err == "warning: no section presents S1->S3: 5 passengers per train left unserved\n"
    code, written, err_out = _run([*argv, "--out", str(tmp_path / "loads.txt")])
    assert (code, written, err_out) == (0, "", err)
    assert (tmp_path / "loads.txt").read_bytes() == out.encode()


def test_entry_rates_are_read_as_the_line_reads_its_numbers(tmp_path):
    # 5/7 as a JSON float is read as 5/7 in the line, so sending it back as E_1 is full demand.
    line = line_to_json(make_line(("R", "F"), [[0, 1], [0, 0]]))
    line["A"][0][1] = 5 / 7
    paths = {}
    for name, doc in (("spec", DOCUMENTS["spec"]), ("line", line),
                      ("float", {"schema_version": 1, "kind": "rates", "E": [5 / 7, 0]}),
                      ("string", {"schema_version": 1, "kind": "rates", "E": ["5/7", 0]})):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    argv = ["simulate", "--spec", paths["spec"], "--line", paths["line"], "--split", "balanced"]
    full = _run(argv)
    assert full[0] == 0 and full[2] == "", full
    for rates in ("float", "string"):
        assert _run([*argv, "--entries", paths[rates]]) == full, rates
