"""Gate signs, chart rendering and the command-line interface."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from xltops import (
    build_assignment,
    build_graph,
    build_s52_2,
    chart_to_json,
    derive_gate_signs,
    fr_h,
    fr_i,
    ftr,
    gate_door_consistency,
    generate_s,
    line_to_json,
    optimal_plans,
    render_chart,
    section_capacities,
    simulate_loads,
    spec_to_json,
)
from xltops.core_model import StationTypeCatalog, TrainTypeSpec, build_protocol
from xltops.flow_sim import LoadProfile
from xltops.render_io import main
from xltops.s_family import build_ftr3, chart_to_protocol

from conftest import exactly_one_ftr, flipped_specs, make_line, seed_from_env


# ---------------------------------------------------------------------------
# Gate signs
# ---------------------------------------------------------------------------


def test_partial_presentation_gate_signs(fr_line_full):
    table = derive_gate_signs(fr_i(), fr_line_full)
    assert table.gates(0, "xlt") == ("F",) * 3 + ("R",) * 3 + ("X",) * 3
    # R station: disembark-only, then F-bound, then R-bound gates
    assert table.gates(1, "xlt") == ("X",) * 3 + ("F",) * 3 + ("R",) * 3


def test_full_presentation_gate_signs(fr_line_full):
    table = derive_gate_signs(fr_h(), fr_line_full)
    assert table.gates(0, "xlt") == ("F",) * 3 + ("F,R",) * 6


def test_closed_doors_show_disembark_only():
    cat = StationTypeCatalog(types=("F",), d={"F": 2})
    train = TrainTypeSpec.uniform("t", M=2, N=1)
    a = np.array([[1]])
    v = np.zeros((1, 1), dtype=int)
    spec = build_protocol(
        cat, [train], u=[np.ones((2, 1), dtype=int)], s=np.ones((1, 1), dtype=int),
        a=[a], v=[v], p=[np.zeros((1, 1, 1), dtype=int)],
    )
    line = make_line(("F",), [[0]], platform=2)
    assert derive_gate_signs(spec, line).gates(0, "t") == ("X", "X")


def test_gates_beyond_aligned_train_read_no_train():
    spec = fr_i()
    line = make_line(("F", "R"), [[0, Fraction(1)], [0, 0]], platform=12)
    assert derive_gate_signs(spec, line).gates(0, "xlt")[9:] == ("-", "-", "-")


@pytest.mark.parametrize(
    "spec",
    [
        fr_h(),
        fr_i(),
        ftr(),
        exactly_one_ftr(),
        chart_to_protocol(generate_s(3, 2, 4)),
        chart_to_protocol(build_ftr3()),
        chart_to_protocol(build_s52_2()),
    ],
)
def test_gate_door_closure_holds_on_builtins(spec):
    assert gate_door_consistency(spec) == []


def test_gate_door_closure_catches_unhonorable_signs():
    spec = fr_i()
    p = [[[list(row) for row in rows] for rows in pk] for pk in spec.p]
    p[0][0][0][1] = 1  # section 1 advertises R but never opens at R stations
    broken = build_protocol(
        spec.stations, spec.trains, u=spec.u, s=spec.s, a=spec.a, v=spec.v, p=p
    )
    problems = gate_door_consistency(broken)
    assert len(problems) == 1 and "cannot open at R" in problems[0]


def test_gate_door_closure_catches_a_sign_without_an_open_gate():
    spec = fr_i()
    p = [[[list(row) for row in rows] for rows in pk] for pk in spec.p]
    p[0][0][1][0] = 1  # section 1 advertises F at R stations, where it is not aligned
    broken = build_protocol(
        spec.stations, spec.trains, u=spec.u, s=spec.s, a=spec.a, v=spec.v, p=p
    )
    assert gate_door_consistency(broken) == [
        "train xlt, section 1: advertises F at R without an open gate"]


def per_entry_gate_problems(spec):
    """gate_door_consistency's rule, entry by presented entry."""
    problems = []
    types = spec.stations.types
    for k, train in enumerate(spec.trains):
        for n, rows in enumerate(spec.p[k]):
            for i, row in enumerate(rows):
                for j, x in enumerate(row):
                    if not x:
                        continue
                    where = f"train {train.label}, section {n + 1}"
                    if not (spec.a[k][n][i] and spec.v[k][n][i]):
                        problems.append(
                            f"{where}: advertises {types[j]} at {types[i]} without an open gate")
                    if not spec.v[k][n][j]:
                        problems.append(f"{where}: advertises {types[j]} at {types[i]} "
                                        f"but cannot open at {types[j]}")
                    if not spec.s[k][j]:
                        problems.append(
                            f"{where}: advertises {types[j]} but the train skips that type")
    return problems


def test_gate_door_closure_matches_the_per_entry_rule_on_changed_specs():
    specs = flipped_specs(random.Random(seed_from_env() + 7), 300)
    assert len(specs) > 250
    found = 0
    for spec in specs:
        problems = gate_door_consistency(spec)
        assert problems == per_entry_gate_problems(spec)
        found += bool(problems)
    assert 50 < found < len(specs) - 50


def test_gate_signs_of_an_unknown_train_are_a_key_error(fr_line_full):
    table = derive_gate_signs(fr_i(), fr_line_full)
    with pytest.raises(KeyError):
        table.gates(0, "no such train")


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

GOLDEN_S32 = (
    "train type 1  M=8\n"
    "train  [########]\n"
    "C      [....####]  b=8 d=4\n"
    "B      [..####..]  b=6 d=4\n"
    "A      [####....]  b=4 d=4\n"
)


def test_text_rendering_matches_golden():
    assert render_chart(generate_s(3, 2, 4)).text == GOLDEN_S32


def test_rendering_is_deterministic():
    a = render_chart(build_s52_2())
    b = render_chart(build_s52_2())
    assert a.text == b.text and a.svg == b.svg


def test_route_overlay_appears_in_text_and_svg():
    mtc = build_s52_2()
    plan = optimal_plans(build_graph(mtc), "A", "E")[0]
    rendering = render_chart(mtc, overlays=[plan])
    assert "route A->E (1 transfers)" in rendering.text
    assert "stroke-dasharray" in rendering.svg


def test_svg_draws_one_rect_per_present_bar():
    svg = render_chart(generate_s(3, 2, 4)).svg
    assert svg.count("<rect") == 4  # train body + three bars
    assert svg.startswith("<svg ")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_validate_feasible_spec(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", spec_to_json(fr_h()))
    assert main(["validate", spec_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasible"] and out["violations"] == []


def test_cli_validate_reports_violations(tmp_path, capsys):
    doc = spec_to_json(fr_h())
    doc["tables"]["s"] = [[1, 0]]  # aligned at a skipped type
    spec_path = write_json(tmp_path / "bad.json", doc)
    assert main(["validate", spec_path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert any(v["constraint"] == "E2" for v in out["violations"])


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["fr_h"], spec_to_json(fr_h())),
        (["fr_h", "--section-size", "2"], spec_to_json(fr_h(2))),
        (["fr_i"], spec_to_json(fr_i())),
        (["fr_i", "--sizes", "1", "2", "3", "4"], spec_to_json(fr_i((1, 2, 3, 4)))),
        (["ftr"], spec_to_json(ftr())),
        (["ftr", "--section-size", "3"], spec_to_json(ftr(3))),
        (["ftr3"], chart_to_json(build_ftr3())),
        (["s52_2"], chart_to_json(build_s52_2())),
    ],
    ids=["fr_h", "fr_h-2", "fr_i", "fr_i-1234", "ftr", "ftr-3", "ftr3", "s52_2"],
)
def test_cli_generate_writes_the_matching_constructor(capsys, argv, doc):
    assert main(["generate", *argv]) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("family", ["fr_h", "ftr"])
@pytest.mark.parametrize("size", ["0", "-1"])
def test_cli_generate_refuses_a_section_size_below_one(capsys, family, size):
    assert main(["generate", family, "--section-size", size]) == 1
    captured = capsys.readouterr()
    sizes = ", ".join([size] * 4)
    assert captured.out == ""
    assert captured.err == f"error: need 4 positive section sizes, not ({sizes})\n"


def test_cli_generate_and_render_round_trip(tmp_path, capsys):
    chart_path = str(tmp_path / "chart.json")
    assert main(["generate", "s", "--C", "3", "--D", "2", "--d", "4", "--out", chart_path]) == 0
    assert main(["render", chart_path]) == 0
    assert capsys.readouterr().out == GOLDEN_S32
    assert main(["render", chart_path, "--format", "svg"]) == 0
    assert capsys.readouterr().out.startswith("<svg ")


def test_cli_connectivity_matrix(tmp_path, capsys):
    chart_path = write_json(tmp_path / "s52x2.json", chart_to_json(build_s52_2()))
    assert main(["analyze", "connectivity", chart_path]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert sorted(out[0].split(",")[1:]) == ["A", "B", "C", "D", "E"]
    body = [row.split(",")[1:] for row in out[1:-1]]
    assert max(int(x) for row in body for x in row) == 1
    assert out[-1].startswith("worst,")


def test_cli_simulate_emits_profile_and_report(tmp_path, capsys, fr_line_full):
    spec_path = write_json(tmp_path / "spec.json", spec_to_json(fr_i()))
    line_path = write_json(tmp_path / "line.json", line_to_json(fr_line_full))
    assert main(["simulate", "--spec", spec_path, "--line", line_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("link,section_1")
    report = json.loads(out[out.index("{") :])
    assert report["gain"] == pytest.approx(4 / 3)


def test_cli_simulate_prints_loads_without_forming_a_fraction_per_load(
        tmp_path, capsys, monkeypatch):
    """On an S = 24 line, under fr_i and both fr_h splits, ``xlt simulate`` prints each
    load from the profile's integer rows and never reads ``LoadProfile.load``; the
    printed cells are the library's loads as floats."""
    reads = []
    form = LoadProfile.load.func
    monkeypatch.setattr(LoadProfile, "load", property(lambda p: reads.append(p) or form(p)))
    rng = random.Random(f"{seed_from_env()}/simulate-reads")
    S = 24
    types = ["R"] + [rng.choice("FR") for _ in range(S - 2)] + ["F"]
    A = [[Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) if sp > z else 0 for sp in range(S)]
         for z in range(S)]
    line = make_line(types, A, H=Fraction(1, 2))
    line_path = write_json(tmp_path / "line.json", line_to_json(line))
    printed = {}
    for name, spec, extra in (("fr_i", fr_i(), []), ("balanced", fr_h(3), ["--split", "balanced"]),
                              ("end_preference", fr_h(3), ["--split", "end_preference"])):
        spec_path = write_json(tmp_path / "spec.json", spec_to_json(spec))
        assert main(["simulate", "--spec", spec_path, "--line", line_path, *extra]) == 0
        printed[name] = capsys.readouterr().out.splitlines()[1:S]
    assert reads == []
    profile = simulate_loads(build_assignment(fr_i(), line),
                             [line.demand_rate(z) for z in range(S)], line,
                             section_capacities(fr_i()))
    loads = profile.load
    assert len(reads) == 1  # the counter counts
    assert printed["fr_i"] == [",".join([str(s + 1), *(str(float(row[s])) for row in loads)])
                               for s in range(S - 1)]


def test_cli_simulate_ambiguous_spec_is_a_domain_error(tmp_path, capsys, fr_line_full):
    spec_path = write_json(tmp_path / "spec.json", spec_to_json(fr_h()))
    line_path = write_json(tmp_path / "line.json", line_to_json(fr_line_full))
    assert main(["simulate", "--spec", spec_path, "--line", line_path]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("split", [None, "balanced", "end_preference"])
def test_cli_simulate_unknown_station_type_is_a_domain_error(tmp_path, capsys, split):
    spec_path = write_json(tmp_path / "spec.json", spec_to_json(fr_i()))
    line = make_line(("R", "Z", "F"), [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    line_path = write_json(tmp_path / "line.json", line_to_json(line))
    argv = ["simulate", "--spec", spec_path, "--line", line_path]
    assert main(argv + (["--split", split] if split else [])) == 1
    assert capsys.readouterr().err.startswith("error: station type 'Z'")


def test_cli_simulate_reads_float_capacities_exactly(tmp_path, capsys):
    doc = spec_to_json(fr_i())
    doc["trains"][0]["capacities"] = [0.3] * 12
    spec_path = write_json(tmp_path / "spec.json", doc)
    line = make_line(("F", "R", "F"), [[0, 0, 3], [0, 0, 0], [0, 0, 0]], H=0.3)
    line_path = write_json(tmp_path / "line.json", line_to_json(line))
    assert main(["simulate", "--spec", spec_path, "--line", line_path]) == 0
    out = capsys.readouterr().out
    report = json.loads(out[out.index("{") :])
    assert report["overcrowded"] == []  # load 9/10 on capacity 3 x 0.3
    assert report["occupancy"] == [1.0, 0.0, 0.0, 0.0]


def test_cli_optimize_metering_needs_a_classification_or_free_delta(tmp_path, capsys, fr_line_full):
    unclassified = replace(fr_line_full, station_types=None)
    line_path = write_json(tmp_path / "line.json", line_to_json(unclassified))
    assert main(["optimize", "metering", "--line", line_path]) == 1
    message = "error: line needs station_types unless --free-delta is given\n"
    assert capsys.readouterr().err == message
    assert main(["optimize", "metering", "--line", line_path, "--free-delta"]) == 0


def test_cli_optimize_metering(tmp_path, capsys, fr_line_full):
    line_path = write_json(tmp_path / "line.json", line_to_json(fr_line_full))
    assert main(["optimize", "metering", "--line", line_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["section_sizes"] == [3, 3, 3, 3]
    assert Fraction(out["objective"]) == 12


@pytest.mark.parametrize(
    "sizes, message",
    [
        (["0", "4", "4", "4"], "error: fr_i needs exactly 4 positive section sizes"),
        (["3", "3", "3"], "error: section sizes must partition the train"),
    ],
)
def test_cli_optimize_metering_rejects_bad_sizes(tmp_path, capsys, fr_line_full, sizes, message):
    line_path = write_json(tmp_path / "line.json", line_to_json(fr_line_full))
    assert main(["optimize", "metering", "--line", line_path, "--sizes", *sizes]) == 1
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize(
    "capacity", ["0", "-1/2"], ids=["unit-capacity-0", "unit-capacity-negative"]
)
def test_cli_optimize_metering_rejects_a_nonpositive_unit_capacity(
    tmp_path, capsys, fr_line_full, capacity
):
    line_path = write_json(tmp_path / "line.json", line_to_json(fr_line_full))
    assert main(["optimize", "metering", "--line", line_path, f"--unit-capacity={capacity}"]) == 1
    assert capsys.readouterr().err == f"error: unit capacity must be positive, not {capacity}\n"


def _bar_without_d():
    doc = chart_to_json(generate_s(3, 2, 4))
    del doc["bars"][0]["d"]
    return doc


def _spec_with_unit_count(value):
    doc = spec_to_json(fr_i())
    doc["trains"][0]["M"] = value
    return doc


def _line_with_demand(value):
    doc = line_to_json(make_line(("R", "F"), [[0, 1], [0, 0]]))
    doc["A"][0][1] = value
    return doc


@pytest.mark.parametrize(
    "command, doc",
    [
        (["render"], [1, 2]),
        (["analyze", "connectivity"], [1, 2]),
        (["render"], _bar_without_d()),
        (["validate"], _spec_with_unit_count("abc")),
        (["optimize", "metering", "--line"], _line_with_demand("1/0")),
        (["optimize", "metering", "--line"], _line_with_demand("abc")),
    ],
    ids=["render-list", "connectivity-list", "bar-without-d", "spec-M-abc", "demand-1/0",
         "demand-abc"],
)
def test_cli_malformed_document_is_a_schema_error(tmp_path, capsys, command, doc):
    path = write_json(tmp_path / "doc.json", doc)
    assert main([*command, path]) == 1
    assert capsys.readouterr().err.startswith(("error: expected a", "error: malformed"))


def test_cli_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "s", "--D", "abc"],
        ["generate", "s", "--D", "1/0"],
        ["optimize", "metering", "--line", "line.json", "--unit-capacity", "abc"],
        ["optimize", "metering", "--line", "line.json", "--unit-capacity", "1/0"],
    ],
    ids=["D-abc", "D-1/0", "unit-capacity-abc", "unit-capacity-1/0"],
)
def test_cli_bad_number_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument {argv[-2]}: not a rational number: '{argv[-1]}'" in capsys.readouterr().err


@pytest.mark.parametrize("D, shown", [("3/7", "4/(3/7)"), ("3", "4/3")])
def test_cli_step_error_shows_a_fractional_D_in_parentheses(capsys, D, shown):
    assert main(["generate", "s", "--C", "3", "--D", D, "--d", "4"]) == 1
    message = f"error: step h = d/D = {shown} is not a whole number of units"
    assert capsys.readouterr().err.strip() == message


def test_cli_rational_options_are_exact(tmp_path, capsys, fr_line_full):
    chart_path = str(tmp_path / "chart.json")
    assert main(["generate", "s", "--C", "3", "--D", "4/2", "--d", "4", "--out", chart_path]) == 0
    assert json.loads(open(chart_path).read()) == chart_to_json(generate_s(3, 2, 4))
    line_path = write_json(tmp_path / "line.json", line_to_json(fr_line_full))
    assert main(["optimize", "metering", "--line", line_path, "--unit-capacity", "0.5"]) == 0
    assert Fraction(json.loads(capsys.readouterr().out)["objective"]) == 6


@pytest.mark.parametrize(
    "rates, message",
    [
        ({"schema_version": 1, "kind": "rates", "E": ["1/0", 1, 0, 0]}, "error: malformed rates"),
        ({"schema_version": 1, "kind": "rates", "E": ["abc", 1, 0, 0]}, "error: malformed rates"),
        ([1, 1, 0, 0], "error: entries file must be a 'rates' document"),
    ],
    ids=["E-1/0", "E-abc", "list"],
)
def test_cli_malformed_rates_are_a_schema_error(tmp_path, capsys, fr_line_full, rates, message):
    spec_path = write_json(tmp_path / "spec.json", spec_to_json(fr_i()))
    line_path = write_json(tmp_path / "line.json", line_to_json(fr_line_full))
    rates_path = write_json(tmp_path / "rates.json", rates)
    argv = ["simulate", "--spec", spec_path, "--line", line_path, "--entries", rates_path]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(message)


def test_cli_simulate_one_station_line_is_a_domain_error(tmp_path, capsys):
    spec_path = write_json(tmp_path / "spec.json", spec_to_json(fr_i()))
    line_path = write_json(tmp_path / "line.json", line_to_json(make_line(("R",), [[0]])))
    assert main(["simulate", "--spec", spec_path, "--line", line_path]) == 1
    assert capsys.readouterr().err.startswith("error: a load profile with no links")


def test_cli_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
