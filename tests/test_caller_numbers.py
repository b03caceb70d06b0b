"""Every number a caller passes is read by one rule, ``core_model._as_fraction``.

A float reads to within 1e-9 (0.1 is 1/10), a string as a decimal or a ratio
("3/10"), and a ``Fraction`` as it is.  A boolean, NaN, an infinity or anything
that is no number is refused with ``DimensionMismatch`` at every entry point,
never with the ``ValueError`` or ``TypeError`` of ``Fraction(x)``.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from xltops import (
    MeteringProblem,
    SFamilySpec,
    TrainTypeSpec,
    build_assignment,
    capacity_report,
    fr_h,
    fr_i,
    generate_s,
    max_connected_classes,
    max_length_with_transfers,
    section_capacities,
    simulate_loads,
    size_sections_proportional,
    solve_inner_lp,
    strict_floor,
    train_length_ratio,
    worst_case_transfers,
)
from xltops.errors import DimensionMismatch, XltError
from xltops.render_io import main

from conftest import make_line

Z = Fraction(0)
FR_TYPES = ("F", "R", "F", "R")
# A 4-station F/R line whose first station sends 1/2 to the last: an entry rate of
# 1/10 or 3/10 there lies within its demand.
FR_LINE = make_line(FR_TYPES, [[Z, Z, Z, Fraction(1, 2)], [Z, Z, 1, Z], [Z] * 4, [Z] * 4])
FR_I = fr_i()
ASSIGNMENT = build_assignment(FR_I, FR_LINE)
CAPS = section_capacities(FR_I)
RATES = [FR_LINE.demand_rate(z) for z in range(FR_LINE.S)]
PROFILE = simulate_loads(ASSIGNMENT, RATES, FR_LINE, CAPS)


def _line(H=1, A01=Fraction(1, 2), M_min0=Z):
    return make_line(("R", "F"), [[Z, A01], [Z, Z]], H=H, M_min=[M_min0, Z])


def _train_capacities(x):
    spec = fr_h()
    train = replace(spec.trains[0], capacities=(x,) + (1.0,) * (spec.trains[0].M - 1))
    return section_capacities(replace(spec, trains=(train,)))


ENTRY_POINTS = {
    "entry rate": lambda x: simulate_loads(ASSIGNMENT, [x, *RATES[1:]], FR_LINE, CAPS),
    "section capacity": lambda x: simulate_loads(ASSIGNMENT, RATES, FR_LINE, [x, *CAPS[1:]]),
    "demand fraction": lambda x: size_sections_proportional(
        [x, Fraction(1, 2), Fraction(2, 5)], 10),
    "reference units": lambda x: capacity_report(PROFILE, FR_I, FR_LINE, x),
    "unit capacity": lambda x: solve_inner_lp(
        MeteringProblem(FR_LINE, 12, x), FR_TYPES, (3, 3, 3, 3)),
    "train capacity": _train_capacities,
    "headway": lambda x: _line(H=x),
    "demand": lambda x: _line(A01=x),
    "minimum rate": lambda x: _line(M_min0=x),
    "strict_floor": strict_floor,
    "SFamilySpec": lambda x: SFamilySpec(3, x, 3),
    "generate_s": lambda x: generate_s(3, x, 3),
    "train_length_ratio": lambda x: train_length_ratio(3, x),
    "max_connected_classes": lambda x: max_connected_classes(1, x),
    "worst_case_transfers": lambda x: worst_case_transfers(3, x),
    "max_length_with_transfers": lambda x: max_length_with_transfers(1, x),
}

READABLE = {0.1: Fraction(1, 10), "3/10": Fraction(3, 10), 2.5: Fraction(5, 2)}
UNREADABLE = [True, math.nan, math.inf, None, "x", [1]]


def _outcome(call, x):
    """What a call gives: its result, or the type of the domain error it raises."""
    try:
        return call(x)
    except XltError as exc:
        return type(exc)


@pytest.mark.parametrize("value", list(READABLE), ids=["float", "ratio", "float-above-one"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_a_readable_number_gives_what_its_fraction_gives(entry, value):
    call = ENTRY_POINTS[entry]
    assert _outcome(call, value) == _outcome(call, READABLE[value])


@pytest.mark.parametrize("value", UNREADABLE, ids=["true", "nan", "inf", "none", "word", "list"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_anything_else_is_a_dimension_mismatch(entry, value):
    if entry == "reference units" and value is None:  # None asks for the shortest platform
        assert capacity_report(PROFILE, FR_I, FR_LINE, None) == \
            capacity_report(PROFILE, FR_I, FR_LINE, min(FR_I.stations.lengths()))
        return
    with pytest.raises(DimensionMismatch):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("value", ["True", "nan", "inf", "None", "x", "[1]", "1/0"])
@pytest.mark.parametrize(
    "argv",
    [["generate", "s", "--D"], ["optimize", "metering", "--line", "line.json", "--unit-capacity"]],
    ids=["D", "unit-capacity"],
)
def test_the_cli_reads_its_rational_options_by_the_same_rule(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    assert f"not a rational number: '{value}'" in capsys.readouterr().err


def test_the_cli_reads_a_decimal_and_a_ratio_alike(capsys):
    outputs = []
    for D in ("0.1", "1/10", "0.10"):
        assert main(["generate", "s", "--C", "3", "--D", D, "--d", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_float_entry_rate_equal_to_a_float_demand_is_that_demand():
    line = make_line(("R", "F"), [[0, 0.1], [0, 0]])
    assignment = build_assignment(FR_I, line)
    profile = simulate_loads(assignment, [0.1, 0], line, CAPS)
    assert profile.load[2] == (Fraction(1, 10),)


def test_the_closed_forms_read_a_float_step_as_its_decimal():
    assert generate_s(3, 0.3, 3).M == 3 + 2 * 10  # h = 3 / (3/10) = 10
    assert train_length_ratio(3, 0.3) == Fraction(23, 3)
    assert max_length_with_transfers(0, 2.5) == 1 + Fraction(2, Fraction(5, 2))
    assert strict_floor(2.0) == 1 and strict_floor(2.5) == 2 and strict_floor(-1) == 0


def test_proportional_sizing_reads_float_fractions_as_decimals():
    assert size_sections_proportional([0.1, 0.2, 0.7], 10) == (1, 2, 7)


def test_a_float_unit_capacity_solves_as_its_decimal():
    problem = MeteringProblem(FR_LINE, 12, 0.1)
    assert problem.unit_capacity == Fraction(1, 10)
    exact = MeteringProblem(FR_LINE, 12, Fraction(1, 10))
    assert solve_inner_lp(problem, FR_TYPES, (3, 3, 3, 3)) == \
        solve_inner_lp(exact, FR_TYPES, (3, 3, 3, 3))


def test_simulation_refuses_a_boolean_rate_and_a_negative_capacity():
    with pytest.raises(DimensionMismatch, match="^entry rates must be finite numbers, not True$"):
        simulate_loads(ASSIGNMENT, [True, *RATES[1:]], FR_LINE, CAPS)
    with pytest.raises(DimensionMismatch, match="^section capacities must be nonnegative$"):
        simulate_loads(ASSIGNMENT, RATES, FR_LINE, [-1, *CAPS[1:]])


def test_a_numpy_float32_capacity_is_refused_when_the_train_is_built():
    with pytest.raises(DimensionMismatch, match="unit capacities must be numbers"):
        TrainTypeSpec("t", M=2, lengths=(1.0, 1.0), capacities=(np.float32(0.5), 1.0), N=1)
    with pytest.raises(DimensionMismatch, match="unit capacity must be a finite number"):
        MeteringProblem(FR_LINE, 12, np.float32(0.5))
    # A float64 is a float, and reads as one.
    assert _train_capacities(np.float64(0.1)) == _train_capacities(0.1)
