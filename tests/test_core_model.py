"""Structural checks for catalogs, protocol construction and serialization."""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xltops import (
    LineInstance,
    MeteringProblem,
    StationTypeCatalog,
    TrainTypeSpec,
    build_assignment,
    build_assignment_split,
    build_protocol,
    chart_from_json,
    chart_to_json,
    chart_to_protocol,
    compose_skip_stop,
    check_eol,
    derive_gate_signs,
    derive_parts,
    fr_h,
    fr_i,
    ftr,
    generate_s,
    greedy_presentation_refine,
    line_from_json,
    line_to_json,
    section_capacities,
    solve_outer,
    spec_from_json,
    spec_to_json,
)
from xltops.errors import (
    BadSectionCount,
    DimensionMismatch,
    NeverAlignedViolation,
    NonConsecutiveSection,
    RowSumViolation,
    SchemaError,
    UnknownStationType,
)

from xltops.core_model import _as_fraction, train_tables

from conftest import make_line, seed_from_env


def test_catalog_rejects_duplicate_labels():
    with pytest.raises(DimensionMismatch):
        StationTypeCatalog(types=("F", "F"), d={"F": 3})


def test_catalog_refuses_a_string_of_labels():
    with pytest.raises(DimensionMismatch, match="not the string 'FR'"):
        StationTypeCatalog(types="FR", d={"F": 3, "R": 5})
    assert StationTypeCatalog(types=["F", "R"], d={"F": 3, "R": 5}).types == ("F", "R")


def test_catalog_lengths_follow_type_order():
    cat = StationTypeCatalog(types=("F", "R"), d={"R": 5, "F": 3})
    assert cat.lengths() == (3, 5)
    assert cat.index("R") == 1


@pytest.mark.parametrize("length", [2.5, 3.0, True, "3", None, 0, np.bool_(True)])
def test_catalog_refuses_platform_lengths_other_than_whole_numbers_from_1(length):
    with pytest.raises(DimensionMismatch, match="platform length for type 'R'"):
        StationTypeCatalog(types=("F", "R"), d={"F": 3, "R": length})


def test_train_spec_validates_shapes():
    with pytest.raises(DimensionMismatch):
        TrainTypeSpec.uniform("t", M=4, N=5)
    with pytest.raises(DimensionMismatch):
        TrainTypeSpec(label="t", M=2, lengths=(1.0,), capacities=(1.0, 1.0), N=1)


@pytest.mark.parametrize("length", [True, "1", "x", None, [1.0], math.nan, 0, -1.0])
def test_train_types_refuse_unit_lengths_other_than_positive_finite_numbers(length):
    with pytest.raises(DimensionMismatch, match="unit lengths"):
        TrainTypeSpec("t", M=2, lengths=(1.0, length), capacities=(1.0, 1.0), N=1)


def test_build_protocol_rejects_nonconsecutive_section():
    cat = StationTypeCatalog(types=("F",), d={"F": 2})
    train = TrainTypeSpec.uniform("t", M=3, N=2)
    u = np.array([[1, 0], [0, 1], [1, 0]])  # section 1 split around section 2
    a = np.ones((2, 1), dtype=int)
    with pytest.raises(NonConsecutiveSection):
        build_protocol(
            cat, [train], u=[u], s=np.ones((1, 1), dtype=int),
            a=[a], v=[a], p=[np.ones((2, 1, 1), dtype=int)],
        )


def test_build_protocol_rejects_bad_delta_rows():
    spec = fr_i()
    doc = spec_to_json(spec)
    doc["tables"]["delta"] = [[1, 1]]
    with pytest.raises(RowSumViolation):
        spec_from_json(doc)


def test_never_aligned_unit_blocks_alignment():
    cat = StationTypeCatalog(types=("F",), d={"F": 2})
    train = TrainTypeSpec.uniform("t", M=2, N=1, never_aligned=(2,))
    u = np.ones((2, 1), dtype=int)
    a = np.ones((1, 1), dtype=int)
    with pytest.raises(NeverAlignedViolation):
        build_protocol(
            cat, [train], u=[u], s=np.ones((1, 1), dtype=int),
            a=[a], v=[a], p=[np.ones((1, 1, 1), dtype=int)],
        )


def test_tables_are_read_only():
    spec = fr_h()
    with pytest.raises(TypeError):
        spec.s[0][0] = 0
    with pytest.raises(TypeError):
        spec.a[0][0][0] = 0
    with pytest.raises(TypeError):
        spec.p[0][0][0][0] = 0


def _with_u_entry(spec, value):
    """spec's u tables as nested lists, with the first entry replaced."""
    u = [[list(row) for row in uk] for uk in spec.u]
    u[0][0][0] = value
    return u


@pytest.mark.parametrize("entry", [True, np.bool_(True), "1", 1.5, math.nan, None, {}])
def test_build_protocol_rejects_table_entries_other_than_0_and_1(entry):
    spec = fr_h(1)
    u = _with_u_entry(spec, entry)
    with pytest.raises(DimensionMismatch):
        build_protocol(spec.stations, spec.trains, u=u, s=spec.s, a=spec.a, v=spec.v, p=spec.p)


def test_build_protocol_rejects_boolean_tables():
    spec = fr_h(1)
    u = np.eye(4, dtype=bool)
    with pytest.raises(DimensionMismatch, match=r"u\[0\] must contain only 0/1 entries"):
        build_protocol(spec.stations, spec.trains, u=[u], s=spec.s, a=spec.a, v=spec.v, p=spec.p)


@pytest.mark.parametrize("one", [1, 1.0, np.int64(1), np.float64(1.0)])
def test_build_protocol_reads_whole_numbers_as_table_entries(one):
    spec = fr_h(1)
    built = build_protocol(spec.stations, spec.trains, u=_with_u_entry(spec, one), s=spec.s,
                           a=spec.a, v=spec.v, p=spec.p, eol_rule=spec.eol_rule)
    assert built == spec and type(built.u[0][0][0]) is int


@pytest.mark.parametrize("one", [1.0, np.int64(1), np.float64(1.0)])
def test_tuples_of_other_numbers_are_read_as_ints(one):
    spec = fr_h(1)
    u = [tuple(map(tuple, _with_u_entry(spec, one)[0]))]
    built = build_protocol(spec.stations, spec.trains, u=u, s=spec.s, a=spec.a, v=spec.v, p=spec.p,
                           eol_rule=spec.eol_rule)
    assert built == spec and type(built.u[0][0][0]) is int


def test_a_row_read_before_is_no_block_of_p():
    # a's rows are read first; one of them where p holds a block of rows is ragged.
    spec = fr_h(1)
    a = [tuple(map(tuple, spec.a[0]))]
    p = [(a[0][0], *spec.p[0][1:])]
    with pytest.raises(ValueError, match=r"inhomogeneous shape after 2 dimensions. "
                                         r"The detected shape was \(4, 2\)"):
        build_protocol(spec.stations, spec.trains, u=spec.u, s=spec.s, a=a, v=a, p=p)


def test_ragged_tables_are_refused():
    doc = spec_to_json(fr_h(1))
    doc["tables"]["u"][0][1] = [0, 1]
    with pytest.raises(SchemaError, match="inhomogeneous shape after 1 dimensions"):
        spec_from_json(doc)
    # Every table of a document is read before any is checked: the ragged p
    # is reported, not the stop table of the wrong shape checked first.
    doc = spec_to_json(fr_h(1))
    doc["tables"]["s"] = [[1]]
    doc["tables"]["p"][0][3][1] = [0]
    with pytest.raises(SchemaError, match=r"inhomogeneous shape after 2 dimensions. "
                                          r"The detected shape was \(4, 2\)"):
        spec_from_json(doc)


def test_build_protocol_reads_every_table_before_checking_any():
    # A library call reports the ragged p, as a document with the same tables does.
    spec = fr_h(1)
    p = [[list(map(list, block)) for block in spec.p[0]]]
    p[0][3][1] = [0]
    with pytest.raises(ValueError, match=r"inhomogeneous shape after 2 dimensions. "
                                         r"The detected shape was \(4, 2\)"):
        build_protocol(spec.stations, spec.trains, u=spec.u, s=[[1]], a=spec.a, v=spec.v, p=p)


def test_a_null_classification_is_refused():
    doc = spec_to_json(chart_to_protocol(generate_s(3, 2, 4), ("A", "B", "C")))
    doc["tables"]["delta"] = None
    with pytest.raises(DimensionMismatch, match="delta must be S x 3"):
        spec_from_json(doc)


@pytest.mark.parametrize("index, read", [(1, {1}), (1.0, {1}), (True, None), (1.5, None)])
def test_never_aligned_indices_are_read_as_whole_numbers(index, read):
    doc = spec_to_json(fr_h(1))
    doc["tables"]["a"][0][0] = [0, 0]  # section 1, which holds unit 1, never aligns
    doc["trains"][0]["never_aligned"] = [index]
    if read is None:
        with pytest.raises(SchemaError, match="is not a whole number"):
            spec_from_json(doc)
    else:
        never_aligned = spec_from_json(doc).trains[0].never_aligned
        assert never_aligned == read and all(type(m) is int for m in never_aligned)


@pytest.mark.parametrize("index", [True, 1.0, 2.5, 0, 3])
def test_train_types_refuse_never_aligned_indices_other_than_units(index):
    with pytest.raises(DimensionMismatch, match="never_aligned"):
        TrainTypeSpec.uniform("t", M=2, N=1, never_aligned=(index,))


@pytest.mark.parametrize("capacity", [True, math.nan, math.inf, -math.inf, -1, Fraction(-1, 3)])
def test_train_types_refuse_capacities_other_than_finite_nonnegative_numbers(capacity):
    with pytest.raises(DimensionMismatch, match="capacities"):
        TrainTypeSpec("t", M=2, lengths=(1.0, 1.0), capacities=(1.0, capacity), N=1)


def test_train_types_read_capacities_given_as_strings():
    train = TrainTypeSpec("t", M=2, lengths=(1.0, 1.0), capacities=("3/10", 0), N=1)
    assert train.capacities == ("3/10", 0)
    with pytest.raises(DimensionMismatch, match="capacities"):
        TrainTypeSpec("t", M=2, lengths=(1.0, 1.0), capacities=("-3/10", 0), N=1)


def test_train_types_refuse_a_string_of_capacities_and_keep_a_list_as_a_tuple():
    with pytest.raises(DimensionMismatch, match="not the string '12'"):
        TrainTypeSpec("t", M=2, lengths=(1.0, 1.0), capacities="12", N=1)
    capacities = [1.0, "3/10"]
    train = TrainTypeSpec("t", M=2, lengths=(1.0, 1.0), capacities=capacities, N=1)
    capacities[0] = 5.0
    assert train.capacities == (1.0, "3/10")
    assert hash(train) == hash(replace(train))


@pytest.mark.parametrize("capacity", ["x", "1/0", ""])
def test_train_types_refuse_capacity_strings_that_are_no_number(capacity):
    with pytest.raises(DimensionMismatch, match="unit capacities must be numbers"):
        TrainTypeSpec("t", M=2, lengths=(1.0, 1.0), capacities=(1.0, capacity), N=1)


def test_unit_lengths_of_any_real_type_are_written_and_read_back():
    """A float length stays a float, another whole length becomes an int and
    any other real a float, so every spec document serialises."""
    lengths = (1.5, 1, 2.0, Fraction(3), Fraction(3, 2), np.float32(2.0), np.float32(0.5),
               np.float64(2.0), np.int64(2), Fraction(1, 3))
    spec = fr_i()
    train = replace(spec.trains[0], M=len(lengths), lengths=lengths,
                    capacities=(1.0,) * len(lengths), never_aligned=frozenset())
    assert train.lengths == (1.5, 1, 2.0, 3, 1.5, 2, 0.5, 2.0, 2, 1 / 3)
    assert [type(x) for x in train.lengths] == [float, int, float, int, float, int, float,
                                                float, int, float]
    doc = json.loads(json.dumps({"lengths": list(train.lengths)}))
    assert tuple(doc["lengths"]) == train.lengths
    assert [type(x) for x in doc["lengths"]] == [type(x) for x in train.lengths]
    M = spec.trains[0].M
    whole = replace(spec.trains[0], lengths=(Fraction(1), np.float32(1.0)) + (1.0,) * (M - 2))
    spec = replace(spec, trains=(whole,))
    text = json.dumps(spec_to_json(spec))
    assert spec_from_json(json.loads(text)) == spec
    assert spec_to_json(spec_from_json(json.loads(text))) == json.loads(text)


def test_string_unit_capacities_are_written_as_the_numbers_they_read_as():
    """A string capacity is written as its read value, so a document written, read
    back and written again is the first write; the train keeps the string as given."""
    spec = fr_i()
    M = spec.trains[0].M
    mixed = ("0.30", "12", 1.5, Fraction(3, 4), 2, "7/2", 0, "1.25") * M
    for caps, want in ((("0.30",) * M, ["3/10"] * M), (("12",) * M, [12] * M),
                       (mixed[:M], ["3/10", 12, 1.5, "3/4", 2, "7/2", 0, "5/4"] * M)):
        train = replace(spec.trains[0], capacities=caps)
        assert train.capacities == caps
        doc = json.loads(json.dumps(spec_to_json(replace(spec, trains=(train,)))))
        assert doc["trains"][0]["capacities"] == want[:M]
        assert spec_to_json(spec_from_json(doc)) == doc


def test_integer_unit_capacities_of_any_type_are_written_and_read_back():
    """An integer capacity, numpy's too, is kept as an int; a float and a Fraction stay as
    given, so every spec document serialises and reads back as the same spec."""
    spec = fr_i()
    M = spec.trains[0].M
    mixed = (np.int32(0), 3, np.uint8(1), 1.5, Fraction(3, 4), 2.0) * 2
    for caps, C_n in (((np.int64(2),) * M, (6,) * 4), (mixed, (4, Fraction(17, 4)) * 2)):
        train = replace(spec.trains[0], capacities=caps)
        assert train.capacities == caps
        assert [type(c) for c in train.capacities] == [
            int if isinstance(c, np.integer) else type(c) for c in caps]
        written = replace(spec, trains=(train,))
        text = json.dumps(spec_to_json(written))
        assert spec_from_json(json.loads(text)) == written
        assert spec_to_json(spec_from_json(json.loads(text))) == json.loads(text)
        assert section_capacities(spec_from_json(json.loads(text))) == C_n


@pytest.mark.parametrize("ctor", [fr_h, fr_i, ftr])
def test_constructors_produce_consistent_geometry(ctor):
    spec = ctor()
    sizes = spec.section_sizes(0)
    assert sum(sizes) == spec.trains[0].M
    for n in range(1, spec.trains[0].N + 1):
        units = tuple(m + 1 for m, row in enumerate(spec.u[0]) if row[n - 1])
        assert units == tuple(range(units[0], units[0] + len(units)))


def test_fr_i_rejects_wrong_section_count():
    with pytest.raises(BadSectionCount):
        fr_i((3, 3, 3))
    with pytest.raises(BadSectionCount):
        fr_h(0)


@pytest.mark.parametrize(
    "ctor, sizes, error",
    [
        (fr_i, (3.9, 3, 3, 3), DimensionMismatch),
        (fr_i, (3, "3", 3, 3), DimensionMismatch),
        (fr_i, (3, 3, True, 3), DimensionMismatch),
        (fr_i, (3, 3, 3, math.inf), DimensionMismatch),
        (fr_i, 12, DimensionMismatch),
        (fr_i, (3, 3, 3, -3), BadSectionCount),
        (fr_h, 2.5, DimensionMismatch),
        (fr_h, None, DimensionMismatch),
        (fr_h, -1, BadSectionCount),
        (ftr, 1.5, DimensionMismatch),
        (ftr, 0, BadSectionCount),
    ],
)
def test_constructors_read_section_sizes_as_whole_numbers(ctor, sizes, error):
    """As the metering search reads a caller's sizing: nothing is truncated."""
    with pytest.raises(error, match=None if error is BadSectionCount else "whole numbers"):
        ctor(sizes)


def test_constructors_take_whole_floats_as_integers():
    assert fr_i((3.0, 3, 3, np.int64(3))) == fr_i()
    assert fr_h(3.0) == fr_h() and ftr(2.0) == ftr()


def test_fr_i_default_platforms_cover_aligned_sections():
    spec = fr_i((4, 4, 1, 3))
    # aligned length at F = sizes of sections 1..3, at R = 2..4
    assert spec.stations.d == {"F": 9, "R": 8}


def test_derive_parts_fr_h():
    parts = derive_parts(fr_h())
    assert [p.sections for p in parts] == [(1, 1), (2, 3), (4, 4)]
    assert [set(p.labels) for p in parts] == [{"F"}, {"F", "R"}, {"R"}]


def test_derive_parts_counts_unaligned_runs():
    cat = StationTypeCatalog(types=("F",), d={"F": 2})
    train = TrainTypeSpec.uniform("t", M=3, N=3)
    u = np.eye(3, dtype=int)
    a = np.array([[1], [0], [1]])
    spec = build_protocol(
        cat, [train], u=[u], s=np.ones((1, 1), dtype=int),
        a=[a], v=[a], p=[np.zeros((3, 1, 1), dtype=int)],
    )
    parts = derive_parts(spec)
    assert len(parts) == 3
    assert parts[1].labels == frozenset()


def test_line_instance_invariants():
    with pytest.raises(DimensionMismatch):
        make_line(("F", "R"), [[0, -1], [0, 0]])
    with pytest.raises(DimensionMismatch):
        make_line(("F", "R"), [[0, 0], [1, 0]])  # demand below the diagonal
    with pytest.raises(DimensionMismatch):
        LineInstance(
            stations=("a", "b"), platform_lengths=(3, 3), H=1,
            A=((0, 1), (0, 0)), M_min=(2, 0), station_types=("F", "R"),
        )
    with pytest.raises(DimensionMismatch, match="at least one station"):
        LineInstance(stations=(), platform_lengths=(), H=1, A=())


@pytest.mark.parametrize("bad", [True, "x", None, math.nan, [1]],
                         ids=["true", "x", "None", "NaN", "list"])
@pytest.mark.parametrize("field", ["A", "H", "M_min"])
def test_line_numbers_that_cannot_be_read_raise_dimension_mismatch(field, bad):
    with pytest.raises((TypeError, ValueError)) as plain:
        _as_fraction(bad)
    fields = {"A": [[0, 1], [0, 0]], "H": 1, "M_min": [0, 0]}
    if field == "H":
        fields["H"] = bad
    else:
        fields[field][-1] = bad if field == "M_min" else [0, bad]
    with pytest.raises(DimensionMismatch) as typed:
        LineInstance(stations=("a", "b"), platform_lengths=(9, 9), **fields)
    assert str(typed.value) == str(plain.value)


@pytest.mark.parametrize(
    "field, text",
    [("A", ["01", "00"]), ("A", "0100"), ("M_min", "00"), ("stations", "ab"),
     ("station_types", "FR")],
    ids=["A-rows", "A", "M_min", "stations", "station_types"],
)
def test_a_string_is_no_list_of_its_characters(field, text):
    fields = {"stations": ("a", "b"), "platform_lengths": (9, 9), "H": 1,
              "A": ((0, 1), (0, 0)), "M_min": (0, 0), "station_types": ("F", "R")}
    doc = line_to_json(LineInstance(**fields))
    with pytest.raises(DimensionMismatch, match="not the string"):
        LineInstance(**{**fields, field: text})
    doc[field] = text
    with pytest.raises(SchemaError, match="not the string"):
        line_from_json(doc)


@pytest.mark.parametrize(
    "path, text",
    [(("stations", "types"), "FR"), (("trains", 0, "capacities"), "1111"),
     (("trains", 0, "lengths"), "1111"), (("eol_rule", "first_types"), "R"),
     (("eol_rule", "last_types"), "F"), (("rotation",), "12")],
    ids=["types", "capacities", "lengths", "first_types", "last_types", "rotation"],
)
def test_a_spec_or_chart_document_string_is_no_list_of_its_characters(path, text):
    if path == ("rotation",):
        chart = generate_s(3, 2, 2)
        doc = chart_to_json(compose_skip_stop(chart, [("1", "ABC"), ("2", "ACB")]))
        read = chart_from_json
    else:
        doc, read = spec_to_json(fr_h(1)), spec_from_json
    read(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = text
    with pytest.raises(SchemaError, match="not the string"):
        read(doc)


def test_numpy_integers_are_written_as_json_numbers():
    i = np.int64
    u, a, v, p, stops = train_tables((1, 2, 1), ((1, 0), (1, 1), (0, 0)))
    train = TrainTypeSpec("xlt", M=i(4), lengths=(1.0,) * 4, capacities=(1.0,) * 4, N=i(3),
                          never_aligned=frozenset({i(4)}))
    spec = build_protocol(StationTypeCatalog(("F", "R"), {"F": i(3), "R": np.int8(2)}), [train],
                          u=[u], s=[stops], a=[a], v=[v], p=[p])
    back = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    assert back.trains == spec.trains and back.a == spec.a and back.stations == spec.stations
    assert {type(n) for n in (train.M, train.N, *train.never_aligned,
                              *spec.stations.d.values())} == {int}
    line = make_line(("F", "R"), [[0, 1], [0, 0]], platform_lengths=(i(9), i(4)))
    assert line_from_json(json.loads(json.dumps(line_to_json(line)))) == line
    assert {type(n) for n in line.platform_lengths} == {int}


@pytest.mark.parametrize("M, N", [(4, 2.5), (4.0, 2), (True, 1), (2, True)])
def test_train_types_refuse_counts_other_than_whole_numbers(M, N):
    with pytest.raises(DimensionMismatch, match="whole numbers"):
        TrainTypeSpec("t", M=M, lengths=(1.0,) * 4, capacities=(1.0,) * 4, N=N)


def test_line_demand_rate_and_classification():
    line = make_line(("F", "R"), [[0, Fraction(5, 2)], [0, 0]])
    assert line.demand_rate(0) == Fraction(5, 2)
    assert fr_i().stations.indices(line.station_types) == (0, 1)


def random_demand(rng, S):
    return [[Fraction(rng.randint(1, 6), rng.randint(1, 3)) if sp > z and rng.random() < 0.5 else 0
             for sp in range(S)] for z in range(S)]


def test_line_flows_and_row_sums_follow_a():
    """flows lists A's positive entries in (s, s') order, and demand_rate is each row's sum,
    also on lines rebuilt by dataclasses.replace as the metering LP rebuilds them."""
    rng = random.Random(f"{seed_from_env()}/line-flows")
    for S in (1, 2, 3, 7, 24, 80):
        line = make_line(["F"] * S, random_demand(rng, S), H=Fraction(rng.randint(1, 3), 2))
        relabelled = replace(line, station_types=tuple(rng.choice("FR") for _ in range(S)))
        for candidate in (line, relabelled, replace(line, A=random_demand(rng, S))):
            A = candidate.A
            assert candidate.flows == tuple(
                (z, sp, A[z][sp]) for z in range(S) for sp in range(S) if A[z][sp] > 0
            )
            for z in range(S):
                assert candidate.demand_rate(z) == sum(A[z], Fraction(0))
        assert relabelled.flows == line.flows


@pytest.mark.parametrize(
    "lengths", [(9, 0), (9, -1), (9.7, 9), (9, math.nan), (9, "9"), (9, True)])
def test_line_rejects_platform_lengths_that_are_not_whole_numbers_from_1(lengths):
    with pytest.raises(DimensionMismatch, match="platform lengths"):
        make_line(("F", "R"), [[0, 1], [0, 0]], platform_lengths=lengths)


@pytest.mark.parametrize("lengths", [[9.7, 9], [9, math.inf], [9, math.nan], [9, "9"], [True, 9]])
def test_line_document_platform_lengths_are_not_truncated(lengths):
    doc = line_to_json(make_line(("F", "R"), [[0, 1], [0, 0]]))
    doc["platform_lengths"] = lengths
    with pytest.raises(SchemaError):
        line_from_json(doc)
    doc["platform_lengths"] = [9.0, 4]
    assert line_from_json(doc).platform_lengths == (9, 4)


# Every entry point that turns a line's station labels into type indices.
LABELLED_LINE_CALLS = {
    "build_assignment": lambda line: build_assignment(fr_i(), line),
    "split_balanced": lambda line: build_assignment_split(fr_h(), line, "balanced"),
    "split_end_preference": lambda line: build_assignment_split(fr_h(), line, "end_preference"),
    "greedy_presentation_refine": lambda line: greedy_presentation_refine(fr_h(), line),
    "derive_gate_signs": lambda line: derive_gate_signs(fr_i(), line),
}


@pytest.mark.parametrize(
    "call",
    [
        *LABELLED_LINE_CALLS.values(),
        lambda line: chart_to_protocol(generate_s(2, 2, 4), ("A", "Z")),
        lambda line: solve_outer(
            MeteringProblem(
                line=line, M=4, unit_capacity=1,
                fixed_station_types=line.station_types,
            )
        ),
    ],
    ids=[*LABELLED_LINE_CALLS, "chart_to_protocol", "solve_outer"],
)
def test_unknown_station_label_raises_typed_error(call):
    line = make_line(("R", "Z"), [[0, 1], [0, 0]])
    with pytest.raises(UnknownStationType, match="'Z'"):
        call(line)


@pytest.mark.parametrize(
    "call",
    [*LABELLED_LINE_CALLS.values(), lambda line: check_eol(fr_i(), line)],
    ids=[*LABELLED_LINE_CALLS, "check_eol"],
)
def test_unclassified_line_raises_dimension_mismatch(call):
    line = replace(make_line(("R", "F"), [[0, 1], [0, 0]]), station_types=None)
    with pytest.raises(DimensionMismatch):
        call(line)


@pytest.mark.parametrize("ctor", [fr_h, fr_i, ftr])
def test_spec_json_round_trip(ctor):
    spec = ctor()
    doc = json.loads(json.dumps(spec_to_json(spec)))
    back = spec_from_json(doc)
    assert back.stations == spec.stations
    assert back.trains == spec.trains
    for name in ("u", "s", "a", "v", "p"):
        assert getattr(back, name) == getattr(spec, name)
    assert back.eol_rule == spec.eol_rule


def test_line_json_round_trip():
    line = make_line(("F", "R"), [[0, Fraction(7, 3)], [0, 0]], H=Fraction(1, 10))
    back = line_from_json(json.loads(json.dumps(line_to_json(line))))
    assert back == line


def test_schema_rejects_wrong_kind_and_version():
    with pytest.raises(SchemaError):
        spec_from_json({"kind": "line", "schema_version": 1})
    doc = spec_to_json(fr_h())
    doc["schema_version"] = 99
    with pytest.raises(SchemaError):
        spec_from_json(doc)


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=4, max_size=4))
def test_fr_i_sizes_round_trip_through_tables(sizes):
    spec = fr_i(sizes)
    assert list(spec.section_sizes(0)) == sizes


@pytest.mark.parametrize("H", [0, -1, Fraction(-1, 2), -0.5])
def test_a_headway_that_is_not_positive_is_refused(H):
    with pytest.raises(DimensionMismatch, match="^headway must be positive$"):
        LineInstance(stations=("a", "b"), platform_lengths=(9, 9), H=H, A=((0, 1), (0, 0)))


def test_a_protocol_needs_a_train_type():
    stations = StationTypeCatalog(types=("F", "R"), d={"F": 6, "R": 6})
    with pytest.raises(DimensionMismatch, match="^at least one train type is required$"):
        build_protocol(stations, [], u=[], s=[], a=[], v=[], p=[])
