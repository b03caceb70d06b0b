"""Every form of one line reads the same.

``LineInstance`` reads each distinct number of A and ``M_min`` once and
sums A's rows as integers over one scale.  These tests hold it against
the per-entry reading: ``_as_fraction`` on each entry, a ``Fraction``
sum of each row and the demanded flows in (s, s') order.  Seeded lines of 2
to 80 stations give their entries as ints, whole floats, numpy ints,
fractional floats, "p/q" strings and ``Fraction``s, each form on its own
and mixed.  Their fields, their errors and the bytes ``xlt simulate``
prints must not depend on the form.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from xltops import LineInstance, fr_h, fr_i, main, spec_to_json
from xltops.core_model import _as_fraction
from xltops.errors import DimensionMismatch

from conftest import seed_from_env

SIZES = (2, 3, 5, 9, 24, 80)
H = Fraction(1, 2)

# How a caller may write a rational.  The first three write whole numbers only.
FORMS = {
    "int": int,
    "whole-float": float,
    "numpy-int": lambda x: np.int64(int(x)),
    "fractional-float": float,
    "string": lambda x: f"{x.numerator}/{x.denominator}",
    "fraction": Fraction,
}
WHOLE_ONLY = ("int", "whole-float", "numpy-int")
JSON_FORMS = ("int", "whole-float", "fractional-float", "string")


def per_entry(A, M_min):
    """A, flows, row sums and M_min as read entry by entry."""
    A = tuple(tuple(_as_fraction(x) for x in row) for row in A)
    flows = tuple((z, sp, x) for z, row in enumerate(A) for sp, x in enumerate(row) if x)
    M_min = tuple(_as_fraction(x) for x in M_min) or (Fraction(0),) * len(A)
    return A, flows, tuple(sum(row, Fraction(0)) for row in A), M_min


def per_entry_error(A) -> str | None:
    """The message of the first demanded flow at fault, read entry by entry."""
    for z, row in enumerate(A):
        for sp, x in enumerate(map(_as_fraction, row)):
            if x and x < 0:
                return "demand must be nonnegative"
            if x and sp <= z:
                return "demand must vanish for s' <= s"
    return None


def read(line: LineInstance):
    return line.A, line.flows, tuple(map(line.demand_rate, range(line.S))), line.M_min


def base_line(rng: random.Random, S: int, whole: bool):
    """Seeded demand above the diagonal and floors within each row's demand, as Fractions."""
    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        if whole:
            return Fraction(rng.randint(1, 40))
        return Fraction(rng.randint(1, 40), rng.choice((1, 2, 3, 7, 10)))

    A = [[entry() if sp > z else Fraction(0) for sp in range(S)] for z in range(S)]
    M_min = []
    for row in A:
        share = Fraction(rng.randint(0, 4), 4)  # 0 and the whole demand included
        m = sum(row, Fraction(0)) * share
        M_min.append(Fraction(int(m)) if whole else m)
    return A, M_min


def forms(rng: random.Random, A, M_min, whole: bool):
    """(name, A, M_min) of each form on its own and of two mixes of forms."""
    names = [f for f in FORMS if (f in WHOLE_ONLY) == whole or f in ("string", "fraction")]
    for name in names:
        write = FORMS[name]
        yield name, [[write(x) for x in row] for row in A], [write(x) for x in M_min]
    for name, pool in (("mixed-json", JSON_FORMS), ("mixed", tuple(FORMS))):
        def write(x):
            usable = [f for f in pool if x.denominator == 1 or f not in WHOLE_ONLY]
            return FORMS[rng.choice(usable)](x)

        yield name, [[write(x) for x in row] for row in A], [write(x) for x in M_min]


def line_doc(A, M_min, types) -> dict:
    S = len(A)
    return {"schema_version": 1, "kind": "line", "stations": [f"s{z + 1}" for z in range(S)],
            "platform_lengths": [9] * S, "H": str(H), "A": A, "M_min": M_min,
            "station_types": types}


def simulate_stdout(tmp_path, line: dict) -> list[bytes]:
    """``xlt simulate`` stdout under fr_i and under fr_h with both splits."""
    paths = {}
    for name, doc in (("fr_i", spec_to_json(fr_i())), ("fr_h", spec_to_json(fr_h(3))),
                      ("line", line)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for spec, extra in (("fr_i", ()), ("fr_h", ("--split", "balanced")),
                        ("fr_h", ("--split", "end_preference"))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["simulate", "--spec", str(paths[spec]), "--line", str(paths["line"]),
                         *extra])
        assert code == 0
        outs.append(out.getvalue().encode())
    return outs


@pytest.mark.parametrize("S", SIZES)
def test_every_form_of_a_line_reads_as_each_entry_does(S):
    rng = random.Random(f"{seed_from_env()}/line-forms/{S}")
    for whole in (True, False):
        A0, M0 = base_line(rng, S, whole)
        expected = per_entry(A0, M0)
        for name, A, M_min in forms(rng, A0, M0, whole):
            assert per_entry(A, M_min) == expected, name
            line = LineInstance(tuple(f"s{z + 1}" for z in range(S)), (9,) * S, H, A, M_min)
            assert read(line) == expected, name
            assert {type(x) for row in line.A for x in row} | set(map(type, line.M_min)) == {
                Fraction}, name
        line = LineInstance(tuple(f"s{z + 1}" for z in range(S)), (9,) * S, H, A0)
        assert read(line) == per_entry(A0, ())


@pytest.mark.parametrize("S", SIZES)
def test_every_json_form_of_a_line_simulates_to_the_same_bytes(S, tmp_path):
    rng = random.Random(f"{seed_from_env()}/line-stdout/{S}")
    types = ["R"] + [rng.choice("FR") for _ in range(S - 2)] + ["F"]
    for whole in (True, False):
        A0, M0 = base_line(rng, S, whole)
        write = FORMS["string"]
        expected = simulate_stdout(
            tmp_path, line_doc([[write(x) for x in row] for row in A0], list(map(write, M0)),
                               types))
        for name, A, M_min in forms(rng, A0, M0, whole):
            if name in JSON_FORMS or name == "mixed-json":
                assert simulate_stdout(tmp_path, line_doc(A, M_min, types)) == expected, name


ERROR_CASES = {
    "negative-below-diagonal": ([[0, 0, 0], [-1, 0, 0], [0, 0, 0]], "nonnegative"),
    "below-diagonal-before-negative": ([[0, 0, 0], [2, 0, -1], [0, 0, 0]], "vanish"),
    "negative-before-below-diagonal": ([[0, -1, 0], [2, 0, 0], [0, 0, 0]], "nonnegative"),
    "diagonal": ([[0, 0, 0], [0, 3, 0], [0, 0, 0]], "vanish"),
    "last-row": ([[0, 1, 1], [0, 0, 1], [0, 0, -2]], "nonnegative"),
}


@pytest.mark.parametrize("A, word", ERROR_CASES.values(), ids=ERROR_CASES)
@pytest.mark.parametrize("form", FORMS)
def test_a_demanded_flow_at_fault_is_reported_as_each_entry_reads_it(A, word, form):
    A = [[FORMS[form](Fraction(x)) for x in row] for row in A]
    message = per_entry_error(A)
    assert word in message
    with pytest.raises(DimensionMismatch) as exc:
        LineInstance(("a", "b", "c"), (9, 9, 9), 1, A)
    assert str(exc.value) == message


def test_random_faults_are_reported_as_each_entry_reads_them():
    rng = random.Random(f"{seed_from_env()}/line-faults")
    for _ in range(300):
        S = rng.randint(2, 12)
        A = [[rng.choice((0, 0, 0, 1, 2, Fraction(1, 3))) if sp > z else 0 for sp in range(S)]
             for z in range(S)]
        for _ in range(rng.randint(1, 3)):
            z, sp = rng.randrange(S), rng.randrange(S)
            A[z][sp] = rng.choice((-1, Fraction(-2, 3), 1, 5, 0))
        A = [[FORMS[rng.choice(("int", "string", "fraction")[x.denominator > 1:])](x)
              for x in map(Fraction, row)] for row in A]
        message = per_entry_error(A)
        if message is None:
            line = LineInstance(tuple(map(str, range(S))), (9,) * S, 1, A)
            assert read(line) == per_entry(A, ())
        else:
            with pytest.raises(DimensionMismatch) as exc:
                LineInstance(tuple(map(str, range(S))), (9,) * S, 1, A)
            assert str(exc.value) == message
