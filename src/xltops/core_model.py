"""Domain types for extra-long-train (XLT) operating protocols.

A protocol is a set of seven binary decision tables over station types,
train types, units and sections:

  delta   - station classification (station x type), one type per station
  epsilon - train classification (train x train type), one type per train
  u       - section definition (unit x section), consecutive units
  s       - stop/skip (train type x station type)
  a       - alignment (section x station type)
  v       - disembarkation / door opening (section x station type)
  p       - presentation (section x origin type x destination type)

All tables are stored as tuples of tuples of Python ints 0 and 1, one
tuple per row.  ``build_protocol`` reads every table, each on its own
through the one level-by-level walk ``_read_table``, before it checks
any, for library calls and documents alike; then it enforces the
structural invariants (shapes, row sums, and E1: every section is a
consecutive run of units).
``feasibility`` checks the behavioural constraints E2-E6.
``train_tables`` lays out the tables of one train of consecutive
sections, for the built-in constructors and for
``s_family.chart_to_protocol``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadSectionCount,
    DimensionMismatch,
    NeverAlignedViolation,
    NonConsecutiveSection,
    RowSumViolation,
    SchemaError,
    UnknownStationType,
)

SCHEMA_VERSION = 1

# What reading a malformed document can raise (ArithmeticError: overflow, division by zero);
# each reader turns it into SchemaError.
DOCUMENT_ERRORS = (ArithmeticError, AttributeError, KeyError, TypeError, ValueError)


Table = tuple  # nested tuples of ints 0 and 1, one tuple per row

_BITS = {0, 1}
_ROWS = {list, tuple}


def _integer(x) -> bool:
    """Whether x is an integer other than a boolean (numpy integers count)."""
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _real(x) -> bool:
    """Whether x is a real number other than a boolean."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _bit(x) -> int | None:
    """An entry as 0 or 1: an integer other than a boolean, or a whole float; else None."""
    if not (_integer(x) or isinstance(x, float)) or x not in (0, 1):
        return None
    return int(x)


def _ragged(shape: list[int]) -> ValueError:
    return ValueError(
        "setting an array element with a sequence. The requested array has an "
        f"inhomogeneous shape after {len(shape)} dimensions. The detected shape "
        f"was {tuple(shape)} + inhomogeneous part."
    )


def _read_table(x, shape: tuple | None) -> tuple[tuple[int, ...], Table | None]:
    """A table's shape, and its nested tuples if it has ``shape`` and only 0/1 entries, else None.

    The table is walked once, a level at a time, as an array constructor
    reads it: lists and tuples are dimensions, an array-like is read
    through its ``tolist()`` and anything else is an entry (``_bit``
    says which entries are 0 or 1).  A level of unequal lengths, or of
    rows mixed with entries, raises ValueError.  ``None`` in ``shape``
    stands for any length; with ``shape`` None the shape is only found.

    Rows whose entries are all ints 0 and 1 are taken as they are (a
    tuple row stays itself); otherwise every entry goes through ``_bit``.
    At a level that is not all lists, an object met more than once (as a
    presentation table holds the alignment rows) is looked into once.
    """
    found: list[int] = []
    level, rows = [x], None
    while level:
        types = set(map(type, level))
        if not _ROWS.issuperset(types):
            level = [e.tolist() if hasattr(e, "tolist") else e for e in level]
            nested = [isinstance(e, (list, tuple)) for e in level]
            if not any(nested):
                break
            if not all(nested):
                raise _ragged(found)
        widths = set(map(len, level))
        if len(widths) > 1:
            raise _ragged(found)
        found.append(widths.pop())
        looked = level if types == {list} else dict(zip(map(id, level), level)).values()
        if ({int}.issuperset(map(type, chain.from_iterable(looked)))
                and _BITS.issuperset(chain.from_iterable(looked))):
            rows, level = level, []
        else:
            level = list(chain.from_iterable(level))
    found = tuple(found)
    if shape is None or len(found) != len(shape) or any(
        n not in (None, g) for n, g in zip(shape, found)
    ):
        return found, None
    if rows is None:
        bits = list(map(_bit, level))
        if None in bits:
            return found, None
        rows = zip(*[iter(bits)] * found[-1])
    table = list(map(tuple, rows))
    for n in reversed(found[:-1]):
        table = list(zip(*[iter(table)] * n))
    return found, table[0]


@dataclass(frozen=True)
class StationTypeCatalog:
    """The station-type universe and the shortest platform length per type."""

    types: tuple[str, ...]
    d: Mapping[str, int]

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "types", _listed(self.types))
        except TypeError as exc:
            raise DimensionMismatch(str(exc)) from None
        if len(set(self.types)) != len(self.types):
            raise DimensionMismatch("station-type labels must be unique")
        if set(self.d) != set(self.types):
            raise DimensionMismatch("platform lengths must cover exactly the declared types")
        for i, length in self.d.items():
            if not _integer(length) or length < 1:
                raise DimensionMismatch(
                    f"platform length for type {i!r} must be a whole number >= 1")
        # Stored as ints, so that a document writes them as numbers whatever integers came in.
        object.__setattr__(self, "d", {i: int(length) for i, length in self.d.items()})

    @property
    def C(self) -> int:
        return len(self.types)

    def index(self, label: str) -> int:
        if label not in self.types:
            raise UnknownStationType(f"station type {label!r} is not one of {list(self.types)}")
        return self.types.index(label)

    def indices(self, labels: Iterable[str]) -> tuple[int, ...]:
        """Type index of each label: a station classification as a row of indices."""
        return tuple(self.index(label) for label in labels)

    def lengths(self) -> tuple[int, ...]:
        return tuple(self.d[i] for i in self.types)


@dataclass(frozen=True)
class TrainTypeSpec:
    """One train type: unit count, per-unit geometry and section count.

    ``never_aligned`` holds 1-based unit indices that are permanently
    excluded from alignment (doorless end units appended for extra
    holding capacity).  Capacities are read once, into ``_units``: the lcm
    k of their denominators and k times each, as integers.
    """

    label: str
    M: int
    lengths: tuple[float, ...]
    capacities: tuple[float, ...]
    N: int
    never_aligned: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not (_integer(self.M) and _integer(self.N)):
            raise DimensionMismatch("unit and section counts must be whole numbers")
        if self.M < 1:
            raise DimensionMismatch("a train needs at least one unit")
        if not (1 <= self.N <= self.M):
            raise DimensionMismatch("section count must satisfy 1 <= N <= M")
        try:
            object.__setattr__(self, "capacities", _listed(self.capacities))
        except TypeError as exc:
            raise DimensionMismatch(str(exc)) from None
        if len(self.lengths) != self.M or len(self.capacities) != self.M:
            raise DimensionMismatch("per-unit lengths/capacities must have M entries")
        if any(not (_real(l) and math.isfinite(l) and l > 0) for l in self.lengths):
            raise DimensionMismatch("unit lengths must be positive and finite numbers")
        try:  # each distinct capacity once; kept below as integers over one scale
            capacities = _read_numbers(self.capacities, {})
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise DimensionMismatch(f"unit capacities must be numbers: {exc}") from None
        if min(capacities, default=0) < 0:
            raise DimensionMismatch("unit capacities must be nonnegative")
        if any(not (_integer(m) and 1 <= m <= self.M) for m in self.never_aligned):
            raise DimensionMismatch("never_aligned indices must be unit indices 1..M")
        # Stored as ints and floats, so that a document writes them as numbers whatever came in:
        # a float length stays a float, another whole length becomes an int, the rest floats;
        # an integer capacity becomes an int, and any other capacity stays as given.
        object.__setattr__(self, "lengths", tuple(
            float(l) if isinstance(l, float) or l != int(l) else int(l) for l in self.lengths))
        object.__setattr__(self, "capacities",
                           tuple(int(c) if _integer(c) else c for c in self.capacities))
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "never_aligned", frozenset(map(int, self.never_aligned)))
        object.__setattr__(self, "_units", over_lcm(capacities))

    @classmethod
    def uniform(
        cls, label: str, M: int, N: int, never_aligned: Iterable[int] = ()
    ) -> "TrainTypeSpec":
        """M units of length 1 and capacity 1 in N sections."""
        return cls(label=label, M=M, lengths=(1.0,) * M, capacities=(1.0,) * M, N=N,
                   never_aligned=frozenset(never_aligned))


@dataclass(frozen=True)
class TrainPart:
    """A maximal run of sections sharing one destination-label set."""

    index: int
    sections: tuple[int, int]  # inclusive 1-based span (first, last)
    labels: frozenset[str]


@dataclass(frozen=True)
class EolRule:
    """End-of-line admissibility: allowed types for the first/last station."""

    name: str
    first_types: frozenset[str]
    last_types: frozenset[str]


@dataclass(frozen=True)
class ProtocolSpec:
    """A complete protocol: catalogs plus the seven decision tables.

    Every table is a tuple of rows, each row a tuple of ints 0 and 1;
    ``p[k][n][i]`` is the row of destination types that section n
    presents at origin type i.  ``u``, ``a``, ``v`` and ``p`` hold one
    table per train type because train types may differ in unit and
    section counts.  ``delta``/``epsilon`` are optional: constructors
    emit line-independent protocols and the station/train
    classifications are attached later.
    """

    stations: StationTypeCatalog
    trains: tuple[TrainTypeSpec, ...]
    u: tuple[Table, ...]  # per k: M_k rows of N_k
    s: Table  # K rows of C
    a: tuple[Table, ...]  # per k: N_k rows of C
    v: tuple[Table, ...]  # per k: N_k rows of C
    p: tuple[Table, ...]  # per k: N_k tables of C rows of C
    delta: Table | None = None  # S rows of C
    epsilon: Table | None = None  # T rows of K
    eol_rule: EolRule | None = None

    @property
    def K(self) -> int:
        return len(self.trains)

    @property
    def C(self) -> int:
        return self.stations.C

    def section_sizes(self, k: int = 0) -> tuple[int, ...]:
        """Unit counts per section of train type k."""
        return tuple(map(sum, zip(*self.u[k])))

    def section_units(self, k: int, n: int) -> tuple[int, ...]:
        """1-based unit indices of section n (1-based) of train type k."""
        return tuple(m + 1 for m, row in enumerate(self.u[k]) if row[n - 1])


def build_protocol(
    stations: StationTypeCatalog,
    trains: Sequence[TrainTypeSpec],
    *,
    u: Sequence,
    s,
    a: Sequence,
    v: Sequence,
    p: Sequence,
    delta=None,
    epsilon=None,
    eol_rule: EolRule | None = None,
) -> ProtocolSpec:
    """Validate the tables and assemble an immutable ProtocolSpec.

    A table may be nested lists or tuples, or an array-like with
    ``tolist()``; every entry must be 0 or 1, as an integer other than a
    boolean or as a whole float.  ``u``, ``a``, ``v`` and ``p`` hold one
    table per train type.  Every table is read, in the order u, s, a, v,
    p, delta, epsilon, before any is checked, so a ragged table (which
    raises ValueError) is reported before a table of the wrong shape.
    Then raises DimensionMismatch, RowSumViolation,
    NonConsecutiveSection or NeverAlignedViolation when a structural
    invariant fails.
    """
    trains = tuple(trains)
    K, C = len(trains), stations.C

    def read(tables, shapes: list[tuple]) -> list:
        # A table beyond the K train types is read for its shape only.
        return [_read_table(x, shape) for x, shape in zip(tables, chain(shapes, repeat(None)))]

    u = read(u, [(t.M, t.N) for t in trains])
    s_shape, s_t = _read_table(s, (K, C))
    a = read(a, [(t.N, C) for t in trains])
    v = read(v, [(t.N, C) for t in trains])
    p = read(p, [(t.N, C, C) for t in trains])
    delta = None if delta is None else _read_table(delta, (None, C))
    epsilon = None if epsilon is None else _read_table(epsilon, (None, K))

    if K == 0:
        raise DimensionMismatch("at least one train type is required")
    if s_shape != (K, C):
        raise DimensionMismatch(f"stop table must be {K}x{C}, got {s_shape}")
    if not (len(u) == len(a) == len(v) == len(p) == K):
        raise DimensionMismatch("u, a, v, p need one table per train type")
    for k, train in enumerate(trains):
        M, N = train.M, train.N
        (u_shape, uk), (a_shape, ak), (v_shape, vk), (p_shape, pk) = u[k], a[k], v[k], p[k]
        if u_shape != (M, N):
            raise DimensionMismatch(f"u[{k}] must be {M}x{N}, got {u_shape}")
        if a_shape != (N, C) or v_shape != (N, C):
            raise DimensionMismatch(f"a[{k}]/v[{k}] must be {N}x{C}")
        if p_shape != (N, C, C):
            raise DimensionMismatch(f"p[{k}] must be {N}x{C}x{C}")
        for name, table in (("u", uk), ("a", ak), ("v", vk), ("p", pk)):
            if table is None:
                raise DimensionMismatch(f"{name}[{k}] must contain only 0/1 entries")
        if any(sum(row) != 1 for row in uk):
            raise NonConsecutiveSection(f"u[{k}]: every unit must belong to exactly one section")
        for n, column in enumerate(zip(*uk)):
            members = [m for m, x in enumerate(column) if x]
            if not members:
                raise NonConsecutiveSection(f"u[{k}]: section {n + 1} is empty")
            if members[-1] - members[0] + 1 != len(members):
                raise NonConsecutiveSection(
                    f"u[{k}]: section {n + 1} units are not consecutive"
                )
        # Doorless units force their whole section out of alignment.
        for m in sorted(train.never_aligned):
            n = uk[m - 1].index(1)
            if 1 in ak[n]:
                raise NeverAlignedViolation(
                    f"u[{k}]: section {n + 1} contains doorless unit {m} but is aligned"
                )

    delta = _classification(delta, C, "delta", "S", "station")
    epsilon = _classification(epsilon, K, "epsilon", "T", "train")
    if s_t is None:
        raise DimensionMismatch("stop table must contain only 0/1 entries")

    return ProtocolSpec(
        stations=stations,
        trains=trains,
        u=tuple(uk for _, uk in u),
        s=s_t,
        a=tuple(ak for _, ak in a),
        v=tuple(vk for _, vk in v),
        p=tuple(pk for _, pk in p),
        delta=delta,
        epsilon=epsilon,
        eol_rule=eol_rule,
    )


def _classification(read, width: int, name: str, rows: str, unit: str) -> Table | None:
    """A station (delta) or train (epsilon) classification, as read: 0/1, one type per row."""
    if read is None:
        return None
    shape, table = read
    if len(shape) != 2 or shape[1] != width:
        raise DimensionMismatch(f"{name} must be {rows} x {width}")
    if table is None:
        raise DimensionMismatch(f"{name} must contain only 0/1 entries")
    if any(sum(row) != 1 for row in table):
        raise RowSumViolation(f"each {unit} must be of exactly one type")
    return table


def one_hot(indices: Iterable[int], width: int) -> Table:
    """A classification table: row r has its 1 in column ``indices[r]``."""
    rows = [(0,) * i + (1,) + (0,) * (width - 1 - i) for i in range(width)]
    return tuple(rows[i] for i in indices)


def derive_parts(spec: ProtocolSpec) -> list[TrainPart]:
    """Partition the first train type's sections into maximal runs of equal labels.

    A section's destination-label set is derived from its alignment row.
    Runs with an empty label set (sections never aligned) count as parts
    too, so the parts always cover every section.
    """
    types = spec.stations.types
    label_sets = [frozenset(types[i] for i, x in enumerate(row) if x) for row in spec.a[0]]
    parts: list[TrainPart] = []
    start = 0
    for n in range(1, len(label_sets) + 1):
        if n == len(label_sets) or label_sets[n] != label_sets[start]:
            parts.append(
                TrainPart(index=len(parts) + 1, sections=(start + 1, n), labels=label_sets[start])
            )
            start = n
    return parts


# ---------------------------------------------------------------------------
# Built-in protocol constructors
# ---------------------------------------------------------------------------


def _full_presentation(a: Table) -> Table:
    """p_nij = a_ni * a_nj: where section n aligns it presents its alignment row, else nothing.

    The rows are shared: each is ``a[n]`` itself or one tuple of zeros.
    """
    zero = (0,) * len(a[0]) if a else ()
    return tuple(tuple(row if x else zero for x in row) for row in a)


def train_tables(sizes: Sequence[int], a, p=None) -> tuple[Table, ...]:
    """u, a, v, p and the stop row of one train of consecutive sections.

    Section n is a run of ``sizes[n]`` units; doors open wherever a
    section aligns (v = a), presentation is full unless ``p`` is given,
    and the train stops at every type where some section aligns.
    """
    a = tuple(map(tuple, a))
    rows = one_hot(range(len(sizes)), len(sizes))
    u = tuple(row for row, size in zip(rows, sizes) for _ in range(size))
    p = _full_presentation(a) if p is None else p
    return u, a, a, p, tuple(int(1 in column) for column in zip(*a))


# Sections 1-3 align at F-stations, sections 2-4 at R-stations.
_FR_ALIGNMENT = ((1, 0), (1, 1), (1, 1), (0, 1))
_FR_RULE = EolRule(name="fr", first_types=frozenset({"R"}), last_types=frozenset({"F"}))


def _four_sections(types, sizes, a, p=None) -> ProtocolSpec:
    """Four consecutive sections of whole positive sizes, the F/R end-of-line rule, and
    platforms spanning aligned sections."""
    sizes = _whole_sizes(sizes)
    if len(sizes) != 4 or min(sizes) < 1:
        raise BadSectionCount(f"need 4 positive section sizes, not {sizes}")
    train = TrainTypeSpec.uniform("xlt", M=sum(sizes), N=4)
    u, a, v, p, stops = train_tables(sizes, a, p)
    d = {t: sum(size for size, row in zip(sizes, a) if row[i]) for i, t in enumerate(types)}
    return build_protocol(
        StationTypeCatalog(types=types, d=d), [train],
        u=[u], s=[stops], a=[a], v=[v], p=[p], eol_rule=_FR_RULE,
    )


def fr_h(section_size: int = 3) -> ProtocolSpec:
    """Static-homogeneous F/R protocol: four equal sections, two types.

    The front three sections align at F-stations, the rear three at
    R-stations; every aligned section opens and presents fully.
    """
    return _four_sections(("F", "R"), (section_size,) * 4, _FR_ALIGNMENT)


def fr_i(section_sizes: Sequence[int] = (3, 3, 3, 3)) -> ProtocolSpec:
    """Dynamic-inhomogeneous F/R protocol with partial presentation.

    Section 1 carries F-to-F, section 2 F-to-R (presented only at
    F-stations), section 3 R-to-F (presented only at R-stations) and
    section 4 R-to-R, giving a 1:1 pair-to-section correspondence.
    """
    F, R = one_hot((0, 1), 2)  # a row of p: presents F, presents R
    zero = (0, 0)
    # p[n][origin type]: section n presents one (origin, destination) pair.
    p = ((F, zero), (R, zero), (zero, F), (zero, R))
    return _four_sections(("F", "R"), section_sizes, _FR_ALIGNMENT, p)


def ftr(section_size: int = 2) -> ProtocolSpec:
    """Static F/T/R protocol: platforms span two of the four sections."""
    a = ((1, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 1))
    return _four_sections(("F", "T", "R"), (section_size,) * 4, a)


# ---------------------------------------------------------------------------
# Line instances
# ---------------------------------------------------------------------------


def _as_fraction(x) -> Fraction:
    """A number as read from a document or the library: floats to within 1e-9, no booleans."""
    if type(x) is Fraction:  # as it is: a number read once costs nothing to read again
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**9)
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not a number")
    return Fraction(x)


def _number(x, what: str) -> Fraction:
    """A number a caller passes, through ``_as_fraction``; DimensionMismatch if it is none."""
    try:
        return _as_fraction(x)
    except (ArithmeticError, TypeError, ValueError):
        raise DimensionMismatch(f"{what}, not {x!r}") from None


def over_lcm(xs: Iterable[Fraction]) -> tuple[int, tuple[int, ...]]:
    """The lcm k of the denominators of rationals (integers count as over 1), and each times k."""
    xs = tuple(xs)
    k = math.lcm(*{x.denominator for x in xs})
    return k, tuple([x.numerator * (k // x.denominator) for x in xs])


def _listed(x) -> tuple:
    """A list field as a tuple: a string is refused (TypeError), not read as its characters."""
    if isinstance(x, str):
        raise TypeError(f"expected a list, not the string {x!r}")
    return tuple(x)


def _keyed_numbers(xs: Sequence, memo: dict) -> tuple[Sequence, dict]:
    """(keys, read): each entry's key, and each distinct key's entry through ``_as_fraction``.

    ``memo`` maps (type, value) to an entry already read, so each distinct entry is
    converted once and equal entries share one ``Fraction``; keying by type keeps 1, 1.0,
    "1" and True apart.  When all entries share one type, an entry is its own key.  New
    entries are converted in the order they first occur, so the first entry that is no
    number raises; an unhashable entry is no number, and the entries are then converted
    one by one to find the first that is none.
    """
    types = set(map(type, xs))
    keys = xs if len(types) == 1 else list(zip(map(type, xs), xs))
    try:
        read = dict.fromkeys(keys)
    except TypeError:
        for x in xs:
            _as_fraction(x)
        raise
    for key in read:
        typed = (*types, key) if len(types) == 1 else key
        x = memo.get(typed)
        read[key] = memo[typed] = _as_fraction(typed[1]) if x is None else x
    return keys, read


def _read_numbers(xs: Sequence, memo: dict) -> tuple[Fraction, ...]:
    """Entries through ``_as_fraction``, each distinct one once (see ``_keyed_numbers``)."""
    keys, read = _keyed_numbers(xs, memo)
    return tuple(map(read.__getitem__, keys))


@dataclass(frozen=True)
class LineInstance:
    """An ordered line: stations, platform lengths, headway and demand.

    ``A[s][s']`` is the steady-state demand rate in passengers/hour, zero
    on and below the diagonal.  ``M_min`` holds the equity floor on the
    metered entry rate of each station.  ``flows`` lists each demanded
    flow ``(s, s', A[s][s'])``, a positive entry of A, in (s, s') order.

    A is read in one flat pass, each distinct number of A and ``M_min``
    once, and equal entries share one ``Fraction``.  The entries are then
    put over one scale k, the lcm of the denominators of A's distinct
    entries, and that one list of integers gives the row sums, the sign
    and diagonal checks, ``M_min``'s check and the flows.  The line keeps
    the demand as those integers for the loads path: ``_k``, ``_sums``
    (k times each row sum) and ``_flows`` (each demanded flow as
    ``(s, s', k·A[s][s'])``); ``flows`` and ``demand_rate`` form their
    ``Fraction``s when read.  A number that cannot be read, or a string
    given for a list, raises DimensionMismatch.  ``classified`` gives the
    line under another classification without reading A again.
    """

    stations: tuple[str, ...]
    platform_lengths: tuple[int, ...]
    H: Fraction
    A: tuple[tuple[Fraction, ...], ...]
    M_min: tuple[Fraction, ...] = ()
    station_types: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        memo: dict = {}
        try:
            object.__setattr__(self, "stations", _listed(self.stations))
            S = len(self.stations)
            if not S:
                raise DimensionMismatch("a line needs at least one station")
            object.__setattr__(self, "H", _as_fraction(self.H))
            entries, widths = [], []
            for row in _listed(self.A):
                try:
                    row = _listed(row)
                except TypeError:  # an entry of an earlier row at fault is the first fault
                    _read_numbers(entries, memo)
                    raise
                entries += row
                widths.append(len(row))
            keys, read = _keyed_numbers(entries, memo)  # read: A's distinct entries
            M_min = () if self.M_min is None else _listed(self.M_min)
            M_min = _read_numbers(M_min, memo) if M_min else (Fraction(0),) * S
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise DimensionMismatch(str(exc)) from exc
        if any(len(x) != S for x in (self.platform_lengths, widths, M_min)) or set(widths) != {S}:
            raise DimensionMismatch("line tables must all be S-sized")
        entries = tuple(map(read.__getitem__, keys))
        A = tuple(entries[i:i + S] for i in range(0, S * S, S))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "M_min", M_min)
        if any(not _integer(x) or x < 1 for x in self.platform_lengths):
            raise DimensionMismatch("platform lengths must be whole numbers >= 1")
        object.__setattr__(self, "platform_lengths", tuple(map(int, self.platform_lengths)))
        object.__setattr__(self, "station_types", _station_labels(self.station_types, S))
        if self.H <= 0:
            raise DimensionMismatch("headway must be positive")
        k, scaled = over_lcm(read.values())
        times_k = dict(zip(read, scaled))
        n = list(map(times_k.__getitem__, keys))  # k times each entry, row by row
        misplaced = any(any(n[z * S:z * S + z + 1]) for z in range(S))  # on or below the diagonal
        if misplaced or min(scaled, default=0) < 0:
            for z, row in enumerate(A):  # the first demanded flow at fault, in (s, s') order
                for sp, x in enumerate(row):
                    if x < 0:
                        raise DimensionMismatch("demand must be nonnegative")
                    if x and sp <= z:
                        raise DimensionMismatch("demand must vanish for s' <= s")
        sums, flows = [], []
        for z in range(S):
            i = z * S
            sums.append(sum(n[i:i + S]))
            for sp in range(z + 1, S):
                if n[i + sp]:
                    flows.append((z, sp, n[i + sp]))
        for z, (m, total) in enumerate(zip(M_min, sums)):
            if not 0 <= m.numerator * k <= total * m.denominator:
                raise DimensionMismatch(
                    f"minimum entry rate at station {z + 1} lies outside [0, its demand]"
                )
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "_sums", tuple(sums))
        object.__setattr__(self, "_flows", tuple(flows))

    @property
    def S(self) -> int:
        return len(self.stations)

    @functools.cached_property
    def flows(self) -> tuple[tuple[int, int, Fraction], ...]:
        return tuple((z, sp, self.A[z][sp]) for z, sp, _ in self._flows)

    def demand_rate(self, z: int) -> Fraction:
        """Total demand rate A_s originating at 0-based station z (each row is summed once)."""
        return Fraction(self._sums[z], self._k)

    def classified(self, station_types: Sequence[str] | None) -> LineInstance:
        """This line under another classification, equal to ``replace(self, station_types=...)``.

        The copy shares this line's read numbers and integers; only the labels are checked.
        """
        line = object.__new__(type(self))
        line.__dict__.update(self.__dict__)
        line.__dict__["station_types"] = _station_labels(station_types, self.S)
        return line


def _station_labels(labels: Sequence[str] | None, S: int) -> tuple[str, ...] | None:
    """A line's station classification as a tuple of S labels, or None if it has none."""
    if labels is None:
        return None
    try:
        labels = _listed(labels)
    except TypeError as exc:
        raise DimensionMismatch(str(exc)) from exc
    if len(labels) != S:
        raise DimensionMismatch("station_types must have one label per station")
    return labels


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _lists(table: Table) -> list[list[int]]:
    return [list(row) for row in table]


def spec_to_json(spec: ProtocolSpec) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "spec",
        "stations": {"types": list(spec.stations.types), "d": dict(spec.stations.d)},
        "trains": [
            {
                "label": t.label,
                "M": t.M,
                "lengths": list(t.lengths),
                "capacities": [  # a Fraction or string as read, so that a round trip writes the same
                    _num_to_json(Fraction(u, t._units[0])) if isinstance(c, (Fraction, str)) else c
                    for c, u in zip(t.capacities, t._units[1])
                ],
                "N": t.N,
                "never_aligned": sorted(t.never_aligned),
            }
            for t in spec.trains
        ],
        "tables": {
            "u": [_lists(uk) for uk in spec.u],
            "s": _lists(spec.s),
            "a": [_lists(ak) for ak in spec.a],
            "v": [_lists(vk) for vk in spec.v],
            "p": [[_lists(rows) for rows in pk] for pk in spec.p],
        },
    }
    if spec.delta is not None:
        doc["tables"]["delta"] = _lists(spec.delta)
    if spec.epsilon is not None:
        doc["tables"]["epsilon"] = _lists(spec.epsilon)
    if spec.eol_rule is not None:
        doc["eol_rule"] = {
            "name": spec.eol_rule.name,
            "first_types": sorted(spec.eol_rule.first_types),
            "last_types": sorted(spec.eol_rule.last_types),
        }
    return doc


def _whole(x) -> int:
    """An integer document field, read without truncating: 9.7, NaN, Infinity or true raise."""
    n = int(x)
    if n != x or isinstance(x, bool):
        raise ValueError(f"{x!r} is not a whole number")
    return n


def _whole_sizes(sizes: Iterable) -> tuple[int, ...]:
    """Section sizes read by ``_whole``: DimensionMismatch for one that is not a whole number."""
    try:
        return tuple(_whole(m) for m in sizes)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"section sizes must be whole numbers: {exc}") from None


def _check_schema(doc: dict, kind: str) -> None:
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise SchemaError(f"expected a {kind!r} document")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}")


def spec_from_json(doc: dict) -> ProtocolSpec:
    _check_schema(doc, "spec")
    try:
        stations = StationTypeCatalog(
            types=_listed(doc["stations"]["types"]),
            d={i: _whole(x) for i, x in doc["stations"]["d"].items()},
        )
        trains = tuple(
            TrainTypeSpec(
                label=t["label"],
                M=_whole(t["M"]),
                lengths=_listed(t["lengths"]),
                capacities=tuple(
                    _as_fraction(c) if isinstance(c, str) else c for c in _listed(t["capacities"])
                ),
                N=_whole(t["N"]),
                never_aligned=frozenset(map(_whole, t.get("never_aligned", ()))),
            )
            for t in doc["trains"]
        )
        tables = doc["tables"]
        rule = None
        if "eol_rule" in doc:
            rule = EolRule(
                name=doc["eol_rule"]["name"],
                first_types=frozenset(_listed(doc["eol_rule"]["first_types"])),
                last_types=frozenset(_listed(doc["eol_rule"]["last_types"])),
            )
        # A classification given as null is refused as a table of the wrong shape.
        return build_protocol(
            stations, trains, u=tables["u"], s=tables["s"], a=tables["a"], v=tables["v"],
            p=tables["p"], eol_rule=rule,
            **{name: [] if tables[name] is None else tables[name]
               for name in ("delta", "epsilon") if name in tables},
        )
    except DOCUMENT_ERRORS as exc:
        raise SchemaError(f"malformed spec document: {exc}") from exc


def _num_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def line_to_json(line: LineInstance) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "line",
        "stations": list(line.stations),
        "platform_lengths": list(line.platform_lengths),
        "H": _num_to_json(line.H),
        "A": [[_num_to_json(x) for x in row] for row in line.A],
        "M_min": [_num_to_json(x) for x in line.M_min],
    }
    if line.station_types is not None:
        doc["station_types"] = list(line.station_types)
    return doc


def line_from_json(doc: dict) -> LineInstance:
    _check_schema(doc, "line")
    try:
        return LineInstance(
            stations=doc["stations"],
            platform_lengths=tuple(map(_whole, doc["platform_lengths"])),
            H=doc["H"],
            A=doc["A"],
            M_min=_listed(doc.get("M_min", ())),  # null is refused, not read as no floor
            station_types=_listed(doc["station_types"]) if "station_types" in doc else None,
        )
    except DimensionMismatch as exc:
        if exc.__cause__ is None:  # read, but not a line
            raise
        raise SchemaError(f"malformed line document: {exc}") from exc.__cause__
    except DOCUMENT_ERRORS as exc:
        raise SchemaError(f"malformed line document: {exc}") from exc
