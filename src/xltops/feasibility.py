"""Constraint checking for protocol specs.

Five behavioural constraints are verified exhaustively (violations are
data, not errors, so the optimizer can count them):

  E2  sections are aligned only if the train stops
  E3  aligned sections are consecutive
  E4  aligned sections fit along the platform
  E5  section doors opened only if the section is aligned
  E6  destination presented only if the section opens its doors at both
      the current and the destination station type

E1 (sections are composed of consecutive units) is a structural
invariant: ``core_model.build_protocol`` raises ``NonConsecutiveSection``
for any split section, so no spec built through it can violate it.

Presentation-standard checks (PS_MIN / PS_EXACT) and end-of-line checks
(EOL) are separate entry points because they need extra inputs (the
served pair set, the line classification).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core_model import LineInstance, ProtocolSpec
from .errors import DimensionMismatch, UnknownMode


@dataclass(frozen=True)
class Violation:
    """One violated (constraint, index) pair.

    ``indices`` uses 1-based unit/section positions and station-type
    labels, in the natural order of the constraint's subscripts.
    """

    constraint: str
    indices: tuple
    detail: str = ""


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    def __len__(self) -> int:
        return len(self.violations)


def check(spec: ProtocolSpec) -> FeasibilityReport:
    """Evaluate E2-E6 over all index tuples and report every violation."""
    out: list[Violation] = []
    types = spec.stations.types
    d = spec.stations.lengths()
    zero = (0,) * spec.C
    for k, train in enumerate(spec.trains):
        ak, vk, pk, sk = spec.a[k], spec.v[k], spec.p[k], spec.s[k]

        # E2: a_kni = 1 requires s_ki = 1; only skipped types' columns can fail.
        skipped = [i for i, x in enumerate(sk) if not x]
        for n, row in enumerate(ak):
            for i in skipped:
                if row[i]:
                    out.append(
                        Violation(
                            "E2",
                            (k, n + 1, types[i]),
                            f"section {n + 1} aligned at skipped type {types[i]}",
                        )
                    )

        # E3: per station type, aligned section indices form one run.
        for i, column in enumerate(zip(*ak)):
            aligned = [n for n, x in enumerate(column) if x]
            if aligned and aligned[-1] - aligned[0] + 1 == len(aligned):
                continue  # one run already: no pair can have a gap
            for ia, na in enumerate(aligned):
                for nb in aligned[ia + 1 :]:
                    if 0 in column[na : nb + 1]:
                        out.append(
                            Violation(
                                "E3",
                                (k, types[i], na + 1, nb + 1),
                                f"aligned sections {na + 1} and {nb + 1} at "
                                f"type {types[i]} are not consecutive",
                            )
                        )

        # E4: total aligned length fits the shortest platform of the type.
        section_len = [0.0] * train.N  # length of each section
        for length, row in zip(train.lengths, spec.u[k]):
            section_len[row.index(1)] += length
        for i, column in enumerate(zip(*ak)):
            aligned_len = 0.0
            for x, length in zip(column, section_len):
                if x:
                    aligned_len += length
            if aligned_len > d[i] + 1e-12:
                out.append(
                    Violation(
                        "E4",
                        (k, types[i]),
                        f"aligned length {aligned_len:g} exceeds platform "
                        f"{d[i]} at type {types[i]}",
                    )
                )

        # E5: v_kni = 1 requires a_kni = 1; a door row equal to its alignment row holds.
        for n, (vrow, arow) in enumerate(zip(vk, ak)):
            if vrow == arow:
                continue
            for i, (x, y) in enumerate(zip(vrow, arow)):
                if x and not y:
                    out.append(
                        Violation(
                            "E5",
                            (k, n + 1, types[i]),
                            f"section {n + 1} opens doors at type {types[i]} without alignment",
                        )
                    )

        # E6: p_knij = 1 requires doors open at both i and j.
        for n, (rows, vrow) in enumerate(zip(pk, vk)):
            for i, row in enumerate(rows):
                if row == zero or (vrow[i] and row == vrow):
                    continue
                for j, x in enumerate(row):
                    if x and not (vrow[i] and vrow[j]):
                        out.append(
                            Violation(
                                "E6",
                                (k, n + 1, types[i], types[j]),
                                f"section {n + 1} presents {types[j]} at {types[i]} "
                                "without opening doors at both",
                            )
                        )

    return FeasibilityReport(tuple(out))


def check_presentation_standard(
    spec: ProtocolSpec,
    mode: str,
    required_pairs: Sequence[tuple[str, str]],
) -> FeasibilityReport:
    """Verify the presentation standard over the demanded (i, j) pairs.

    mode "at_least_one": each pair served by >= 1 section (PS_MIN);
    mode "exactly_one": each pair served by exactly one section (PS_EXACT).
    """
    if mode not in ("at_least_one", "exactly_one"):
        raise UnknownMode(f"unknown presentation mode {mode!r}")
    out: list[Violation] = []
    for k in range(spec.K):
        pk = spec.p[k]
        for i, j in required_pairs:
            ii, jj = spec.stations.index(i), spec.stations.index(j)
            count = sum(rows[ii][jj] for rows in pk)
            if mode == "at_least_one" and count < 1:
                out.append(
                    Violation("PS_MIN", (k, i, j), f"pair {i}->{j} presented by no section")
                )
            elif mode == "exactly_one" and count != 1:
                out.append(
                    Violation(
                        "PS_EXACT", (k, i, j), f"pair {i}->{j} presented by {count} sections"
                    )
                )
    return FeasibilityReport(tuple(out))


def check_eol(spec: ProtocolSpec, line: LineInstance) -> FeasibilityReport:
    """Apply the spec's end-of-line rule to the line's first/last stations."""
    if spec.eol_rule is None:
        return FeasibilityReport(())
    if line.station_types is None:
        raise DimensionMismatch("line carries no station classification")
    out: list[Violation] = []
    first, last = line.station_types[0], line.station_types[-1]
    if first not in spec.eol_rule.first_types:
        out.append(
            Violation(
                "EOL",
                (1, first),
                f"first station type {first} not in {sorted(spec.eol_rule.first_types)}",
            )
        )
    if last not in spec.eol_rule.last_types:
        out.append(
            Violation(
                "EOL",
                (line.S, last),
                f"last station type {last} not in {sorted(spec.eol_rule.last_types)}",
            )
        )
    return FeasibilityReport(tuple(out))
