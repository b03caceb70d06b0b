"""Computations made apart from xltops, used to check its outputs.

Nothing here imports xltops.  Loads come from a station-by-station
per-flow walk, routing from a breadth-first search over bar overlaps
found by interval arithmetic, and linear-program optima from HiGHS in
floating point.  Each function works on plain data read from the input
files, so a fault in the package cannot leak into the reference.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

# fr_i carries each origin-destination type pair in exactly one section:
# F-to-F in the front section, F-to-R in the second, R-to-F in the third
# and R-to-R in the rear one (0-based section indices here).
FR_I_SECTION = {("F", "F"): 0, ("F", "R"): 1, ("R", "F"): 2, ("R", "R"): 3}


def compositions(total: int, parts: int):
    """Tuples of `parts` positive integers summing to `total`, in lex order."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def classifications(S: int, first: str = "R", last: str = "F"):
    """F/R labellings of S stations that start with `first` and end with `last`."""
    for middle in itertools.product("FR", repeat=S - 2):
        yield (first, *middle, last)


# ---------------------------------------------------------------------------
# Loads: the per-flow walk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Presentation:
    """Which sections present each type pair, with their sizes and capacities."""

    N: int
    sections: dict  # (origin type, destination type) -> presenting sections
    caps: tuple = ()
    sizes: tuple = ()
    busyness: tuple = ()  # pairs each section advertises, over all origin types

    @classmethod
    def from_spec(cls, spec_doc: dict) -> "Presentation":
        """Read a spec document's tables.

        Section n presents (i, j) when p[n][i][j] is 1; its capacity is
        the sum of its units' capacities.
        """
        types = spec_doc["stations"]["types"]
        train = spec_doc["trains"][0]
        u = spec_doc["tables"]["u"][0]
        p = spec_doc["tables"]["p"][0]
        units = range(train["M"])
        N = train["N"]
        return cls(
            N=N,
            sections={
                (ti, tj): [n for n in range(N) if p[n][i][j]]
                for i, ti in enumerate(types)
                for j, tj in enumerate(types)
            },
            caps=tuple(
                sum((Fraction(train["capacities"][m]) for m in units if u[m][n]), Fraction(0))
                for n in range(N)
            ),
            sizes=tuple(sum(u[m][n] for m in units) for n in range(N)),
            busyness=tuple(sum(map(sum, p[n])) for n in range(N)),
        )


FR_I = Presentation(N=4, sections={pair: [n] for pair, n in FR_I_SECTION.items()})


def walk_loads(
    A: list[list[Fraction]],
    H: Fraction,
    E: list[Fraction],
    types: list[str],
    pres: Presentation,
    rule: str,
) -> list[list[Fraction]]:
    """Per-section passengers per train on every link, flow by flow.

    The walk visits stations in order: riders bound for the station get
    off, then each demanded flow boards, thinned to E_z * A_zs' / A_z
    and multiplied by the headway.  ``rule`` says how a flow presented
    by several sections spreads over them:

    - ``single``: exactly one section presents it;
    - ``balanced``: in proportion to section capacity;
    - ``end_preference``: wholly to the least busy presenting section
      that still has room for the whole unthinned flow on the boarding
      link, else to the one with the least load there.  Riders already
      aboard only ever leave, so the boarding link is where every
      later link's load is highest.  The rule places flows at full
      demand, so it is only defined for E_z = A_z.
    """
    S, N = len(A), pres.N
    A_z = [sum(row, Fraction(0)) for row in A]
    if rule == "end_preference" and list(E) != A_z:
        raise ValueError("end_preference places flows at full demand only")
    riding: dict[int, list[Fraction]] = {}  # destination -> passengers per section
    load = [[Fraction(0)] * (S - 1) for _ in range(N)]
    for z in range(S):
        riding.pop(z, None)
        for sp in range(z + 1, S):
            if not A[z][sp]:
                continue
            sections = pres.sections[(types[z], types[sp])]
            if not sections:
                continue
            pax = H * E[z] * A[z][sp] / A_z[z]
            row = riding.setdefault(sp, [Fraction(0)] * N)
            if rule == "single":
                if len(sections) != 1:
                    raise ValueError(f"pair {types[z]}->{types[sp]} has {len(sections)} sections")
                row[sections[0]] += pax
            elif rule == "balanced":
                total = sum((pres.caps[n] for n in sections), Fraction(0))
                for n in sections:
                    row[n] += pax * (pres.caps[n] / total if total else Fraction(1, len(sections)))
            elif rule == "end_preference":
                aboard = [sum(r[n] for r in riding.values()) for n in range(N)]
                order = sorted(sections, key=lambda n: (pres.busyness[n], n))
                room = [n for n in order if aboard[n] + H * A[z][sp] <= pres.caps[n]]
                chosen = room[0] if room else min(order, key=lambda n: aboard[n])
                row[chosen] += pax
            else:
                raise ValueError(f"unknown rule {rule!r}")
        if z < S - 1:
            for n in range(N):
                load[n][z] = sum((r[n] for r in riding.values()), Fraction(0))
    return load


def first_max_link(load: list[list[Fraction]]) -> int:
    totals = [sum(col) for col in zip(*load)]
    return totals.index(max(totals))


def max_unit_density(load: list[list[Fraction]], sizes: list[int]) -> Fraction:
    return max(x / sizes[n] for n, row in enumerate(load) for x in row)


# ---------------------------------------------------------------------------
# Metering: every candidate's LP, solved by HiGHS in floating point
# ---------------------------------------------------------------------------


def fr_i_load_rows(A, H, types) -> list[tuple[int, int, list[float]]]:
    """(section, link, coefficients of E) for every fr_i load constraint."""
    S = len(A)
    A_z = [sum(row, Fraction(0)) for row in A]
    rows = []
    for n in range(4):
        for s in range(S - 1):
            coef = [0.0] * S
            for z in range(s + 1):
                if A_z[z]:
                    share = sum(
                        (A[z][sp] for sp in range(s + 1, S)
                         if FR_I_SECTION[(types[z], types[sp])] == n),
                        Fraction(0),
                    )
                    coef[z] = float(H * share / A_z[z])
            rows.append((n, s, coef))
    return rows


def metering_candidates(A, H, M_min, M, c):
    """Every (classification, sizing) the outer search enumerates, solved.

    Returns ``{(types, sizes): objective or None}``; None marks a
    candidate whose minimum rates alone overcrowd a section, found by
    walking the minimum rates exactly.  The feasible candidates' LPs
    are independent, so they are stacked block-diagonally and solved in
    one HiGHS call; each block's optimum is its own candidate's.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import block_diag

    S = len(A)
    A_z = [sum(row, Fraction(0)) for row in A]
    result: dict = {}
    blocks, rhs, keys = [], [], []
    for types in classifications(S):
        min_load = walk_loads(A, H, list(M_min), list(types), FR_I, "single")
        rows = fr_i_load_rows(A, H, types)
        for sizes in compositions(M, 4):
            if any(min_load[n][s] > c * sizes[n] for n in range(4) for s in range(S - 1)):
                result[(types, sizes)] = None
                continue
            blocks.append(np.array([coef for _, _, coef in rows]))
            rhs.extend(float(c * sizes[n]) for n, _, _ in rows)
            keys.append((types, sizes))
    if keys:
        bounds = [(float(M_min[z]), float(A_z[z])) for z in range(S)] * len(keys)
        res = linprog(
            -np.ones(S * len(keys)),
            A_ub=block_diag(blocks, format="csr"),
            b_ub=np.array(rhs),
            bounds=bounds,
            method="highs",
        )
        if res.status != 0:
            raise ArithmeticError(f"HiGHS: {res.message}")
        for i, key in enumerate(keys):
            result[key] = float(res.x[S * i : S * (i + 1)].sum())
    return result


# ---------------------------------------------------------------------------
# Routing: BFS over bar overlaps
# ---------------------------------------------------------------------------


def shared_units(bar_i: dict, bar_j: dict, M: int) -> int:
    """Whole train units inside both bars: [b - d, b] intersected with [0, M]."""
    if bar_i["b"] == 0 or bar_j["b"] == 0:
        return 0
    lo = max(bar_i["b"] - bar_i["d"], bar_j["b"] - bar_j["d"], 0)
    hi = min(bar_i["b"], bar_j["b"], M)
    return max(0, hi - lo)


def chart_transfers(chart_doc: dict) -> dict[tuple[str, str], int]:
    """Fewest transfers for every ordered label pair, by one BFS per origin."""
    M, bars = chart_doc["M"], chart_doc["bars"]
    labels = [bar["label"] for bar in bars]
    adj = {
        bi["label"]: [bj["label"] for bj in bars if bj is not bi and shared_units(bi, bj, M) >= 1]
        for bi in bars
    }
    out = {}
    for origin in labels:
        legs = {origin: 0}
        queue = deque([origin])
        while queue:
            at = queue.popleft()
            for nxt in adj[at]:
                if nxt not in legs:
                    legs[nxt] = legs[at] + 1
                    queue.append(nxt)
        for dest in labels:
            out[(origin, dest)] = max(0, legs[dest] - 1)
    return out


def bounded_compositions(total: int, parts: int, most: int) -> int:
    """Ways to write `total` as `parts` ordered parts, each in [1, most]."""
    ways = [1] + [0] * total
    for _ in range(parts):
        ways = [
            sum(ways[t - k] for k in range(1, most + 1) if t - k >= 0) for t in range(total + 1)
        ]
    return ways[total]
