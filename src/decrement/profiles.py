"""Case classes of an exhaustive case space, up to a relabelling of worlds.

A case is a compressed rank vector plus one value per quantified variable:
a world set for a formula variable, a world index for ``omega``.  Every
world of a case has a *type*: its rank and a cell code with bit ``i`` set
when the world lies in the ``i``-th formula variable, and the marker bit
above those when it is the ``omega`` world.  Relabelling the worlds of a
case permutes its types, so a case class (an orbit) is a multiset of
types, its *profile*.

A profile is valid when its ranks are exactly ``0..top``, exactly one
world carries the marker (when ``omega`` is a variable), and every type
meets the premises of ``above``: ``bel`` puts the rank-0 worlds inside the
variable, ``alpha`` and ``~alpha`` put alpha, or its complement, inside it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from math import factorial


def _planes(variables) -> list[int]:
    """The cell bit of each variable: bit i for the i-th formula variable,
    the marker bit above them for ``omega``."""
    n_formulas = sum(v != "omega" for v in variables)
    planes = []
    i = 0
    for var in variables:
        if var == "omega":
            planes.append(1 << n_formulas)
        else:
            planes.append(1 << i)
            i += 1
    return planes


def _values(variables, planes, cells) -> tuple[int, ...]:
    """The variable values of the case whose world w has cell ``cells[w]``."""
    return tuple(
        next(w for w, c in enumerate(cells) if c & plane) if var == "omega"
        else sum(1 << w for w, c in enumerate(cells) if c & plane)
        for var, plane in zip(variables, planes)
    )


def _cells(variables, above, at_rank0: bool) -> list[int]:
    """The unmarked cell codes a world may have at rank 0, or above it: the
    world lies in every variable whose premise puts it inside."""
    formulas = [v for v in variables if v != "omega"]
    alpha = 1 << formulas.index("alpha") if "alpha" in formulas else 0
    out = []
    for cell in range(1 << len(formulas)):
        inside = {"bel": at_rank0, "alpha": cell & alpha, "~alpha": not cell & alpha}
        if all(cell >> i & 1 or not inside.get(above.get(var)) for i, var in enumerate(formulas)):
            out.append(cell)
    return out


def _tables(variables, above, n: int, fact: list[int]):
    """``tables[above_rank0][k][marked]``: every layer of k worlds at rank 0,
    or above it, as (prod m!, bits).

    A layer is a sorted tuple of cells, ``m`` runs over the multiplicities
    of its cells, and ``bits`` holds, per variable, the layer's worlds in it
    as a mask over the layer's own positions.  A marked layer holds the
    marker on one world; marked cells sort after the unmarked ones, so that
    world comes last.
    """
    planes = _planes(variables)
    marker = planes[variables.index("omega")] if "omega" in variables else 0
    tables = []
    for at_rank0 in (True, False):
        cells = _cells(variables, above, at_rank0)
        table = [([], []) for _ in range(n + 1)]
        for k in range(1, n + 1):
            for marked in (False, True) if marker else (False,):
                for plain in combinations_with_replacement(cells, k - marked):
                    denom = 1
                    for _, run in groupby(plain):
                        denom *= fact[len(list(run))]
                    for layer in [plain + (c | marker,) for c in cells] if marked else [plain]:
                        bits = tuple(
                            sum(1 << j for j, c in enumerate(layer) if c & plane)
                            for plane in planes
                        )
                        table[k][marked].append((denom, bits))
        tables.append(table)
    return tables


def case_classes(variables, above, n_worlds: int):
    """Every valid profile once, in a fixed order, as (ranks, values, size).

    Worlds ``0..n_worlds-1`` of the representative take the profile's types
    in sorted (rank, cell) order, so its ranks do not decrease.  ``values``
    follow ``variables`` and ``size`` is the orbit size, ``n! / prod m!``
    over the multiplicities ``m`` of the types.  The recursion places one
    nonempty layer per rank until every world has one; the marker goes on
    exactly one world.
    """
    fact = [factorial(k) for k in range(n_worlds + 1)]
    tables = _tables(variables, above, n_worlds, fact)
    omega = variables.index("omega") if "omega" in variables else -1
    full = fact[n_worlds]

    def rec(rank: int, ranks: tuple, masks: tuple, need_marker: bool, denom: int):
        table = tables[rank > 0]
        left = n_worlds - len(ranks)
        for k in range(1, left + 1):
            for marked in (False, True) if need_marker else (False,):
                if k == left and need_marker and not marked:
                    continue  # the marker has nowhere left to go
                here = ranks + (rank,) * k
                for d, bits in table[k][marked]:
                    grown = tuple(m | b << len(ranks) for m, b in zip(masks, bits))
                    if k < left:
                        yield from rec(rank + 1, here, grown, need_marker and not marked, denom * d)
                        continue
                    if omega >= 0:  # the marked world's mask becomes its index
                        grown = list(grown)
                        grown[omega] = grown[omega].bit_length() - 1
                        grown = tuple(grown)
                    yield here, grown, full // (denom * d)

    return rec(0, (), (0,) * len(variables), "omega" in variables, 1)


def case_class_count(variables, above, n_worlds: int) -> int:
    """The length of the case_classes stream, from the same layer tables."""
    fact = [factorial(k) for k in range(n_worlds + 1)]
    tables = _tables(variables, above, n_worlds, fact)

    @lru_cache(maxsize=None)
    def count(above_rank0: bool, left: int, need_marker: bool) -> int:
        if not left:
            return not need_marker
        table = tables[above_rank0]
        return sum(
            len(table[k][marked]) * count(True, left - k, need_marker and not marked)
            for k in range(1, left + 1)
            for marked in ((False, True) if need_marker else (False,))
        )

    return count(False, n_worlds, "omega" in variables)


def orbit(variables, ranks, values):
    """Every distinct case of the orbit of (ranks, values), once each.

    The worlds' types are permuted as a multiset: each distinct arrangement
    comes once, in lexicographic order of the type sequence, starting from
    the sorted one (the representative, for a case_classes member).
    """
    n = len(ranks)
    planes = _planes(variables)
    cells = [0] * n
    for var, plane, value in zip(variables, planes, values):
        for w in [value] if var == "omega" else [w for w in range(n) if value >> w & 1]:
            cells[w] |= plane
    kinds = sorted(set(zip(ranks, cells)))
    rank_of = [r for r, _ in kinds]
    cell_of = [c for _, c in kinds]
    a = sorted(kinds.index(t) for t in zip(ranks, cells))
    while True:
        yield tuple(rank_of[t] for t in a), _values(variables, planes, [cell_of[t] for t in a])
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = reversed(a[j + 1:])
