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
Each premise constrains one world at a time, so the number of cases has a
closed form (``case_count``) and the stream carries no orbit sizes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from struct import Struct
from typing import Callable, NamedTuple

from decrement._kernel import check_universe


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


class _Space(NamedTuple):
    """The layer tables of one case space and the subtree sizes behind them.

    ``tables[above_rank0][k][marked]`` lists every layer of k worlds at rank
    0, or above it, packed.  A layer is a sorted tuple of cells; ``packed``
    holds, per variable, the layer's worlds in it as a mask over the
    layer's own positions: one byte per variable, the first variable
    lowest, so ``decode`` reads the fields as one little-endian struct.  A
    layer placed after ``at`` worlds adds ``packed << at``.  A marked layer
    holds the marker on one world; marked cells sort after the unmarked
    ones, so that world comes last.

    ``counts[above_rank0][left][need_marker]`` is the number of valid
    profiles that a node at rank 0, or above it, completes with ``left``
    worlds still to place: the size of its subtree.
    """

    n: int
    tables: tuple
    counts: tuple
    nbytes: int  # of all the fields of a case together: one per variable
    decode: Callable[[bytes], tuple]
    omega: int  # the index of ``omega`` among the variables, or -1


@lru_cache(maxsize=16)
def _space(variables: tuple, premises: tuple, n: int) -> _Space:
    """The case space of ``variables`` under the sorted ``above`` items
    ``premises``, on ``n`` worlds; the 16 latest stay built.  Raises
    UniverseTooLargeError past the kernel's cap of 8 worlds, which lets a
    byte hold a variable's worlds in a layer."""
    check_universe(n)
    planes = _planes(variables)
    marker = planes[variables.index("omega")] if "omega" in variables else 0
    tables = []
    for at_rank0 in (True, False):
        cells = _cells(variables, dict(premises), at_rank0)
        table = [((), ())]
        for k in range(1, n + 1):
            by_marker = ([], [])
            for marked in (False, True) if marker else (False,):
                for plain in combinations_with_replacement(cells, k - marked):
                    for layer in [plain + (c | marker,) for c in cells] if marked else [plain]:
                        by_marker[marked].append(sum(
                            1 << (8 * i + j)
                            for i, plane in enumerate(planes)
                            for j, c in enumerate(layer)
                            if c & plane
                        ))
            table.append(tuple(map(tuple, by_marker)))
        tables.append(tuple(table))
    counts = ([], [])
    for left in range(n + 1):
        for above_rank0 in (False, True):
            counts[above_rank0].append(tuple(
                sum(
                    len(tables[above_rank0][k][marked]) * counts[True][left - k][need and not marked]
                    for k in range(1, left + 1)
                    for marked in ((False, True) if need else (False,))
                ) if left else int(not need)
                for need in (False, True)
            ))
    return _Space(
        n=n,
        tables=tuple(tables),
        counts=tuple(map(tuple, counts)),
        nbytes=len(variables),
        decode=Struct(f"<{len(variables)}B").unpack,
        omega=variables.index("omega") if marker else -1,
    )


def _space_of(variables, above, n_worlds: int) -> _Space:
    return _space(tuple(variables), tuple(sorted(above.items())), n_worlds)


def case_classes(variables, above, n_worlds: int, start: int = 0):
    """Every valid profile once, in a fixed order, as (ranks, values), from
    the ``start``-th on.

    Worlds ``0..n_worlds-1`` of the representative take the profile's types
    in sorted (rank, cell) order, so its ranks do not decrease, and
    ``values`` follow ``variables``.  The recursion places one
    nonempty layer per rank until every world has one; the marker goes on
    exactly one world.  Whole subtrees before ``start`` are skipped by
    their size, so a late start costs about what an early one does.
    """
    if start < 0:
        raise ValueError(f"start must be nonnegative, got {start}")
    space = _space_of(variables, above, n_worlds)
    return _walk(space, 0, (), 0, space.omega >= 0, start)


def case_class_count(variables, above, n_worlds: int) -> int:
    """The length of the case_classes stream: the size of the whole tree."""
    space = _space_of(variables, above, n_worlds)
    return space.counts[False][n_worlds][space.omega >= 0]


def case_count(variables, above, n_worlds: int) -> int:
    """The number of cases the case_classes stream stands for.

    A world may take any of the ``c0`` cells allowed at rank 0, or of the
    ``c1`` allowed above it, whatever the other worlds take.  With ``k``
    worlds at rank 0, the others form an ordered partition into the layers
    above, one of Fubini(n - k) ways; ``omega`` is any of the n worlds.
    """
    c0, c1 = (len(_cells(variables, above, at_rank0)) for at_rank0 in (True, False))
    fubini = [1]
    for m in range(1, n_worlds + 1):
        fubini.append(sum(comb(m, j) * fubini[m - j] for j in range(1, m + 1)))
    total = sum(
        comb(n_worlds, k) * c0**k * c1 ** (n_worlds - k) * fubini[n_worlds - k]
        for k in range(1, n_worlds + 1)
    )
    return total * n_worlds if "omega" in variables else total


def _walk(space: _Space, rank: int, ranks: tuple, packed: int, need_marker: bool, start: int):
    """The profiles below one node of the recursion, from the ``start``-th
    on: ``ranks`` and ``packed`` hold the layers placed so far, and the
    next one goes at ``rank``."""
    at = len(ranks)
    left = space.n - at
    table = space.tables[rank > 0]
    sizes = space.counts[True]
    for k in range(1, left + 1):
        for marked in (False, True) if need_marker else (False,):
            need = need_marker and not marked
            entries = table[k][marked]
            sub = sizes[left - k][need]  # per entry; 0 if the marker is left out
            if start >= len(entries) * sub:
                start -= len(entries) * sub
                continue
            first, start = divmod(start, sub)
            here = ranks + (rank,) * k
            if k < left:
                for bits in entries[first:]:
                    yield from _walk(space, rank + 1, here, packed | bits << at, need, start)
                    start = 0
                continue
            nbytes, decode, omega = space.nbytes, space.decode, space.omega
            for bits in entries[first:]:
                values = decode((packed | bits << at).to_bytes(nbytes, "little"))
                if omega >= 0:  # the marked world's mask becomes its index
                    values = list(values)
                    values[omega] = values[omega].bit_length() - 1
                    values = tuple(values)
                yield here, values


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
