"""The kernel: hot primitives on rank vectors and world masks.

Rank vectors are tuples indexed by world, world sets are integer
bitmasks, operator kinds are the codes 0 (type-1 decrement),
1 (type-2 decrement), 2 (instant contraction).

DR constraint bits for dr_violation and dr_satisfied:
  1 DR8, 2 DR9, 4 DR10, 8 DR11, 16 DR12, 32 DR13, 64 DR14, 128 DR15
"""

from __future__ import annotations

from math import comb

BACKEND = "python"

KIND_TYPE1 = 0
KIND_TYPE2 = 1
KIND_INSTANT = 2

MAX_UNIVERSE = 8


class UniverseTooLargeError(ValueError):
    """Raised when an exhaustive routine is asked for more than 8 worlds."""


def _check_universe(n: int) -> int:
    if n > MAX_UNIVERSE:
        raise UniverseTooLargeError(f"universe of {n} worlds exceeds the limit of {MAX_UNIVERSE}")
    if n < 1:
        raise ValueError(f"universe size {n} outside 1..{MAX_UNIVERSE}")
    return n


def weak_order_ranks(n: int):
    """Every compressed rank vector on n worlds, lexicographically.

    A valid vector occupies exactly the ranks 0..k for some k; the stream
    counts match the ordered-set-partition (Fubini) numbers.
    """
    return _ordered_ranks(_check_universe(n), None)


def weak_order_count(n: int) -> int:
    """The length of the weak_order_ranks stream: the Fubini number of n.

    a(0) = 1 and a(m) = sum over k = 1..m of C(m, k) a(m - k): the first
    layer takes k of the m worlds.
    """
    _check_universe(n)
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def _ordered_ranks(n: int, compat):
    """The weak_order_ranks stream, restricted by pairwise rank masks.

    World i takes ranks v = 0, 1, ... in turn, as long as the ranks left
    unused below the highest one so far can still be filled by the worlds
    after it.  With ``compat`` (see dr_successors), v must also lie in
    ``compat[i][j][vec[j]]`` for every earlier world j.
    """
    vec = [0] * n
    last = n - 1

    def rec(i: int, used: int, count: int, top: int):
        budget = last - i
        allowed = -1
        if compat is not None:
            row = compat[i]
            for j in range(i):
                allowed &= row[j][vec[j]]
        for v in range(n):
            if v > top:
                new_top, new_count = v, count + 1
            else:
                new_top, new_count = top, count + (not (used >> v) & 1)
            if new_top + 1 - new_count > budget:  # too many unused ranks
                if v > top:
                    break  # a higher v leaves more
                continue
            if not (allowed >> v) & 1:
                continue
            vec[i] = v
            if i == last:
                yield tuple(vec)
            else:
                yield from rec(i + 1, used | (1 << v), new_count, new_top)

    return rec(0, 0, 0, -1)


def compress_keys(keys) -> tuple:
    """Rank vector order-isomorphic to the key sequence, ranks from 0."""
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return tuple(order[k] for k in keys)


def bel_mask(ranks) -> int:
    """Mask of the rank-0 worlds: the belief models."""
    mask = 0
    for w, r in enumerate(ranks):
        if r == 0:
            mask |= 1 << w
    return mask


def min_rank_mask(ranks, smask: int) -> int:
    """Mask of the lowest-ranked worlds of the set smask; 0 when it is empty."""
    best = None
    out = 0
    for w, r in enumerate(ranks):
        if (smask >> w) & 1:
            if best is None or r < best:
                best, out = r, 1 << w
            elif r == best:
                out |= 1 << w
    return out


def layer_masks(ranks) -> list[int]:
    """World-set mask of each layer of a compressed vector, rank 0 first."""
    masks = [0] * (max(ranks) + 1)
    for w, r in enumerate(ranks):
        masks[r] |= 1 << w
    return masks


def frontal_bits(ranks, amask: int) -> int:
    """Mask of counter-worlds of alpha that are frontal in the order.

    A counter-world is frontal when no alpha-world sits one layer below it
    and no counter-world sits one layer above it.
    """
    n = len(ranks)
    full = (1 << n) - 1
    amask &= full
    out = 0
    for w in range(n):
        if (amask >> w) & 1:
            continue
        r = ranks[w]
        ok = True
        for w2 in range(n):
            r2 = ranks[w2]
            in_a = (amask >> w2) & 1
            if in_a and r2 == r - 1:
                ok = False
                break
            if not in_a and r2 == r + 1:
                ok = False
                break
        if ok:
            out |= 1 << w
    return out


def step_ranks(ranks, amask: int, kind: int) -> tuple:
    """One operator step on a rank vector.

    Identity when alpha is a tautology over the universe or is not believed
    (some rank-0 world is a counter-world).  Otherwise:

    * type-1: alpha-world at rank r keeps key 2r, counter-world gets 2r-2;
    * type-2: frontal counter-worlds keep key 2r instead of dropping;
    * instant: rank-0 worlds plus the minimal counter-worlds form the new
      bottom layer, everything else keeps its old rank shifted up by one.

    The resulting keys are compressed back to consecutive ranks.
    """
    n = len(ranks)
    full = (1 << n) - 1
    amask &= full
    ranks = tuple(ranks)
    bel = bel_mask(ranks)
    if amask == full:
        return ranks
    if bel & ~amask:
        return ranks
    if kind == KIND_INSTANT:
        promoted = bel | min_rank_mask(ranks, full & ~amask)
        keys = [0 if (promoted >> w) & 1 else ranks[w] + 1 for w in range(n)]
        return compress_keys(keys)
    if kind not in (KIND_TYPE1, KIND_TYPE2):
        raise ValueError(f"unknown operator kind code {kind}")
    frontal = frontal_bits(ranks, amask) if kind == KIND_TYPE2 else 0
    keys = []
    for w in range(n):
        r = ranks[w]
        if (amask >> w) & 1:
            keys.append(2 * r)
        elif (frontal >> w) & 1:
            keys.append(2 * r)
        else:
            keys.append(2 * r - 2)
    return compress_keys(keys)


def dr_violation(before, after, amask: int, cmask: int, *, frontal=None):
    """First world pair that breaks a selected DR constraint, or None.

    The constraints are evaluated literally against the earlier order and
    the candidate successor, with no restriction on whether alpha was
    believed.  Pairs are scanned with w1 as the outer loop, so the pair
    returned is the smallest (w1, w2) in that order.  ``frontal`` overrides
    the DR15 frontal counter-worlds of ``before``; a caller evaluating a
    restriction of a larger state passes the bits computed on the whole.
    """
    n = len(before)
    if len(after) != n or not 1 <= n <= MAX_UNIVERSE:  # inline: runs once per checker case
        raise ValueError(
            f"rank vectors of lengths {n} and {len(after)}; need equal lengths in 1..{MAX_UNIVERSE}"
        )
    full = (1 << n) - 1
    amask &= full
    if frontal is None:
        frontal = frontal_bits(before, amask) if cmask & 128 else 0
    for w1 in range(n):
        a1 = (amask >> w1) & 1
        b1 = before[w1]
        f1 = after[w1]
        for w2 in range(n):
            a2 = (amask >> w2) & 1
            b2 = before[w2]
            f2 = after[w2]
            if a1 and a2:
                if cmask & 1 and (b1 <= b2) != (f1 <= f2):
                    return w1, w2
            elif not a1 and not a2:
                if cmask & 2 and (b1 <= b2) != (f1 <= f2):
                    return w1, w2
            elif not a1 and a2:
                if cmask & 4 and b1 <= b2 and not f1 <= f2:
                    return w1, w2
                if cmask & 8 and b1 < b2 and not f1 < f2:
                    return w1, w2
                if cmask & 16 and b1 == b2 + 1 and not f1 <= f2:
                    return w1, w2
                if cmask & 32 and b2 == 0 and not f2 <= f1:
                    return w1, w2
                if cmask & 64 and b1 == b2 and f2 != f1 + 1:
                    return w1, w2
                if cmask & 128 and b1 == b2 and (frontal >> w1) & 1 and f1 != f2:
                    return w1, w2
    return None


def dr_satisfied(before, after, amask: int, cmask: int) -> bool:
    """True iff no world pair breaks a selected DR constraint."""
    return dr_violation(before, after, amask, cmask) is None


def dr_successors(before, amask: int, cmask: int):
    """The vectors ``after`` with dr_satisfied(before, after, amask, cmask).

    They come in weak_order_ranks order.  Every DR condition reads one world
    pair, so a vector passes iff each of its pairs does.  For worlds j < i,
    ``compat[i][j][u]`` is the mask of ranks world i may take when world j
    has rank u, from dr_violation on the two-world restriction of
    ``before`` (with the frontal bits of the whole state).  The
    weak_order_ranks recursion skips any rank outside the masks of the
    worlds already placed.  Ranks are final once assigned, so it cuts only
    branches that hold no passing vector: the stream is the filtered
    enumeration, order included.  With no constrained pair the recursion
    runs without masks.
    """
    n = _check_universe(len(before))
    full = (1 << n) - 1
    amask &= full
    frontal = frontal_bits(before, amask) if cmask & 128 else 0
    compat = []
    for i in range(n):
        rows = []
        for j in range(i):
            pair = (before[j], before[i])
            pair_a = ((amask >> j) & 1) | ((amask >> i) & 1) << 1
            pair_f = ((frontal >> j) & 1) | ((frontal >> i) & 1) << 1
            rows.append([
                sum(
                    1 << v for v in range(n)
                    if dr_violation(pair, (u, v), pair_a, cmask, frontal=pair_f) is None
                )
                for u in range(n)
            ])
        compat.append(rows)
    # a rank mask is full, (1 << n) - 1, when it excludes no rank 0..n-1
    if all(mask == full for rows in compat for row in rows for mask in row):
        return _ordered_ranks(n, None)
    return _ordered_ranks(n, compat)
