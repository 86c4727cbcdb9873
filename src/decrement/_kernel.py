"""The kernel: hot primitives on rank vectors and world masks.

Rank vectors are tuples indexed by world, world sets are integer
bitmasks, operator kinds are the codes 0 (type-1 decrement),
1 (type-2 decrement), 2 (instant contraction).

DR constraint bits for dr_violation and dr_satisfied:
  1 DR8, 2 DR9, 4 DR10, 8 DR11, 16 DR12, 32 DR13, 64 DR14, 128 DR15
"""

from __future__ import annotations

from math import comb

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
    return _place(n, compat, [0] * n, 0, 0, 0, -1)


def _place(n: int, compat, vec: list, i: int, used: int, count: int, top: int):
    # Ranks of worlds i.. of vec, whose worlds 0..i-1 are placed: ``used``
    # is their rank set as a mask, ``count`` its size, ``top`` its maximum.
    # A module-level recursion, so a stream leaves no reference cycle.
    budget = n - 1 - i
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
        if not budget:  # the last world
            yield tuple(vec)
        else:
            yield from _place(n, compat, vec, i + 1, used | (1 << v), new_count, new_top)


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
    """World-set mask of each layer of a rank vector, rank 0 first.

    A rank that no world takes gives an empty layer; a negative rank is a
    ValueError.
    """
    if min(ranks) < 0:
        raise ValueError(f"negative rank in {tuple(ranks)}")
    masks = [0] * (max(ranks) + 1)
    bit = 1
    for r in ranks:
        masks[r] |= bit
        bit <<= 1
    return masks


# The worlds of each world-set mask of up to MAX_UNIVERSE worlds, ascending:
# _WORLDS[m | 1 << w] is _WORLDS[m] + (w,) for every m below 1 << w.
_WORLDS = [()]
for _w in range(MAX_UNIVERSE):
    _WORLDS += [worlds + (_w,) for worlds in _WORLDS]
_WORLDS = tuple(_WORLDS)
del _w


class _WideWorlds:
    """_WORLDS for a mask of any width, computed on each lookup."""

    def __getitem__(self, mask: int) -> list[int]:
        return [w for w in range(mask.bit_length()) if mask >> w & 1]


_WIDE_WORLDS = _WideWorlds()


def _frontal_of_layers(layers, amask: int, counter: int) -> int:
    # frontal_bits from the layer masks; step_ranks has them already
    out = 0
    below = 0
    for layer, above in zip(layers, layers[1:] + [0]):
        if not below & amask and not above & counter:
            out |= layer & counter
        below = layer
    return out


def frontal_bits(ranks, amask: int) -> int:
    """Mask of counter-worlds of alpha that are frontal in the order.

    A counter-world is frontal when no alpha-world sits one layer below it
    and no counter-world sits one layer above it.
    """
    full = (1 << len(ranks)) - 1
    amask &= full
    return _frontal_of_layers(layer_masks(ranks), amask, full & ~amask)


def step_ranks(ranks, amask: int, kind: int) -> tuple:
    """One operator step on a rank vector of one world or more.

    Identity when alpha is a tautology over the universe or is not believed
    (some rank-0 world is a counter-world).  Otherwise, with L[j] the
    worlds of rank j:

    * type-1: alpha-worlds keep their layer and counter-worlds drop one, so
      new layer j is (alpha & L[j]) | (counter & L[j + 1]);
    * type-2: as type-1, except frontal counter-worlds keep their layer;
    * instant: rank-0 worlds plus the minimal counter-worlds form the new
      bottom layer, and every other world keeps its layer, shifted up one.

    Empty layers are dropped, so the result is compressed.  An empty vector
    or a negative rank is a ValueError; the kind code is read past the
    identity branch only, where an unknown code is a ValueError.
    """
    n = len(ranks)
    if not n:
        raise ValueError("step on an empty rank vector")
    worlds = _WORLDS if n <= MAX_UNIVERSE else _WIDE_WORLDS
    full = (1 << n) - 1
    amask &= full
    layers = layer_masks(ranks)
    if amask == full or layers[0] & ~amask:
        return tuple(ranks)
    counter = full & ~amask
    out = [0] * n
    if kind == KIND_INSTANT:
        for layer in layers:  # the lowest layer that holds a counter-world
            if layer & counter:
                promoted = layers[0] | (layer & counter)
                break
        r = 1
        for layer in layers:  # the promoted worlds keep the 0s of out
            layer &= ~promoted
            if layer:
                for w in worlds[layer]:
                    out[w] = r
                r += 1
        return tuple(out)
    if kind == KIND_TYPE1:
        drop = counter
    elif kind == KIND_TYPE2:
        drop = counter & ~_frontal_of_layers(layers, amask, counter)
    else:
        raise ValueError(f"unknown operator kind code {kind}")
    keep = full & ~drop
    layers.append(0)
    r = 0
    for j in range(len(layers) - 1):
        layer = (layers[j] & keep) | (layers[j + 1] & drop)
        if layer:
            for w in worlds[layer]:
                out[w] = r
            r += 1
    return tuple(out)


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
