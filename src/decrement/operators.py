"""One-step belief change operators and their derived machinery.

Three canonical operator kinds are provided:

* type-1 decrement: counter-worlds of a believed formula drop toward the
  bottom, breaking plausibility ties with alpha-worlds downward;
* type-2 decrement: as type-1, except frontal counter-worlds keep their
  ties;
* instant contraction: the minimal counter-worlds join the bottom layer in
  a single step, everything else shifts up unchanged.

``achieve`` repeats a step until the formula is no longer believed and
reports the number of steps; ``induced_order`` rebuilds a plausibility
order from achieve results alone, which for conforming operators recovers
the state's own order.

All functions are pure; a step on a state that does not believe alpha (or
with a tautological alpha) returns the state unchanged.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice

from decrement import _kernel
from decrement._kernel import MAX_UNIVERSE
from decrement._kernel import bel_mask as _bel_mask  # a global: called per achieve-table miss
from decrement.logic import Formula, models
from decrement.preorder import TotalPreorder, min_of
from decrement.state import EpistemicState, belief_models, believes

GIVEUP_MAX_ATOMS = 3


class OperatorKind(enum.Enum):
    """Deterministic total transformers of epistemic states."""

    TYPE1_DECREMENT = "type1"
    TYPE2_DECREMENT = "type2"
    INSTANT_CONTRACTION = "instant"

    @property
    def code(self) -> int:
        return _KIND_CODES[self]


_KIND_CODES = {
    OperatorKind.TYPE1_DECREMENT: _kernel.KIND_TYPE1,
    OperatorKind.TYPE2_DECREMENT: _kernel.KIND_TYPE2,
    OperatorKind.INSTANT_CONTRACTION: _kernel.KIND_INSTANT,
}


class HesitanceViolationError(RuntimeError):
    """An operator failed to drop a belief within the layer-count bound.

    Impossible for the built-in kinds; signals a broken step function.
    """


class NotPreorderError(ValueError):
    """The induced relation is not a total preorder; carries a witness."""

    def __init__(self, message: str, witness: tuple):
        super().__init__(f"{message}; witness worlds {witness}")
        self.witness = witness


@dataclass(frozen=True)
class AchieveResult:
    """Final state and the number of steps the success took."""

    state: EpistemicState
    steps: int


# --- mask-level core ---------------------------------------------------------
#
# The checker quantifies over thousands of (rank vector, formula mask)
# pairs, so the core works on plain tuples and masks, memoised in two
# tables of at most TABLE_SIZE entries each.  A table maps bytes to bytes:
# the key is the rank vector, then the alpha mask cut to the universe and
# the kind code.  Neither is a container, so CPython never tracks the
# table's dicts and no garbage collection walks them.

TABLE_SIZE = 1 << 18
_SHARDS = 16
_SHARD_MASK = _SHARDS - 1  # a key's shard is its hash & _SHARD_MASK

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")

_NO_CALL = ((), None, None, None)  # a table's ``last`` before its first call


class _Table:
    """A memo table with functools-style counters: every lookup is a hit
    or a miss, and every miss stores one entry.

    The entries are spread over _SHARDS dicts by the key's hash.  A shard
    that holds TABLE_SIZE // _SHARDS entries drops its oldest quarter, in
    the order the dict keeps them, before it stores another: O(1) a miss
    amortised, and no miss copies more than one shard.  The three-atom
    matrix reuses a step entry soon after storing it, so first-in
    first-out keeps nearly the hits a least-recently-used table would,
    where emptying a whole shard lost a third of them.  The shard is
    replaced by a copy of the entries it keeps: a dict never shrinks on
    deletion, and one that deletes and stores in place regrows to twice
    the size.

    ``last`` holds the arguments and answer of the table's latest keyed
    call.  The checker repeats its previous call for about two in five
    lookups, and comparing the arguments costs less than building a key.
    """

    __slots__ = ("shards", "hits", "misses", "last")

    def __init__(self) -> None:
        self.shards = [{} for _ in range(_SHARDS)]
        self.hits = 0
        self.misses = 0
        self.last = _NO_CALL

    def store(self, index: int, key: bytes, value: bytes) -> bytes:
        self.misses += 1
        bound = TABLE_SIZE // _SHARDS
        shard = self.shards[index]
        if len(shard) >= bound:
            shard = self.shards[index] = dict(islice(shard.items(), max(1, bound >> 2), None))
        if bound:
            shard[key] = value
        return value

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, TABLE_SIZE, sum(map(len, self.shards)))

    def cache_clear(self) -> None:
        for shard in self.shards:
            shard.clear()
        self.hits = self.misses = 0
        self.last = _NO_CALL


_STEPS = _Table()
_ACHIEVED = _Table()
_STEP_SHARDS = _STEPS.shards
_ACHIEVED_SHARDS = _ACHIEVED.shards

# The key suffix of each kind code and alpha mask of up to 8 worlds.  An
# unknown code (KeyError), a wider mask (IndexError) or a rank outside
# 0..255 (ValueError, TypeError) gives a call no key.
_SUFFIXES = {code: tuple([bytes((amask, code)) for amask in range(256)]) for code in _KIND_CODES.values()}
_NO_KEY = (TypeError, ValueError, KeyError, IndexError)

# step_ranks and _achieved build the key inline: a call costs about as
# much as the rest of a hit, and the two-atom matrix is nearly all hits.
# A call with no key, or on more than MAX_UNIVERSE worlds (whose belief
# mask does not fit the achieve value's byte), goes to the kernel unstored
# and uncounted, so that the kernel's own error reports a bad argument.


def step_ranks(ranks: tuple, amask: int, code: int) -> tuple:
    """``_kernel.step_ranks``, memoised."""
    last = _STEPS.last
    if ranks == last[0] and amask == last[1] and code == last[2]:
        _STEPS.hits += 1
        return last[3]
    try:
        key = bytes(ranks) + _SUFFIXES[code][amask & ((1 << len(ranks)) - 1)]
    except _NO_KEY:
        return _kernel.step_ranks(ranks, amask, code)
    if len(ranks) > MAX_UNIVERSE:
        return _kernel.step_ranks(ranks, amask, code)
    index = hash(key) & _SHARD_MASK
    got = _STEP_SHARDS[index].get(key)
    if got is None:
        got = _STEPS.store(index, key, bytes(_kernel.step_ranks(ranks, amask, code)))
    else:
        _STEPS.hits += 1
    got = tuple(got)
    _STEPS.last = tuple(ranks), amask, code, got  # a list argument may change later
    return got


def _achieve(ranks: tuple, amask: int, code: int) -> tuple:
    """Steps until alpha is no longer believed: the final ranks, then the
    step count and the final belief mask, as the achieve table stores them."""
    full = (1 << len(ranks)) - 1
    amask &= full
    final, steps, bel = ranks, 0, _bel_mask(ranks)
    if amask != full and not bel & ~amask:
        for steps in range(1, max(ranks) + 2):
            final = step_ranks(final, amask, code)
            bel = _bel_mask(final)
            if bel & ~amask:
                break
        else:
            raise HesitanceViolationError(
                f"belief not dropped within {steps} steps (kind code {code})"
            )
    return (*final, steps, bel)


def _achieved(ranks: tuple, amask: int, code: int):
    """``_achieve``, memoised: bytes for a call with a key, else a tuple."""
    last = _ACHIEVED.last
    if ranks == last[0] and amask == last[1] and code == last[2]:
        _ACHIEVED.hits += 1
        return last[3]
    try:
        key = bytes(ranks) + _SUFFIXES[code][amask & ((1 << len(ranks)) - 1)]
    except _NO_KEY:
        return _achieve(ranks, amask, code)
    if len(ranks) > MAX_UNIVERSE:
        return _achieve(ranks, amask, code)
    index = hash(key) & _SHARD_MASK
    got = _ACHIEVED_SHARDS[index].get(key)
    if got is None:
        got = _ACHIEVED.store(index, key, bytes(_achieve(ranks, amask, code)))
    else:
        _ACHIEVED.hits += 1
    _ACHIEVED.last = tuple(ranks), amask, code, got  # a list argument may change later
    return got


def achieve_ranks(ranks: tuple, amask: int, code: int) -> tuple[tuple, int]:
    """Apply step_ranks until alpha is no longer believed.

    Returns (final ranks, step count); zero steps for tautologies and for
    formulas not believed in the first place.  Memoised as step_ranks is.
    """
    got = _achieved(ranks, amask, code)
    return tuple(got[:-2]), got[-2]


def achieve_bel(ranks: tuple, amask: int, code: int) -> int:
    """Belief models after achieving the drop of alpha."""
    return _achieved(ranks, amask, code)[-1]


step_ranks.cache_info = _STEPS.cache_info
step_ranks.cache_clear = _STEPS.cache_clear
achieve_ranks.cache_info = _ACHIEVED.cache_info
achieve_ranks.cache_clear = _ACHIEVED.cache_clear


def giveup_leq_masks(ranks: tuple, a: int, b: int, code: int) -> bool:
    # a at-most-as-entrenched-as b: dropping a-and-b loses no more than
    # dropping a alone, i.e. the a-result models are kept.
    return achieve_bel(ranks, a, code) & ~achieve_bel(ranks, a & b, code) == 0


def giveup_lt_masks(ranks: tuple, a: int, b: int, code: int) -> bool:
    return giveup_leq_masks(ranks, a, b, code) and not giveup_leq_masks(ranks, b, a, code)


def giveup_ll_masks(ranks: tuple, a: int, b: int, code: int) -> bool:
    # giveup_lt_masks(a, b), then giveup_lt_masks(a, g) and
    # giveup_lt_masks(g, b) for every class g, reading each class's belief
    # once per call, in the order giveup_lt_masks reads them.  Achieving a
    # class that is not believed, or the tautology, keeps the belief; that
    # answer without a lookup makes the two-atom matrix 3% faster.
    memo: dict[int, int] = {}
    bel0 = _bel_mask(ranks)
    full = (1 << len(ranks)) - 1

    def bel(mask: int) -> int:
        if bel0 & ~mask or mask & full == full:
            return bel0
        got = memo.get(mask)
        if got is None:
            got = memo[mask] = achieve_bel(ranks, mask, code)
        return got

    bel_a = bel(a)
    bel_ab = bel(a & b)
    if bel_a & ~bel_ab:
        return False
    bel_b = bel(b)
    if not bel_b & ~bel_ab:
        return False
    for g in range(1 << len(ranks)):
        bel_ag = bel(a & g)
        if bel_a & ~bel_ag:
            continue
        bel_g = bel(g)
        if not bel_g & ~bel_ag:
            continue
        bel_gb = bel(g & b)
        if not bel_g & ~bel_gb and bel_b & ~bel_gb:
            return False
    return True


def induced_ranks(ranks: tuple, code: int) -> tuple:
    """Rank vector of the order recovered from achieve results.

    World w1 comes no later than w2 exactly when w1 survives achieving the
    removal of "neither w1 nor w2".  Raises NotPreorderError if that
    relation fails totality or transitivity.
    """
    n = len(ranks)
    full = (1 << n) - 1
    rel = [[False] * n for _ in range(n)]
    for w1 in range(n):
        for w2 in range(w1, n):  # the target is symmetric: one achieve per pair
            bel = achieve_bel(ranks, full & ~((1 << w1) | (1 << w2)), code)
            rel[w1][w2] = bool(bel >> w1 & 1)
            rel[w2][w1] = bool(bel >> w2 & 1)
    for w1 in range(n):
        for w2 in range(n):
            if not rel[w1][w2] and not rel[w2][w1]:
                raise NotPreorderError("induced relation not total", (w1, w2))
    for w1 in range(n):
        for w2 in range(n):
            if not rel[w1][w2]:
                continue
            for w3 in range(n):
                if rel[w2][w3] and not rel[w1][w3]:
                    raise NotPreorderError(
                        "induced relation not transitive", (w1, w2, w3)
                    )
    weights = [sum(1 for w2 in range(n) if rel[w2][w1]) for w1 in range(n)]
    return _kernel.compress_keys(weights)


# --- state-level API ---------------------------------------------------------

def step(state: EpistemicState, alpha: Formula, kind: OperatorKind) -> EpistemicState:
    """Apply one operator step for alpha."""
    amask = models(alpha, state.sig)
    ranks = step_ranks(state.order.ranks, amask, kind.code)
    if ranks == state.order.ranks:
        return state
    return EpistemicState(state.sig, TotalPreorder(ranks))


def iterate(state: EpistemicState, alpha: Formula, kind: OperatorKind, n: int) -> EpistemicState:
    """n-fold application of the step; n = 0 returns the state itself."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    amask = models(alpha, state.sig)
    ranks = state.order.ranks
    for _ in range(n):
        nxt = step_ranks(ranks, amask, kind.code)
        if nxt == ranks:
            break
        ranks = nxt
    if ranks == state.order.ranks:
        return state
    return EpistemicState(state.sig, TotalPreorder(ranks))


def achieve(state: EpistemicState, alpha: Formula, kind: OperatorKind) -> AchieveResult:
    """Repeat the step until alpha is no longer believed.

    Zero steps when alpha is a tautology or was not believed; otherwise the
    smallest step count at which belief in alpha fails.
    """
    amask = models(alpha, state.sig)
    ranks, steps = achieve_ranks(state.order.ranks, amask, kind.code)
    if ranks == state.order.ranks:
        return AchieveResult(state, steps)
    return AchieveResult(EpistemicState(state.sig, TotalPreorder(ranks)), steps)


def frontal(world: int, alpha: Formula, state: EpistemicState) -> bool:
    """Frontality of a counter-world of alpha; False for alpha-worlds.

    Raises ValueError for a world outside the state's universe.
    """
    if not 0 <= world < state.sig.n_worlds:
        raise ValueError(f"world {world} outside universe 0..{state.sig.n_worlds - 1}")
    amask = models(alpha, state.sig)
    if (amask >> world) & 1:
        return False
    return bool(_kernel.frontal_bits(state.order.ranks, amask) >> world & 1)


def _giveup_guard(state: EpistemicState) -> None:
    if state.sig.n_atoms > GIVEUP_MAX_ATOMS:
        raise ValueError(
            "give-up comparisons quantify over all semantic formula classes; "
            f"signature limited to {GIVEUP_MAX_ATOMS} atoms"
        )


def giveup_leq(alpha: Formula, beta: Formula, state: EpistemicState, kind: OperatorKind) -> bool:
    """True iff the agent gives up alpha at least as readily as beta."""
    a = models(alpha, state.sig)
    b = models(beta, state.sig)
    return giveup_leq_masks(state.order.ranks, a, b, kind.code)


def giveup_lt(alpha: Formula, beta: Formula, state: EpistemicState, kind: OperatorKind) -> bool:
    a = models(alpha, state.sig)
    b = models(beta, state.sig)
    return giveup_lt_masks(state.order.ranks, a, b, kind.code)


def giveup_ll(alpha: Formula, beta: Formula, state: EpistemicState, kind: OperatorKind) -> bool:
    """Direct-successor variant: strictly below with no class in between."""
    _giveup_guard(state)
    a = models(alpha, state.sig)
    b = models(beta, state.sig)
    return giveup_ll_masks(state.order.ranks, a, b, kind.code)


def induced_order(kind: OperatorKind, state: EpistemicState) -> TotalPreorder:
    """Materialise the order recovered from the operator's achieve results."""
    return TotalPreorder(induced_ranks(state.order.ranks, kind.code))


def expected_contraction_models(state: EpistemicState, alpha: Formula) -> int:
    """Model set a contraction must reach: current models plus the minimal
    counter-worlds of alpha."""
    amask = models(alpha, state.sig)
    namask = state.sig.universe & ~amask
    return belief_models(state) | min_of(namask, state.order)


__all__ = [
    "AchieveResult",
    "HesitanceViolationError",
    "NotPreorderError",
    "OperatorKind",
    "achieve",
    "achieve_bel",
    "achieve_ranks",
    "believes",
    "expected_contraction_models",
    "frontal",
    "giveup_leq",
    "giveup_ll",
    "giveup_lt",
    "induced_order",
    "induced_ranks",
    "iterate",
    "step",
    "step_ranks",
]
