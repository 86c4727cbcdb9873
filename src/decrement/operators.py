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
from dataclasses import dataclass
from functools import lru_cache

from decrement import _kernel
from decrement._kernel import bel_mask as _bel_mask  # a global: achieve_bel calls it per case
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
# pairs, so the core works on plain tuples and masks with memoisation.

@lru_cache(maxsize=1 << 18)
def step_ranks(ranks: tuple, amask: int, code: int) -> tuple:
    return _kernel.step_ranks(ranks, amask, code)


@lru_cache(maxsize=1 << 18)
def achieve_ranks(ranks: tuple, amask: int, code: int) -> tuple[tuple, int]:
    """Apply step_ranks until alpha is no longer believed.

    Returns (final ranks, step count); zero steps for tautologies and for
    formulas not believed in the first place.
    """
    n = len(ranks)
    full = (1 << n) - 1
    amask &= full
    if amask == full:
        return ranks, 0
    if _bel_mask(ranks) & ~amask:
        return ranks, 0
    bound = max(ranks) + 1
    cur = ranks
    for steps in range(1, bound + 1):
        cur = step_ranks(cur, amask, code)
        if _bel_mask(cur) & ~amask:
            return cur, steps
    raise HesitanceViolationError(
        f"belief not dropped within {bound} steps (kind code {code})"
    )


def achieve_bel(ranks: tuple, amask: int, code: int) -> int:
    """Belief models after achieving the drop of alpha."""
    return _bel_mask(achieve_ranks(ranks, amask, code)[0])


def giveup_leq_masks(ranks: tuple, a: int, b: int, code: int) -> bool:
    # a at-most-as-entrenched-as b: dropping a-and-b loses no more than
    # dropping a alone, i.e. the a-result models are kept.
    return achieve_bel(ranks, a, code) & ~achieve_bel(ranks, a & b, code) == 0


def giveup_lt_masks(ranks: tuple, a: int, b: int, code: int) -> bool:
    return giveup_leq_masks(ranks, a, b, code) and not giveup_leq_masks(ranks, b, a, code)


def giveup_ll_masks(ranks: tuple, a: int, b: int, code: int) -> bool:
    # giveup_lt_masks(a, b), then giveup_lt_masks(a, g) and
    # giveup_lt_masks(g, b) for every class g, reading each class's belief
    # once per call, in the order giveup_lt_masks reads them.
    memo: dict[int, int] = {}

    def bel(mask: int) -> int:
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
        for w2 in range(n):
            target = full & ~((1 << w1) | (1 << w2))
            rel[w1][w2] = bool(achieve_bel(ranks, target, code) >> w1 & 1)
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
    """Frontality of a counter-world of alpha; False for alpha-worlds."""
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
