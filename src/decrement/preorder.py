"""Total preorders over a world universe.

A preorder is stored as a compressed rank vector: ``ranks[w]`` is the layer
index of world ``w``, layer 0 is the most plausible, and the occupied
layers are exactly ``0..k`` with every layer nonempty.  Compression makes
the direct-successor relation a rank-adjacency test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterator, Mapping, Sequence

from decrement import _kernel
from decrement._kernel import MAX_UNIVERSE, UniverseTooLargeError  # re-exported
from decrement.logic import iter_worlds


@dataclass(frozen=True, slots=True)
class TotalPreorder:
    """Compressed rank function over all worlds of a universe."""

    ranks: tuple[int, ...]

    def __init__(self, ranks) -> None:
        ranks = tuple(ranks)
        if not ranks:
            raise ValueError("empty universe")
        occupied = set(ranks)
        top = max(occupied)
        if occupied != set(range(top + 1)):
            raise ValueError(f"ranks not compressed: occupied {sorted(occupied)}")
        object.__setattr__(self, "ranks", ranks)

    @property
    def n_worlds(self) -> int:
        return len(self.ranks)

    @property
    def n_layers(self) -> int:
        return max(self.ranks) + 1

    def rank(self, world: int) -> int:
        return self.ranks[world]

    def layer(self, index: int) -> int:
        """World-set mask of one layer; empty outside ``0..top``."""
        if not 0 <= index < self.n_layers:
            return 0
        return _kernel.layer_masks(self.ranks)[index]

    @property
    def layer0(self) -> int:
        return _kernel.bel_mask(self.ranks)


def leq(w1: int, w2: int, tpo: TotalPreorder) -> bool:
    """At least as plausible: rank(w1) <= rank(w2)."""
    return tpo.ranks[w1] <= tpo.ranks[w2]


def lt(w1: int, w2: int, tpo: TotalPreorder) -> bool:
    """Strictly more plausible."""
    return tpo.ranks[w1] < tpo.ranks[w2]


def equiv(w1: int, w2: int, tpo: TotalPreorder) -> bool:
    """Equally plausible (same layer)."""
    return tpo.ranks[w1] == tpo.ranks[w2]


def direct_successor(w1: int, w2: int, tpo: TotalPreorder) -> bool:
    """w1 strictly below w2 with no world in between.

    With compressed ranks this is exactly rank adjacency.
    """
    return tpo.ranks[w2] == tpo.ranks[w1] + 1


def min_of(s: int, tpo: TotalPreorder) -> int:
    """Lowest-layer members of a world set; empty for the empty set."""
    return _kernel.min_rank_mask(tpo.ranks, s)


def to_layers(tpo: TotalPreorder) -> list[int]:
    """Layer masks from bottom (rank 0) upward."""
    return _kernel.layer_masks(tpo.ranks)


def from_layers(layers: Sequence[int], n_worlds: int | None = None) -> TotalPreorder:
    """Build a preorder from layer masks (rank 0 first).

    The layers must partition the universe; pass ``n_worlds`` to catch
    partitions that silently drop the highest worlds.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("no layers")
    union = 0
    for i, layer in enumerate(layers):
        if layer == 0:
            raise ValueError(f"layer {i} is empty")
        if layer & union:
            raise ValueError(f"layer {i} overlaps a lower layer")
        union |= layer
    n = union.bit_length() if n_worlds is None else n_worlds
    if union != (1 << n) - 1:
        raise ValueError("layers do not partition the universe")
    ranks = [0] * n
    for i, layer in enumerate(layers):
        for w in iter_worlds(layer):
            ranks[w] = i
    return TotalPreorder(ranks)


def compress(keys) -> TotalPreorder:
    """Preorder order-isomorphic to a total key assignment.

    ``keys`` maps every world to an integer or rational; rationals let
    operator constructions interleave layers without rescaling.
    """
    if isinstance(keys, Mapping):
        n = len(keys)
        try:
            seq = [keys[w] for w in range(n)]
        except KeyError as exc:
            raise ValueError(f"key assignment not total: missing world {exc}") from None
    else:
        seq = list(keys)
    for k in seq:
        if not isinstance(k, (int, Fraction, Rational)) or isinstance(k, bool):
            raise ValueError(f"keys must be integers or rationals, got {k!r}")
    return TotalPreorder(_kernel.compress_keys(seq))


def enumerate_preorders(n_worlds: int) -> Iterator[TotalPreorder]:
    """Every total preorder on the universe, exactly once, in a fixed order.

    The stream is ordered lexicographically by rank vector and is
    restartable; universes beyond 8 worlds are refused when it is created
    (UniverseTooLargeError).
    """
    return map(TotalPreorder, _kernel.weak_order_ranks(n_worlds))
