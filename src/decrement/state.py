"""Epistemic states: a signature plus a plausibility order.

The state is its preorder; the belief set is determined by layer 0, and
``Bel(X) subseteq Bel(Y)`` is computed as the reversed inclusion of the
corresponding model sets.  Faithfulness holds by construction: exactly the
layer-0 worlds are models of the state, mutually tied and strictly below
everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from decrement._kernel import layer_masks
from decrement.logic import (
    Formula,
    Signature,
    equiv_wrt,
    models,
    worldset_from_bits,
    worldset_to_bits,
)
from decrement.preorder import TotalPreorder, from_layers


class StateFormatError(ValueError):
    """Malformed state document."""


@dataclass(frozen=True)
class EpistemicState:
    sig: Signature
    order: TotalPreorder

    def __post_init__(self) -> None:
        if self.order.n_worlds != self.sig.n_worlds:
            raise ValueError(
                f"order covers {self.order.n_worlds} worlds, "
                f"signature has {self.sig.n_worlds}"
            )


def belief_models(state: EpistemicState) -> int:
    """Models of the state's beliefs: the bottom layer."""
    return state.order.layer0


def believes(state: EpistemicState, alpha: Formula) -> bool:
    """True iff every most-plausible world satisfies alpha."""
    return belief_models(state) & ~models(alpha, state.sig) == 0


def bel_equiv_wrt(s1: EpistemicState, s2: EpistemicState, alpha: Formula) -> bool:
    """Belief-set equivalence relative to alpha.

    True iff the two belief model sets agree on the models of alpha.
    """
    if s1.sig != s2.sig:
        raise ValueError("states are over different signatures")
    return equiv_wrt(belief_models(s1), belief_models(s2), alpha, s1.sig)


# --- layers document: state files, counterexamples, successor listings -----
#
# A preorder is written as its layers, rank 0 first, each a list of world
# bitstrings in atom order; these three functions are the only codec.

def layers_to_bits(ranks, n_atoms: int) -> list[list[str]]:
    """The layer document of a compressed rank vector."""
    return [worldset_to_bits(m, n_atoms) for m in layer_masks(ranks)]


def mask_from_bits(bits, n_atoms: int, where: str) -> int:
    """Decode one world set: a list of bitstrings of ``n_atoms`` bits each.

    ``where`` names the set in the StateFormatError raised for bad input.
    """
    if not isinstance(bits, list):
        raise StateFormatError(f"{where}: expected a list of world bitstrings")
    for b in bits:
        if not isinstance(b, str) or len(b) != n_atoms:
            raise StateFormatError(f"{where}: world {b!r} is not a bitstring of {n_atoms} bits")
    try:
        mask = worldset_from_bits(bits)
    except ValueError as exc:
        raise StateFormatError(f"{where}: {exc}") from None
    if mask.bit_count() != len(bits):
        raise StateFormatError(f"{where}: a world is listed twice")
    return mask


def order_from_bits(layers, n_atoms: int) -> TotalPreorder:
    """Decode a layer document; the layers must partition all 2**n_atoms worlds."""
    if not isinstance(layers, list):
        raise StateFormatError("layers must be a list of lists of bitstrings")
    masks = [mask_from_bits(layer, n_atoms, f"layer {i}") for i, layer in enumerate(layers)]
    try:
        return from_layers(masks, n_worlds=1 << n_atoms)
    except ValueError as exc:
        raise StateFormatError(str(exc)) from None


def state_to_doc(state: EpistemicState) -> dict:
    """JSON-ready document: atoms plus layers of world bitstrings, rank 0 first."""
    return {
        "atoms": list(state.sig.atoms),
        "layers": layers_to_bits(state.order.ranks, state.sig.n_atoms),
    }


def state_from_doc(doc: dict) -> EpistemicState:
    if not isinstance(doc, dict):
        raise StateFormatError("state document must be a JSON object")
    try:
        atoms = doc["atoms"]
        layers = doc["layers"]
    except (KeyError, TypeError) as exc:
        raise StateFormatError(f"state document missing field: {exc}") from None
    if not isinstance(atoms, list):
        raise StateFormatError("atoms must be a list of atom names")
    try:
        sig = Signature(atoms)
    except (ValueError, TypeError) as exc:
        raise StateFormatError(f"bad atoms: {exc}") from None
    return EpistemicState(sig, order_from_bits(layers, sig.n_atoms))
