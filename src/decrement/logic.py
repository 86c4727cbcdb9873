"""Propositional signatures, formulas, and model sets.

Worlds are plain integers: bit ``i`` of a world holds the truth value of
atom ``i`` in signature order.  A set of worlds is an integer bitmask with
one bit per world (bit ``w`` set iff world ``w`` is a member), so semantic
operations reduce to integer arithmetic.  The textual form of a world is a
bitstring in atom order, e.g. ``"10"`` means the first atom is true and the
second false.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import reduce
from typing import Iterator

ATOM_PATTERN = re.compile(r"[a-z][a-z0-9_]*")

RESERVED_WORDS = frozenset({"true", "false"})

MAX_ATOMS = 26


class FormulaError(ValueError):
    """Base class for formula parsing and signature errors."""


class FormulaSyntaxError(FormulaError):
    """Malformed formula text; ``position`` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(FormulaError):
    """Formula references an atom that the signature does not declare."""

    def __init__(self, name: str, position: int = -1):
        where = f" (at position {position})" if position >= 0 else ""
        super().__init__(f"unknown atom {name!r}{where}")
        self.name = name
        self.position = position


@dataclass(frozen=True)
class Signature:
    """An ordered list of distinct atom names.

    The universe has one world per truth assignment, ``2**len(atoms)`` in
    total.  Atom names must match ``[a-z][a-z0-9_]*`` and may not shadow the
    ``true``/``false`` literals.
    """

    atoms: tuple[str, ...]

    def __init__(self, atoms) -> None:
        object.__setattr__(self, "atoms", tuple(atoms))
        if not 1 <= len(self.atoms) <= MAX_ATOMS:
            raise ValueError(f"signature needs 1..{MAX_ATOMS} atoms, got {len(self.atoms)}")
        seen = set()
        for name in self.atoms:
            if not isinstance(name, str) or not ATOM_PATTERN.fullmatch(name):
                raise ValueError(f"invalid atom name {name!r}")
            if name in RESERVED_WORDS:
                raise ValueError(f"atom name {name!r} collides with a formula literal")
            if name in seen:
                raise ValueError(f"duplicate atom name {name!r}")
            seen.add(name)
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(self.atoms)})
        object.__setattr__(self, "_atom_masks", _AtomMasks(self._index))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_worlds(self) -> int:
        return 1 << len(self.atoms)

    @property
    def universe(self) -> int:
        """Bitmask of all worlds."""
        return (1 << self.n_worlds) - 1

    def atom_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAtomError(name) from None

    def atom_models(self, index: int) -> int:
        """World-set mask of the worlds that make atom ``index`` true."""
        return _atom_models(self.n_atoms, index)


class _AtomMasks(dict):
    """Atom name -> world-set mask, for the signature whose atom index it
    is given.  Each mask is made on first use (a 26-atom one spans 2**26
    bits); an undeclared name is an UnknownAtomError."""

    def __init__(self, index: dict[str, int]) -> None:
        super().__init__()
        self.index = index

    def __missing__(self, name: str) -> int:
        if name not in self.index:
            raise UnknownAtomError(name)
        mask = self[name] = _atom_models(len(self.index), self.index[name])
        return mask


def _atom_models(n_atoms: int, index: int) -> int:
    # Periodic pattern: within each block of 2**(index+1) worlds the upper
    # half has the atom true.  Doubled up to the full universe width.
    if not 0 <= index < n_atoms:
        raise IndexError(f"atom index {index} out of range")
    half = 1 << index
    mask = ((1 << half) - 1) << half
    span = half << 1
    n_worlds = 1 << n_atoms
    while span < n_worlds:
        mask |= mask << span
        span <<= 1
    return mask


# --- world and world-set helpers -------------------------------------------

def world_to_bits(world: int, n_atoms: int) -> str:
    """Render a world as a bitstring in atom order (first atom first)."""
    return "".join("1" if (world >> i) & 1 else "0" for i in range(n_atoms))


def world_from_bits(bits: str) -> int:
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"invalid world bitstring {bits!r}")
    return sum(1 << i for i, c in enumerate(bits) if c == "1")


def worldset_to_bits(mask: int, n_atoms: int) -> list[str]:
    """List a world set as bitstrings, most-true-first (descending)."""
    bits = [world_to_bits(w, n_atoms) for w in iter_worlds(mask)]
    return sorted(bits, reverse=True)


def worldset_from_bits(bits: list[str]) -> int:
    mask = 0
    for b in bits:
        mask |= 1 << world_from_bits(b)
    return mask


def iter_worlds(mask: int) -> Iterator[int]:
    """Worlds of a set mask in increasing integer order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# --- formula AST ------------------------------------------------------------

class Formula:
    """Base class of the propositional AST."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


TOP = Top()
BOTTOM = Bottom()


# --- parser -----------------------------------------------------------------

# One pass of findall gives the token strings; whitespace separates tokens
# and is dropped.  The last alternative takes any character that starts no
# token, so that it can be reported.
_TOKEN = re.compile(r"<->|->|[!&|()]|[a-z][a-z0-9_]*|\S")

# Binary connective: (its precedence, the lowest precedence its right
# operand may use, its node).  ``->`` and ``<->`` associate to the right,
# ``&`` and ``|`` to the left.
_BINARY = {
    "<->": (1, 1, Iff),
    "->": (2, 2, Implies),
    "|": (3, 4, Or),
    "&": (4, 5, And),
}

# Deepest accepted nesting: the height of the syntax tree, with each
# parenthesised group counted as one level.  It keeps the recursion of the
# parser (at most two frames a level), ``models`` and ``format_formula``
# below the interpreter's default limit of 1000 frames.
MAX_FORMULA_DEPTH = 300
_TOO_DEEP = f"formula nested more than {MAX_FORMULA_DEPTH} levels deep"


def _parse_error(text: str, index: int, message: str | None) -> FormulaError:
    """The error for the token at ``index`` of ``text`` (the end of input
    past the last token): an unknown atom when ``message`` is None, else a
    syntax error with that message.

    A character that starts no token is reported instead, wherever it is,
    as if the whole text were tokenized before any of it is parsed.
    """
    spans = list(_TOKEN.finditer(text))
    for m in spans:
        tok = m.group()
        if len(tok) == 1 and tok not in "!&|()" and not "a" <= tok <= "z":
            return FormulaSyntaxError(f"unexpected character {tok!r}", m.start())
    at = spans[index].start() if index < len(spans) else len(text)
    if message is None:
        return UnknownAtomError(spans[index].group(), at)
    return FormulaSyntaxError(message, at)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse formula text over the given signature.

    Precedence, tightest first: ``!``, ``&``, ``|``, ``->``, ``<->``.
    ``->`` and ``<->`` associate to the right, ``&`` and ``|`` to the left.

    Raises :class:`FormulaSyntaxError` on malformed input or a formula
    nested deeper than ``MAX_FORMULA_DEPTH``, and
    :class:`UnknownAtomError` for atoms absent from the signature.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")  # end of input
    known = sig._index
    atoms: dict[str, Atom] = {}
    pos = 0
    height = 0  # of the subformula parsed last

    # ``depth`` counts the enclosing groups, negations and binary nodes
    # known so far: a lower bound on the height, which bounds the recursion.
    def binary(min_prec: int, depth: int) -> Formula:
        nonlocal pos, height
        left = unary(depth)
        while True:
            op = _BINARY.get(tokens[pos])
            if op is None or op[0] < min_prec:
                return left
            pos += 1
            left_height = height
            right = binary(op[1], depth + 1)
            if left_height > height:
                height = left_height
            height += 1
            left = op[2](left, right)

    def unary(depth: int) -> Formula:
        nonlocal pos, height
        if depth > MAX_FORMULA_DEPTH:
            raise _parse_error(text, pos, _TOO_DEEP)
        tok = tokens[pos]
        pos += 1
        if tok in known:
            height = 0
            node = atoms.get(tok)
            if node is None:
                node = atoms[tok] = Atom(tok)
            return node
        if tok == "!":
            node = Not(unary(depth + 1))
            height += 1
            return node
        if tok == "(":
            node = binary(1, depth + 1)
            height += 1
            if tokens[pos] != ")":
                if not tokens[pos]:
                    raise _parse_error(text, pos, "unexpected end of input, expected ')'")
                raise _parse_error(text, pos, f"expected ')', found {tokens[pos]!r}")
            pos += 1
            return node
        if tok == "true":
            height = 0
            return TOP
        if tok == "false":
            height = 0
            return BOTTOM
        if not tok:
            raise _parse_error(text, pos - 1, "unexpected end of input")
        if "a" <= tok[0] <= "z":
            raise _parse_error(text, pos - 1, None)
        raise _parse_error(text, pos - 1, f"unexpected token {tok!r}")

    try:
        node = binary(1, 0)
    finally:
        # binary and unary call each other, so each closure holds the
        # other: emptying their cells frees them without the collector.
        binary = unary = None
    if tokens[pos]:
        raise _parse_error(text, pos, f"unexpected token {tokens[pos]!r}")
    if height > MAX_FORMULA_DEPTH:
        raise _parse_error(text, 0, _TOO_DEEP)
    return node


_PRECEDENCE = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def format_formula(f: Formula) -> str:
    """Render a formula in the parser's grammar with minimal parentheses."""
    return _render(f)


def _prec(node: Formula) -> int:
    return _PRECEDENCE.get(type(node), 6)


def _render(node: Formula) -> str:
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, Top):
        return "true"
    if isinstance(node, Bottom):
        return "false"
    if isinstance(node, Not):
        inner = _render(node.operand)
        if _prec(node.operand) < 5:
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(node, (And, Or)):
        op = "&" if isinstance(node, And) else "|"
        p = _prec(node)
        left = _render(node.left)
        if _prec(node.left) < p:
            left = f"({left})"
        right = _render(node.right)
        if _prec(node.right) <= p:
            right = f"({right})"
        return f"{left} {op} {right}"
    if isinstance(node, (Implies, Iff)):
        op = "->" if isinstance(node, Implies) else "<->"
        p = _prec(node)
        left = _render(node.left)
        if _prec(node.left) <= p:
            left = f"({left})"
        right = _render(node.right)
        if _prec(node.right) < p:
            right = f"({right})"
        return f"{left} {op} {right}"
    raise TypeError(f"not a formula node: {node!r}")


# --- semantics --------------------------------------------------------------

_NODE_CLASSES = (Atom, Not, And, Or, Implies, Iff, Top, Bottom)


def models(f: Formula, sig: Signature) -> int:
    """World-set mask of the models of ``f`` under classical semantics."""
    return _models(f, sig.universe, sig._atom_masks)


def _models(node: Formula, universe: int, atom_masks: _AtomMasks) -> int:
    # One module-level function with its state as arguments: a call
    # allocates no closure, cell or dict.
    kind = type(node)
    if kind is Atom:
        return atom_masks[node.name]
    if kind is And:
        return _models(node.left, universe, atom_masks) & _models(node.right, universe, atom_masks)
    if kind is Not:
        return universe & ~_models(node.operand, universe, atom_masks)
    if kind is Or:
        return _models(node.left, universe, atom_masks) | _models(node.right, universe, atom_masks)
    if kind is Implies:
        return universe & (~_models(node.left, universe, atom_masks) | _models(node.right, universe, atom_masks))
    if kind is Iff:
        return universe & ~(_models(node.left, universe, atom_masks) ^ _models(node.right, universe, atom_masks))
    if kind is Top:
        return universe
    if kind is Bottom:
        return 0
    for base in _NODE_CLASSES:  # a subclass evaluates as its node class
        if isinstance(node, base):
            return _models(base(*(getattr(node, field.name) for field in fields(base))), universe, atom_masks)
    raise TypeError(f"not a formula node: {node!r}")


def entails(f: Formula, g: Formula, sig: Signature) -> bool:
    return models(f, sig) & ~models(g, sig) == 0


def equivalent(f: Formula, g: Formula, sig: Signature) -> bool:
    return models(f, sig) == models(g, sig)


def world_literal(world: int, sig: Signature) -> Formula:
    """Complete conjunction naming exactly one world."""
    lits = [
        Atom(name) if (world >> i) & 1 else Not(Atom(name))
        for i, name in enumerate(sig.atoms)
    ]
    return reduce(And, lits)


def negated_world(world: int, sig: Signature) -> Formula:
    """Formula whose models are every world except the given one."""
    if not 0 <= world < sig.n_worlds:
        raise ValueError(f"world {world} outside universe")
    return Not(world_literal(world, sig))


def equiv_wrt(set1: int, set2: int, alpha: Formula, sig: Signature) -> bool:
    """World-set equivalence relative to a formula.

    True iff both sets contain the same models of ``alpha``.
    """
    a = models(alpha, sig)
    return set1 & a == set2 & a


def formula_from_worldset(mask: int, sig: Signature) -> Formula:
    """Canonical syntactic representative of a semantic class.

    Returns ``false`` for the empty set, ``true`` for the full universe,
    otherwise a disjunction of complete conjunctions.
    """
    if mask == 0:
        return BOTTOM
    if mask == sig.universe:
        return TOP
    worlds = sorted(iter_worlds(mask), key=lambda w: world_to_bits(w, sig.n_atoms), reverse=True)
    return reduce(Or, (world_literal(w, sig) for w in worlds))
