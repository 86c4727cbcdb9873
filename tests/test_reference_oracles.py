"""The operator API's hot paths against the implementations they replaced.

The tokenizer, parser, ``models`` and ``giveup_ll_masks`` below are the
previous ones, kept verbatim as references: a tokenizer loop and a parser
class, a recursive ``models`` that re-reads the signature at every node,
a ``models`` that walks a per-call closure, a give-up scan that asks
``giveup_lt_masks`` twice per class, and the kernel's per-world
``frontal_bits`` and ``step_ranks`` with their sort-based key
compression, the case-class recursion that rebuilt its layer tables
per call, kept per-variable mask tuples and walked to a chunk's start,
and the representation check that walked every order one at a time.
The library's versions must agree with them on every input, errors
included.
"""

import hashlib
import json
import random
from dataclasses import fields
from functools import lru_cache
from itertools import combinations_with_replacement, groupby, islice
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from decrement import _kernel
from decrement.logic import (
    _NODE_CLASSES,
    ATOM_PATTERN,
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Formula,
    FormulaError,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    Signature,
    Top,
    UnknownAtomError,
    _atom_models,
    format_formula,
    models,
    parse_formula,
)
from decrement.checker import (
    _DR_BITS,
    COUNTEREXAMPLE_CAP,
    REGISTRY,
    CheckReport,
    _case_key,
    _counterexample,
    _domain,
    _pair_result,
    conformance_matrix,
    verify_representation,
)
from decrement.cli import main
from decrement.operators import (
    OperatorKind,
    achieve,
    achieve_bel,
    achieve_ranks,
    bel_row,
    giveup_ll_masks,
    giveup_lt_masks,
    giveup_rows,
    induced_order,
    induced_ranks,
    iterate,
    NotPreorderError,
    step,
    step_ranks,
    step_row,
)
from decrement.preorder import TotalPreorder, enumerate_preorders
from decrement.profiles import _cells, _planes, case_class_count, case_classes, case_count
from decrement.state import EpistemicState, state_to_doc

# --- reference implementations ------------------------------------------------

_TOKEN_SPECS = (
    ("IFF", "<->"),
    ("IMPLIES", "->"),
    ("NOT", "!"),
    ("AND", "&"),
    ("OR", "|"),
    ("LPAREN", "("),
    ("RPAREN", ")"),
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        for kind, lit in _TOKEN_SPECS:
            if text.startswith(lit, pos):
                tokens.append((kind, lit, pos))
                pos += len(lit)
                break
        else:
            m = ATOM_PATTERN.match(text, pos)
            if m:
                word = m.group(0)
                if word == "true":
                    tokens.append(("TRUE", word, pos))
                elif word == "false":
                    tokens.append(("FALSE", word, pos))
                else:
                    tokens.append(("ATOM", word, pos))
                pos = m.end()
            else:
                raise FormulaSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser.

    Precedence, tightest first: ``!``, ``&``, ``|``, ``->``, ``<->``.
    ``->`` and ``<->`` associate to the right, ``&`` and ``|`` to the left.
    """

    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.sig = sig
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        node = self.parse_iff()
        kind, value, at = self.peek()
        if kind != "END":
            raise FormulaSyntaxError(f"unexpected token {value!r}", at)
        return node

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        if self.peek()[0] == "IFF":
            self.advance()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.peek()[0] == "IMPLIES":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek()[0] == "OR":
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self.peek()[0] == "AND":
            self.advance()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        kind, value, at = self.advance()
        if kind == "NOT":
            return Not(self.parse_unary())
        if kind == "ATOM":
            if value not in self.sig._index:
                raise UnknownAtomError(value, at)
            return Atom(value)
        if kind == "TRUE":
            return TOP
        if kind == "FALSE":
            return BOTTOM
        if kind == "LPAREN":
            node = self.parse_iff()
            k, v, p = self.advance()
            if k != "RPAREN":
                if k == "END":
                    raise FormulaSyntaxError("unexpected end of input, expected ')'", p)
                raise FormulaSyntaxError(f"expected ')', found {v!r}", p)
            return node
        if kind == "END":
            raise FormulaSyntaxError("unexpected end of input", at)
        raise FormulaSyntaxError(f"unexpected token {value!r}", at)


def reference_models(f: Formula, sig: Signature) -> int:
    """World-set mask of the models of ``f`` under classical semantics."""
    universe = sig.universe
    if isinstance(f, Atom):
        return sig.atom_models(sig.atom_index(f.name))
    if isinstance(f, Not):
        return universe & ~reference_models(f.operand, sig)
    if isinstance(f, And):
        return reference_models(f.left, sig) & reference_models(f.right, sig)
    if isinstance(f, Or):
        return reference_models(f.left, sig) | reference_models(f.right, sig)
    if isinstance(f, Implies):
        return universe & (~reference_models(f.left, sig) | reference_models(f.right, sig))
    if isinstance(f, Iff):
        return universe & ~(reference_models(f.left, sig) ^ reference_models(f.right, sig))
    if isinstance(f, Top):
        return universe
    if isinstance(f, Bottom):
        return 0
    raise TypeError(f"not a formula node: {f!r}")


def closure_models(f: Formula, sig: Signature) -> int:
    """World-set mask of the models of ``f`` under classical semantics."""
    universe = sig.universe
    n_atoms = sig.n_atoms
    atom_masks: dict[str, int] = {}

    def walk(node: Formula) -> int:
        kind = type(node)
        if kind is Atom:
            mask = atom_masks.get(node.name)
            if mask is None:
                mask = atom_masks[node.name] = _atom_models(n_atoms, sig.atom_index(node.name))
            return mask
        if kind is And:
            return walk(node.left) & walk(node.right)
        if kind is Not:
            return universe & ~walk(node.operand)
        if kind is Or:
            return walk(node.left) | walk(node.right)
        if kind is Implies:
            return universe & (~walk(node.left) | walk(node.right))
        if kind is Iff:
            return universe & ~(walk(node.left) ^ walk(node.right))
        if kind is Top:
            return universe
        if kind is Bottom:
            return 0
        for base in _NODE_CLASSES:  # a subclass evaluates as its node class
            if isinstance(node, base):
                return walk(base(*(getattr(node, field.name) for field in fields(base))))
        raise TypeError(f"not a formula node: {node!r}")

    return walk(f)


def reference_frontal_bits(ranks, amask: int) -> int:
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


def reference_step_ranks(ranks, amask: int, kind: int) -> tuple:
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
    bel = _kernel.bel_mask(ranks)
    if amask == full:
        return ranks
    if bel & ~amask:
        return ranks
    if kind == _kernel.KIND_INSTANT:
        promoted = bel | _kernel.min_rank_mask(ranks, full & ~amask)
        keys = [0 if (promoted >> w) & 1 else ranks[w] + 1 for w in range(n)]
        return _kernel.compress_keys(keys)
    if kind not in (_kernel.KIND_TYPE1, _kernel.KIND_TYPE2):
        raise ValueError(f"unknown operator kind code {kind}")
    frontal = reference_frontal_bits(ranks, amask) if kind == _kernel.KIND_TYPE2 else 0
    keys = []
    for w in range(n):
        r = ranks[w]
        if (amask >> w) & 1:
            keys.append(2 * r)
        elif (frontal >> w) & 1:
            keys.append(2 * r)
        else:
            keys.append(2 * r - 2)
    return _kernel.compress_keys(keys)


def reference_giveup_ll_masks(ranks: tuple, a: int, b: int, code: int) -> bool:
    if not giveup_lt_masks(ranks, a, b, code):
        return False
    n_classes = 1 << len(ranks)
    for g in range(n_classes):
        if giveup_lt_masks(ranks, a, g, code) and giveup_lt_masks(ranks, g, b, code):
            return False
    return True


def reference_tables(variables, above, n: int, fact: list[int]):
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


def reference_case_classes(variables, above, n_worlds: int):
    """Every valid profile once, in a fixed order, as (ranks, values, size).

    Worlds ``0..n_worlds-1`` of the representative take the profile's types
    in sorted (rank, cell) order, so its ranks do not decrease.  ``values``
    follow ``variables`` and ``size`` is the orbit size, ``n! / prod m!``
    over the multiplicities ``m`` of the types.  The recursion places one
    nonempty layer per rank until every world has one; the marker goes on
    exactly one world.
    """
    fact = [factorial(k) for k in range(n_worlds + 1)]
    tables = reference_tables(variables, above, n_worlds, fact)
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


def reference_case_class_count(variables, above, n_worlds: int) -> int:
    """The length of the case_classes stream, from the same layer tables."""
    fact = [factorial(k) for k in range(n_worlds + 1)]
    tables = reference_tables(variables, above, n_worlds, fact)

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


# --- parse_formula ------------------------------------------------------------

SIG3 = Signature(("a", "b", "c"))


def outcome(parse, text, sig=SIG3):
    """The AST, or the error's class, message and position."""
    try:
        return parse(text, sig)
    except FormulaError as exc:
        return type(exc), str(exc), exc.position


def reference_parse(text, sig):
    return _Parser(text, sig).parse()


GAPS = st.sampled_from(["", " ", "  ", "\t", "\n "])


def valid_texts():
    leaves = st.sampled_from(["a", "b", "c", "true", "false"])

    def grow(sub):
        binary = st.tuples(sub, GAPS, st.sampled_from(["&", "|", "->", "<->"]), GAPS, sub)
        return st.one_of(
            st.tuples(GAPS, sub).map(lambda t: "!" + "".join(t)),
            st.tuples(GAPS, sub, GAPS).map(lambda t: "(" + "".join(t) + ")"),
            binary.map("".join),
        )

    return st.tuples(GAPS, st.recursive(leaves, grow, max_leaves=10), GAPS).map("".join)


# every token, pieces of tokens, an unknown atom and characters no token starts
PIECES = list("ab c()!&|<->xA1_\t") + ["true", "false", "<->", "->", "zz"]


class TestParserOracle:
    @given(text=valid_texts())
    @settings(max_examples=400, deadline=None)
    def test_valid_texts_give_the_same_tree(self, text):
        assert parse_formula(text, SIG3) == reference_parse(text, SIG3)

    @given(text=st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
    @settings(max_examples=800, deadline=None)
    def test_any_text_gives_the_same_tree_or_error(self, text):
        assert outcome(parse_formula, text) == outcome(reference_parse, text)

    @pytest.mark.parametrize(
        "text",
        ["", " ", "a", "a b", "a &", "(a", "(a b", "a)", "!", "+", "a & zz", "zz & +", "a <- b", "a - > b",
         "a <-> b -> c", "a -> b <-> c", "((a))", "true1", "a1 & a", "é", "a & b"],
    )
    def test_listed_texts(self, text):
        assert outcome(parse_formula, text) == outcome(reference_parse, text)


# --- models -------------------------------------------------------------------

def formulas(atom_names):
    leaves = st.one_of(st.sampled_from(atom_names).map(Atom), st.just(TOP), st.just(BOTTOM))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(st.sampled_from([And, Or, Implies, Iff]), sub, sub).map(lambda t: t[0](t[1], t[2])),
        ),
        max_leaves=16,
    )


@st.composite
def signatures_and_formulas(draw):
    sig = Signature(tuple("abcd"[: draw(st.integers(1, 4))]))
    return sig, draw(formulas(list(sig.atoms)))


class _Both(And):
    pass


class _Always(Top):
    pass


class _Named(Atom):
    pass


class TestModelsOracle:
    @given(case=signatures_and_formulas())
    @settings(max_examples=250, deadline=None)
    def test_random_trees(self, case):
        sig, f = case
        assert models(f, sig) == reference_models(f, sig) == closure_models(f, sig)

    def test_subclasses_evaluate_as_their_node_class(self):
        f = Or(_Both(Atom("a"), Not(_Named("b"))), Not(_Always()))
        assert models(f, SIG3) == reference_models(f, SIG3) == closure_models(f, SIG3) == 0b00100010
        # they print as their node class, too, and parse back to their models
        for g, text in [
            (f, "a & !b | !true"),
            (Not(_Both(Atom("a"), _Named("b"))), "!(a & b)"),
            (Or(Atom("c"), Not(_Both(_Named("a"), _Always()))), "c | !(a & true)"),
            (_Both(Atom("a"), _Both(Atom("b"), Atom("c"))), "a & (b & c)"),
        ]:
            assert format_formula(g) == text
            assert models(parse_formula(text, SIG3), SIG3) == reference_models(g, SIG3)

    def test_errors(self):
        for evaluate in (models, closure_models):
            with pytest.raises(UnknownAtomError, match="'z'"):
                evaluate(And(Atom("a"), Atom("z")), SIG3)
            with pytest.raises(UnknownAtomError):  # an undeclared name is not remembered as one
                evaluate(Or(Atom("z"), Atom("a")), SIG3)
            with pytest.raises(TypeError):
                evaluate(Not("a"), SIG3)

    def test_signatures_keep_their_own_atom_masks(self):
        # the same name in signatures of different sizes, in either order
        small, large = Signature(("a",)), Signature(("b", "a"))
        for _ in range(2):
            assert models(Atom("a"), small) == closure_models(Atom("a"), small) == 0b10
            assert models(Atom("a"), large) == closure_models(Atom("a"), large) == 0b1100


# --- giveup_ll_masks ----------------------------------------------------------

CODES = [kind.code for kind in OperatorKind]


class TestGiveupOracle:
    @pytest.mark.parametrize("n_atoms", [1, 2])
    def test_exhaustive(self, n_atoms):
        n = 1 << n_atoms
        compared = 0
        for order in enumerate_preorders(n):
            for code in CODES:
                for a in range(1 << n):
                    for b in range(1 << n):
                        got = giveup_ll_masks(order.ranks, a, b, code)
                        assert got == reference_giveup_ll_masks(order.ranks, a, b, code), (order.ranks, a, b, code)
                        compared += 1
        assert compared == _kernel.weak_order_count(n) * len(CODES) * (1 << n) ** 2

    @given(
        keys=st.lists(st.integers(0, 7), min_size=8, max_size=8),
        a=st.integers(0, 255),
        b=st.integers(0, 255),
        believed=st.booleans(),
        code=st.sampled_from(CODES),
    )
    @settings(max_examples=300, deadline=None)
    def test_three_atoms(self, keys, a, b, believed, code):
        ranks = _kernel.compress_keys(keys)
        if believed:  # both classes believed, so that the scan over classes runs more often
            a |= _kernel.bel_mask(ranks)
            b |= _kernel.bel_mask(ranks)
        assert giveup_ll_masks(ranks, a, b, code) == reference_giveup_ll_masks(ranks, a, b, code)


# --- per-state rows -------------------------------------------------------------

def ascending_vectors(n: int):
    """The 2^(n-1) compressed rank vectors on n worlds whose ranks never
    decrease: the ranks of every case-class representative."""
    for rises in range(1 << (n - 1)):
        ranks = [0]
        for i in range(n - 1):
            ranks.append(ranks[-1] + (rises >> i & 1))
        yield tuple(ranks)


def assert_rows_match(ranks: tuple, code: int, pairs) -> None:
    """The rows of (ranks, code) against the per-mask functions: every
    mask of the belief and step rows, and the give-up rows on ``pairs``."""
    masks = range(1 << len(ranks))
    assert bel_row(ranks, code) == tuple(achieve_bel(ranks, m, code) for m in masks)
    steps = step_row(ranks, code)
    assert steps == tuple(step_ranks(ranks, m, code) for m in masks)
    assert len(set(map(id, steps))) == len(set(steps))  # each distinct vector stored once
    lt, ll = giveup_rows(ranks, code)
    for a, b in pairs:
        assert (lt[a] >> b & 1) == giveup_lt_masks(ranks, a, b, code), (ranks, code, a, b)
        assert (ll[a] >> b & 1) == reference_giveup_ll_masks(ranks, a, b, code), (ranks, code, a, b)


class TestRowOracle:
    @pytest.mark.parametrize("n_atoms", [1, 2])
    def test_exhaustive(self, n_atoms):
        n = 1 << n_atoms
        pairs = [(a, b) for a in range(1 << n) for b in range(1 << n)]
        for ranks in _kernel.weak_order_ranks(n):
            for code in CODES:
                assert_rows_match(ranks, code, pairs)

    def test_three_atom_representatives(self):
        vectors = list(ascending_vectors(8))
        assert len(vectors) == 128 and all(list(r) == sorted(r) for r in vectors)
        rng = random.Random(19)
        for ranks in rng.sample(vectors, 12):
            bel = _kernel.bel_mask(ranks)
            for code in CODES:
                # half the pairs believed, so that the relations hold more often
                pairs = [(rng.randrange(256) | bel * i, rng.randrange(256) | bel * i) for i in (0, 1) * 20]
                assert_rows_match(ranks, code, pairs)


# --- frontal_bits and step_ranks ----------------------------------------------

KIND_CODES = (_kernel.KIND_TYPE1, _kernel.KIND_TYPE2, _kernel.KIND_INSTANT)


class TestStepOracle:
    def test_every_order_mask_and_kind_up_to_five_worlds(self):
        compared = 0
        for n in range(1, 6):
            for ranks in _kernel.weak_order_ranks(n):
                for amask in range(1 << n):
                    assert _kernel.frontal_bits(ranks, amask) == reference_frontal_bits(ranks, amask)
                    for code in KIND_CODES:
                        got = _kernel.step_ranks(ranks, amask, code)
                        assert got == reference_step_ranks(ranks, amask, code), (ranks, amask, code)
                        compared += 1
        assert compared == 55_890

    @given(
        keys=st.integers(6, 8).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
        amask=st.integers(0, 255),
        believed=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_six_to_eight_worlds(self, keys, amask, believed):
        ranks = _kernel.compress_keys(keys)
        if believed:  # a believed alpha, so that the step moves worlds more often
            amask |= _kernel.bel_mask(ranks)
        assert _kernel.frontal_bits(ranks, amask) == reference_frontal_bits(ranks, amask)
        for code in KIND_CODES:
            assert _kernel.step_ranks(ranks, amask, code) == reference_step_ranks(ranks, amask, code)

    @given(
        ranks=st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(0, 2 * n), min_size=n, max_size=n)),
        amask=st.integers(0, 1023),
    )
    @settings(max_examples=200, deadline=None)
    def test_uncompressed_vectors_and_wide_masks(self, ranks, amask):
        assert _kernel.frontal_bits(ranks, amask) == reference_frontal_bits(ranks, amask)
        for code in KIND_CODES:
            assert _kernel.step_ranks(ranks, amask, code) == reference_step_ranks(ranks, amask, code)

    @given(
        keys=st.integers(9, 32).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
        amask=st.integers(0, (1 << 32) - 1),
        believed=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_universes_past_eight_worlds(self, keys, amask, believed):
        ranks = _kernel.compress_keys(keys)
        if believed:
            amask |= _kernel.bel_mask(ranks)
        assert _kernel.frontal_bits(ranks, amask) == reference_frontal_bits(ranks, amask)
        for code in KIND_CODES:
            assert _kernel.step_ranks(ranks, amask, code) == reference_step_ranks(ranks, amask, code)


def reference_achieve(ranks: tuple, amask: int, kind: int) -> tuple[tuple, int]:
    # the step repeated until alpha is no longer believed
    steps = 0
    while amask & ((1 << len(ranks)) - 1) != (1 << len(ranks)) - 1 and not _kernel.bel_mask(ranks) & ~amask:
        ranks = reference_step_ranks(ranks, amask, kind)
        steps += 1
    return ranks, steps


SIG4 = Signature(("a", "b", "c", "d"))
WIDE_TEXTS = ("a", "a | b", "!(c & d)", "a -> (b <-> d)", "true", "!b")


@st.composite
def four_atom_states(draw):
    keys = draw(st.lists(st.integers(0, 5), min_size=16, max_size=16))
    return EpistemicState(SIG4, TotalPreorder(_kernel.compress_keys(keys)))


class TestSixteenWorlds:
    """A four-atom state, 16 worlds, through the operator API and the CLI."""

    @given(state=four_atom_states(), text=st.sampled_from(WIDE_TEXTS), kind=st.sampled_from(list(OperatorKind)))
    @settings(max_examples=150, deadline=None)
    def test_operator_api(self, state, text, kind):
        ranks = state.order.ranks
        amask = models(parse_formula(text, SIG4), SIG4)
        once = reference_step_ranks(ranks, amask, kind.code)
        assert step(state, parse_formula(text, SIG4), kind).order.ranks == once
        assert step_ranks(ranks, amask, kind.code) == once
        twice = reference_step_ranks(once, amask, kind.code)
        assert iterate(state, parse_formula(text, SIG4), kind, 2).order.ranks == twice
        final, steps = reference_achieve(ranks, amask, kind.code)
        result = achieve(state, parse_formula(text, SIG4), kind)
        assert (result.state.order.ranks, result.steps) == (final, steps)
        assert achieve_ranks(ranks, amask, kind.code) == (final, steps)
        assert induced_order(kind, state) == state.order

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("command", [("apply", "--steps", "2"), ("apply", "--achieve"), ("achieve",)])
    def test_cli(self, command, kind, capsys, tmp_path):
        amask = models(parse_formula("a | b", SIG4), SIG4)
        ranks = _kernel.compress_keys([2 * (w // 4) + (not amask >> w & 1) for w in range(16)])  # a | b believed
        assert not _kernel.bel_mask(ranks) & ~amask
        path = tmp_path / "four.json"
        path.write_text(json.dumps(state_to_doc(EpistemicState(SIG4, TotalPreorder(ranks)))))
        code = main([command[0], str(path), "--formula", "a | b", "--op", kind.value, *command[1:]])
        assert code == 0
        if "--steps" in command:
            want = reference_step_ranks(reference_step_ranks(ranks, amask, kind.code), amask, kind.code)
        else:
            want, _ = reference_achieve(ranks, amask, kind.code)
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["after"] == state_to_doc(EpistemicState(SIG4, TotalPreorder(want)))
        assert doc["after"] != doc["before"]


# --- case classes -------------------------------------------------------------

# One (variables, premises) case space per distinct shape in the registry.
SPACES = list({(rec.variables, tuple(sorted(rec.above.items()))): rec.above for rec in REGISTRY.values()}.items())
SPACE_IDS = [",".join(v) + "|" + ",".join(f"{a}>{b}" for a, b in p) for (v, p), _ in SPACES]
MATRIX2_SHA256 = "b30f13ca515d3b21c5373f045b0e913f3c0e36851dd59bca963ee491a018dd43"


def classes_without_sizes(stream):
    return [(ranks, values) for ranks, values, _ in stream]


class TestCaseClassOracle:
    """The memoised, packed, seekable stream against the per-call one, and
    the closed case count against the oracle's orbit sizes."""

    @pytest.mark.parametrize("space, n_worlds", [
        pytest.param(space, n, id=f"{space_id}-{n}")
        for space, space_id in zip(SPACES, SPACE_IDS)
        for n in (1, 2, 4, 8)
        # eight-world reference streams are listed only where they are short
        if n < 8 or reference_case_class_count(space[0][0], space[1], 8) <= 200_000
    ])
    def test_case_count_is_the_sum_of_orbit_sizes(self, space, n_worlds):
        (variables, _), above = space
        sizes = sum(size for *_, size in reference_case_classes(variables, above, n_worlds))
        assert case_count(variables, above, n_worlds) == sizes

    @pytest.mark.parametrize("n_worlds", [2, 4])
    @pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
    def test_stream_count_and_every_start(self, space, n_worlds):
        (variables, _), above = space
        ref = classes_without_sizes(reference_case_classes(variables, above, n_worlds))
        assert list(case_classes(variables, above, n_worlds)) == ref
        assert case_class_count(variables, above, n_worlds) == reference_case_class_count(
            variables, above, n_worlds
        ) == len(ref)
        # The next 200 classes from every start: the whole tail wherever
        # fewer are left, which at one atom is every start.
        for lo in range(len(ref) + 2):
            assert list(islice(case_classes(variables, above, n_worlds, start=lo), 200)) == ref[lo:lo + 200]

    @pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
    def test_three_atom_prefix_and_count(self, space):
        (variables, _), above = space
        ref = classes_without_sizes(islice(reference_case_classes(variables, above, 8), 20_000))
        assert list(islice(case_classes(variables, above, 8), 20_000)) == ref
        assert case_class_count(variables, above, 8) == reference_case_class_count(variables, above, 8)

    @pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
    def test_three_atom_starts(self, space):
        """200 seeded starts plus 0, total - 1 and total.  Where the whole
        reference stream is cheap to list, a start gives its next 50
        classes; in the spaces of 1.6M and 33.9M classes, a start gives
        the class after the one the previous start gives."""
        (variables, _), above = space
        total = case_class_count(variables, above, 8)
        rng = random.Random(12)
        starts = sorted({0, total - 1, total, *(rng.randrange(total) for _ in range(200))})
        if total <= 200_000:
            ref = classes_without_sizes(reference_case_classes(variables, above, 8))
            for lo in starts:
                assert list(islice(case_classes(variables, above, 8, start=lo), 50)) == ref[lo:lo + 50]
            return
        for lo in starts[:-2]:
            assert list(islice(case_classes(variables, above, 8, start=lo), 2))[1] == next(
                case_classes(variables, above, 8, start=lo + 1)
            )
        assert len(list(case_classes(variables, above, 8, start=total - 1))) == 1
        assert list(case_classes(variables, above, 8, start=total)) == []

    def test_matrix_from_chunk_starts(self, monkeypatch):
        """Three chunks a cell, run in this process: every evaluated cell's
        later chunks start by seeking, the cells that hold by construction
        start none, and the matrix keeps its pinned bytes."""
        import decrement.checker as checker

        class SerialPool:
            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self):
                pass

        chunks = []
        run_chunk = checker._run_chunk

        def recorded(*chunk):
            chunks.append(chunk)
            return run_chunk(*chunk)

        monkeypatch.setattr(checker, "_worker_pool", lambda workers: SerialPool())
        monkeypatch.setattr(checker, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(checker, "_run_chunk", recorded)
        matrix = conformance_matrix(list(OperatorKind), "all", Signature(("a", "b")), workers=3)
        assert hashlib.sha256(matrix.to_json().encode("utf-8")).hexdigest() == MATRIX2_SHA256
        assert not [c for c in chunks if c[1].evaluate is checker._by_construction]
        assert len({(code, id(rec)) for code, rec, *_ in chunks}) == 105  # 120 cells, 15 by construction
        assert sum(lo > 0 for *_, lo, _ in chunks) >= 2 * 105

    def test_cli_matrix_with_two_workers(self, tmp_path):
        out = tmp_path / "matrix2.json"
        assert main(["matrix", "--ops", "all", "--postulates", "all", "--atoms", "2",
                     "--workers", "2", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == MATRIX2_SHA256


# --- representation check -----------------------------------------------------

def reference_verify_representation(kind, sig) -> CheckReport:
    """Conditions (i)-(iv) of ``verify_representation``, evaluated on every
    order of the universe, with every violation sorted by its key."""
    kind = OperatorKind(kind)
    n_atoms = sig.n_atoms
    code = kind.code
    n = sig.n_worlds
    full = (1 << n) - 1
    cases = 0
    failures: list[tuple[tuple, dict]] = []

    def record(ranks, formulas, worlds, detail):
        doc = _counterexample(ranks, formulas, worlds, n_atoms)
        doc["detail"] = detail
        failures.append(((_case_key(ranks, formulas, worlds, n_atoms), detail), doc))

    for ranks in _kernel.weak_order_ranks(n):
        cases += 1
        bel = _kernel.bel_mask(ranks)
        try:
            ind = induced_ranks(ranks, code)
        except NotPreorderError as exc:
            record(ranks, {}, {}, f"(i) {exc}")
            continue
        if _kernel.bel_mask(ind) != bel:  # ind is compressed: faithful iff bel is its rank-0 layer
            record(ranks, {}, {}, "(ii) induced order not faithful")
            continue
        for a in range(full + 1):
            if a == full:
                continue
            expected = bel | _kernel.min_rank_mask(ind, full & ~a)
            if achieve_bel(ranks, a, code) != expected:
                record(ranks, {"alpha": a}, {}, "(iii) contraction semantics mismatch")
        for a in range(full + 1):
            if a == full or bel & ~a:
                continue
            succ = step_ranks(ranks, a, code)
            ind_succ = induced_ranks(succ, code)
            for pid, bit in islice(_DR_BITS.items(), 6):  # DR8..DR13
                ok, witness = _pair_result(_kernel.dr_violation(ind, ind_succ, a, bit))
                if not ok:
                    record(ranks, {"alpha": a}, witness, f"(iv) {pid.value} violated")

    failures.sort(key=lambda kv: kv[0])
    counterexamples = [doc for _, doc in failures[:COUNTEREXAMPLE_CAP]]
    return CheckReport(
        postulate="representation",
        operator=kind.value,
        domain=f"{_domain(n_atoms)}; conditions (i)-(iv) over all states",
        outcome="fail" if counterexamples else "pass",
        cases=cases,
        counterexamples=counterexamples,
    )


class TestRepresentationOracle:
    """The representation check decides one order class at a time and
    evaluates only the members it reports; the reference walks every order."""

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("n_atoms", [1, 2])
    def test_matches_reference(self, kind, n_atoms):
        sig = Signature(("a", "b")[:n_atoms])
        want = reference_verify_representation(kind, sig).to_json()
        assert verify_representation(kind, sig).to_json() == want

    # sha256 of CheckReport.to_json(); each equals the reference's report
    @pytest.mark.parametrize(
        "kind, outcome, sha256",
        [
            ("type1", "pass", "404adb9d579e92e31656b914c98d03f3cc8a4b6862192496c19d11c724ccac1f"),
            ("type2", "pass", "7e86db37dfec3431799f625f08fc0e1805b3d8fc88e19ef117109f50d3d612b4"),
            ("instant", "fail", "1af3dcc27adf050c74b68fb17fd837fa59dce7006629fcc42a883bb17bf57fb1"),
        ],
        ids=["type1", "type2", "instant"],
    )
    def test_three_atom_reports_pinned(self, kind, outcome, sha256):
        report = verify_representation(kind, Signature(("a", "b", "c")))
        assert (report.outcome, report.cases) == (outcome, 545_835)
        assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == sha256
