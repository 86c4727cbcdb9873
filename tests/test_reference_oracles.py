"""The operator API's hot paths against the implementations they replaced.

The tokenizer, parser, ``models`` and ``giveup_ll_masks`` below are the
previous ones, kept verbatim as references: a tokenizer loop and a parser
class, a recursive ``models`` that re-reads the signature at every node,
and a give-up scan that asks ``giveup_lt_masks`` twice per class.  The
library's versions must agree with them on every input, errors included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from decrement import _kernel
from decrement.logic import (
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
    models,
    parse_formula,
)
from decrement.operators import OperatorKind, giveup_ll_masks, giveup_lt_masks
from decrement.preorder import enumerate_preorders

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


def reference_giveup_ll_masks(ranks: tuple, a: int, b: int, code: int) -> bool:
    if not giveup_lt_masks(ranks, a, b, code):
        return False
    n_classes = 1 << len(ranks)
    for g in range(n_classes):
        if giveup_lt_masks(ranks, a, g, code) and giveup_lt_masks(ranks, g, b, code):
            return False
    return True


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


class TestModelsOracle:
    @given(case=signatures_and_formulas())
    @settings(max_examples=250, deadline=None)
    def test_random_trees(self, case):
        sig, f = case
        assert models(f, sig) == reference_models(f, sig)

    def test_subclasses_evaluate_as_their_node_class(self):
        f = Or(_Both(Atom("a"), Not(Atom("b"))), Not(_Always()))
        assert models(f, SIG3) == reference_models(f, SIG3) == 0b00100010

    def test_errors(self):
        with pytest.raises(UnknownAtomError):
            models(And(Atom("a"), Atom("z")), SIG3)
        with pytest.raises(TypeError):
            models(Not("a"), SIG3)


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
