import gc

import pytest
from hypothesis import given, settings, strategies as st

from decrement.logic import (
    And,
    Atom,
    BOTTOM,
    FormulaSyntaxError,
    Iff,
    Implies,
    MAX_FORMULA_DEPTH,
    Not,
    Or,
    Signature,
    TOP,
    UnknownAtomError,
    entails,
    equiv_wrt,
    equivalent,
    format_formula,
    formula_from_worldset,
    iter_worlds,
    models,
    negated_world,
    parse_formula,
    world_from_bits,
    world_to_bits,
    worldset_from_bits,
    worldset_to_bits,
)


def mask(sig, *bits):
    return worldset_from_bits(list(bits))


class TestSignature:
    def test_basic(self):
        sig = Signature(("a", "b"))
        assert sig.n_worlds == 4
        assert sig.universe == 0b1111

    @pytest.mark.parametrize(
        "atoms",
        [(), ("A",), ("a", "a"), ("1a",), ("true",), ("false",), tuple("abcdefghijklmnopqrstuvwxyz") + ("a1",)],
    )
    def test_rejects_bad_atom_lists(self, atoms):
        with pytest.raises(ValueError):
            Signature(atoms)

    def test_atom_models_pattern(self):
        sig = Signature(("a", "b", "c"))
        for i in range(3):
            expected = sum(1 << w for w in range(8) if (w >> i) & 1)
            assert sig.atom_models(i) == expected


class TestWorldEncoding:
    def test_bits_roundtrip(self):
        for w in range(8):
            assert world_from_bits(world_to_bits(w, 3)) == w

    def test_bitstring_order_is_atom_order(self):
        # "10" means first atom true, second false
        assert world_from_bits("10") == 1
        assert world_from_bits("01") == 2

    def test_worldset_listing_descending(self):
        assert worldset_to_bits(0b1111, 2) == ["11", "10", "01", "00"]

    def test_bad_bitstrings(self):
        with pytest.raises(ValueError):
            world_from_bits("2")
        with pytest.raises(ValueError):
            world_from_bits("")


class TestParser:
    def test_and_not(self, sig2):
        assert parse_formula("a & !b", sig2) == And(Atom("a"), Not(Atom("b")))

    def test_true_literal(self):
        sig = Signature(("a",))
        assert parse_formula("true", sig) == TOP

    def test_incomplete_input(self):
        sig = Signature(("a",))
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("a &", sig)
        assert exc.value.position == len("a &")

    def test_unknown_atom_position(self, sig2):
        with pytest.raises(UnknownAtomError) as exc:
            parse_formula("a & zz", sig2)
        assert exc.value.name == "zz"
        assert exc.value.position == 4

    def test_unexpected_character(self, sig2):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a + b", sig2)

    def test_dangling_paren(self, sig2):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(a | b", sig2)

    def test_trailing_garbage(self, sig2):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a b", sig2)

    def test_precedence_chain(self, sig2):
        f = parse_formula("!a & b | a", sig2)
        assert f == Or(And(Not(Atom("a")), Atom("b")), Atom("a"))

    def test_implies_right_associative(self):
        sig = Signature(("a", "b", "c"))
        f = parse_formula("a -> b -> c", sig)
        assert f == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))

    def test_iff_binds_loosest(self, sig2):
        f = parse_formula("a <-> a -> b", sig2)
        assert f == Iff(Atom("a"), Implies(Atom("a"), Atom("b")))

    def test_parentheses(self, sig2):
        f = parse_formula("a & (b | a)", sig2)
        assert f == And(Atom("a"), Or(Atom("b"), Atom("a")))


class TestFormulaDepth:
    TOO_DEEP = ["!" * 3000 + "a", "(" * 3000 + "a" + ")" * 3000, " & ".join(["a"] * 3000), " -> ".join(["a"] * 3000)]

    @pytest.mark.parametrize("text", TOO_DEEP, ids=["negations", "parentheses", "conjunction", "implication"])
    def test_too_deep_is_a_syntax_error(self, sig2, text):
        with pytest.raises(FormulaSyntaxError, match="nested more than 300 levels deep"):
            parse_formula(text, sig2)

    @pytest.mark.parametrize(
        "shape",
        [
            lambda n: "!" * n + "a",
            lambda n: "(" * n + "a" + ")" * n,
            lambda n: " & ".join(["a"] * (n + 1)),
            lambda n: " -> ".join(["a"] * (n + 1)),
            lambda n: "a & (" * (n // 2) + "a" + ")" * (n // 2),
            lambda n: "!(" * (n // 2) + "a" + ")" * (n // 2),
        ],
        ids=["negations", "parentheses", "conjunction", "implication", "right-nested", "negated-groups"],
    )
    def test_deepest_accepted_formula_evaluates_and_prints(self, sig2, shape):
        f = parse_formula(shape(MAX_FORMULA_DEPTH), sig2)
        assert models(f, sig2) == models(parse_formula(format_formula(f), sig2), sig2)
        with pytest.raises(FormulaSyntaxError):
            parse_formula(shape(MAX_FORMULA_DEPTH + 2), sig2)

    def test_unexpected_character_still_reported_first(self, sig2):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("!" * 3000 + "a + b", sig2)
        assert str(exc.value) == f"unexpected character '+' (at position {3002})"

    @pytest.mark.parametrize("atoms", ["abc", "abcdefgh"])
    def test_program_built_formulas_parse_back(self, atoms):
        # the deepest texts the program writes: a class's canonical formula,
        # up to the 255-world set at eight atoms, under a double negation
        sig = Signature(tuple(atoms))
        masks = range(sig.universe + 1) if sig.n_atoms == 3 else [sig.universe >> 1]
        for m in masks:
            f = Not(Not(formula_from_worldset(m, sig)))
            assert parse_formula(format_formula(f), sig) == f
            assert models(f, sig) == m


class TestModels:
    def test_disjunction(self, sig2):
        f = parse_formula("a | b", sig2)
        assert models(f, sig2) == mask(sig2, "11", "10", "01")

    def test_top_bottom(self, sig2):
        assert models(TOP, sig2) == sig2.universe
        assert models(parse_formula("a & !a", sig2), sig2) == 0

    def test_entails(self, sig2):
        a_and_b = parse_formula("a & b", sig2)
        a = parse_formula("a", sig2)
        assert entails(a_and_b, a, sig2)
        assert not entails(a, a_and_b, sig2)

    def test_equivalent(self, sig2):
        assert equivalent(
            parse_formula("a -> b", sig2), parse_formula("!a | b", sig2), sig2
        )


class TestNegatedWorld:
    def test_full_world(self, sig2):
        f = negated_world(world_from_bits("11"), sig2)
        assert models(f, sig2) == sig2.universe & ~(1 << world_from_bits("11"))
        assert format_formula(f) == "!(a & b)"

    def test_zero_world(self, sig2):
        f = negated_world(world_from_bits("00"), sig2)
        assert models(f, sig2) == sig2.universe & ~1

    def test_complement_size_everywhere(self):
        sig = Signature(("a", "b", "c"))
        for w in range(sig.n_worlds):
            m = models(negated_world(w, sig), sig)
            assert bin(m).count("1") == sig.n_worlds - 1
            assert not (m >> w) & 1

    def test_out_of_range(self, sig2):
        with pytest.raises(ValueError):
            negated_world(4, sig2)


class TestEquivWrt:
    def test_agreeing_on_alpha(self, sig2):
        a = parse_formula("a", sig2)
        s1 = mask(sig2, "11", "01")
        s2 = mask(sig2, "11", "00")
        assert equiv_wrt(s1, s2, a, sig2)

    def test_differing_on_alpha(self, sig2):
        a = parse_formula("a", sig2)
        assert not equiv_wrt(mask(sig2, "11"), mask(sig2, "01"), a, sig2)

    def test_bottom_relates_everything(self, sig2):
        f = parse_formula("false", sig2)
        assert equiv_wrt(mask(sig2, "11"), mask(sig2, "00"), f, sig2)

    def test_equivalence_relation(self, sig2):
        # reflexive, symmetric, transitive for fixed alpha, all small sets
        a = parse_formula("a | !b", sig2)
        sets = range(sig2.universe + 1)
        for s1 in sets:
            assert equiv_wrt(s1, s1, a, sig2)
            for s2 in sets:
                assert equiv_wrt(s1, s2, a, sig2) == equiv_wrt(s2, s1, a, sig2)

    def test_transitive_sampled(self, sig2):
        a = parse_formula("b", sig2)
        sets = range(sig2.universe + 1)
        for s1 in sets:
            for s2 in sets:
                if not equiv_wrt(s1, s2, a, sig2):
                    continue
                for s3 in sets:
                    if equiv_wrt(s2, s3, a, sig2):
                        assert equiv_wrt(s1, s3, a, sig2)


class TestSemanticIdentities:
    def test_connective_identities_exhaustive(self):
        # all semantic classes at two atoms, via canonical representatives
        sig = Signature(("a", "b"))
        classes = [formula_from_worldset(m, sig) for m in range(sig.universe + 1)]
        for f in classes:
            mf = models(f, sig)
            assert models(Not(f), sig) == sig.universe & ~mf
            for g in classes:
                mg = models(g, sig)
                assert models(And(f, g), sig) == mf & mg
                assert models(Or(f, g), sig) == mf | mg
                assert models(Implies(f, g), sig) == (sig.universe & ~mf) | mg
                assert models(Iff(f, g), sig) == sig.universe & ~(mf ^ mg)

    def test_connective_identities_three_atoms(self):
        # same identities over every semantic class pair at three atoms,
        # checked through mask arithmetic on canonical representatives
        sig = Signature(("a", "b", "c"))
        model_of = [models(formula_from_worldset(m, sig), sig) for m in range(sig.universe + 1)]
        for m, got in enumerate(model_of):
            assert got == m
        for mf in range(sig.universe + 1):
            f = formula_from_worldset(mf, sig)
            assert models(Not(f), sig) == sig.universe & ~mf
            for mg in range(sig.universe + 1):
                g = formula_from_worldset(mg, sig)
                assert models(And(f, g), sig) == mf & mg
                assert models(Or(f, g), sig) == mf | mg

    def test_formula_from_worldset_roundtrip(self):
        sig = Signature(("a", "b", "c"))
        for m in range(0, sig.universe + 1, 7):
            assert models(formula_from_worldset(m, sig), sig) == m


SIG3 = Signature(("a", "b", "c"))


def formulas(depth=3):
    leaves = st.sampled_from(
        [Atom("a"), Atom("b"), Atom("c"), TOP, BOTTOM]
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Not),
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            st.tuples(sub, sub).map(lambda t: Iff(*t)),
        ),
        max_leaves=12,
    )


class TestPrintParseRoundTrip:
    @given(f=formulas())
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_preserves_models(self, f):
        text = format_formula(f)
        assert models(parse_formula(text, SIG3), SIG3) == models(f, SIG3)

    @given(f=formulas(), g=formulas())
    @settings(max_examples=200, deadline=None)
    def test_model_identities(self, f, g):
        assert models(And(f, g), SIG3) == models(f, SIG3) & models(g, SIG3)
        assert models(Or(f, g), SIG3) == models(f, SIG3) | models(g, SIG3)
        assert models(Not(f), SIG3) == SIG3.universe & ~models(f, SIG3)


class TestFormatCollectorQuiet:
    """Rendering frees what it allocates by reference counting alone."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.disable()
        gc.collect()
        yield
        gc.enable()

    @pytest.mark.parametrize("text", ["a", "!(a & b) | c", "a -> b <-> !c", "true & false", "!" * 200 + "a"])
    def test_format_leaves_no_garbage(self, text):
        f = parse_formula(text, SIG3)
        gc.collect()  # the parse is not under test
        assert parse_formula(format_formula(f), SIG3) == f
        assert gc.collect() == 0

    def test_bad_node_leaves_no_garbage(self):
        try:  # not pytest.raises, whose record of the error is a cycle
            format_formula(And(Atom("a"), "b"))
        except TypeError:
            pass
        else:
            pytest.fail("rendered")
        assert gc.collect() == 0


def test_iter_worlds_order():
    assert list(iter_worlds(0b1011)) == [0, 1, 3]
