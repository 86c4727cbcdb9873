import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decrement import _kernel
from decrement.logic import formula_from_worldset, parse_formula, worldset_from_bits
from decrement.preorder import enumerate_preorders
from decrement.state import (
    EpistemicState,
    StateFormatError,
    bel_equiv_wrt,
    belief_models,
    believes,
    layers_to_bits,
    order_from_bits,
    state_from_doc,
    state_to_doc,
)

PSI1_DOC = {"atoms": ["a", "b"], "layers": [["11"], ["01"], ["10", "00"]]}
# Successor columns from the worked example
AFTER_TYPE2_DOC = {"atoms": ["a", "b"], "layers": [["11", "01"], ["10", "00"]]}
AFTER_TYPE1_DOC = {"atoms": ["a", "b"], "layers": [["11", "01"], ["00"], ["10"]]}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=16,
)
# {"atoms", "layers"} documents close to valid ones, so that the checks
# after the field lookups run too
NEAR_STATE_DOCS = st.fixed_dictionaries(
    {
        "atoms": st.lists(st.sampled_from(["a", "b", "c", "true", "A"]), max_size=4)
        | JSON_VALUES,
        "layers": st.lists(
            st.lists(st.text(alphabet="01", max_size=3) | JSON_VALUES, max_size=4), max_size=5
        )
        | JSON_VALUES,
    }
)


class TestBeliefModels:
    def test_psi1_bottom_layer(self):
        st = state_from_doc(PSI1_DOC)
        assert belief_models(st) == worldset_from_bits(["11"])

    def test_flat_state(self, flat2):
        assert belief_models(flat2) == flat2.sig.universe

    def test_successor_column(self):
        st = state_from_doc(AFTER_TYPE2_DOC)
        assert belief_models(st) == worldset_from_bits(["11", "01"])


class TestBelieves:
    def test_psi1_believes_both_atoms(self, psi1, sig2):
        assert believes(psi1, parse_formula("a", sig2))
        assert believes(psi1, parse_formula("b", sig2))

    def test_tautology_always_believed(self, sig2):
        top = parse_formula("true", sig2)
        for tpo in enumerate_preorders(4):
            assert believes(EpistemicState(sig2, tpo), top)

    def test_bottom_never_believed(self, sig2):
        bot = parse_formula("false", sig2)
        for tpo in enumerate_preorders(4):
            assert not believes(EpistemicState(sig2, tpo), bot)


class TestBelEquivWrt:
    def test_successor_columns_agree_on_not_a(self, sig2):
        s1 = state_from_doc(AFTER_TYPE2_DOC)
        s2 = state_from_doc(AFTER_TYPE1_DOC)
        assert bel_equiv_wrt(s1, s2, parse_formula("!a", sig2))

    def test_identical_states(self, psi1, sig2):
        assert bel_equiv_wrt(psi1, psi1, parse_formula("!a", sig2))

    def test_psi1_vs_successor_differ_on_not_a(self, psi1, sig2):
        s2 = state_from_doc(AFTER_TYPE2_DOC)
        assert not bel_equiv_wrt(psi1, s2, parse_formula("!a", sig2))

    def test_signature_mismatch(self, psi1):
        from decrement.logic import Signature
        from decrement.preorder import TotalPreorder

        other = EpistemicState(Signature(("x", "y")), TotalPreorder((0, 0, 0, 0)))
        with pytest.raises(ValueError):
            bel_equiv_wrt(psi1, other, parse_formula("x", other.sig))


class TestStructuralFaithfulness:
    def test_bottom_layer_tied_and_strictly_below(self, sig2):
        # SFA-style conditions hold on every constructible state
        for tpo in enumerate_preorders(4):
            st = EpistemicState(sig2, tpo)
            bel = belief_models(st)
            for w1 in range(4):
                for w2 in range(4):
                    if (bel >> w1) & 1 and (bel >> w2) & 1:
                        assert tpo.ranks[w1] == tpo.ranks[w2]
                    if (bel >> w1) & 1 and not (bel >> w2) & 1:
                        assert tpo.ranks[w1] < tpo.ranks[w2]

    def test_beliefs_deductively_closed(self, sig2):
        # believes(alpha) and believes(alpha -> beta) imply believes(beta)
        from decrement.logic import Implies

        classes = [formula_from_worldset(m, sig2) for m in range(16)]
        for tpo in enumerate_preorders(4):
            st = EpistemicState(sig2, tpo)
            for f in classes:
                for g in classes:
                    if believes(st, f) and believes(st, Implies(f, g)):
                        assert believes(st, g)


class TestStateDocs:
    def test_roundtrip(self, psi1):
        assert state_from_doc(state_to_doc(psi1)) == psi1

    def test_doc_layers_are_descending_bitstrings(self, psi1):
        assert state_to_doc(psi1)["layers"] == [["11"], ["01"], ["10", "00"]]

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {},
            {"atoms": ["a", "b"]},
            {"atoms": ["a", "b"], "layers": [["11"]]},
            {"atoms": ["a", "b"], "layers": [["11"], ["11"], ["10", "01", "00"]]},
            {"atoms": ["a", "b"], "layers": [["111"], ["01", "10", "00"]]},
            {"atoms": ["a", "b"], "layers": [["11"], [], ["10", "01", "00"]]},
            {"atoms": ["a", "a"], "layers": [["11", "10", "01", "00"]]},
            {"atoms": ["a", "b"], "layers": "nope"},
            {"atoms": ["a", "b"], "layers": [["11", "11", "10", "01", "00"]]},
        ],
    )
    def test_malformed_docs(self, doc):
        with pytest.raises(StateFormatError):
            state_from_doc(doc)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(JSON_VALUES, NEAR_STATE_DOCS))
    def test_fuzzed_docs_raise_only_state_format_error(self, doc):
        try:
            state_from_doc(doc)
        except StateFormatError:
            pass

    @pytest.mark.parametrize("atoms", ["ab", {"a": 0, "b": 1}])
    def test_atoms_must_be_a_list(self, atoms):
        # a string or an object of two names is not read as the atoms a and b
        with pytest.raises(StateFormatError, match="atoms must be a list"):
            state_from_doc({"atoms": atoms, "layers": PSI1_DOC["layers"]})

    @pytest.mark.parametrize("n_atoms", [1, 2])
    def test_codec_roundtrip_every_order(self, n_atoms):
        for tpo in enumerate_preorders(1 << n_atoms):
            assert order_from_bits(layers_to_bits(tpo.ranks, n_atoms), n_atoms) == tpo

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=8, max_size=8))
    def test_codec_roundtrip_three_atoms(self, keys):
        ranks = _kernel.compress_keys(keys)
        assert order_from_bits(layers_to_bits(ranks, 3), 3).ranks == ranks

    def test_mismatched_order_size(self, sig2):
        from decrement.preorder import TotalPreorder

        with pytest.raises(ValueError):
            EpistemicState(sig2, TotalPreorder((0, 1)))
