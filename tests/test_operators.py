import gc

import pytest

from decrement import _kernel, operators
from decrement.logic import (
    BOTTOM,
    And,
    Not,
    Or,
    formula_from_worldset,
    parse_formula,
    world_from_bits,
    worldset_from_bits,
)
from decrement.operators import (
    HesitanceViolationError,
    NotPreorderError,
    OperatorKind,
    achieve,
    achieve_bel,
    achieve_ranks,
    expected_contraction_models,
    frontal,
    giveup_leq,
    giveup_ll,
    giveup_lt,
    induced_order,
    induced_ranks,
    iterate,
    step,
    step_ranks,
)
from decrement.preorder import enumerate_preorders, min_of
from decrement.state import EpistemicState, belief_models, believes, state_to_doc

T1 = OperatorKind.TYPE1_DECREMENT
T2 = OperatorKind.TYPE2_DECREMENT
IN = OperatorKind.INSTANT_CONTRACTION


def layers_of(state):
    return state_to_doc(state)["layers"]


class TestWorkedExampleSteps:
    """The two decrement step results on the worked-example state."""

    def test_type1_breaks_the_tie_downward(self, psi1, sig2):
        out = step(psi1, parse_formula("a", sig2), T1)
        assert layers_of(out) == [["11", "01"], ["00"], ["10"]]

    def test_type2_keeps_the_frontal_tie(self, psi1, sig2):
        out = step(psi1, parse_formula("a", sig2), T2)
        assert layers_of(out) == [["11", "01"], ["10", "00"]]

    def test_instant_promotes_minimal_counter_worlds(self, psi1, sig2):
        out = step(psi1, parse_formula("a", sig2), IN)
        assert layers_of(out) == [["11", "01"], ["10", "00"]]


class TestStepIdentityBranches:
    def test_flat_state_any_kind(self, flat2, sig2):
        alpha = parse_formula("a", sig2)
        for kind in OperatorKind:
            assert step(flat2, alpha, kind) is flat2

    def test_tautology(self, psi1, sig2):
        for kind in OperatorKind:
            assert step(psi1, parse_formula("true", sig2), kind) is psi1
            assert step(psi1, parse_formula("a | !a", sig2), kind) is psi1

    def test_contradiction(self, psi1, sig2):
        for kind in OperatorKind:
            assert step(psi1, parse_formula("false", sig2), kind) is psi1

    def test_not_believed(self, psi1, sig2):
        assert step(psi1, parse_formula("!a", sig2), T1) is psi1

    def test_mixed_bottom_layer(self, conflict2, sig2):
        # bottom layer contains a counter-world of a, so a is not believed
        assert step(conflict2, parse_formula("a", sig2), T2) is conflict2


class TestIterate:
    def test_zero_steps(self, psi1, sig2):
        assert iterate(psi1, parse_formula("a", sig2), T1, 0) is psi1

    def test_one_step_equals_step(self, psi1, sig2):
        alpha = parse_formula("a", sig2)
        assert iterate(psi1, alpha, T1, 1) == step(psi1, alpha, T1)

    def test_fixpoint_after_success(self, psi1, sig2):
        alpha = parse_formula("a", sig2)
        once = iterate(psi1, alpha, T2, 1)
        twice = iterate(psi1, alpha, T2, 2)
        assert once == twice

    def test_negative_steps(self, psi1, sig2):
        with pytest.raises(ValueError):
            iterate(psi1, parse_formula("a", sig2), T1, -1)


class TestAchieve:
    def test_type2_single_step(self, psi1, sig2):
        res = achieve(psi1, parse_formula("a", sig2), T2)
        assert res.steps == 1
        assert belief_models(res.state) == worldset_from_bits(["11", "01"])

    def test_tautology_zero_steps(self, psi1, sig2):
        res = achieve(psi1, parse_formula("true", sig2), T1)
        assert res.steps == 0
        assert res.state is psi1

    def test_not_believed_zero_steps(self, psi1, sig2):
        # !b is false in the bottom layer of psi1, hence not believed
        res = achieve(psi1, parse_formula("!b", sig2), T1)
        assert res.steps == 0
        assert res.state is psi1

    def test_two_steps_for_buried_counter_worlds(self, psi1, sig2):
        # counter-worlds of b sit at rank 2, so the drop takes two steps
        res = achieve(psi1, parse_formula("b", sig2), T1)
        assert res.steps == 2
        assert belief_models(res.state) == worldset_from_bits(["11", "10", "00"])

    def test_step_count_oracle_exhaustive(self, sig2):
        # Closed-form oracle: the step count of a decrement is the minimal
        # rank of a counter-world when alpha is believed, otherwise zero.
        full = 15
        for kind in (T1, T2):
            for tpo in enumerate_preorders(4):
                st = EpistemicState(sig2, tpo)
                for amask in range(16):
                    alpha = formula_from_worldset(amask, sig2)
                    res = achieve(st, alpha, kind)
                    if amask == full or not believes(st, alpha):
                        assert res.steps == 0
                    else:
                        counter = full & ~amask
                        oracle = min(tpo.ranks[w] for w in range(4) if (counter >> w) & 1)
                        assert res.steps == oracle

    def test_steps_bounded_by_layer_count(self, sig2):
        for kind in OperatorKind:
            for tpo in enumerate_preorders(4):
                st = EpistemicState(sig2, tpo)
                for amask in range(16):
                    res = achieve(st, formula_from_worldset(amask, sig2), kind)
                    assert res.steps <= tpo.n_layers

    def test_achieved_beliefs_match_contraction(self, sig2):
        for kind in OperatorKind:
            for tpo in enumerate_preorders(4):
                st = EpistemicState(sig2, tpo)
                for amask in range(1, 15):
                    alpha = formula_from_worldset(amask, sig2)
                    res = achieve(st, alpha, kind)
                    assert belief_models(res.state) == expected_contraction_models(st, alpha)

    def test_hesitance_violation_reported(self, monkeypatch, psi1, sig2):
        # a broken step that never changes the state must be caught
        operators.achieve_ranks.cache_clear()
        monkeypatch.setattr(operators, "step_ranks", lambda ranks, amask, code: ranks)
        with pytest.raises(HesitanceViolationError):
            achieve(psi1, parse_formula("a", sig2), T1)
        operators.achieve_ranks.cache_clear()


class TestFrontal:
    def test_frontal_counter_world(self, psi1, sig2):
        # 00 sits above the counter-world 01 with nothing higher
        assert frontal(world_from_bits("00"), parse_formula("a", sig2), psi1)

    def test_non_frontal_counter_world(self, psi1, sig2):
        # 11 is a model of a directly below 01
        assert not frontal(world_from_bits("01"), parse_formula("a", sig2), psi1)

    def test_flat_state_all_counter_worlds_frontal(self, flat2, sig2):
        alpha = parse_formula("a", sig2)
        for bits in ("01", "00"):
            assert frontal(world_from_bits(bits), alpha, flat2)

    def test_alpha_worlds_never_frontal(self, psi1, sig2):
        alpha = parse_formula("a", sig2)
        for bits in ("11", "10"):
            assert not frontal(world_from_bits(bits), alpha, psi1)

    @pytest.mark.parametrize("world", [4, 99, -1])
    def test_world_outside_universe(self, world, psi1, sig2):
        with pytest.raises(ValueError, match=r"outside universe 0\.\.3"):
            frontal(world, parse_formula("a", sig2), psi1)


class TestGiveupRelations:
    def test_tautology_below_everything(self, psi1, sig2):
        top = parse_formula("true", sig2)
        for m in range(16):
            beta = formula_from_worldset(m, sig2)
            assert giveup_leq(top, beta, psi1, T2)

    def test_reflexive(self, psi1, sig2):
        for m in range(16):
            alpha = formula_from_worldset(m, sig2)
            assert giveup_leq(alpha, alpha, psi1, T1)

    def test_a_given_up_before_b(self, psi1, sig2):
        # minimal counter-world of a at rank 1, of b at rank 2
        assert giveup_lt(parse_formula("a", sig2), parse_formula("b", sig2), psi1, T2)

    def test_direct_successor_variant(self, psi1, sig2):
        a = parse_formula("a", sig2)
        b = parse_formula("b", sig2)
        assert giveup_ll(a, b, psi1, T2)

    def test_ll_guard_on_large_signature(self):
        from decrement.logic import Signature
        from decrement.preorder import TotalPreorder

        sig = Signature(("a", "b", "c", "d"))
        state = EpistemicState(sig, TotalPreorder((0,) * 16))
        with pytest.raises(ValueError):
            giveup_ll(parse_formula("a", sig), parse_formula("b", sig), state, T1)


class TestInducedOrder:
    def test_roundtrip_worked_example(self, psi1):
        for kind in (T1, T2):
            assert induced_order(kind, psi1) == psi1.order

    def test_flat_state(self, flat2):
        for kind in OperatorKind:
            assert induced_order(kind, flat2) == flat2.order

    def test_roundtrip_all_states(self, sig2):
        for kind in OperatorKind:
            for tpo in enumerate_preorders(4):
                assert induced_order(kind, EpistemicState(sig2, tpo)) == tpo


def reference_induced_ranks(ranks: tuple, code: int) -> tuple:
    # induced_ranks as it was, one achieve per ordered world pair
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


def induced_outcome(induce, ranks, code):
    """The ranks, or the error's class, message and witness."""
    try:
        return induce(ranks, code)
    except NotPreorderError as exc:
        return type(exc), str(exc), exc.witness
    except HesitanceViolationError as exc:
        return type(exc), str(exc)


def _cyclic_promotion(ranks, amask, code):
    # Of two counter-worlds x < y, y joins the bottom layer when y - x is 1
    # modulo 3, else x: on three worlds above the bottom this preference
    # is a cycle, so the induced relation is not transitive.  A lone
    # counter-world joins the bottom layer; any other alpha is never dropped.
    counter = [w for w in range(len(ranks)) if not amask >> w & 1]
    if len(counter) == 2:
        x, y = counter
        counter = [y if (y - x) % 3 == 1 else x]
    if len(counter) != 1:
        return ranks
    return _kernel.compress_keys([-1 if w == counter[0] else r for w, r in enumerate(ranks)])


@pytest.fixture
def cold_achieve_table():
    achieve_ranks.cache_clear()
    yield
    achieve_ranks.cache_clear()


class TestInducedRanks:
    @pytest.mark.parametrize("n_worlds", [4, 8])
    def test_one_achieve_per_unordered_pair(self, n_worlds, cold_achieve_table):
        ranks = _kernel.compress_keys([w % 3 for w in range(n_worlds)])
        before = achieve_ranks.cache_info()
        assert induced_ranks(ranks, T2.code) == ranks
        after = achieve_ranks.cache_info()
        lookups = after.hits + after.misses - before.hits - before.misses
        assert lookups == n_worlds * (n_worlds + 1) // 2  # 36 at 8 worlds

    @pytest.mark.parametrize(
        "broken, outcomes",
        [
            (None, {"ranks"}),
            (lambda ranks, amask, code: ranks, {"ranks", HesitanceViolationError}),
            (_cyclic_promotion, {"ranks", NotPreorderError}),
        ],
    )
    def test_same_outcome_as_every_ordered_pair(self, broken, outcomes, monkeypatch, cold_achieve_table):
        if broken is not None:
            monkeypatch.setattr(operators, "step_ranks", broken)
        seen = set()
        orders = list(_kernel.weak_order_ranks(4)) + list(_kernel.weak_order_ranks(8))[::5000]
        for ranks in orders:
            for code in (T1.code, T2.code, IN.code):
                got = induced_outcome(induced_ranks, ranks, code)
                assert got == induced_outcome(reference_induced_ranks, ranks, code), (ranks, code)
                seen.add("ranks" if isinstance(got[0], int) else got[0])
        assert seen == outcomes


class TestOperatorTables:
    """The two memo tables keep functools' cache_info()/cache_clear()
    contract: perfbench reads hits, misses and currsize from it."""

    A = 0b1010  # the models of a over two atoms

    @pytest.fixture(autouse=True)
    def cold_tables(self):
        step_ranks.cache_clear()
        achieve_ranks.cache_clear()
        yield
        step_ranks.cache_clear()
        achieve_ranks.cache_clear()

    def test_scripted_counts(self, psi1):
        ranks, a = psi1.order.ranks, self.A
        assert step_ranks(ranks, a, T1.code) == (1, 2, 0, 0)  # miss
        assert step_ranks(ranks, a, T1.code) == (1, 2, 0, 0)  # hit
        assert step_ranks(ranks, a | 0b110000, T1.code) == (1, 2, 0, 0)  # bits past the universe: hit
        step_ranks(ranks, a, T2.code)  # miss
        assert step_ranks.cache_info() == (2, 2, operators.TABLE_SIZE, 2)
        assert achieve_ranks(ranks, a, T1.code) == ((1, 2, 0, 0), 1)  # miss; its one step hits
        assert achieve_bel(ranks, a, T1.code) == 0b1100  # hit
        assert achieve_ranks(ranks, a | 0b110000, T1.code) == ((1, 2, 0, 0), 1)  # hit
        assert achieve_bel(ranks, 0b1111, T1.code) == 0b1000  # a tautology: miss, no step
        assert achieve_ranks.cache_info() == (2, 2, operators.TABLE_SIZE, 2)
        assert step_ranks.cache_info() == (3, 2, operators.TABLE_SIZE, 2)
        info = achieve_ranks.cache_info()
        assert (info.hits, info.misses, info.maxsize, info.currsize) == (2, 2, 1 << 18, 2)
        assert info._asdict() == {"hits": 2, "misses": 2, "maxsize": 1 << 18, "currsize": 2}

    def test_cache_clear_empties_the_table(self, psi1):
        ranks = psi1.order.ranks
        achieve_ranks(ranks, self.A, T1.code)
        assert step_ranks.cache_info().currsize == achieve_ranks.cache_info().currsize == 1
        step_ranks.cache_clear()
        achieve_ranks.cache_clear()
        assert step_ranks.cache_info() == achieve_ranks.cache_info() == (0, 0, operators.TABLE_SIZE, 0)
        achieve_ranks(ranks, self.A, T1.code)  # both tables miss again
        assert step_ranks.cache_info() == achieve_ranks.cache_info() == (0, 1, operators.TABLE_SIZE, 1)

    def test_repeated_call_reads_the_argument_again(self, psi1):
        # a repeated call is a hit, but a list changed in place is new input
        ranks = list(psi1.order.ranks)
        assert step_ranks(ranks, self.A, T1.code) == (1, 2, 0, 0)
        assert achieve_bel(ranks, self.A, T1.code) == 0b1100
        ranks[:] = [1, 1, 0, 1]
        assert step_ranks(ranks, self.A, T1.code) == (1, 1, 0, 1)  # alpha is not believed
        assert achieve_bel(ranks, self.A, T1.code) == 0b0100
        step_ranks.cache_clear()
        achieve_ranks.cache_clear()
        for _ in range(3):
            assert step_ranks(psi1.order.ranks, self.A, T1.code) == (1, 2, 0, 0)
        for _ in range(3):
            assert achieve_bel(psi1.order.ranks, self.A, T1.code) == 0b1100
        # the achieve miss steps once more
        assert step_ranks.cache_info()[:2] == (3, 1) and achieve_ranks.cache_info()[:2] == (2, 1)

    def test_past_max_universe_no_entry(self):
        # a call on more than 8 worlds has no key: the kernel answers it,
        # and the tables neither store nor count it
        ranks = tuple(0 if w in (0, 3, 6) else 1 + w % 2 for w in range(12))
        amask = 0b1001001  # the rank-0 worlds: a mask of one byte
        final, steps = achieve_ranks(ranks, amask, T1.code)
        assert steps == 1 and final == _kernel.step_ranks(ranks, amask, T1.code)
        assert achieve_bel(ranks, amask, T1.code) == _kernel.bel_mask(final) > 0xFF
        assert step_ranks(ranks, amask, T1.code) == final
        assert step_ranks.cache_info() == achieve_ranks.cache_info() == (0, 0, operators.TABLE_SIZE, 0)

    @pytest.mark.parametrize("size", [8, 16, 48])
    def test_bound_and_dropped_entries(self, size, monkeypatch):
        monkeypatch.setattr(operators, "TABLE_SIZE", size)
        inputs = [(ranks, 0b1000, code) for ranks in _kernel.weak_order_ranks(4) for code in (0, 1, 2)]
        for args in inputs:
            step_ranks(*args)
            assert step_ranks.cache_info().currsize <= size
        info = step_ranks.cache_info()
        assert info.misses == len(inputs) and info.maxsize == size
        # with room for everything, a second round hits exactly the stored
        # entries and misses the misses - currsize dropped ones
        monkeypatch.setattr(operators, "TABLE_SIZE", 1 << 18)
        for args in inputs:
            step_ranks(*args)
        again = step_ranks.cache_info()
        assert again.hits - info.hits == info.currsize
        assert again.misses - info.misses == info.misses - info.currsize
        assert again.currsize == len(inputs)

    def test_full_shard_drops_its_oldest_entries(self, monkeypatch):
        monkeypatch.setattr(operators, "TABLE_SIZE", 32 * operators._SHARDS)
        table = operators._Table()
        keys = [bytes((i,)) for i in range(100)]
        for key in keys:
            table.store(0, key, b"")
            assert len(table.shards[0]) <= 32
        # the newest stored entries stay, eight dropped at a time
        assert list(table.shards[0]) == keys[-28:]
        assert table.misses == 100 and table.cache_info().currsize == 28

    def test_tables_are_untracked_by_the_collector(self, sig2):
        for tpo in enumerate_preorders(4):
            for kind in OperatorKind:
                induced_order(kind, EpistemicState(sig2, tpo))
        assert step_ranks.cache_info().currsize > 100 and achieve_ranks.cache_info().currsize > 100
        gc.collect()
        for table in (operators._STEPS, operators._ACHIEVED):
            for shard in table.shards:
                assert shard and not gc.is_tracked(shard)

    @pytest.mark.parametrize(
        "ranks, amask, code, error, message",
        [
            ((1, 0), 0b10, 9, ValueError, "unknown operator kind code 9"),
            ((0, -1), 0b01, 0, ValueError, "negative rank"),
        ],
    )
    def test_kernel_errors_pass_through(self, ranks, amask, code, error, message):
        for call in (step_ranks, achieve_ranks, achieve_bel):
            with pytest.raises(error, match=message):
                call(ranks, amask, code)
        assert step_ranks.cache_info().currsize == achieve_ranks.cache_info().currsize == 0

    def test_step_on_empty_vector(self):
        with pytest.raises(ValueError, match="empty rank vector"):
            step_ranks((), 0b1, T1.code)
        assert step_ranks.cache_info().currsize == 0


class TestCollectorQuiet:
    """The operator API's calls free what they allocate by reference
    counting alone: a call leaves no cycle for the garbage collector."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.disable()
        gc.collect()
        yield
        gc.enable()

    def test_operator_api_leaves_no_garbage(self, sig2):
        texts = ["a", "!(a & b) | a", "a -> b", "a <-> !b", "true"]
        states = [EpistemicState(sig2, tpo) for tpo in list(enumerate_preorders(4))[::7]]
        gc.collect()  # the enumeration is not under test
        for state in states:
            fs = [parse_formula(t, sig2) for t in texts]
            for kind in OperatorKind:
                induced_order(kind, state)
                for f in fs:
                    step(state, f, kind)
                    achieve(state, f, kind)
                    giveup_ll(f, fs[0], state, kind)
        assert gc.collect() == 0

    @pytest.mark.parametrize("text", ["a &", "(a", "zz", "a + b", "!" * 400 + "a"])
    def test_parse_errors_leave_no_garbage(self, text, sig2):
        from decrement.logic import FormulaError

        try:  # not pytest.raises, whose record of the error is a cycle
            parse_formula(text, sig2)
        except FormulaError:
            pass
        else:
            pytest.fail("parsed")
        assert gc.collect() == 0


def equivalent_forms(mask, sig):
    """Four syntactically different formulas with the models ``mask``."""
    f = formula_from_worldset(mask, sig)
    return [f, Not(Not(f)), And(f, f), Or(f, BOTTOM)]


class TestSemanticDeterminism:
    """The operators read a formula only through its models, so equivalent
    formulas give equal results: what the checker's C5, D5 and SFA3 cells
    rest on, which hold by construction there."""

    def test_equivalent_inputs_same_output(self, psi1, sig2):
        for kind in OperatorKind:
            out = step(psi1, parse_formula("a", sig2), kind)
            for text in ("!!a", "a & a", "a | (a & b)", "a & true"):
                assert step(psi1, parse_formula(text, sig2), kind) == out

    @pytest.mark.parametrize("kind", list(OperatorKind), ids=lambda k: k.value)
    def test_equivalent_forms_every_two_atom_case(self, kind, sig2):
        forms = [equivalent_forms(mask, sig2) for mask in range(16)]
        for tpo in enumerate_preorders(4):
            state = EpistemicState(sig2, tpo)
            firsts = []
            for alpha in forms:
                outs = {(step(state, f, kind), iterate(state, f, kind, 2), achieve(state, f, kind)) for f in alpha}
                assert len(outs) == 1, (tpo.ranks, alpha[0])
                firsts.append(outs.pop()[0])
            for first, alpha1 in zip(firsts, forms):
                for alpha2 in forms:
                    # each form of alpha1, then a different form of alpha2
                    seconds = {step(step(state, f1, kind), f2, kind) for f1, f2 in zip(alpha1, alpha2[1:] + alpha2[:1])}
                    assert seconds == {step(first, alpha2[0], kind)}, (tpo.ranks, alpha1[0], alpha2[0])


class TestExpectedContractionModels:
    def test_matches_min_of(self, psi1, sig2):
        alpha = parse_formula("a", sig2)
        namask = sig2.universe & ~worldset_from_bits(["11", "10"])
        assert expected_contraction_models(psi1, alpha) == belief_models(psi1) | min_of(
            namask, psi1.order
        )
