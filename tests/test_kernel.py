"""The kernel's DR primitives and rank masks against independent oracles, and
its input checks, the universe cap among them, and the Fubini count of
the weak-order stream.

``dr_successors`` must stream exactly the brute-force filter of
``weak_order_ranks`` by ``dr_satisfied``, order included, and
``dr_violation`` must report the first pair the DR definitions reject.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decrement
from decrement import _kernel
from decrement.checker import successor_satisfiability
from decrement.logic import Signature, parse_formula
from decrement.preorder import TotalPreorder, enumerate_preorders
from decrement.state import EpistemicState


def brute_force(before, amask, cmask):
    n = len(before)
    return [c for c in _kernel.weak_order_ranks(n) if _kernel.dr_satisfied(before, c, amask, cmask)]


@st.composite
def problems(draw, sizes):
    """(before, amask, cmask) with ``before`` a compressed rank vector."""
    n = draw(sizes)
    keys = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    before = _kernel.compress_keys(keys)
    return before, draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, 255))


class TestDrSuccessors:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small(self, n):
        for before in _kernel.weak_order_ranks(n):
            for amask in range(1 << n):
                for cmask in range(256):
                    got = list(_kernel.dr_successors(before, amask, cmask))
                    assert got == brute_force(before, amask, cmask), (before, amask, cmask)

    @settings(max_examples=150, deadline=None)
    @given(problems(st.integers(4, 5)))
    def test_random_four_and_five_worlds(self, problem):
        before, amask, cmask = problem
        assert list(_kernel.dr_successors(before, amask, cmask)) == brute_force(*problem)


# --- dr_violation against the definitions -------------------------------------

def naive_violations(before, after, amask):
    """{(DR id, w1, w2)}: every pair each DR condition rejects.

    Written from the definitions over the orders' relations and layers:
    alpha-worlds keep their relative order (DR8), so do counter-worlds
    (DR9); for a counter-world w1 and an alpha-world w2, w1 <= w2 is kept
    (DR10), w1 < w2 is kept (DR11), w1 one layer directly above w2 ends at
    or below it (DR12), a most plausible w2 stays at or below w1 (DR13),
    sharing a layer puts w2 exactly one layer above w1 after (DR14), and a
    frontal w1 stays in w2's layer (DR15).  A counter-world is frontal when
    the layer directly below it holds no alpha-world and the layer directly
    above it holds no counter-world.
    """
    n = len(before)
    worlds = range(n)
    alpha = {w for w in worlds if (amask >> w) & 1}
    counter = set(worlds) - alpha

    def leq(order, x, y):
        return order[x] <= order[y]

    def layer(order, r):
        return {w for w in worlds if order[w] == r}

    frontal = {
        w for w in counter
        if not layer(before, before[w] - 1) & alpha and not layer(before, before[w] + 1) & counter
    }
    out = set()
    for w1 in worlds:
        for w2 in worlds:
            for name, group in (("DR8", alpha), ("DR9", counter)):
                if w1 in group and w2 in group and leq(before, w1, w2) != leq(after, w1, w2):
                    out.add((name, w1, w2))
            if w1 not in counter or w2 not in alpha:
                continue
            same_layer = before[w1] == before[w2]
            if leq(before, w1, w2) and not leq(after, w1, w2):
                out.add(("DR10", w1, w2))
            if not leq(before, w2, w1) and leq(after, w2, w1):
                out.add(("DR11", w1, w2))
            if w1 in layer(before, before[w2] + 1) and not leq(after, w1, w2):
                out.add(("DR12", w1, w2))
            if w2 in layer(before, 0) and not leq(after, w2, w1):
                out.add(("DR13", w1, w2))
            if same_layer and w2 not in layer(after, after[w1] + 1):
                out.add(("DR14", w1, w2))
            if same_layer and w1 in frontal and after[w1] != after[w2]:
                out.add(("DR15", w1, w2))
    return out


DR_BITS = {f"DR{8 + i}": 1 << i for i in range(8)}


@st.composite
def order_pairs(draw):
    n = draw(st.integers(1, 6))
    vec = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    before = _kernel.compress_keys(draw(vec))
    after = _kernel.compress_keys(draw(vec))
    return before, after, draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, 255))


class TestDrViolation:
    @settings(max_examples=400, deadline=None)
    @given(order_pairs())
    def test_first_pair_matches_definitions(self, problem):
        before, after, amask, cmask = problem
        pairs = {
            (w1, w2)
            for name, w1, w2 in naive_violations(before, after, amask)
            if cmask & DR_BITS[name]
        }
        expected = min(pairs) if pairs else None
        assert _kernel.dr_violation(before, after, amask, cmask) == expected
        assert _kernel.dr_satisfied(before, after, amask, cmask) == (expected is None)

    @pytest.mark.parametrize(
        "before, after",
        [
            ((0, 1), (0,)),  # lengths differ
            ((0,), (0, 1)),
            ((), ()),  # empty universe
            ((0,) * 9, (0,) * 9),  # beyond MAX_UNIVERSE
        ],
    )
    def test_bad_lengths_raise(self, before, after):
        with pytest.raises(ValueError):
            _kernel.dr_violation(before, after, 1, 255)
        with pytest.raises(ValueError):
            _kernel.dr_satisfied(before, after, 1, 255)

    @pytest.mark.parametrize("before", [(), (0,) * 9])
    def test_successors_reject_bad_universe(self, before):
        with pytest.raises(ValueError):
            _kernel.dr_successors(before, 1, 255)


class TestInputChecks:
    @pytest.mark.parametrize("n", [0, 9])
    def test_universe_outside_bounds(self, n):
        with pytest.raises(ValueError):
            _kernel.weak_order_ranks(n)

    def test_bad_kind(self):
        # alpha is believed, so the kind code is read
        with pytest.raises(ValueError):
            _kernel.step_ranks((1, 0), 0b10, 9)

    def test_bad_kind_unread_on_identity_branch(self):
        # alpha is not believed: the step returns the order before reading the kind
        assert _kernel.step_ranks((1, 0), 0b01, 9) == (1, 0)

    def test_step_on_empty_vector(self):
        with pytest.raises(ValueError, match="empty rank vector"):
            _kernel.step_ranks((), 1, _kernel.KIND_TYPE1)

    def test_step_past_max_universe(self):
        # a step is not exhaustive: it takes a universe of any size
        ranks = tuple(w % 3 for w in range(12))
        amask = 0b10_0100_1001 | 1 << 10  # the rank-0 worlds and world 10
        after = _kernel.step_ranks(ranks, amask, _kernel.KIND_TYPE1)
        assert after == (0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1)

    def test_negative_rank(self):
        with pytest.raises(ValueError, match="negative rank"):
            _kernel.layer_masks((0, -1))
        with pytest.raises(ValueError, match="negative rank"):
            _kernel.frontal_bits((0, -1), 0b01)
        for amask in (0b01, 0b10):  # alpha believed, and not
            with pytest.raises(ValueError, match="negative rank"):
                _kernel.step_ranks((0, -1), amask, _kernel.KIND_TYPE1)


class TestWeakOrderCount:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_stream_length(self, n):
        assert _kernel.weak_order_count(n) == sum(1 for _ in _kernel.weak_order_ranks(n))

    def test_eight_worlds(self):
        assert _kernel.weak_order_count(8) == 545_835

    def test_universe_cap(self):
        with pytest.raises(_kernel.UniverseTooLargeError):
            _kernel.weak_order_count(9)


class TestCollectorQuiet:
    """A consumed stream leaves no reference cycle for the garbage collector."""

    @pytest.mark.parametrize(
        "stream",
        [
            lambda: _kernel.weak_order_ranks(4),
            lambda: _kernel.dr_successors((0, 1, 1, 2), 0b0101, 0b11),  # with rank masks
            lambda: _kernel.dr_successors((0, 1, 1, 2), 0b0101, 0),  # without
        ],
        ids=["weak_order_ranks", "dr_successors", "dr_successors_unconstrained"],
    )
    def test_no_garbage(self, stream):
        gc.collect()
        gc.disable()
        try:
            for _ in stream():
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestUniverseCap:
    """One error class for more than MAX_UNIVERSE worlds, wherever it is hit."""

    def test_one_class(self):
        assert decrement.UniverseTooLargeError is _kernel.UniverseTooLargeError
        assert issubclass(_kernel.UniverseTooLargeError, ValueError)

    def test_raised_by_every_entry_point(self):
        sig4 = Signature("abcd")
        big = EpistemicState(sig4, TotalPreorder((0,) * 16))
        calls = [
            lambda: _kernel.weak_order_ranks(9),
            lambda: _kernel.dr_successors((0,) * 9, 1, 255),
            lambda: enumerate_preorders(9),  # on the call, before any next()
            lambda: successor_satisfiability(big, parse_formula("a", sig4), ["DR8"]),
        ]
        for call in calls:
            with pytest.raises(_kernel.UniverseTooLargeError):
                call()

    def test_empty_universe_is_not_the_cap(self):
        with pytest.raises(ValueError) as exc:
            _kernel.weak_order_ranks(0)
        assert not isinstance(exc.value, _kernel.UniverseTooLargeError)


@st.composite
def rank_vectors_and_sets(draw):
    """(ranks, smask): a compressed vector on 1..8 worlds and a world set."""
    n = draw(st.integers(1, 8))
    keys = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return _kernel.compress_keys(keys), draw(st.integers(0, (1 << n) - 1))


class TestMasks:
    @settings(max_examples=300, deadline=None)
    @given(rank_vectors_and_sets())
    def test_against_per_world_oracles(self, problem):
        ranks, smask = problem
        worlds = range(len(ranks))
        members = [w for w in worlds if (smask >> w) & 1]
        lowest = min((ranks[w] for w in members), default=None)
        assert _kernel.bel_mask(ranks) == sum(1 << w for w in worlds if ranks[w] == 0)
        assert _kernel.min_rank_mask(ranks, smask) == sum(
            1 << w for w in members if ranks[w] == lowest
        )
        assert _kernel.layer_masks(ranks) == [
            sum(1 << w for w in worlds if ranks[w] == r) for r in range(max(ranks) + 1)
        ]

    def test_min_rank_mask_of_empty_set(self):
        assert _kernel.min_rank_mask((1, 0, 2), 0) == 0
