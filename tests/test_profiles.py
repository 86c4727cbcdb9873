"""Case classes: the profile stream, its count and the orbits it stands for.

The exhaustive checker evaluates one representative per profile and adds
the orbit size to its case count, so the stream must hold each orbit of
the case space exactly once, and ``orbit`` must list every member of one.
The end-to-end comparison with brute force is in ``test_checker.py``.
"""

import gc
from math import factorial

import pytest

from decrement.checker import REGISTRY, PostulateId
from decrement.profiles import _space, case_class_count, case_classes, orbit

# The first record of each distinct (variables, premises) shape.
SHAPES = list({
    (rec.variables, tuple(sorted(rec.above.items()))): pid for pid, rec in reversed(REGISTRY.items())
}.values())

# Exhaustive case counts at two atoms (four worlds), per shape.
TWO_ATOM_CASES = {
    PostulateId.C1: 1200,
    PostulateId.C6: 19200,
    PostulateId.D5: 19200,
    PostulateId.D8: 6075,
    PostulateId.D9: 6075,
    PostulateId.D10: 97200,
    PostulateId.D11: 97200,
    PostulateId.D12: 19200,
    PostulateId.DR8: 497,
    PostulateId.SFA1: 75,
    PostulateId.LEMMA1: 300,
    PostulateId.LEMMA3: 19200,
}

# Case classes at three atoms (eight worlds), per shape.
THREE_ATOM_CLASSES = {
    PostulateId.C1: 11_144,
    PostulateId.C6: 1_608_914,
    PostulateId.D5: 1_608_914,
    PostulateId.D8: 195_444,
    PostulateId.D9: 195_444,
    PostulateId.D10: 33_898_338,
    PostulateId.D11: 33_898_338,
    PostulateId.D12: 1_608_914,
    PostulateId.DR8: 4_616,
    PostulateId.SFA1: 128,
    PostulateId.LEMMA1: 576,
    PostulateId.LEMMA3: 1_608_914,
}


def classes(pid, n_worlds):
    rec = REGISTRY[pid]
    return list(case_classes(rec.variables, rec.above, n_worlds))


def types(variables, ranks, values):
    """The sorted multiset of (rank, memberships, is omega) world types."""
    out = []
    for w, r in enumerate(ranks):
        out.append((r, tuple(
            v == w if var == "omega" else bool(v >> w & 1) for var, v in zip(variables, values)
        )))
    return sorted(out)


@pytest.mark.parametrize(
    "pid, n_worlds",
    # eight-world streams are listed only where they are short
    [(pid, n) for pid in SHAPES for n in (1, 2, 4, 8) if n < 8 or THREE_ATOM_CLASSES[pid] <= 200_000],
    ids=lambda x: getattr(x, "value", x),
)
def test_count_is_stream_length(pid, n_worlds):
    rec = REGISTRY[pid]
    assert case_class_count(rec.variables, rec.above, n_worlds) == len(classes(pid, n_worlds))


@pytest.mark.parametrize("pid", SHAPES, ids=lambda p: p.value)
def test_orbits_partition_the_two_atom_space(pid):
    rec = REGISTRY[pid]
    seen = set()
    total = 0
    for ranks, values, size in classes(pid, 4):
        assert list(ranks) == sorted(ranks)
        members = list(orbit(rec.variables, ranks, values))
        assert members[0] == (ranks, values)
        assert len(members) == size == len(set(members))
        profile = types(rec.variables, ranks, values)
        assert all(types(rec.variables, *m) == profile for m in members[-3:])
        assert not seen & set(members)
        seen.update(members)
        total += size
    assert total == len(seen) == TWO_ATOM_CASES[pid]


def test_orbit_size_is_a_multinomial():
    # 8 worlds, one layer, alpha holding 3 of them: 8! / (3! 5!)
    sizes = {values: size for ranks, values, size in classes(PostulateId.D1, 8) if max(ranks) == 0}
    assert sizes[(0b11100000,)] == factorial(8) // (factorial(3) * factorial(5))
    assert len(sizes) == 9  # alpha holds 0..8 of the worlds


def test_three_atom_class_counts():
    counts = {pid: case_class_count(REGISTRY[pid].variables, REGISTRY[pid].above, 8) for pid in SHAPES}
    assert counts == THREE_ATOM_CLASSES


def test_three_atom_orbit_counts():
    assert case_class_count(("alpha",), {}, 8) == 11_144
    total = sum(size for *_, size in classes(PostulateId.DR8, 8))
    assert total == 57_879_617


def test_out_of_range_arguments_raise():
    with pytest.raises(ValueError, match="nonnegative"):
        case_classes(("alpha",), {}, 4, start=-1)
    with pytest.raises(ValueError, match="at most 64 worlds"):
        case_class_count(("alpha",), {}, 65)
    assert case_class_count((), {}, 64) == 2**63  # compositions of 64: the widest field


class TestCollectorQuiet:
    """The stream and its count, layer tables built or reused, free what
    they allocate by reference counting alone."""

    @pytest.fixture(autouse=True, params=["built", "reused"])
    def collector_off(self, request):
        if request.param == "built":
            _space.cache_clear()
        else:
            for pid in SHAPES:
                case_class_count(REGISTRY[pid].variables, REGISTRY[pid].above, 8)
        gc.disable()
        gc.collect()
        yield
        gc.enable()

    @pytest.mark.parametrize("pid", SHAPES, ids=lambda p: p.value)
    def test_count(self, pid):
        rec = REGISTRY[pid]
        assert case_class_count(rec.variables, rec.above, 8)
        assert gc.collect() == 0

    @pytest.mark.parametrize("middle", [False, True], ids=["start", "middle"])
    @pytest.mark.parametrize("pid", SHAPES, ids=lambda p: p.value)
    def test_stream_abandoned_after_one_class(self, pid, middle):
        rec = REGISTRY[pid]
        start = case_class_count(rec.variables, rec.above, 8) // 2 if middle else 0
        assert next(case_classes(rec.variables, rec.above, 8, start=start))
        assert gc.collect() == 0

    @pytest.mark.parametrize("pid", [PostulateId.D1, PostulateId.D8, PostulateId.LEMMA1, PostulateId.SFA1])
    def test_stream_run_fully(self, pid):
        rec = REGISTRY[pid]
        assert sum(1 for _ in case_classes(rec.variables, rec.above, 8)) == case_class_count(
            rec.variables, rec.above, 8
        )
        assert gc.collect() == 0
