"""Checker tests, including an independent naive oracle.

The naive evaluators below quantify postulates directly through the public
state/operator API, without touching the checker's internal case machinery,
and must agree with every report outcome they cover.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decrement import _kernel
from decrement.checker import (
    ALL_POSTULATES,
    DomainTooLargeError,
    PostulateId,
    check_postulate,
    conformance_matrix,
    replay_counterexample,
    successor_satisfiability,
    verify_representation,
)
from decrement.logic import And, Signature, formula_from_worldset, negated_world, parse_formula
from decrement.operators import OperatorKind, achieve, step
from decrement.preorder import UniverseTooLargeError, enumerate_preorders, leq, lt
from decrement.state import EpistemicState, StateFormatError, belief_models, believes

T1 = OperatorKind.TYPE1_DECREMENT
T2 = OperatorKind.TYPE2_DECREMENT
IN = OperatorKind.INSTANT_CONTRACTION

SIG2 = Signature(("a", "b"))
CLASSES = [formula_from_worldset(m, SIG2) for m in range(16)]


def states():
    return (EpistemicState(SIG2, tpo) for tpo in enumerate_preorders(4))


def bel(state):
    return belief_models(state)


def ach(state, f, kind):
    return achieve(state, f, kind).state


# --- naive, checker-independent postulate evaluators ------------------------

def naive_D1(kind):
    return all(
        bel(st) & ~bel(ach(st, f, kind)) == 0 for st in states() for f in CLASSES
    )


def naive_D2(kind):
    ok = True
    for st in states():
        for f in CLASSES:
            if not believes(st, f):
                ok &= bel(ach(st, f, kind)) & ~bel(st) == 0
    return ok


def naive_D4(kind):
    from decrement.logic import models

    ok = True
    for st in states():
        for f in CLASSES:
            ok &= bel(ach(st, f, kind)) & models(f, SIG2) & ~bel(st) == 0
    return ok


def naive_D6(kind):
    ok = True
    for st in states():
        for f in CLASSES:
            for g in CLASSES:
                lhs = bel(ach(st, And(f, g), kind))
                ok &= lhs & ~(bel(ach(st, f, kind)) | bel(ach(st, g, kind))) == 0
    return ok


def naive_partial_success(kind):
    from decrement.logic import models
    from decrement.preorder import min_of

    ok = True
    for st in states():
        for f in CLASSES:
            after = bel(step(st, f, kind))
            upper = bel(st) | min_of(SIG2.universe & ~models(f, SIG2), st.order)
            ok &= bel(st) & ~after == 0 and after & ~upper == 0
    return ok


def naive_lemma1(kind):
    ok = True
    for st in states():
        for w in range(4):
            got = bel(ach(st, negated_world(w, SIG2), kind))
            ok &= got == bel(st) | (1 << w)
    return ok


def naive_dr(kind, pid):
    """Pairwise order conditions, via the public order API.

    DRk compares a state with its successor on believed steps; ICk
    compares it with the achieve result, for every alpha class.
    """
    from decrement.logic import models
    from decrement.operators import frontal

    iterated = pid.startswith("IC")
    violations = []
    for st in states():
        for f in CLASSES:
            if not iterated and not believes(st, f):
                continue
            amask = models(f, SIG2)
            succ = ach(st, f, kind) if iterated else step(st, f, kind)
            b, a = st.order, succ.order
            for w1 in range(4):
                for w2 in range(4):
                    in1 = (amask >> w1) & 1
                    in2 = (amask >> w2) & 1
                    bad = False
                    if pid == "DR8" and in1 and in2:
                        bad = leq(w1, w2, b) != leq(w1, w2, a)
                    elif pid == "DR9" and not in1 and not in2:
                        bad = leq(w1, w2, b) != leq(w1, w2, a)
                    elif pid == "DR10" and not in1 and in2:
                        bad = leq(w1, w2, b) and not leq(w1, w2, a)
                    elif pid == "DR11" and not in1 and in2:
                        bad = lt(w1, w2, b) and not lt(w1, w2, a)
                    elif pid == "DR12" and not in1 and in2:
                        bad = b.ranks[w1] == b.ranks[w2] + 1 and not leq(w1, w2, a)
                    elif pid == "DR13" and not in1 and in2:
                        bad = b.ranks[w2] == 0 and not leq(w2, w1, a)
                    elif pid == "DR14" and not in1 and in2:
                        bad = b.ranks[w1] == b.ranks[w2] and a.ranks[w2] != a.ranks[w1] + 1
                    elif pid == "DR15" and not in1 and in2:
                        bad = (
                            b.ranks[w1] == b.ranks[w2]
                            and frontal(w1, f, st)
                            and a.ranks[w1] != a.ranks[w2]
                        )
                    elif pid == "IC1" and in1 and in2:
                        bad = leq(w1, w2, b) != leq(w1, w2, a)
                    elif pid == "IC2" and not in1 and not in2:
                        bad = leq(w1, w2, b) != leq(w1, w2, a)
                    elif pid == "IC3" and not in1 and in2:
                        bad = lt(w1, w2, b) and not lt(w1, w2, a)
                    elif pid == "IC4" and not in1 and in2:
                        bad = leq(w1, w2, b) and not leq(w1, w2, a)
                    if bad:
                        violations.append((st.order.ranks, w1, w2))
    return violations


class TestNaiveOracleAgreement:
    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize(
        "pid,naive",
        [
            (PostulateId.D1, naive_D1),
            (PostulateId.D2, naive_D2),
            (PostulateId.D4, naive_D4),
            (PostulateId.D6, naive_D6),
            (PostulateId.PARTIAL_SUCCESS, naive_partial_success),
            (PostulateId.LEMMA1, naive_lemma1),
        ],
    )
    def test_formula_level(self, kind, pid, naive):
        report = check_postulate(kind, pid, SIG2)
        assert (report.outcome == "pass") == naive(kind)

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize(
        "pid",
        ["DR8", "DR9", "DR10", "DR11", "DR12", "DR13", "DR14", "DR15", "IC1", "IC2", "IC3", "IC4"],
    )
    def test_dr_level(self, kind, pid):
        report = check_postulate(kind, pid, SIG2)
        violations = naive_dr(kind, pid)
        assert (report.outcome == "pass") == (not violations)


class TestSpecificCells:
    def test_lemma1_type1_case_count(self):
        report = check_postulate(T1, PostulateId.LEMMA1, SIG2)
        assert report.outcome == "pass"
        assert report.cases == 75 * 4

    def test_instant_c3(self):
        report = check_postulate(IN, PostulateId.C3, SIG2)
        assert report.outcome == "pass"

    def test_type2_dr15(self):
        report = check_postulate(T2, PostulateId.DR15, SIG2)
        assert report.outcome == "pass"

    def test_instant_dr12_fails_with_replayable_witness(self):
        report = check_postulate(IN, PostulateId.DR12, SIG2)
        assert report.outcome == "fail"
        assert report.counterexamples
        for ce in report.counterexamples:
            assert replay_counterexample(IN, PostulateId.DR12, ce)

    def test_instant_dr12_minimal_counterexample_shape(self):
        # smallest failing configuration: a non-minimal counter-world of a
        # sits directly above an alpha-world
        report = check_postulate(IN, PostulateId.DR12, SIG2)
        first = report.counterexamples[0]
        assert len(first["state"]) == 3

    def test_pass_reports_have_no_counterexamples(self):
        for pid in (PostulateId.D1, PostulateId.DR8, PostulateId.SFA1):
            rep = check_postulate(T2, pid, SIG2)
            assert rep.outcome == "pass" and rep.counterexamples == []

    def test_report_doc_schema(self):
        doc = check_postulate(T2, PostulateId.D8, SIG2).to_doc()
        assert list(doc.keys()) == [
            "postulate",
            "operator",
            "domain",
            "outcome",
            "cases",
            "counterexamples",
        ]
        assert doc["postulate"] == "D8"
        assert doc["operator"] == "type2"
        assert doc["domain"].startswith("exhaustive")


class TestMatrix:
    def test_full_matrix_completes_and_serialises(self):
        matrix = conformance_matrix(
            list(OperatorKind), [PostulateId.D1, PostulateId.DR12], SIG2
        )
        doc = json.loads(matrix.to_json())
        assert len(doc["reports"]) == 6
        assert doc["operators"] == ["type1", "type2", "instant"]

    def test_all_postulates_covered(self):
        assert {p.value for p in ALL_POSTULATES} == {p.value for p in PostulateId}
        matrix = conformance_matrix([T1], "all", SIG2)
        assert len(matrix.reports) == len(ALL_POSTULATES)
        assert matrix.mode == "exhaustive |Σ|=2"

    @pytest.mark.parametrize("postulates, want", [
        ("D1", ("D1",)),
        ("DR8", ("DR8",)),
        ("dr12", ("DR12",)),
        ("ALL", tuple(p.value for p in ALL_POSTULATES)),
    ])
    def test_postulate_string_is_one_id_or_all(self, postulates, want):
        # a string is never split into characters; "all" is matched in any case
        assert conformance_matrix([T1], postulates, Signature("a")).postulates == want

    def test_deterministic_bytes(self):
        pids = [PostulateId.D1, PostulateId.D6, PostulateId.DR12, PostulateId.LEMMA1]
        m1 = conformance_matrix(list(OperatorKind), pids, SIG2)
        m2 = conformance_matrix(list(OperatorKind), pids, SIG2)
        assert m1.to_json().encode() == m2.to_json().encode()

    def test_worker_count_does_not_change_bytes(self):
        pids = [PostulateId.D1, PostulateId.DR12, PostulateId.LEMMA1]
        m1 = conformance_matrix(list(OperatorKind), pids, SIG2, workers=1)
        m2 = conformance_matrix(list(OperatorKind), pids, SIG2, workers=3)
        assert m1.to_json().encode() == m2.to_json().encode()

    def test_chunk_bounds_capped_at_cpus(self):
        # planning only: no process is started for any of these
        from decrement.checker import _chunk_bounds

        assert _chunk_bounds(545_835, 10**9, 2) == [(0, 272_917), (272_917, 545_835)]
        assert _chunk_bounds(3, 8, 16) == [(0, 1), (1, 2), (2, 3)]
        assert _chunk_bounds(0, 4, 4) == []
        assert _chunk_bounds(10, 0, 4) == [(0, 10)]

    def test_huge_worker_request_keeps_report(self, monkeypatch):
        import decrement.checker as checker

        seen = []

        class SerialPool:
            def map(self, fn, *iterables):
                seen.append(len(iterables[0]))
                return map(fn, *iterables)

            def shutdown(self):
                pass

        monkeypatch.setattr(checker, "_worker_pool", lambda workers: SerialPool())
        monkeypatch.setattr(checker, "_usable_cpus", lambda: 3)
        one = check_postulate(IN, PostulateId.DR12, SIG2, workers=1)
        many = check_postulate(IN, PostulateId.DR12, SIG2, workers=10**9)
        assert seen == [3]
        assert many.to_json() == one.to_json()

    def test_matrix_shares_one_pool_and_shuts_it_down(self, monkeypatch):
        import decrement.checker as checker

        class SerialPool:
            def __init__(self):
                self.maps = 0
                self.shut = False

            def map(self, fn, *iterables):
                self.maps += 1
                return map(fn, *iterables)

            def shutdown(self):
                self.shut = True

        pools = []

        def serial_pool(workers):
            pools.append(SerialPool())
            return pools[-1]

        monkeypatch.setattr(checker, "_worker_pool", serial_pool)
        monkeypatch.setattr(checker, "_usable_cpus", lambda: 2)
        pids = [PostulateId.D1, PostulateId.DR12]
        shared = conformance_matrix(list(OperatorKind), pids, SIG2, workers=2)
        assert [(p.maps, p.shut) for p in pools] == [(6, True)]
        assert shared.to_json() == conformance_matrix(list(OperatorKind), pids, SIG2).to_json()
        with pytest.raises(DomainTooLargeError):
            conformance_matrix([T1], [PostulateId.D1, PostulateId.D12], Signature("abcd"), workers=2)
        assert pools[-1].shut

    def test_partial_success_three_atoms(self):
        sig3 = Signature(("a", "b", "c"))
        for kind in (T1, T2):
            rep = check_postulate(kind, PostulateId.PARTIAL_SUCCESS, sig3)
            assert rep.outcome == "pass"
            assert rep.cases == 139_733_760


class TestDomainLimits:
    def test_exhaustive_pairs_capped_at_three_atoms(self):
        sig4 = Signature(("a", "b", "c", "d"))
        with pytest.raises(DomainTooLargeError, match=r"limited to \|Σ\| <= 3, got 4"):
            check_postulate(T1, PostulateId.D12, sig4)

    def test_four_atoms_always_too_large(self):
        sig4 = Signature(("a", "b", "c", "d"))
        with pytest.raises(DomainTooLargeError):
            check_postulate(T1, PostulateId.D1, sig4)

    def test_unknown_postulate(self):
        with pytest.raises(ValueError):
            check_postulate(T1, "D99", SIG2)


class TestSuccessorSatisfiability:
    def test_flat_identity_included(self, flat2, sig2):
        alpha = parse_formula("a", sig2)
        out = successor_satisfiability(flat2, alpha, ["DR8", "DR9", "DR10", "DR11", "DR13"])
        assert flat2.order in out

    def test_psi1_contains_both_canonical_successors(self, psi1, sig2):
        alpha = parse_formula("a", sig2)
        out = successor_satisfiability(
            psi1, alpha, ["DR8", "DR9", "DR10", "DR11", "DR12", "DR13"]
        )
        assert step(psi1, alpha, T1).order in out
        assert step(psi1, alpha, T2).order in out
        assert len(out) >= 2

    def test_conflict_configuration_empty(self, conflict2, sig2):
        # Bottom layer holds both an alpha-world and a counter-world, with a
        # counter-world one layer up: DR9 + DR12 + DR13 admit no successor.
        alpha = parse_formula("a", sig2)
        out = successor_satisfiability(conflict2, alpha, ["DR9", "DR12", "DR13"])
        assert out == []

    def test_non_dr_constraint_rejected(self, psi1, sig2):
        with pytest.raises(ValueError):
            successor_satisfiability(psi1, parse_formula("a", sig2), ["D8"])

    def test_universe_cap(self):
        sig4 = Signature(("a", "b", "c", "d"))
        from decrement.preorder import TotalPreorder

        big = EpistemicState(sig4, TotalPreorder((0,) * 16))
        with pytest.raises(UniverseTooLargeError):
            successor_satisfiability(big, parse_formula("a", sig4), ["DR8"])


class TestVerifyRepresentation:
    def test_decrement_kinds_pass(self):
        for kind in (T1, T2):
            report = verify_representation(kind, SIG2)
            assert report.outcome == "pass"
            assert report.cases == 75

    def test_instant_fails_dr12_in_part_iv(self):
        report = verify_representation(IN, SIG2)
        assert report.outcome == "fail"
        assert any("(iv) DR12" in ce["detail"] for ce in report.counterexamples)
        assert not any("(i)" == ce["detail"][:3] for ce in report.counterexamples)

    def test_domain_cap(self):
        sig4 = Signature(("a", "b", "c", "d"))
        with pytest.raises(DomainTooLargeError, match=r"^checker limited to \|Σ\| <= 3, got 4$"):
            verify_representation(T1, sig4)


class TestReplaySoundness:
    def test_all_failing_cells_replay(self):
        # every counterexample of every failing cell of the two-atom matrix
        # re-evaluates to a violation
        matrix = conformance_matrix(list(OperatorKind), "all", SIG2)
        assert matrix.failures()
        for report in matrix.failures():
            assert report.counterexamples
            for ce in report.counterexamples:
                assert replay_counterexample(report.operator, report.postulate, ce), (
                    report.operator,
                    report.postulate,
                    ce,
                )

    @pytest.mark.parametrize(
        "state",
        [
            [],  # no layers at all
            [[]],  # one empty layer
            [["11"]],  # three of the four worlds missing
            [["11", "10"], ["10", "01", "00"]],  # a world in two layers
            [["11", "10", "01", "00"], []],  # empty top layer
            [["11", "1"], ["01", "00"]],  # worlds of different lengths
        ],
    )
    def test_malformed_state_rejected(self, state):
        ce = {"state": state, "formulas": {"alpha": ["11"]}, "worlds": {}}
        with pytest.raises(StateFormatError):
            replay_counterexample(IN, PostulateId.DR12, ce)

    @pytest.mark.parametrize(
        "pid, formulas, worlds",
        [
            (PostulateId.LEMMA1, {}, {"omega": "111"}),  # three bits in a two-atom state
            (PostulateId.LEMMA1, {}, {}),  # omega left out
            (PostulateId.DR12, {"alpha": ["1x"]}, {}),  # not a bitstring
        ],
    )
    def test_malformed_values_rejected(self, pid, formulas, worlds, monkeypatch):
        import dataclasses

        import decrement.checker as checker

        def never(*args):
            raise AssertionError("evaluator ran")

        rec = dataclasses.replace(checker.REGISTRY[pid], evaluate=never)
        monkeypatch.setitem(checker.REGISTRY, pid, rec)
        ce = {"state": [["11", "10", "01", "00"]], "formulas": formulas, "worlds": worlds}
        with pytest.raises(StateFormatError):
            replay_counterexample(IN, pid, ce)

    @pytest.mark.parametrize(
        "ce",
        [
            {"state": [["11", "10", "01", "00"]], "worlds": {}},  # no formulas
            {"state": [["11", "10", "01", "00"]], "formulas": ["11"], "worlds": {}},  # not a map
            {"formulas": {"alpha": ["11"]}, "worlds": {}},  # no state
            [],  # not a document
        ],
    )
    def test_malformed_document_rejected(self, ce):
        with pytest.raises(StateFormatError):
            replay_counterexample(IN, PostulateId.DR12, ce)

    @pytest.mark.parametrize("n_atoms", [4, 40])
    def test_too_many_atoms_rejected(self, n_atoms, monkeypatch):
        import dataclasses

        import decrement.checker as checker

        def never(*args):
            raise AssertionError("evaluator ran")

        rec = dataclasses.replace(checker.REGISTRY[PostulateId.DR12], evaluate=never)
        monkeypatch.setitem(checker.REGISTRY, PostulateId.DR12, rec)
        world = "1" * n_atoms
        ce = {"state": [[world]], "formulas": {"alpha": [world]}, "worlds": {}}
        with pytest.raises(DomainTooLargeError):
            replay_counterexample(IN, PostulateId.DR12, ce)

    def test_counterexamples_sorted_smallest_first(self):
        report = check_postulate(IN, PostulateId.DR12, SIG2)
        sizes = [len(ce["state"]) for ce in report.counterexamples]
        assert sizes == sorted(sizes)


class TestGoldenReports:
    def test_instant_dr12_report_matches_golden(self, request):
        import pathlib

        golden = pathlib.Path(request.config.rootdir) / "tests" / "golden" / "check_instant_dr12_sig2.json"
        report = check_postulate(IN, PostulateId.DR12, SIG2)
        assert report.to_json() == golden.read_text(encoding="utf-8")

    def test_conflict_sat_probe_matches_golden(self, request, conflict2, sig2):
        import pathlib

        golden = pathlib.Path(request.config.rootdir) / "tests" / "golden" / "sat_conflict_dr9_dr12_dr13.json"
        out = successor_satisfiability(conflict2, parse_formula("a", sig2), ["DR9", "DR12", "DR13"])
        from decrement.logic import worldset_to_bits
        from decrement.preorder import to_layers
        from decrement.state import state_to_doc

        doc = {
            "state": state_to_doc(conflict2),
            "formula": "a",
            "constraints": ["DR9", "DR12", "DR13"],
            "count": len(out),
            "successors": [
                [worldset_to_bits(m, 2) for m in to_layers(t)] for t in out
            ],
        }
        assert json.dumps(doc, indent=2, ensure_ascii=False) + "\n" == golden.read_text(encoding="utf-8")


class TestRegistry:
    """The case generators read each postulate's record; these tests reach
    into the checker's internals on purpose."""

    def test_every_postulate_has_a_record(self):
        from decrement.checker import REGISTRY

        assert list(REGISTRY) == list(PostulateId)

    def test_postulates_that_hold_by_construction(self):
        # states are compressed rank vectors and formulas model masks, so
        # faithfulness and syntax independence cannot fail; the operators'
        # TestSemanticDeterminism checks what the last three rest on
        import decrement.checker as checker

        held = {pid.value for pid, rec in checker.REGISTRY.items() if rec.evaluate is checker._by_construction}
        assert held == {"C5", "D5", "SFA1", "SFA2", "SFA3"}

    @pytest.mark.parametrize("pid, cases", [
        (PostulateId.C5, 139_733_760),
        (PostulateId.D5, 35_771_842_560),
        (PostulateId.SFA1, 545_835),
        (PostulateId.SFA2, 545_835),
        (PostulateId.SFA3, 35_771_842_560),
    ], ids=lambda x: getattr(x, "value", None))
    def test_cells_that_hold_by_construction_walk_nothing(self, monkeypatch, pid, cases):
        import decrement.checker as checker

        def walked(*args, **kwargs):
            raise AssertionError("a cell that holds by construction walked its case classes")

        monkeypatch.setattr(checker, "case_classes", walked)
        monkeypatch.setattr(checker, "case_class_count", walked)
        report = check_postulate(T1, pid, Signature("abc"), workers=2)
        assert (report.outcome, report.cases, report.counterexamples) == ("pass", cases, [])

    @pytest.mark.parametrize("pid", list(PostulateId))
    def test_sampled_cases_are_enumerated_cases(self, pid):
        # drawn case classes, relabelled, meet the brute-force space's premises
        from decrement.checker import REGISTRY

        variables = REGISTRY[pid].variables
        space = set(brute_cases(pid, 4))
        rng = random.Random(pid.value)
        for _ in range(200):
            perm = rng.sample(range(4), 4)
            ranks, values = draw_class(pid, 4, rng)
            case = relabel(perm, ranks, variables, values)
            assert case in space, case


# --- brute force: the exhaustive case space, one case at a time -------------

def brute_cases(pid, n_worlds):
    """Every (ranks, values) case of pid's exhaustive space: each weak order
    times each assignment of the variables that meets the premises."""
    from decrement.checker import REGISTRY

    rec = REGISTRY[pid]
    full = (1 << n_worlds) - 1
    for ranks in _kernel.weak_order_ranks(n_worlds):
        cases = [()]
        for var in rec.variables:
            grown = []
            for values in cases:
                alpha = dict(zip(rec.variables, values)).get("alpha", 0)
                need = {"bel": _kernel.bel_mask(ranks), "alpha": alpha, "~alpha": full & ~alpha}
                low = need.get(rec.above.get(var), 0)
                if var == "omega":
                    choices = range(n_worlds)
                else:
                    choices = [m for m in range(full + 1) if low & ~m == 0]
                grown += [values + (x,) for x in choices]
            cases = grown
        for values in cases:
            yield ranks, values


def brute_report(kind, pid, n_atoms):
    """(cases, counterexamples) with every case evaluated, ordered by the
    documented key: fewest layers, then the layer bitstrings."""
    from decrement.checker import COUNTEREXAMPLE_CAP, REGISTRY
    from decrement.logic import world_to_bits, worldset_to_bits
    from decrement.state import layers_to_bits

    rec = REGISTRY[pid]
    cases, failures = 0, []
    for ranks, values in brute_cases(pid, 1 << n_atoms):
        cases += 1
        ok, witness = rec.evaluate(ranks, OperatorKind(kind).code, *values)
        if ok:
            continue
        formulas = dict(zip(rec.variables, values))
        worlds = {"omega": formulas.pop("omega")} if "omega" in formulas else {}
        worlds.update(witness)
        layers = layers_to_bits(ranks, n_atoms)
        key = (len(layers), layers, sorted(formulas.items()), sorted(worlds.items()))
        doc = {
            "state": layers,
            "formulas": {k: worldset_to_bits(v, n_atoms) for k, v in sorted(formulas.items())},
            "worlds": {k: world_to_bits(v, n_atoms) for k, v in sorted(worlds.items())},
        }
        failures.append((key, doc))
    failures.sort(key=lambda kv: kv[0])
    return cases, [doc for _, doc in failures[:COUNTEREXAMPLE_CAP]]


FAILING_TWO_ATOM_CELLS = [
    (T1, PostulateId.D12), (T2, PostulateId.D12), (IN, PostulateId.D12),
    (T1, PostulateId.DR15), (T2, PostulateId.DR14), (IN, PostulateId.DR12), (IN, PostulateId.DR14),
]


class TestOrbitCheckerAgainstBruteForce:
    """Exhaustive mode decides one case per orbit; brute force decides them all."""

    @staticmethod
    def assert_same(kind, pid, n_atoms):
        report = check_postulate(kind, pid, Signature("abc"[:n_atoms]))
        assert (report.cases, report.counterexamples) == brute_report(kind, pid, n_atoms)
        assert report.outcome == ("fail" if report.counterexamples else "pass")

    @pytest.mark.parametrize("kind", list(OperatorKind))
    @pytest.mark.parametrize("pid", list(PostulateId))
    def test_every_one_atom_cell(self, kind, pid):
        self.assert_same(kind, pid, 1)

    @pytest.mark.parametrize("kind, pid", FAILING_TWO_ATOM_CELLS)
    def test_failing_two_atom_cells(self, kind, pid):
        self.assert_same(kind, pid, 2)

    @settings(max_examples=12, deadline=None)
    @given(kind=st.sampled_from(list(OperatorKind)), pid=st.sampled_from(list(PostulateId)))
    def test_drawn_two_atom_cells(self, kind, pid):
        self.assert_same(kind, pid, 2)


class TestKeyFirstExpansion:
    """Counterexamples are chosen by key: the evaluator runs once per case
    class and once per reported member, and a failing orbit whose chosen
    member passes is an error, not a shorter report."""

    @staticmethod
    def plant(monkeypatch, pid, wrap):
        """Replace pid's evaluator by wrap(evaluator); returns the record."""
        import dataclasses

        import decrement.checker as checker

        rec = checker.REGISTRY[pid]
        monkeypatch.setitem(checker.REGISTRY, pid, dataclasses.replace(rec, evaluate=wrap(rec.evaluate)))
        return rec

    def test_evaluator_runs_once_per_class_and_reported_member(self, monkeypatch):
        from decrement.checker import COUNTEREXAMPLE_CAP
        from decrement.profiles import case_class_count

        calls = []

        def counted(evaluate):
            def run(*args):
                calls.append(args)
                return evaluate(*args)
            return run

        rec = self.plant(monkeypatch, PostulateId.DR12, counted)
        report = check_postulate(IN, PostulateId.DR12, SIG2)
        assert len(report.counterexamples) == COUNTEREXAMPLE_CAP
        assert len(calls) <= case_class_count(rec.variables, rec.above, 4) + COUNTEREXAMPLE_CAP

    def test_representation_runs_once_per_class_and_reported_member(self, monkeypatch):
        import decrement.checker as checker
        from decrement.checker import COUNTEREXAMPLE_CAP, verify_representation
        from decrement.profiles import case_class_count

        calls = []
        failures = checker._representation_failures

        def counted(ranks, code, n_atoms):
            calls.append(ranks)
            return failures(ranks, code, n_atoms)

        monkeypatch.setattr(checker, "_representation_failures", counted)
        report = verify_representation(IN, SIG2)
        assert (report.outcome, len(report.counterexamples)) == ("fail", COUNTEREXAMPLE_CAP)
        assert len(calls) == case_class_count((), {}, 4) + COUNTEREXAMPLE_CAP

    def test_passing_member_of_failing_orbit_raises(self, monkeypatch):
        # fails on the representatives, whose ranks never decrease, but
        # passes on every other member of their orbits
        def non_decreasing_fail(evaluate):
            return lambda ranks, code: (list(ranks) != sorted(ranks), {})

        self.plant(monkeypatch, PostulateId.SFA1, non_decreasing_fail)
        with pytest.raises(RuntimeError, match="passes"):
            check_postulate(IN, PostulateId.SFA1, SIG2)


class TestReducedSpace:
    """D10 and D11 are decided over (alpha, beta): a reduced evaluator fails
    iff the full one fails for some gamma, each class counts its gammas,
    and gamma is listed only for the members reported.  The full-gamma
    path, the same record without ``reduced``, is the oracle."""

    REDUCED = [PostulateId.D10, PostulateId.D11]

    @staticmethod
    def full_gamma(monkeypatch, pid):
        import dataclasses

        import decrement.checker as checker

        rec = checker.REGISTRY[pid]
        monkeypatch.setitem(checker.REGISTRY, pid, dataclasses.replace(rec, reduced=None))

    @pytest.fixture
    def fresh_rows(self):
        """Row caches emptied before and after the test, so that no row
        built with a planted fault outlives it."""
        from decrement.operators import bel_row, giveup_rows, step_row

        caches = (bel_row, step_row, giveup_rows)
        for row in caches:
            row.cache_clear()
        yield
        for row in caches:
            row.cache_clear()

    @pytest.mark.parametrize("n_atoms", [1, 2])
    @pytest.mark.parametrize("pid", REDUCED)
    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_reports_match_the_full_gamma_path(self, monkeypatch, kind, pid, n_atoms):
        sig = Signature("ab"[:n_atoms])
        reduced = check_postulate(kind, pid, sig).to_json()
        self.full_gamma(monkeypatch, pid)
        assert check_postulate(kind, pid, sig).to_json() == reduced

    def test_planted_failure_reported_alike(self, monkeypatch, fresh_rows):
        # achieving anything on a two-layer state also believes its top
        # layer: relabelling commutes with that, and D10 fails on it
        import decrement.operators as operators

        real = operators.achieve_bel

        def planted(ranks, amask, code):
            got = real(ranks, amask, code)
            return got | _kernel.layer_masks(ranks)[1] if max(ranks) == 1 else got

        monkeypatch.setattr(operators, "achieve_bel", planted)
        reduced = check_postulate(T1, PostulateId.D10, SIG2)
        self.full_gamma(monkeypatch, PostulateId.D10)
        full = check_postulate(T1, PostulateId.D10, SIG2)
        assert reduced.to_json() == full.to_json()
        assert reduced.outcome == "fail" and len(reduced.counterexamples) == 5
        for ce in reduced.counterexamples:
            assert replay_counterexample(T1, PostulateId.D10, ce)

    def test_two_atom_d10_evaluates_alpha_beta_classes(self, monkeypatch):
        import dataclasses

        import decrement.checker as checker
        from decrement.profiles import case_class_count

        rec = checker.REGISTRY[PostulateId.D10]
        calls = []

        def counted(*args):
            calls.append(args)
            return rec.reduced(*args)

        monkeypatch.setitem(checker.REGISTRY, PostulateId.D10, dataclasses.replace(rec, reduced=counted))
        report = check_postulate(T1, PostulateId.D10, SIG2)
        assert (report.outcome, report.cases) == ("pass", sum(1 for _ in brute_cases(PostulateId.D10, 4)))
        assert len(calls) == 1_031
        assert case_class_count(rec.variables, rec.above, 4) == 4_803


def draw_class(pid, n_worlds, rng):
    """(ranks, values) of a case class drawn uniformly from pid's space."""
    from decrement.checker import REGISTRY
    from decrement.profiles import case_class_count, case_classes

    rec = REGISTRY[pid]
    start = rng.randrange(case_class_count(rec.variables, rec.above, n_worlds))
    return next(case_classes(rec.variables, rec.above, n_worlds, start=start))


def relabel(perm, ranks, variables, values):
    """The case with world w renamed perm[w]."""
    from decrement.logic import iter_worlds

    moved = [0] * len(ranks)
    for w, r in enumerate(ranks):
        moved[perm[w]] = r
    return tuple(moved), tuple(
        perm[v] if var == "omega" else sum(1 << perm[w] for w in iter_worlds(v))
        for var, v in zip(variables, values)
    )


class TestEquivariance:
    """A verdict depends only on the case's orbit: relabelling the worlds
    of a case never changes it.  Exhaustive mode rests on this."""

    @pytest.mark.parametrize("pid", list(PostulateId))
    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(list(OperatorKind)),
        n_atoms=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_verdict_survives_relabelling(self, pid, kind, n_atoms, seed, data):
        from decrement.checker import REGISTRY

        rec = REGISTRY[pid]
        n = 1 << n_atoms
        ranks, values = draw_class(pid, n, random.Random(seed))
        perm = data.draw(st.permutations(range(n)))
        moved_ranks, moved_values = relabel(perm, ranks, rec.variables, values)
        before, _ = rec.evaluate(ranks, kind.code, *values)
        after, _ = rec.evaluate(moved_ranks, kind.code, *moved_values)
        assert before == after


class TestThreeAtoms:
    """Exhaustive cells at three atoms (8 worlds)."""

    def test_type1_d13_passes(self):
        report = check_postulate(T1, PostulateId.D13, Signature("abc"))
        assert report.outcome == "pass"
        assert report.cases == 139_733_760  # 545,835 orders x 256 alpha classes

    # sha256 of CheckReport.to_json(); the first two equal a case-by-case
    # run of the checker that walked every order (26 and 17 min on two
    # workers), the DR14 ones the same cells of the README three-atom matrix
    @pytest.mark.parametrize(
        "kind, pid, sha256",
        [
            (IN, PostulateId.DR12, "faf261cc219cf30f5795204fc092a966e0508ede04699bae1621e17305360566"),
            (T1, PostulateId.DR15, "bffe8217c39b0e4caa0d87c27d3c7d99a781b6aea5d553071bfe3e6fb2947898"),
            (T2, PostulateId.DR14, "eabaea2632c78a696efe3a04071bfb46731380d11e44898525f4865fd5a55011"),
            (IN, PostulateId.DR14, "c9d2867bbb69588c123fe9e08cac6db5a550c4898d4ce248a7c241b954eff433"),
        ],
        ids=["instant-DR12", "type1-DR15", "type2-DR14", "instant-DR14"],
    )
    def test_failing_cells_pinned(self, kind, pid, sha256):
        report = check_postulate(kind, pid, Signature("abc"))
        assert report.cases == 57_879_617
        assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest() == sha256

    # sha256 prefixes of CheckReport.to_json() for the cheapest cells over
    # several formulas
    @pytest.mark.parametrize(
        "kind, pid, cases, sha256",
        [
            (T1, PostulateId.C5, 139_733_760, "ca2e6157d99b"),
            (T2, PostulateId.C5, 139_733_760, "c6a876458138"),
            (IN, PostulateId.C5, 139_733_760, "6098f7a9a327"),
            (IN, PostulateId.D8, 3_581_223_435, "85399ca7a331"),
            (IN, PostulateId.D9, 3_581_223_435, "354c67b0da3e"),
            (T1, PostulateId.D10, 916_793_199_360, "d60e232727ae"),
            (T1, PostulateId.LEMMA3, 35_771_842_560, "3ef361f3666f"),
            (T1, PostulateId.D5, 35_771_842_560, "f2399a8c1333"),
            (T1, PostulateId.SFA3, 35_771_842_560, "f6a0ce9f4e44"),
        ],
        ids=[
            "type1-C5", "type2-C5", "instant-C5", "instant-D8", "instant-D9",
            "type1-D10", "type1-Lemma3", "type1-D5", "type1-SFA3",
        ],
    )
    def test_multiformula_cells_pass(self, kind, pid, cases, sha256):
        report = check_postulate(kind, pid, Signature("abc"))
        assert (report.outcome, report.cases) == ("pass", cases)
        assert hashlib.sha256(report.to_json().encode("utf-8")).hexdigest().startswith(sha256)
