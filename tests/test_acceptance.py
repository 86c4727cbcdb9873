"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
import json
import math
import pathlib
import time
from contextlib import contextmanager

from decrement.checker import (
    PostulateId,
    check_postulate,
    conformance_matrix,
    replay_counterexample,
    successor_satisfiability,
)
from decrement.logic import Signature, parse_formula, worldset_to_bits
from decrement.operators import OperatorKind, induced_order, step
from decrement.preorder import TotalPreorder, enumerate_preorders, to_layers
from decrement.state import EpistemicState, state_to_doc

T1 = OperatorKind.TYPE1_DECREMENT
T2 = OperatorKind.TYPE2_DECREMENT
IN = OperatorKind.INSTANT_CONTRACTION

SIG2 = Signature(("a", "b"))
PSI1 = EpistemicState(SIG2, TotalPreorder((2, 2, 1, 0)))
CONFLICT = EpistemicState(SIG2, TotalPreorder((1, 2, 0, 0)))
GOLDEN = pathlib.Path(__file__).parent / "golden"
MATRIX2_SHA256 = "b30f13ca515d3b21c5373f045b0e913f3c0e36851dd59bca963ee491a018dd43"


@contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(f"took {elapsed:.1f}s, budget {budget}s")
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def layers(state):
    return state_to_doc(state)["layers"]


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked-example reproduction", budget=1.0):
        a = parse_formula("a", SIG2)
        assert layers(step(PSI1, a, T1)) == [["11", "01"], ["00"], ["10"]]
        assert layers(step(PSI1, a, T2)) == [["11", "01"], ["10", "00"]]


def test_criterion_2_weak_decrement_suite():
    with criterion(2, "weak decrement postulates, exhaustive two atoms", budget=60.0):
        pids = [
            PostulateId.D1,
            PostulateId.D2,
            PostulateId.D3,
            PostulateId.D4,
            PostulateId.D5,
            PostulateId.D6,
            PostulateId.D7,
            PostulateId.DECREMENT_SUCCESS,
        ]
        for kind in (T1, T2, IN):
            for pid in pids:
                report = check_postulate(kind, pid, SIG2)
                assert report.outcome == "pass", (kind.value, pid.value)
                assert report.counterexamples == []
            single = check_postulate(kind, PostulateId.DECREMENT_SUCCESS, SIG2)
            assert single.cases == 75 * 16


def test_criterion_3_decrement_iteration_suite():
    with criterion(3, "successor-order conditions on believed steps", budget=60.0):
        dr_common = [
            PostulateId.DR8,
            PostulateId.DR9,
            PostulateId.DR10,
            PostulateId.DR11,
            PostulateId.DR12,
            PostulateId.DR13,
        ]
        for kind in (T1, T2):
            for pid in dr_common:
                report = check_postulate(kind, pid, SIG2)
                assert report.outcome == "pass", (kind.value, pid.value)
                assert report.counterexamples == []
        assert check_postulate(T1, PostulateId.DR14, SIG2).outcome == "pass"
        assert check_postulate(T2, PostulateId.DR15, SIG2).outcome == "pass"


def test_criterion_4_support_lemmas():
    with criterion(4, "contract-world, partial success, give-up successor lemma"):
        for kind in (T1, T2):
            for pid in (PostulateId.LEMMA1, PostulateId.PARTIAL_SUCCESS, PostulateId.LEMMA3):
                report = check_postulate(kind, pid, SIG2)
                assert report.outcome == "pass", (kind.value, pid.value)
                assert report.counterexamples == []


def test_criterion_5_induced_order_roundtrip():
    with criterion(5, "induced order recovers the assignment"):
        for kind in (T1, T2):
            for tpo in enumerate_preorders(4):
                state = EpistemicState(SIG2, tpo)
                assert induced_order(kind, state) == tpo


def test_criterion_6_negative_control():
    with criterion(6, "instant contraction: contraction yes, decrement no"):
        for pid in (
            PostulateId.C1,
            PostulateId.C2,
            PostulateId.C3,
            PostulateId.C4,
            PostulateId.C5,
            PostulateId.C6,
            PostulateId.C7,
        ):
            assert check_postulate(IN, pid, SIG2).outcome == "pass", pid.value
        dr_reports = {
            pid: check_postulate(IN, pid, SIG2)
            for pid in (
                PostulateId.DR8,
                PostulateId.DR9,
                PostulateId.DR10,
                PostulateId.DR11,
                PostulateId.DR12,
                PostulateId.DR13,
            )
        }
        failing = [pid for pid, rep in dr_reports.items() if rep.outcome == "fail"]
        assert failing, "expected at least one DR failure"
        assert failing == [PostulateId.DR12]
        for ce in dr_reports[PostulateId.DR12].counterexamples:
            assert replay_counterexample(IN, PostulateId.DR12, ce)
        golden = (GOLDEN / "check_instant_dr12_sig2.json").read_text(encoding="utf-8")
        assert dr_reports[PostulateId.DR12].to_json() == golden


def test_criterion_7_satisfiability_probe():
    with criterion(7, "mixed-bottom configuration admits no DR9+DR12+DR13 successor"):
        out = successor_satisfiability(
            CONFLICT, parse_formula("a", SIG2), ["DR9", "DR12", "DR13"]
        )
        assert out == []
        doc = {
            "state": state_to_doc(CONFLICT),
            "formula": "a",
            "constraints": ["DR9", "DR12", "DR13"],
            "count": len(out),
            "successors": [[worldset_to_bits(m, 2) for m in to_layers(t)] for t in out],
        }
        golden = (GOLDEN / "sat_conflict_dr9_dr12_dr13.json").read_text(encoding="utf-8")
        assert json.dumps(doc, indent=2, ensure_ascii=False) + "\n" == golden


def test_criterion_8_enumeration_oracle():
    with criterion(8, "weak-order counts match the recurrence"):
        # a(n) = sum_k C(n,k) a(n-k), computed here independently
        expected = [1]
        for m in range(1, 7):
            expected.append(sum(math.comb(m, k) * expected[m - k] for k in range(1, m + 1)))
        assert expected[1:] == [1, 3, 13, 75, 541, 4683]
        for n in range(1, 7):
            assert sum(1 for _ in enumerate_preorders(n)) == expected[n]


def test_criterion_9_matrix_determinism():
    with criterion(9, "conformance matrix byte-identical across worker counts"):
        m1 = conformance_matrix(list(OperatorKind), "all", SIG2, workers=1)
        m2 = conformance_matrix(list(OperatorKind), "all", SIG2, workers=2)
        assert m1.to_json().encode("utf-8") == m2.to_json().encode("utf-8")
        # the same digest perfbench/expected_matrix2.json checks
        assert hashlib.sha256(m1.to_json().encode("utf-8")).hexdigest() == MATRIX2_SHA256
