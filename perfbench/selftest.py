"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that the output checks catch planted wrong outputs, that traced and
untraced passes give byte-identical outputs, and that BENCHMARK.json names
exactly the metrics the harness reports.  Uses small inputs: about 15 s.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import decrement  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL_MATRIX = ["matrix", "--ops", "instant,type2", "--postulates", "C1,DR12,SFA1", "--atoms", "2"]


class SelfTestError(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def small_inputs(workload: str, workdir: Path):
    if workload == "matrix2":
        return workloads.matrix2_inputs(1, workdir, argv=SMALL_MATRIX)
    if workload == "ops3":
        return workloads.ops3_inputs(1, workdir, states=15)
    return workloads.sat3_inputs(1, workdir, selective=1, permissive=False)


def run_pass(workload: str, inputs, traced: bool) -> dict:
    with Tracer() as tracer:
        workloads.install_cell_clock(tracer)
        if traced:
            workloads.install_layers(tracer)
        return workloads.WORKLOADS[workload][1](inputs, tracer)


@contextlib.contextmanager
def planted(holder, attr, make_fake):
    """Temporarily replace holder.attr with make_fake(original)."""
    original = getattr(holder, attr)
    setattr(holder, attr, make_fake(original))
    try:
        yield
    finally:
        setattr(holder, attr, original)


def bump_one_cell(original):
    def fake(kind, postulate, *args, **kwargs):
        report = original(kind, postulate, *args, **kwargs)
        if str(getattr(postulate, "value", postulate)) == "DR12":
            report.cases += 1
        return report
    return fake


def reversed_order(original):
    def fake(kind, state):
        ranks = original(kind, state).ranks
        return decrement.TotalPreorder(tuple(max(ranks) - r for r in ranks))
    return fake


def achieve_nothing(original):
    def fake(state, alpha, kind):
        return decrement.AchieveResult(state, 1)
    return fake


def extra_successor(original):
    def fake(state, alpha, constraints):
        return original(state, alpha, constraints) + [decrement.TotalPreorder((0,) * state.sig.n_worlds)]
    return fake


PLANTS = [
    ("matrix2", decrement.checker, "check_postulate", bump_one_cell),
    ("ops3", decrement, "induced_order", reversed_order),
    ("ops3", decrement, "achieve", achieve_nothing),
    ("sat3", decrement.cli, "successor_satisfiability", extra_successor),
]


def test_traced_and_untraced_agree(workdir: Path) -> None:
    for workload in run.WORKLOADS:
        inputs = small_inputs(workload, workdir)
        plain = run_pass(workload, inputs, traced=False)
        traced = run_pass(workload, inputs, traced=True)
        expect(plain["attempted"] > 0 and plain["failed"] == 0, f"{workload}: clean pass failed: {plain['errors']}")
        expect(traced["failed"] == 0, f"{workload}: traced pass failed: {traced['errors']}")
        expect(plain["digest"] == traced["digest"], f"{workload}: tracing changed the outputs")


def test_planted_faults_raise_fail_share(workdir: Path) -> None:
    for workload, holder, attr, make_fake in PLANTS:
        inputs = small_inputs(workload, workdir)
        with planted(holder, attr, make_fake):
            result = run_pass(workload, inputs, traced=False)
        share = result["failed"] / result["attempted"]
        expect(share > 0, f"{workload}: planted fault in {attr} went unnoticed")


def test_tail_percentile() -> None:
    expect(run.tail([float(i) for i in range(1, 121)]) == (90.0, 108.0), "p90 of 120 items")
    expect(run.tail([float(i) for i in range(1, 2001)]) == (99.0, 1980.0), "p99 of 2000 items")
    expect(run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0), "maximum of 3 items")


def test_benchmark_json_names_the_reported_metrics() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(e2e == run.END_TO_END_UNITS, "end-to-end metrics or units")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(layers == workloads.LAYER_UNITS, "per-layer metrics or units")


def main() -> int:
    workdir = run.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    try:
        for name, test in list(globals().items()):
            if not name.startswith("test_"):
                continue
            try:
                test(workdir) if test.__code__.co_argcount else test()
                print(f"ok    {name}")
            except SelfTestError as exc:
                failures += 1
                print(f"FAIL  {name}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
