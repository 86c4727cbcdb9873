"""Inputs, passes and output checks of the three workloads.

Every input is generated here from the seed; the program only receives
the generated state documents, formula texts and command lines.  The
checks use this file's own world encoding, model sets and DR conditions,
never the program's, so a wrong answer cannot vouch for itself.

A pass returns a dict with ``wall_s`` (seconds inside the program's calls,
checks excluded), ``work`` (cases, states or probes), ``items_ms`` (one
latency per matrix cell, state or probe), ``attempted``/``failed`` (items
checked / items whose check failed or raised) and ``digest`` (sha256 over
every output, to compare traced with untraced passes).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import time
from pathlib import Path

import decrement
import decrement.cli
import decrement._kernel

HERE = Path(__file__).resolve().parent
ATOMS3 = ("a", "b", "c")
N3 = 1 << len(ATOMS3)
FULL3 = (1 << N3) - 1
FUBINI8 = 545835  # total preorders on 8 worlds (OEIS A000670)
KINDS = ("type1", "type2", "instant")

OPS3_STATES = 1500
# Formula pairs compared with the give-up relations, as indexes into the
# eight formula classes drawn per state (see ops3_masks).
OPS3_PAIRS = ((0, 1), (2, 3), (4, 6), (7, 5))

SAT3_SELECTIVE = ("DR8,DR9,DR10,DR11,DR12,DR13", "DR9,DR12,DR13")
SAT3_SELECTIVE_PROBES = 4
SAT3_PERMISSIVE = "DR14"
SAT3_LIMIT = 50
SAT3_CONFLICT = ("states/conflict.json", "a", "DR9,DR12,DR13")


# --- worlds, orders and formulas, in the documented state-file encoding ------

def bits(world: int, n_atoms: int) -> str:
    """Bitstring of a world, first atom first: bit i of world is atom i."""
    return "".join("1" if world >> i & 1 else "0" for i in range(n_atoms))


def world_of(bitstring: str) -> int:
    return sum(1 << i for i, c in enumerate(bitstring) if c == "1")


def layers_doc(ranks, atoms) -> dict:
    n_atoms = len(atoms)
    return {
        "atoms": list(atoms),
        "layers": [
            [bits(w, n_atoms) for w in range(len(ranks)) if ranks[w] == r]
            for r in range(max(ranks) + 1)
        ],
    }


def ranks_of(layers, n_worlds: int) -> tuple:
    """Rank vector of a layer list; raises ValueError unless it partitions
    all n_worlds worlds into nonempty layers."""
    ranks = [None] * n_worlds
    for r, layer in enumerate(layers):
        if not layer:
            raise ValueError(f"layer {r} is empty")
        for b in layer:
            w = world_of(b)
            if w >= n_worlds or ranks[w] is not None:
                raise ValueError(f"world {b!r} out of range or listed twice")
            ranks[w] = r
    if None in ranks:
        raise ValueError("some world is in no layer")
    return tuple(ranks)


def compress(keys) -> tuple:
    order = sorted(set(keys))
    return tuple(order.index(k) for k in keys)


def random_ranks(rng: random.Random, n_worlds: int) -> tuple:
    return compress([rng.randrange(n_worlds) for _ in range(n_worlds)])


def layer_mask(ranks, r: int) -> int:
    return sum(1 << w for w, x in enumerate(ranks) if x == r)


def dnf(mask: int, atoms) -> str:
    """Formula text whose models are exactly the worlds in mask."""
    if not mask:
        return "false"
    terms = []
    for w in range(1 << len(atoms)):
        if mask >> w & 1:
            lits = [a if w >> i & 1 else "!" + a for i, a in enumerate(atoms)]
            terms.append("(" + " & ".join(lits) + ")")
    return " | ".join(terms)


def believed_mask(rng: random.Random, ranks, full: int) -> int:
    """A non-tautological formula class containing the belief models."""
    bel = layer_mask(ranks, 0)
    rest = [w for w in range(len(ranks)) if not bel >> w & 1]
    mask = bel | sum(1 << w for w in rest if rng.random() < 0.5)
    if mask == full and rest:
        mask &= ~(1 << rng.choice(rest))
    return mask


# --- DR successor conditions, written from their definitions ----------------
#
# w1 ranges over counter-worlds of alpha, w2 over alpha-worlds, except DR8
# (both alpha-worlds) and DR9 (both counter-worlds).  b = before, f = after.
# DR15 is left out: no probe uses it.

def _dr8_9(b1, b2, f1, f2):
    return (b1 <= b2) == (f1 <= f2)


DR_CONDITIONS = {
    "DR8": ("alpha-alpha", _dr8_9),
    "DR9": ("counter-counter", _dr8_9),
    "DR10": ("counter-alpha", lambda b1, b2, f1, f2: not b1 <= b2 or f1 <= f2),
    "DR11": ("counter-alpha", lambda b1, b2, f1, f2: not b1 < b2 or f1 < f2),
    "DR12": ("counter-alpha", lambda b1, b2, f1, f2: b1 != b2 + 1 or f1 <= f2),
    "DR13": ("counter-alpha", lambda b1, b2, f1, f2: b2 != 0 or f2 <= f1),
    "DR14": ("counter-alpha", lambda b1, b2, f1, f2: b1 != b2 or f2 == f1 + 1),
}


def dr_holds(before, after, alpha: int, names) -> bool:
    n = len(before)
    for name in names:
        pair, cond = DR_CONDITIONS[name]
        for w1 in range(n):
            for w2 in range(n):
                a1, a2 = alpha >> w1 & 1, alpha >> w2 & 1
                applies = {
                    "alpha-alpha": a1 and a2,
                    "counter-counter": not a1 and not a2,
                    "counter-alpha": not a1 and a2,
                }[pair]
                if applies and not cond(before[w1], before[w2], after[w1], after[w2]):
                    return False
    return True


# --- pass bookkeeping ---------------------------------------------------------

class Pass:
    def __init__(self) -> None:
        self.wall_s = 0.0
        self.work = 0
        self.items_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()

    def judge(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(problems[0])

    def result(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "work": self.work,
            "items_ms": self.items_ms,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "digest": self.digest.hexdigest(),
        }


def _program_time(fn, *args):
    """Run fn, returning (seconds, result, error text or None)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a raising call is a failed item, not a crash
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = decrement.cli.main(argv)
    return code, buf.getvalue()


# --- matrix2: the full two-atom conformance matrix ---------------------------

def matrix2_inputs(seed: int, workdir: Path, argv=None) -> dict:
    # Exhaustive: the seed cannot change the case space.
    expected = json.loads((HERE / "expected_matrix2.json").read_text())
    return {"argv": list(argv or expected["argv"]), "expected": expected, "out": workdir / "matrix2.json"}


def matrix2_pass(inputs: dict, tracer) -> dict:
    p = Pass()
    expected = inputs["expected"]
    inputs["out"].unlink(missing_ok=True)
    p.wall_s, out, error = _program_time(_cli, inputs["argv"] + ["--out", str(inputs["out"])])
    p.items_ms = [d * 1000 for d in tracer.stats["checker.check_postulate"].durations]
    if error is None and out[0] != 0:
        error = f"exit code {out[0]}"
    try:
        raw = inputs["out"].read_bytes()
        reports = json.loads(raw)["reports"]
    except (OSError, ValueError, KeyError) as exc:
        raw, reports = b"", []
        error = error or f"unreadable matrix output: {exc}"
    p.digest.update(raw)
    if error:
        p.judge([error])
        return p.result()
    for rep in reports:
        key = f"{rep['operator']}/{rep['postulate']}"
        got = hashlib.sha256(json.dumps(rep, sort_keys=True, ensure_ascii=False).encode()).hexdigest()
        p.judge([] if expected["cells"].get(key) == got else [f"cell {key} differs from the seed"])
        p.work += rep["cases"]
    whole = inputs["argv"] == expected["argv"]
    if whole and not p.failed and hashlib.sha256(raw).hexdigest() != expected["sha256"]:
        # every cell matches, so a byte outside them (or a missing cell) differs
        p.failed = 1
        p.errors.append("matrix bytes differ from the seed's sha256")
    return p.result()


# --- ops3: operator API on seeded three-atom states --------------------------

def ops3_masks(rng: random.Random, ranks) -> list[int]:
    """Eight formula classes: the belief itself, four believed classes,
    the tautology and two uniform random classes."""
    bel = layer_mask(ranks, 0)
    masks = [bel]
    masks += [believed_mask(rng, ranks, FULL3) for _ in range(4)]
    masks.append(FULL3)
    masks += [rng.randrange(1, FULL3) for _ in range(2)]
    return masks


def ops3_inputs(seed: int, workdir: Path, states: int = OPS3_STATES) -> list:
    rng = random.Random(f"ops3/{seed}")
    out = []
    for _ in range(states):
        ranks = random_ranks(rng, N3)
        masks = ops3_masks(rng, ranks)
        out.append((layers_doc(ranks, ATOMS3), [dnf(m, ATOMS3) for m in masks], ranks, masks))
    return out


def _ops3_item(doc: dict, texts: list[str], name: str) -> tuple:
    """One state under one operator, from the documents a caller would hold."""
    state = decrement.state_from_doc(doc)
    fs = [decrement.parse_formula(t, state.sig) for t in texts]
    kind = decrement.OperatorKind(name)
    induced = decrement.induced_order(kind, state)
    steps = [decrement.step(state, f, kind) for f in fs]
    achieved = [decrement.achieve(state, f, kind) for f in fs]
    giveups = [
        (
            decrement.giveup_leq(fs[i], fs[j], state, kind),
            decrement.giveup_lt(fs[i], fs[j], state, kind),
            decrement.giveup_ll(fs[i], fs[j], state, kind),
        )
        for i, j in OPS3_PAIRS
    ]
    return state.sig, induced, steps, achieved, giveups


def _ops3_check(name: str, ranks, masks, outputs) -> tuple[list[str], str]:
    """Problems found, and a canonical text of the outputs for the digest."""
    sig, induced, steps, achieved, giveups = outputs
    problems = []
    bel = layer_mask(ranks, 0)
    doc = decrement.state_to_doc(decrement.EpistemicState(sig, induced))
    canon = [doc["layers"]]
    if ranks_of(doc["layers"], N3) != ranks:
        problems.append(f"{name}: induced order differs from the state's order")
    for mask, stepped, result in zip(masks, steps, achieved):
        s_ranks = ranks_of(decrement.state_to_doc(stepped)["layers"], N3)
        a_ranks = ranks_of(decrement.state_to_doc(result.state)["layers"], N3)
        canon.append((s_ranks, a_ranks, result.steps))
        if mask == FULL3 or bel & ~mask:
            if s_ranks != ranks or a_ranks != ranks or result.steps != 0:
                problems.append(f"{name}: a formula not believed changed the state")
            continue
        counter = FULL3 & ~mask
        lowest = min(ranks[w] for w in range(N3) if counter >> w & 1)
        expect = bel | sum(1 << w for w in range(N3) if counter >> w & 1 and ranks[w] == lowest)
        if layer_mask(a_ranks, 0) != expect or result.steps < 1:
            problems.append(f"{name}: achieve models are not the current models plus alpha's minimal counter-worlds")
        if name == "instant" and result.steps != 1:
            problems.append("instant: achieve took more than one step")
    for leq, lt, ll in giveups:
        canon.append((leq, lt, ll))
        if (lt and not leq) or (ll and not lt):
            problems.append(f"{name}: give-up relations not nested (leq={leq}, lt={lt}, ll={ll})")
    return problems, repr(canon)


def ops3_pass(inputs: list, tracer) -> dict:
    p = Pass()
    for doc, texts, ranks, masks in inputs:
        for name in KINDS:
            seconds, outputs, error = _program_time(_ops3_item, doc, texts, name)
            p.wall_s += seconds
            p.items_ms.append(seconds * 1000)
            p.work += 1
            if error:
                p.judge([error])
                continue
            try:
                problems, canon = _ops3_check(name, ranks, masks, outputs)
            except ValueError as exc:
                problems, canon = [f"malformed output: {exc}"], ""
            p.digest.update(canon.encode())
            p.judge(problems)
    return p.result()


# --- sat3: successor satisfiability probes on three-atom state files ---------

def sat3_inputs(seed: int, workdir: Path, selective: int = SAT3_SELECTIVE_PROBES, permissive: bool = True) -> list:
    """Probe specs, the timed ones first, then the untimed conflict check.

    Every state has four layers of two worlds; the seed picks which worlds.
    A selective probe's alpha is the belief plus two more worlds.  How soon
    dr_satisfied rejects a candidate depends on the state's shape, so fixing
    the shape keeps a probe's cost from varying with the seed.  The
    permissive probe takes alpha as a union of whole layers, so no
    counter-world ties an alpha-world and DR14 accepts every candidate.
    """
    rng = random.Random(f"sat3/{seed}")
    probes = []
    for i in range(selective + int(permissive)):
        worlds = list(range(N3))
        rng.shuffle(worlds)
        ranks = tuple(worlds.index(w) // 2 for w in range(N3))
        if i < selective:
            others = [w for w in range(N3) if ranks[w] > 0]
            alpha = layer_mask(ranks, 0) | sum(1 << w for w in rng.sample(others, 2))
            constraints, expect = SAT3_SELECTIVE[i % len(SAT3_SELECTIVE)], None
        else:
            top = rng.randrange(1, max(ranks) + 1)
            alpha = sum(1 << w for w in range(N3) if ranks[w] < top)
            constraints, expect = SAT3_PERMISSIVE, FUBINI8
        path = workdir / f"sat3-{i}.json"
        path.write_text(json.dumps(layers_doc(ranks, ATOMS3)))
        probes.append({"path": str(path), "formula": dnf(alpha, ATOMS3), "constraints": constraints,
                       "ranks": ranks, "alpha": alpha, "expect": expect, "timed": True})
    path, formula, constraints = SAT3_CONFLICT
    conflict = json.loads((HERE.parent / path).read_text())
    probes.append({"path": path, "formula": formula, "constraints": constraints,
                   "ranks": ranks_of(conflict["layers"], 4), "alpha": 0b1010, "expect": 0, "timed": False})
    return probes


def _sat3_check(stdout: str, out_doc: dict, probe: dict) -> list[str]:
    count = out_doc["count"]
    successors = out_doc["successors"]
    problems = []
    if not stdout.startswith(f"count: {count}\n"):
        problems.append("printed count differs from the JSON count")
    if probe["expect"] is not None and count != probe["expect"]:
        problems.append(f"{count} successors, expected {probe['expect']}")
    if len(successors) != min(count, SAT3_LIMIT):
        problems.append(f"{len(successors)} successors listed for count {count}")
    seen = set()
    for layers in successors:
        after = ranks_of(layers, len(probe["ranks"]))
        if after in seen:
            problems.append("a successor is listed twice")
        seen.add(after)
        if not dr_holds(probe["ranks"], after, probe["alpha"], probe["constraints"].split(",")):
            problems.append(f"successor {layers} violates {probe['constraints']}")
    return problems


def sat3_pass(inputs: list, tracer) -> dict:
    p = Pass()
    out_path = Path(inputs[0]["path"]).with_name("sat3-out.json")
    for probe in inputs:
        argv = ["sat", probe["path"], "--formula", probe["formula"], "--constraints", probe["constraints"],
                "--limit", str(SAT3_LIMIT), "--out", str(out_path)]
        out_path.unlink(missing_ok=True)
        seconds, out, error = _program_time(_cli, argv)
        if probe["timed"]:
            p.wall_s += seconds
            p.items_ms.append(seconds * 1000)
            p.work += 1
        if error or out[0] != 0:
            p.judge([error or f"exit code {out[0]}"])
            continue
        stdout = out[1]
        try:
            out_doc = json.loads(out_path.read_text())
            p.digest.update(stdout.encode())
            problems = _sat3_check(stdout, out_doc, probe)
        except (ValueError, KeyError, OSError) as exc:
            problems = [f"malformed output: {exc}"]
        p.judge(problems)
    return p.result()


WORKLOADS = {
    "matrix2": (matrix2_inputs, matrix2_pass),
    "ops3": (ops3_inputs, ops3_pass),
    "sat3": (sat3_inputs, sat3_pass),
}


# --- tracing: layer boundaries and per-layer metrics --------------------------

def install_cell_clock(tracer) -> None:
    """Time each conformance cell; the matrix2 items need it untraced too."""
    tracer.install("checker.check_postulate", decrement.checker, "check_postulate",
                   own=True, count=lambda report: report.cases, keep_durations=True)


def install_layers(tracer) -> None:
    # Some spans (iterate, parse_formula, conformance_matrix, state_*_doc)
    # are not reported on their own; they are what the CLI calls, so they
    # are subtracted from cli.main to give cli.self_s.
    k = decrement._kernel
    tracer.install("kernel.weak_order_ranks", k, "weak_order_ranks", iterates=True)
    tracer.install("kernel.step_ranks", k, "step_ranks")
    tracer.install("kernel.dr_satisfied", k, "dr_satisfied", count=bool)
    for name in ("step", "iterate", "achieve", "induced_order", "giveup_leq", "giveup_lt", "giveup_ll"):
        tracer.install(f"operators.{name}", decrement.operators, name)
    for name in ("models", "formula_from_worldset", "parse_formula"):
        tracer.install(f"logic.{name}", decrement.logic, name)
    tracer.install("checker.conformance_matrix", decrement.checker, "conformance_matrix")
    tracer.install("checker.successor_satisfiability", decrement.checker, "successor_satisfiability")
    tracer.install("preorder.TotalPreorder", decrement.preorder.TotalPreorder, "__init__", own=True)
    for name in ("state_from_doc", "state_to_doc"):
        tracer.install(f"state.{name}", decrement.state, name)
    tracer.install("cli.main", decrement.cli, "main", own=True)


LAYER_UNITS = {
    "kernel.weak_order_ranks.items": "count",
    "kernel.weak_order_ranks.s": "s",
    "kernel.step_ranks.calls": "count",
    "kernel.step_ranks.s": "s",
    "kernel.dr_satisfied.calls": "count",
    "kernel.dr_satisfied.s": "s",
    "kernel.dr_satisfied.accept_ratio": "ratio",
    "kernel.micro.enumerate_s": "s",
    "kernel.micro.step_s": "s",
    "kernel.micro.dr_filter_s": "s",
    "operators.step_ranks.hit_ratio": "ratio",
    "operators.step_ranks.misses": "count",
    "operators.step_ranks.evicted": "count",
    "operators.achieve_ranks.hit_ratio": "ratio",
    "operators.achieve_ranks.misses": "count",
    "operators.achieve_ranks.evicted": "count",
    "operators.step.s": "s",
    "operators.achieve.s": "s",
    "operators.induced_order.s": "s",
    "operators.giveup.s": "s",
    "logic.models.calls": "count",
    "logic.models.s": "s",
    "logic.formula_from_worldset.calls": "count",
    "checker.cases": "count",
    "checker.cell_s": "s",
    "checker.cases_per_s": "1/s",
    "checker.slowest_cell_s": "s",
    "checker.successor_satisfiability.s": "s",
    "preorder.TotalPreorder.calls": "count",
    "preorder.TotalPreorder.s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def cache_snapshot() -> dict:
    out = {}
    for name in ("step_ranks", "achieve_ranks"):
        info = getattr(decrement.operators, name).cache_info()
        out[name] = info._asdict()
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, micro: dict) -> dict:
    """Per-layer metrics of a traced pass (all but trace.overhead_ratio).

    A ``.s`` figure is the inclusive time of calls that crossed into the
    layer from another one; a layer the workload never enters reads 0.
    """
    s = tracer.stats
    cells = s["checker.check_postulate"]
    m = {
        "kernel.weak_order_ranks.items": s["kernel.weak_order_ranks"].items,
        "kernel.weak_order_ranks.s": s["kernel.weak_order_ranks"].seconds,
        "kernel.step_ranks.calls": s["kernel.step_ranks"].calls,
        "kernel.step_ranks.s": s["kernel.step_ranks"].seconds,
        "kernel.dr_satisfied.calls": s["kernel.dr_satisfied"].calls,
        "kernel.dr_satisfied.s": s["kernel.dr_satisfied"].seconds,
        "kernel.dr_satisfied.accept_ratio": _ratio(s["kernel.dr_satisfied"].items, s["kernel.dr_satisfied"].calls),
        "operators.step.s": s["operators.step"].seconds,
        "operators.achieve.s": s["operators.achieve"].seconds,
        "operators.induced_order.s": s["operators.induced_order"].seconds,
        "operators.giveup.s": sum(s[f"operators.giveup_{r}"].seconds for r in ("leq", "lt", "ll")),
        "logic.models.calls": s["logic.models"].calls,
        "logic.models.s": s["logic.models"].seconds,
        "logic.formula_from_worldset.calls": s["logic.formula_from_worldset"].calls,
        "checker.cases": cells.items,
        "checker.cell_s": cells.seconds,
        "checker.cases_per_s": _ratio(cells.items, cells.seconds),
        "checker.slowest_cell_s": max(cells.durations, default=0.0),
        "checker.successor_satisfiability.s": s["checker.successor_satisfiability"].seconds,
        "preorder.TotalPreorder.calls": s["preorder.TotalPreorder"].calls,
        "preorder.TotalPreorder.s": s["preorder.TotalPreorder"].seconds,
        "cli.self_s": s["cli.main"].self_seconds,
    }
    for name, info in cache_snapshot().items():
        m[f"operators.{name}.hit_ratio"] = _ratio(info["hits"], info["hits"] + info["misses"])
        m[f"operators.{name}.misses"] = info["misses"]
        m[f"operators.{name}.evicted"] = info["misses"] - info["currsize"]
    m.update(micro)
    return m


# --- kernel micro-benchmarks ---------------------------------------------------

def _best_of(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def kernel_micro() -> dict:
    """Best-of-3 timings of the kernel primitives on fixed inputs:
    enumerating all orders of 7 worlds, stepping every 4-world order for
    every alpha and kind 20 times, and filtering all 7-world candidates
    against DR8..DR13 after a strict chain."""
    k = decrement._kernel
    orders4 = list(k.weak_order_ranks(4))

    def enumerate7():
        for _ in k.weak_order_ranks(7):
            pass

    def steps():
        for _ in range(20):
            for ranks in orders4:
                for amask in range(16):
                    for kind in (0, 1, 2):
                        k.step_ranks(ranks, amask, kind)

    chain = tuple(range(7))

    def dr_filter():
        for cand in k.weak_order_ranks(7):
            k.dr_satisfied(chain, cand, 0b1010101, 63)

    return {
        "kernel.micro.enumerate_s": _best_of(enumerate7),
        "kernel.micro.step_s": _best_of(steps),
        "kernel.micro.dr_filter_s": _best_of(dr_filter),
    }


def sizes(workload: str, inputs) -> dict:
    if workload == "matrix2":
        return {"argv": inputs["argv"], "cells": len(inputs["expected"]["cells"]), "cases": inputs["expected"]["cases"]}
    if workload == "ops3":
        return {"states": len(inputs), "items": len(inputs) * len(KINDS), "formulas_per_state": 8, "giveup_pairs": len(OPS3_PAIRS)}
    return {"probes": [(p["constraints"], p["expect"], p["timed"]) for p in inputs], "limit": SAT3_LIMIT}


def program_info(root: Path) -> dict:
    return {
        "git_sha": git_sha(root),
        "kernel_backend": decrement.kernel_backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def git_sha(root: Path):
    """HEAD of the checkout's own .git, read without running git, or None."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None
