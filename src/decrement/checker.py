"""Exhaustive verification of belief-change postulates.

Every named condition is evaluated against an operator kind over a case
space: states range over all total preorders of the universe, formulas
over all semantic classes (world sets), worlds over the universe.  A
verdict depends only on the case's class under relabelling of worlds
(``decrement.profiles``), so the checker evaluates one representative per
class.  Every postulate is decided this way, up to ``CHECKER_MAX_ATOMS``
atoms, and a report's ``cases`` counts the whole space by a closed formula
(``profiles.case_count``).  D10 and D11 are decided over (alpha, beta)
classes: their gamma enters through two subset tests, so one test per
class decides every gamma at once.  C5, D5 and SFA1..SFA3 hold by
construction (``_by_construction``): states are compressed rank vectors
and formulas model masks, so no case can fail them, and their cells walk
nothing.

A postulate is defined by its ``Postulate`` record in ``REGISTRY``: the
evaluator, the variables it quantifies with the mask each must contain,
and the domain note of its reports.  Enumeration and replay read that
record.

Failures are reported with replayable counterexamples, smallest first
(fewest layers, then lexicographic layer encoding).  Case spaces can be
partitioned across worker processes; partitioning never changes output.

Postulate families:

* C1..C7     one-shot contraction conditions, evaluated on the achieve
             operator (n-fold step until the belief drops);
* D1..D13    decrement conditions on step/achieve, including the iteration
             conditions D8..D13;
* DR8..DR15  successor-order conditions for a single step, evaluated on
             steps whose input state believes alpha;
* SFA1..SFA3 assignment conditions (faithfulness and syntax independence);
* Hesitance, DecrementSuccess, PartialSuccess, Lemma1, Lemma3
             success and support conditions;
* IC1..IC4   iterated-contraction order conditions on achieve.
"""

from __future__ import annotations

import enum
import heapq
import json
import os
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from itertools import groupby, islice
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, Union

from decrement import _kernel
from decrement._kernel import bel_mask, min_rank_mask
from decrement.logic import (
    Formula,
    Signature,
    iter_worlds,
    models,
    world_to_bits,
    worldset_to_bits,
)
from decrement.operators import (
    OperatorKind,
    achieve_bel,
    achieve_ranks,
    bel_row,
    giveup_leq_masks,
    giveup_rows,
    induced_ranks,
    step_ranks,
    step_row,
    NotPreorderError,
)
from decrement.preorder import TotalPreorder
from decrement.profiles import case_class_count, case_classes, case_count, orbit
from decrement.state import (
    EpistemicState,
    StateFormatError,
    layers_to_bits,
    mask_from_bits,
    order_from_bits,
)

COUNTEREXAMPLE_CAP = 5

CHECKER_MAX_ATOMS = 3


class DomainTooLargeError(ValueError):
    """Requested quantification domain exceeds the exhaustive-search cap."""


class PostulateId(enum.Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    C6 = "C6"
    C7 = "C7"
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"
    D6 = "D6"
    D7 = "D7"
    D8 = "D8"
    D9 = "D9"
    D10 = "D10"
    D11 = "D11"
    D12 = "D12"
    D13 = "D13"
    DR8 = "DR8"
    DR9 = "DR9"
    DR10 = "DR10"
    DR11 = "DR11"
    DR12 = "DR12"
    DR13 = "DR13"
    DR14 = "DR14"
    DR15 = "DR15"
    SFA1 = "SFA1"
    SFA2 = "SFA2"
    SFA3 = "SFA3"
    HESITANCE = "Hesitance"
    DECREMENT_SUCCESS = "DecrementSuccess"
    PARTIAL_SUCCESS = "PartialSuccess"
    LEMMA1 = "Lemma1"
    LEMMA3 = "Lemma3"
    IC1 = "IC1"
    IC2 = "IC2"
    IC3 = "IC3"
    IC4 = "IC4"

    @classmethod
    def _missing_(cls, value):
        # ids are matched case-insensitively: "dr12" is DR12
        if isinstance(value, str):
            for member in cls:
                if member.value.lower() == value.lower():
                    return member
        return None


ALL_POSTULATES: tuple[PostulateId, ...] = tuple(PostulateId)


# DRk selects bit k - 8 of the kernel's pairwise condition table.
_DR_BITS = {PostulateId(f"DR{k}"): 1 << (k - 8) for k in range(8, 16)}


def _domain(n_atoms: int) -> str:
    """The domain every report and matrix names: all cases over n atoms.
    Raises DomainTooLargeError past ``CHECKER_MAX_ATOMS``."""
    if n_atoms > CHECKER_MAX_ATOMS:
        raise DomainTooLargeError(f"checker limited to |Σ| <= {CHECKER_MAX_ATOMS}, got {n_atoms}")
    return f"exhaustive |Σ|={n_atoms}"


class _Document:
    """A dataclass whose document is its fields, in field order."""

    def to_doc(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self, default=vars, indent=2, ensure_ascii=False) + "\n"


@dataclass
class CheckReport(_Document):
    """Outcome of one postulate check against one operator kind."""

    postulate: str
    operator: str
    domain: str
    outcome: str
    cases: int
    counterexamples: list[dict]


@dataclass
class ConformanceMatrix(_Document):
    """One report per requested (operator, postulate) pair, stable order."""

    atoms: tuple[str, ...]
    mode: str
    operators: tuple[str, ...]
    postulates: tuple[str, ...]
    reports: list[CheckReport]

    def failures(self) -> list[CheckReport]:
        return [r for r in self.reports if r.outcome == "fail"]


# --- evaluators --------------------------------------------------------------
#
# An evaluator takes (ranks, kind code, *values), with the values in the
# order of its record's variables, and returns (ok, witness).  It reads
# only rank vectors and masks: for its own ranks, from the operators' rows
# (bel_row, step_row, giveup_rows).  The witness names the worlds of a
# violation and is built only when a case fails.

def _subset(x: int, y: int) -> bool:
    return x & ~y == 0


def _pair_result(pair: tuple[int, int] | None) -> tuple[bool, dict[str, int]]:
    if pair is None:
        return True, {}
    return False, {"omega1": pair[0], "omega2": pair[1]}


def _achieve_keeps_beliefs(ranks, code, a):
    return _subset(bel_mask(ranks), bel_row(ranks, code)[a]), {}


def _vacuity(ranks, code, a):
    """Achieving the drop of an unbelieved alpha adds no belief model."""
    bel = bel_mask(ranks)
    return not bel & ~a or _subset(bel_row(ranks, code)[a], bel), {}


def _success(ranks, code, a):
    return a == (1 << len(ranks)) - 1 or not _subset(bel_row(ranks, code)[a], a), {}


def _new_models_are_counter_worlds(ranks, code, a):
    return _subset(bel_row(ranks, code)[a] & a, bel_mask(ranks)), {}


def _conjunctive_overlap(ranks, code, a, b):
    bel = bel_row(ranks, code)
    return _subset(bel[a & b], bel[a] | bel[b]), {}


def _conjunctive_inclusion(ranks, code, a, b):
    bel = bel_row(ranks, code)
    mab = bel[a & b]
    return not mab & ~b or _subset(bel[b], mab), {}


def _drops_within_layer_bound(ranks, code, a):
    if a == (1 << len(ranks)) - 1:
        return True, {}
    cur = ranks
    for _ in range(max(ranks) + 2):
        if bel_mask(cur) & ~a:
            return True, {}
        cur = step_ranks(cur, a, code)
    return False, {}


def _achieve_agrees_after_step(ranks, code, a, b, *, on_alpha: bool):
    """Achieving beta after one alpha step gives the same belief models as
    before the step: on the alpha-worlds with ``on_alpha``, else off beta.
    """
    m1 = achieve_bel(step_row(ranks, code)[a], b, code)
    m2 = bel_row(ranks, code)[b]
    region = a if on_alpha else ((1 << len(ranks)) - 1) & ~b
    return (m1 ^ m2) & region == 0, {}


def _entailment_transfer(ranks, code, a, b, g, *, forward: bool):
    """If achieving beta entails gamma on one side of an alpha step, it does
    on the other: from before to after with ``forward``, else backwards.
    """
    before = _subset(bel_row(ranks, code)[b], g)
    after = _subset(achieve_bel(step_row(ranks, code)[a], b, code), g)
    return (after or not before) if forward else (before or not after), {}


def _entailment_transfer_some_gamma(ranks, code, a, b, *, forward: bool):
    """``_entailment_transfer`` for every gamma at once, gamma containing
    not-alpha with ``forward``, else alpha.  With B and A' the beliefs after
    achieving beta before and after the step, a gamma fails forwards iff
    it contains B and not A', so some gamma does iff A' is not inside
    not-alpha or B; backwards, iff B is not inside alpha or A'.
    """
    before = bel_row(ranks, code)[b]
    after = achieve_bel(step_row(ranks, code)[a], b, code)
    if forward:
        return _subset(after, ((1 << len(ranks)) - 1) & ~a | before), {}
    return _subset(before, a | after), {}


def _step_keeps_giveup_successor(ranks, code, a, b, g):
    if not giveup_rows(ranks, code)[1][g] >> b & 1:
        return True, {}
    return giveup_leq_masks(step_row(ranks, code)[a], b, g, code), {}


def _step_keeps_beliefs(ranks, code, a):
    return _subset(bel_mask(ranks), bel_mask(step_row(ranks, code)[a])), {}


def _pairwise(ranks, code, a, *, dr: int, achieved: bool = False):
    """Pairwise condition DR<dr> between a state and its one-step successor,
    or its achieve result with ``achieved``.
    """
    after = achieve_ranks(ranks, a, code)[0] if achieved else step_row(ranks, code)[a]
    return _pair_result(_kernel.dr_violation(ranks, after, a, 1 << (dr - 8)))


def _by_construction(ranks, code, *values):
    """C5, D5 and SFA1..SFA3, which no case can fail.

    A state is a compressed rank vector, so its rank-0 worlds are exactly
    its belief models: they are tied, and strictly below every other world
    (SFA1, SFA2).  A formula is its model mask, and the operators read a
    formula only through that set, so equivalent formulas give the same
    beliefs after achieve (C5), and the same order and beliefs after one
    step or two (SFA3, D5).  Their cells walk no case class: ``cases``
    comes from ``case_count`` alone.
    """
    return True, {}


def _decrement_success(ranks, code, a):
    full = (1 << len(ranks)) - 1
    final, nsteps = achieve_ranks(ranks, a, code)
    if a == full:
        return nsteps == 0 and final == ranks, {}
    cur = ranks
    for _ in range(nsteps):
        if bel_mask(cur) & ~a:
            return False, {}
        cur = step_ranks(cur, a, code)
    if not bel_mask(final) & ~a:
        return False, {}
    expected = bel_mask(ranks) | min_rank_mask(ranks, full & ~a)
    return bel_mask(final) == expected, {}


def _partial_success(ranks, code, a):
    bel = bel_mask(ranks)
    after = bel_mask(step_row(ranks, code)[a])
    upper = bel | min_rank_mask(ranks, ((1 << len(ranks)) - 1) & ~a)
    return _subset(bel, after) and _subset(after, upper), {}


def _contract_world(ranks, code, w):
    """Achieving the drop of "not w" adds exactly w to the belief models."""
    got = bel_row(ranks, code)[((1 << len(ranks)) - 1) & ~(1 << w)]
    return got == bel_mask(ranks) | (1 << w), {}


def _giveup_successor_is_adjacent(ranks, code, g, b):
    """Direct give-up successors are exactly adjacent minimal counter-worlds."""
    lt, ll = giveup_rows(ranks, code)
    if not lt[g] >> b & 1:
        return True, {}
    full = (1 << len(ranks)) - 1
    minb = min_rank_mask(ranks, full & ~b)
    ming = min_rank_mask(ranks, full & ~g)
    rhs = all(
        ranks[w2] in (ranks[w1], ranks[w1] - 1)
        for w1 in iter_worlds(minb)
        for w2 in iter_worlds(ming)
    )
    return bool(ll[g] >> b & 1) == rhs, {}


# --- the registry ------------------------------------------------------------

@dataclass(frozen=True)
class Postulate:
    """Everything the checker knows about one postulate id.

    ``variables`` lists the quantified formula classes, plus ``omega`` for
    a world, in nesting order.  ``above`` maps a variable to the mask it
    must contain: ``bel`` (the state's belief models), ``alpha`` or
    ``~alpha``, read from an earlier variable.  ``note`` is the domain
    description printed in reports.

    ``reduced``, when given, is an evaluator of every variable but the
    last, a formula variable that sorts after the others by name and must
    contain ``alpha`` or ``~alpha``: it fails iff ``evaluate`` fails for
    some value of the last one.  The checker then walks the smaller space
    and lists those values only for the members it reports.
    """

    evaluate: Callable[..., tuple[bool, dict[str, int]]]
    note: str
    variables: tuple[str, ...] = ("alpha",)
    above: Mapping[str, str] = field(default_factory=dict)
    reduced: Callable[..., tuple[bool, dict[str, int]]] | None = None

    def walked(self) -> tuple[tuple[str, ...], Mapping[str, str]]:
        """The variables the checker enumerates, with their premises."""
        if self.reduced is None:
            return self.variables, self.above
        last = self.variables[-1]
        return self.variables[:-1], {v: p for v, p in self.above.items() if v != last}

    def completions(self, ranks: tuple, values: tuple) -> list[tuple]:
        """The full values that walked ``values`` stand for: with
        ``reduced``, one per mask of the last variable that contains
        ``alpha`` or ``~alpha``, as ``above`` says."""
        if self.reduced is None:
            return [values]
        full = (1 << len(ranks)) - 1
        alpha = values[self.variables.index("alpha")]
        floor = alpha if self.above[self.variables[-1]] == "alpha" else full & ~alpha
        return [values + (g,) for g in range(full + 1) if not floor & ~g]


_ALPHA = "states x alpha classes"
_ALPHA_BETA = "states x alpha x beta classes"
_BELIEVED = "believed steps: states x alpha classes with alpha believed"
_REPRESENTATIVES = "states x equivalent-representative sequences, depth <= 2"
_AB = ("alpha", "beta")
_ABG = ("alpha", "beta", "gamma")
_A12 = ("alpha1", "alpha2")
_IF_BELIEVED = {"alpha": "bel"}

REGISTRY: dict[PostulateId, Postulate] = {
    PostulateId.C1: Postulate(_achieve_keeps_beliefs, _ALPHA),
    PostulateId.C2: Postulate(_vacuity, _ALPHA),
    PostulateId.C3: Postulate(_success, _ALPHA),
    PostulateId.C4: Postulate(_new_models_are_counter_worlds, _ALPHA),
    PostulateId.C5: Postulate(_by_construction, _ALPHA),
    PostulateId.C6: Postulate(_conjunctive_overlap, _ALPHA_BETA, _AB),
    PostulateId.C7: Postulate(_conjunctive_inclusion, _ALPHA_BETA, _AB),
    PostulateId.D1: Postulate(_achieve_keeps_beliefs, _ALPHA),
    PostulateId.D2: Postulate(_vacuity, _ALPHA),
    PostulateId.D3: Postulate(_drops_within_layer_bound, _ALPHA),
    PostulateId.D4: Postulate(_new_models_are_counter_worlds, _ALPHA),
    PostulateId.D5: Postulate(_by_construction, _REPRESENTATIVES, _A12),
    PostulateId.D6: Postulate(_conjunctive_overlap, _ALPHA_BETA, _AB),
    PostulateId.D7: Postulate(_conjunctive_inclusion, _ALPHA_BETA, _AB),
    PostulateId.D8: Postulate(
        partial(_achieve_agrees_after_step, on_alpha=True),
        "states x (alpha, beta) with not-alpha entailing beta",
        _AB, above={"beta": "~alpha"},
    ),
    PostulateId.D9: Postulate(
        partial(_achieve_agrees_after_step, on_alpha=False),
        "states x (alpha, beta) with alpha entailing beta",
        _AB, above={"beta": "alpha"},
    ),
    PostulateId.D10: Postulate(
        partial(_entailment_transfer, forward=False),
        "states x (alpha, beta, gamma) with alpha entailing gamma",
        _ABG, above={"gamma": "alpha"},
        reduced=partial(_entailment_transfer_some_gamma, forward=False),
    ),
    PostulateId.D11: Postulate(
        partial(_entailment_transfer, forward=True),
        "states x (alpha, beta, gamma) with not-alpha entailing gamma",
        _ABG, above={"gamma": "~alpha"},
        reduced=partial(_entailment_transfer_some_gamma, forward=True),
    ),
    PostulateId.D12: Postulate(
        _step_keeps_giveup_successor,
        "states x (alpha, beta, gamma) with alpha |= beta, not-alpha |= gamma",
        _ABG, above={"beta": "alpha", "gamma": "~alpha"},
    ),
    PostulateId.D13: Postulate(_step_keeps_beliefs, _ALPHA),
    PostulateId.DR8: Postulate(partial(_pairwise, dr=8), _BELIEVED, above=_IF_BELIEVED),
    PostulateId.DR9: Postulate(partial(_pairwise, dr=9), _BELIEVED, above=_IF_BELIEVED),
    PostulateId.DR10: Postulate(partial(_pairwise, dr=10), _BELIEVED, above=_IF_BELIEVED),
    PostulateId.DR11: Postulate(partial(_pairwise, dr=11), _BELIEVED, above=_IF_BELIEVED),
    PostulateId.DR12: Postulate(partial(_pairwise, dr=12), _BELIEVED, above=_IF_BELIEVED),
    PostulateId.DR13: Postulate(partial(_pairwise, dr=13), _BELIEVED, above=_IF_BELIEVED),
    PostulateId.DR14: Postulate(partial(_pairwise, dr=14), _BELIEVED, above=_IF_BELIEVED),
    PostulateId.DR15: Postulate(partial(_pairwise, dr=15), _BELIEVED, above=_IF_BELIEVED),
    PostulateId.SFA1: Postulate(_by_construction, "all states", ()),
    PostulateId.SFA2: Postulate(_by_construction, "all states", ()),
    PostulateId.SFA3: Postulate(_by_construction, _REPRESENTATIVES, _A12),
    PostulateId.HESITANCE: Postulate(_drops_within_layer_bound, _ALPHA),
    PostulateId.DECREMENT_SUCCESS: Postulate(_decrement_success, _ALPHA),
    PostulateId.PARTIAL_SUCCESS: Postulate(_partial_success, _ALPHA),
    PostulateId.LEMMA1: Postulate(_contract_world, "states x worlds", ("omega",)),
    PostulateId.LEMMA3: Postulate(
        _giveup_successor_is_adjacent, "states x (gamma, beta) classes", ("gamma", "beta")
    ),
    PostulateId.IC1: Postulate(partial(_pairwise, dr=8, achieved=True), _ALPHA),
    PostulateId.IC2: Postulate(partial(_pairwise, dr=9, achieved=True), _ALPHA),
    PostulateId.IC3: Postulate(partial(_pairwise, dr=11, achieved=True), _ALPHA),
    PostulateId.IC4: Postulate(partial(_pairwise, dr=10, achieved=True), _ALPHA),
}


# --- report assembly ---------------------------------------------------------

@lru_cache(maxsize=1 << 13)
def _layers_key(ranks: tuple, n_atoms: int) -> tuple[tuple[str, ...], ...]:
    """The layer document of ``ranks``, as a sort key.  An orbit's members
    share few rank vectors, so expanding one builds few documents."""
    return tuple(map(tuple, layers_to_bits(ranks, n_atoms)))


def _case_key(ranks: tuple, formulas: dict[str, int], worlds: dict[str, int], n_atoms: int):
    """Sort key of a counterexample: fewest layers, then the layer document,
    then the formula and world values."""
    layers = _layers_key(ranks, n_atoms)
    return len(layers), layers, tuple(sorted(formulas.items())), tuple(sorted(worlds.items()))


def _counterexample(
    ranks: tuple,
    formulas: dict[str, int],
    worlds: dict[str, int],
    n_atoms: int,
) -> dict:
    return {
        "state": layers_to_bits(ranks, n_atoms),
        "formulas": {k: worldset_to_bits(v, n_atoms) for k, v in sorted(formulas.items())},
        "worlds": {k: world_to_bits(v, n_atoms) for k, v in sorted(worlds.items())},
    }


def _failure(variables: tuple, ranks: tuple, values: tuple, witness: dict, n_atoms: int):
    """(key, case) of a failing case, the case as _counterexample takes it."""
    formulas = dict(zip(variables, values))
    worlds = {"omega": formulas.pop("omega")} if "omega" in formulas else {}
    worlds.update(witness)
    return _case_key(ranks, formulas, worlds, n_atoms), (ranks, formulas, worlds)


def _run_chunk(code: int, rec: Postulate, n_atoms: int, lo: int, hi: int) -> list[tuple]:
    """The failing representatives, as (ranks, values), among the case
    classes with index in [lo, hi) of the record's walked space;
    ``_orbit_failures`` picks the counterexamples from their orbits.
    """
    evaluate = rec.reduced or rec.evaluate
    classes = islice(case_classes(*rec.walked(), 1 << n_atoms, start=lo), hi - lo)
    return [(ranks, values) for ranks, values in classes if not evaluate(ranks, code, *values)[0]]


def _orbit_failures(variables: tuple, failing: list, member_failures: Callable, n_atoms: int) -> list[dict]:
    """The counterexamples of the smallest failures in the failing orbits,
    given by their representatives as (ranks, values).

    Every member of a failing orbit fails, and the key without the witness
    already orders the members.  So the ``COUNTEREXAMPLE_CAP`` smallest keys
    are found a layer count at a time, fewest layers first, and only those
    members go through ``member_failures(ranks, values)``, which returns
    their (key, counterexample) records.
    """
    def top(case):  # a representative's ranks ascend
        return case[0][-1]

    def key(member):
        return _failure(variables, *member, {}, n_atoms)[0]

    chosen: list[tuple] = []
    for _, group in groupby(sorted(failing, key=top), key=top):
        members = (m for ranks, values in group for m in orbit(variables, ranks, values))
        chosen += heapq.nsmallest(COUNTEREXAMPLE_CAP - len(chosen), members, key=key)
        if len(chosen) == COUNTEREXAMPLE_CAP:
            break
    records = []
    for ranks, values in chosen:
        found = member_failures(ranks, values)
        if not found:
            raise RuntimeError(f"case {ranks} {values} passes, but its orbit's representative fails")
        records += found
    return [doc for _, doc in heapq.nsmallest(COUNTEREXAMPLE_CAP, records, key=itemgetter(0))]


def _decide(kind: OperatorKind, name: str, rec: Postulate, sig: Signature, workers: int, pool,
            member_failures: Callable) -> CheckReport:
    """The report of ``rec`` on ``kind`` over ``sig``, named ``name``.

    The walked case classes are split into at most one chunk per worker and
    usable CPU, and into none when the record holds by construction.  One
    chunk runs in this process; more run in ``pool``, or in a pool of their
    own when it is None.  ``_orbit_failures`` then picks the
    counterexamples, through ``member_failures``.
    """
    n_atoms = sig.n_atoms
    domain = _domain(n_atoms)
    walked = rec.walked()
    total = 0 if rec.evaluate is _by_construction else case_class_count(*walked, 1 << n_atoms)
    chunks = [(kind.code, rec, n_atoms, lo, hi) for lo, hi in _chunk_bounds(total, workers, _usable_cpus())]
    own = None
    if pool is None and len(chunks) > 1:
        pool = own = _worker_pool(len(chunks))
    try:
        if len(chunks) > 1 and pool is not None:
            results = list(pool.map(_run_chunk, *zip(*chunks)))
        else:
            results = [_run_chunk(*c) for c in chunks]
    finally:
        if own is not None:
            own.shutdown()
    failing = [f for chunk_failures in results for f in chunk_failures]
    counterexamples = _orbit_failures(walked[0], failing, member_failures, n_atoms)
    return CheckReport(
        postulate=name,
        operator=kind.value,
        domain=f"{domain}; {rec.note}",
        outcome="fail" if counterexamples else "pass",
        cases=case_count(rec.variables, rec.above, 1 << n_atoms),
        counterexamples=counterexamples,
    )


def check_postulate(
    kind: Union[OperatorKind, str],
    postulate: Union[PostulateId, str],
    sig: Signature,
    workers: int = 1,
    *,
    _pool=None,
) -> CheckReport:
    """Quantify one postulate over states, formula classes, and worlds.

    Decides every case of the space, one case class (orbit under
    relabelling of worlds) at a time, up to ``CHECKER_MAX_ATOMS`` atoms;
    more atoms raise ``DomainTooLargeError``.  Workers split the case
    classes; ``_orbit_failures`` then picks the counterexamples.  Reports
    are deterministic for a given signature, whatever the worker count.
    At most one process per usable CPU is started, whatever ``workers``
    asks for.  ``conformance_matrix`` passes its one pool as ``_pool``;
    without it the call starts its own.
    """
    kind = OperatorKind(kind)
    pid = PostulateId(postulate)
    n_atoms = sig.n_atoms
    rec = REGISTRY[pid]

    def member_failures(ranks, values):
        records = []
        for full in rec.completions(ranks, values):
            ok, witness = rec.evaluate(ranks, kind.code, *full)
            if not ok:
                key, case = _failure(rec.variables, ranks, full, witness, n_atoms)
                records.append((key, _counterexample(*case, n_atoms)))
        return records

    return _decide(kind, pid.value, rec, sig, workers, _pool, member_failures)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_bounds(total: int, workers: int, cpus: int) -> list[tuple[int, int]]:
    """Nonempty [lo, hi) chunks covering range(total), one per worker.

    The worker count is capped at ``cpus``, so the number of chunks, and of
    processes started for them, never exceeds it.
    """
    workers = max(1, min(workers, cpus))
    bounds = [(total * i) // workers for i in range(workers + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _worker_pool(workers: int):
    """A process pool of ``workers`` processes, capped at the usable CPUs;
    None when that leaves one process or the platform cannot fork.

    The pool forks all its workers at its first ``map``, before it starts
    its management thread, so no thread is running when they fork.
    """
    workers = min(workers, _usable_cpus())
    if workers < 2:
        return None
    import concurrent.futures
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return None
    return concurrent.futures.ProcessPoolExecutor(max_workers=workers, mp_context=ctx)


def conformance_matrix(
    kinds: Sequence[Union[OperatorKind, str]],
    postulates: Union[str, Sequence[Union[PostulateId, str]]],
    sig: Signature,
    workers: int = 1,
) -> ConformanceMatrix:
    """One CheckReport per (kind, postulate), in the requested order.

    ``postulates`` is a sequence of ids, one id, or "all" in any case.
    With more than one worker, the cells share one process pool, so its
    workers start once and keep their operator caches from cell to cell.
    """
    kind_list = [OperatorKind(k) for k in kinds]
    if isinstance(postulates, str):
        pid_list = list(ALL_POSTULATES) if postulates.lower() == "all" else [PostulateId(postulates)]
    else:
        pid_list = [PostulateId(p) for p in postulates]
    pool = _worker_pool(workers)
    try:
        reports = [
            check_postulate(kind, pid, sig, workers=workers, _pool=pool)
            for kind in kind_list
            for pid in pid_list
        ]
    finally:
        if pool is not None:
            pool.shutdown()
    return ConformanceMatrix(
        atoms=tuple(sig.atoms),
        mode=_domain(sig.n_atoms),
        operators=tuple(k.value for k in kind_list),
        postulates=tuple(p.value for p in pid_list),
        reports=reports,
    )


# --- successor satisfiability -------------------------------------------------

def successor_satisfiability(
    state: EpistemicState,
    alpha: Formula,
    constraints: Iterable[Union[PostulateId, str]],
) -> list[TotalPreorder]:
    """All successor preorders satisfying the selected DR constraints.

    The constraints are evaluated literally against the given state and
    formula (no believed-step restriction), realising the existence
    question for decreasing assignments one state at a time.  Only the
    compatible orders are built (``_kernel.dr_successors``), listed in
    lexicographic rank-vector order.
    """
    cmask = 0
    for c in constraints:
        pid = PostulateId(c)
        if pid not in _DR_BITS:
            raise ValueError(f"constraint must be one of DR8..DR15, got {pid.value}")
        cmask |= _DR_BITS[pid]
    amask = models(alpha, state.sig)
    before = state.order.ranks
    return [TotalPreorder(r) for r in _kernel.dr_successors(before, amask, cmask)]


# --- representation check ------------------------------------------------------

def _representation_failures(ranks: tuple, code: int, n_atoms: int) -> list[tuple]:
    """Every violation of conditions (i)-(iv) on one state, as ((key, detail), counterexample)."""
    full = (1 << len(ranks)) - 1
    bel = bel_mask(ranks)
    out: list[tuple] = []

    def record(formulas, worlds, detail):
        doc = _counterexample(ranks, formulas, worlds, n_atoms)
        doc["detail"] = detail
        out.append(((_case_key(ranks, formulas, worlds, n_atoms), detail), doc))

    try:
        ind = induced_ranks(ranks, code)
    except NotPreorderError as exc:
        record({}, {}, f"(i) {exc}")
        return out
    if bel_mask(ind) != bel:  # ind is compressed: faithful iff bel is its rank-0 layer
        record({}, {}, "(ii) induced order not faithful")
        return out
    achieved, steps = bel_row(ranks, code), step_row(ranks, code)
    for a in range(full):
        if achieved[a] != bel | min_rank_mask(ind, full & ~a):
            record({"alpha": a}, {}, "(iii) contraction semantics mismatch")
        if bel & ~a:
            continue
        ind_succ = induced_ranks(steps[a], code)
        for pid, bit in islice(_DR_BITS.items(), 6):  # DR8..DR13
            ok, witness = _pair_result(_kernel.dr_violation(ind, ind_succ, a, bit))
            if not ok:
                record({"alpha": a}, witness, f"(iv) {pid.value} violated")
    return out


def _representation_holds(ranks, code):
    """Conditions (i)-(iv) on one state, over ``len(ranks)`` worlds."""
    return not _representation_failures(ranks, code, len(ranks).bit_length() - 1), {}


_REPRESENTATION = Postulate(_representation_holds, "conditions (i)-(iv) over all states", ())


def verify_representation(kind: Union[OperatorKind, str], sig: Signature) -> CheckReport:
    """Check that achieve results alone reconstruct a working assignment.

    For each total preorder: (i) the achieve-induced relation is a total
    preorder, (ii) it is faithful to the state's belief models, (iii) the
    achieve results match contraction semantics computed from the induced
    order, (iv) every believed step satisfies DR8..DR13 with respect to the
    induced orders of the state and its successor.  Decided in this
    process by the runner of ``check_postulate``, one order class at a
    time, up to ``CHECKER_MAX_ATOMS`` atoms.
    """
    kind = OperatorKind(kind)

    def member_failures(ranks, values):
        return _representation_failures(ranks, kind.code, sig.n_atoms)

    return _decide(kind, "representation", _REPRESENTATION, sig, 1, None, member_failures)


# --- replay --------------------------------------------------------------------

def replay_counterexample(
    kind: Union[OperatorKind, str],
    postulate: Union[PostulateId, str],
    counterexample: dict,
) -> bool:
    """Re-evaluate a reported counterexample; True iff it still violates.

    Raises StateFormatError for a malformed document, state, formula or
    world (a missing field, a bad bitstring, a wrong bit length, layers that
    do not partition the worlds, a missing variable), and
    DomainTooLargeError when its bitstrings are longer than
    CHECKER_MAX_ATOMS; no evaluator runs in either case.
    """
    kind = OperatorKind(kind)
    pid = PostulateId(postulate)
    try:
        layers = counterexample["state"]
        formulas = counterexample["formulas"].items()
        worlds = counterexample["worlds"].items()
    except (AttributeError, KeyError, TypeError) as exc:
        raise StateFormatError(f"counterexample needs state, formulas and worlds: {exc}") from None
    try:
        n_atoms = len(layers[0][0])
    except (IndexError, KeyError, TypeError):
        raise StateFormatError("counterexample state must start with a nonempty layer") from None
    if n_atoms > CHECKER_MAX_ATOMS:
        raise DomainTooLargeError(
            f"counterexample over {n_atoms} atoms; checker limited to |Σ| <= {CHECKER_MAX_ATOMS}"
        )
    ranks = order_from_bits(layers, n_atoms).ranks
    values = {k: mask_from_bits(v, n_atoms, f"formula {k}") for k, v in formulas}
    for k, v in worlds:
        values[k] = mask_from_bits([v], n_atoms, f"world {k}").bit_length() - 1
    rec = REGISTRY[pid]
    missing = [v for v in rec.variables if v not in values]
    if missing:
        raise StateFormatError(f"counterexample has no value for {', '.join(missing)}")
    ok, _ = rec.evaluate(ranks, kind.code, *(values[v] for v in rec.variables))
    return not ok
