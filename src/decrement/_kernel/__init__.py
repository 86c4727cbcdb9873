"""Kernel backend selection.

The compiled Cython kernel is used when available; otherwise the pure
Python implementation takes over.  Set DECREMENT_KERNEL=python or
DECREMENT_KERNEL=c to force a backend (forcing "c" raises if the extension
was not built).
"""

import os

from decrement._kernel import _pykernel

_forced = os.environ.get("DECREMENT_KERNEL")

if _forced == "python":
    from decrement._kernel import _pykernel as _impl
elif _forced == "c":
    from decrement._kernel import _ckernel as _impl  # type: ignore[no-redef]
elif _forced:
    raise ValueError(f"DECREMENT_KERNEL must be 'python' or 'c', got {_forced!r}")
else:
    try:
        from decrement._kernel import _ckernel as _impl  # type: ignore[no-redef]
    except ImportError:
        from decrement._kernel import _pykernel as _impl

BACKEND = _impl.BACKEND

KIND_TYPE1 = 0
KIND_TYPE2 = 1
KIND_INSTANT = 2

MAX_UNIVERSE = 8

weak_order_ranks = _impl.weak_order_ranks
compress_keys = _impl.compress_keys
frontal_bits = _impl.frontal_bits
step_ranks = _impl.step_ranks
dr_satisfied = _impl.dr_satisfied
# The pairwise DR conditions are written once, in Python; the compiled
# dr_satisfied mirrors them and the parity tests hold the two together.
dr_violation = _pykernel.dr_violation


def dr_successors(before, amask: int, cmask: int):
    """_pykernel.dr_successors; an unconstrained search streams this backend's orders."""
    return _pykernel.dr_successors(before, amask, cmask, all_orders=weak_order_ranks)
