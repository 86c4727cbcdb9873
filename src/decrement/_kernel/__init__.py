"""The kernel's public names; they are defined in ``_pykernel``."""

from decrement._kernel._pykernel import (
    BACKEND,
    KIND_INSTANT,
    KIND_TYPE1,
    KIND_TYPE2,
    MAX_UNIVERSE,
    UniverseTooLargeError,
    bel_mask,
    compress_keys,
    dr_satisfied,
    dr_successors,
    dr_violation,
    frontal_bits,
    layer_masks,
    min_rank_mask,
    step_ranks,
    weak_order_count,
    weak_order_ranks,
)
