"""The paper's contribution: warp-synchronous GPU kernels.

Every kernel here produces scores bit-identical to the corresponding CPU
reference in :mod:`repro.cpu`; the architecture-aware structure shows up
in the event counters and in the timing model, not in the numbers.
"""

from .lazy_f import parallel_lazy_f
from .memconfig import (
    MemoryConfig,
    Stage,
    dp_row_bytes_per_warp,
    param_table_bytes,
    registers_per_thread,
    smem_per_block,
    stage_occupancy,
)
from .msv_warp import msv_warp_kernel
from .naive_sync import SYNCS_PER_ROW, msv_multiwarp_sync_kernel
from .reduction import SHUFFLE_STEPS, warp_max_shared, warp_max_shuffle
from .viterbi_warp import viterbi_warp_kernel

__all__ = [
    "MemoryConfig",
    "Stage",
    "msv_warp_kernel",
    "viterbi_warp_kernel",
    "msv_multiwarp_sync_kernel",
    "parallel_lazy_f",
    "warp_max_shuffle",
    "warp_max_shared",
    "SHUFFLE_STEPS",
    "SYNCS_PER_ROW",
    "stage_occupancy",
    "smem_per_block",
    "param_table_bytes",
    "dp_row_bytes_per_warp",
    "registers_per_thread",
]
