"""The synchronized multi-warp MSV kernel the paper improves upon
(Figure 4) - kept as an ablation baseline.

In this design one *thread block* (several warps) cooperates on each DP
row: warp ``w`` updates cells ``[32w, 32w+32)``.  Because the cells at
every warp boundary carry a diagonal dependency on the neighbouring
warp's previous-row value, and warps are scheduled in arbitrary order,
the block needs **two barriers per row** - one after all warps have read
their dependencies, one after all have written - plus further barriers
inside the block-scope tree reduction that computes ``xE``.

Functionally the scores are identical to the warp-synchronous kernel:
both score through the shared lockstep pass
(:func:`~repro.cpu.msv_reference.msv_lockstep`).  What differs is the
event stream, charged in closed form per live block-row on top of what
every simulated launch charges (sequences, packed residue bytes,
saturations): this kernel issues ``(2 + 5) * rows`` barriers, with
``rows`` the block-rows run (each block stops after its last residue or
its overflow row), whose cost, together with the idle time of warps
waiting at them, is what the timing model charges in the ``abl-sync``
benchmark.
"""

from __future__ import annotations

import numpy as np

from ..constants import WARP_SIZE
from ..cpu.msv_reference import msv_lockstep
from ..cpu.results import FilterScores
from ..gpu.counters import KernelCounters
from ..gpu.device import KEPLER_K40, DeviceSpec
from ..scoring.msv_profile import MSVByteProfile
from ..sequence.database import PaddedBatch, SequenceDatabase
from .batched import lockstep_launch
from .reduction import warp_max_shared

__all__ = ["msv_multiwarp_sync_kernel", "SYNCS_PER_ROW"]

#: Barriers per row: read barrier + write barrier + 5 reduction barriers.
SYNCS_PER_ROW = 2 + 5


def msv_multiwarp_sync_kernel(
    profile: MSVByteProfile,
    database: SequenceDatabase | PaddedBatch,
    device: DeviceSpec = KEPLER_K40,
    counters: KernelCounters | None = None,
) -> FilterScores:
    """Score a database with the synchronized multi-warp MSV baseline.

    One block processes one sequence; all warps of the block sweep a row
    together between barriers: every warp reads its dependencies and
    the emission row, a barrier, every warp writes its cells, a
    barrier, then the block-scope tree reduction of the per-warp
    partial maxima.
    """
    result, _, rows_run = lockstep_launch(msv_lockstep, profile, database,
                                          counters)
    if counters is not None:
        rows = int(rows_run.sum())
        warps = -(-profile.M // WARP_SIZE)
        tree = KernelCounters()  # one block-scope reduction
        warp_max_shared(np.zeros((1, WARP_SIZE), dtype=np.int32), tree,
                        block_scope=True)
        counters.rows += rows
        counters.strips += rows * warps
        counters.cells += rows * profile.M
        counters.shared_loads += rows * (2 * warps + tree.shared_loads)
        counters.shared_stores += rows * (warps + tree.shared_stores)
        counters.syncthreads += SYNCS_PER_ROW * rows
    return result
