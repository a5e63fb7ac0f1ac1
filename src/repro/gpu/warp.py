"""Warp-level SIMT primitives (lockstep semantics, vectorized over warps).

A warp is modelled as the trailing axis of length 32 of a NumPy array, so
``(n_warps, 32)`` states execute in lockstep - precisely the property the
paper's warp-synchronous kernels rely on ("every 32 threads within a
thread-warp are always executed synchronously", Section III.A).
``shfl_xor`` mirrors the butterfly exchange (``__shfl_xor``, Kepler
compute 3.x) of the warp max-reduction; ``conflict_free_lane_stride``
pads the lane-major rows of the cross-sequence batched kernels.
"""

from __future__ import annotations

import numpy as np

from ..constants import WARP_SIZE
from ..errors import KernelError

__all__ = [
    "WARP_SIZE",
    "conflict_free_lane_stride",
    "shfl_xor",
]


def _check_warp_axis(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim == 0 or arr.shape[-1] != WARP_SIZE:
        raise KernelError(
            f"warp primitives need a trailing axis of {WARP_SIZE} lanes, "
            f"got shape {arr.shape}"
        )
    return arr


def lane_ids() -> np.ndarray:
    """``threadIdx.x`` within a warp: 0..31."""
    return np.arange(WARP_SIZE)


def conflict_free_lane_stride(row_bytes: int) -> int:
    """Smallest conflict-free lane-major row stride >= ``row_bytes``.

    For lane-per-sequence layouts (the cross-sequence batched kernels)
    lane ``l``'s cell ``j`` lives at byte ``l * stride + j * itemsize``;
    a warp touching cell ``j`` across all 32 lanes is conflict-free iff
    the stride maps lanes to 32 distinct banks.  With 4-byte words and
    32 banks that holds exactly when ``stride = 4 * s`` with ``s`` odd
    (``s`` invertible mod 32), so this returns the smallest such stride
    - the simulator analog of padding a shared-memory array row.
    """
    if row_bytes < 1:
        raise KernelError("row_bytes must be >= 1")
    s = -(-row_bytes // 4)
    if s % 2 == 0:
        s += 1
    return 4 * s


def shfl_xor(values: np.ndarray, lane_mask: int) -> np.ndarray:
    """``__shfl_xor``: lane ``z`` receives the value of lane ``z ^ mask``."""
    arr = _check_warp_axis(values)
    if not 0 <= lane_mask < WARP_SIZE:
        raise KernelError(f"lane_mask must be in 0..{WARP_SIZE - 1}")
    return arr[..., lane_ids() ^ lane_mask]
