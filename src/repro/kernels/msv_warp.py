"""Warp-synchronous MSV kernel (paper Algorithm 1, Figure 5).

One 32-thread warp scores one sequence; the warp sweeps each DP row in
32-wide strips over the model.  The three architecture-aware ideas of
Section III.A are all present and observable through the counters:

* **No synchronization.**  Because a single warp owns the whole row, the
  two ``__syncthreads`` barriers of the multi-warp design (Figure 4) are
  unnecessary: the kernel issues exactly zero barriers (asserted by the
  test suite, ``counters.syncthreads == 0``).
* **Double buffering at the strip boundary.**  The cell at ``p0 + 32``
  is read by the *next* strip as its lane-0 dependency but written by the
  *current* strip's store; the kernel therefore loads the next strip's 32
  dependency values into registers *before* storing - steps (1)-(4) in
  Figure 5.  The simulation performs the loads and stores in that exact
  order, so reordering them would corrupt real scores.
* **Shuffle reduction & residue packing.**  Per row, ``xE`` is reduced
  with the butterfly shuffle (Kepler) or the shared-memory tree (Fermi),
  and global residue traffic is charged at the packed 5-bit rate.

Scores are bit-identical to :mod:`repro.cpu.msv_reference` - the paper's
"preserving the sensitivity and accuracy of HMMER 3.0".
"""

from __future__ import annotations

import numpy as np

from ..analysis.sanitizer import resolve_sanitizer
from ..constants import MSV_BYTE_MAX, WARP_SIZE
from ..gpu.counters import KernelCounters
from ..gpu.device import KEPLER_K40, DeviceSpec
from ..scoring.msv_profile import MSVByteProfile
from ..scoring.quantized import sat_add_u8, sat_sub_u8
from ..sequence.database import PaddedBatch, SequenceDatabase
from ..alphabet.packing import packed_stream_bytes
from ..cpu.results import FilterScores
from .memconfig import MemoryConfig
from .reduction import warp_max_shared, warp_max_shuffle

__all__ = ["msv_warp_kernel"]


def _strip_bounds(M: int) -> list[tuple[int, int]]:
    """(start, end) model-position ranges of each 32-wide strip."""
    return [(p0, min(p0 + WARP_SIZE, M)) for p0 in range(0, M, WARP_SIZE)]


def msv_warp_kernel(
    profile: MSVByteProfile,
    database: SequenceDatabase | PaddedBatch,
    config: MemoryConfig = MemoryConfig.SHARED,
    device: DeviceSpec = KEPLER_K40,
    counters: KernelCounters | None = None,
    packed_residues: bool = False,
    sanitize: bool | None = None,
) -> FilterScores:
    """Score a database with the warp-synchronous MSV kernel.

    Every sequence is assigned to one (simulated) warp; all warps run in
    lockstep over the padded row count, masking warps whose sequence has
    ended - functionally equivalent to the paper's dynamic scheme where a
    finished warp grabs the next sequence.

    Parameters
    ----------
    config:
        Where emission scores notionally live; functional results are
        identical, only the charged memory traffic differs.
    counters:
        Optional event tally; pass a fresh :class:`KernelCounters`.
    packed_residues:
        Decode each row's residue from the 5-bit packed word stream
        (paper Figure 6) instead of the padded byte matrix.  Scores are
        identical (tested); this exercises the packed layout end to end,
        including the terminator-flag handling.
    sanitize:
        Arm the warp-model sanitizer for this launch; ``None`` (default)
        defers to the ``REPRO_SANITIZE`` environment variable.  The
        resulting :class:`~repro.analysis.sanitizer.SanitizerReport` is
        attached to ``counters.sanitizer``.
    """
    if isinstance(database, SequenceDatabase):
        lengths = np.asarray(database.lengths)
        batch = database.padded_batch()
        source_db = database
    else:
        batch = database
        lengths = batch.lengths
        source_db = None
    n = batch.n_seqs
    M = profile.M
    strips = _strip_bounds(M)
    # the access pattern is identical for every warp, so the sanitizer
    # records each simulated warp-wide access once per row sweep; the
    # MSV row is one byte per cell (u8 scores), so cell j lives at
    # shared-memory byte offset j
    san = resolve_sanitizer(sanitize)

    stream = None
    if packed_residues:
        from .residue_stream import PackedResidueStream

        stream = PackedResidueStream(batch, source_db)

    # shared memory: one DP byte row per warp, cell j+1 = node j, cell 0
    # is the permanent minus-infinity boundary
    share_mem = np.zeros((n, M + 1), dtype=np.int32)
    xJ = np.zeros(n, dtype=np.int32)
    xB = np.full(n, profile.init_xB, dtype=np.int32)
    overflowed = np.zeros(n, dtype=bool)

    if counters is not None:
        counters.sequences += n
        counters.global_bytes += int(
            sum(packed_stream_bytes(int(L)) for L in lengths)
        )

    max_len = int(lengths.max())
    for i in range(max_len):
        active = lengths > i
        live = active & ~overflowed
        if not live.any():
            break
        if stream is not None:
            codes = stream.codes_at(i, active)  # Figure 6 decode
        else:
            codes = np.where(active, batch.codes[:, i], 0).astype(np.intp)
        rbv = profile.rbv[codes]  # emission row of this residue, (n, M)
        xBv = np.maximum(0, xB - profile.tbm)
        xE_lanes = np.zeros((n, WARP_SIZE), dtype=np.int32)

        # Load(mmx): first 32 dependency values from shared memory
        mmx = share_mem[:, 0 : min(WARP_SIZE, M)].copy()
        if san is not None:
            san.begin_row(f"msv:row{i}")
            san.shared_load(
                range(0, min(WARP_SIZE, M)), "msv:dep-load:strip0",
                dependency=True,
            )
        for s, (p0, p1) in enumerate(strips):
            w = p1 - p0
            temp = np.maximum(mmx[:, :w], xBv[:, None])
            temp = sat_add_u8(temp, profile.bias)
            if counters is not None:
                # guardrail: cells at the u8 ceiling after the biased
                # add - matches the reference engine's guard tally
                counters.saturations += int(
                    np.count_nonzero(temp[live] == MSV_BYTE_MAX)
                )
            temp = sat_sub_u8(temp, rbv[:, p0:p1])
            xE_lanes[:, :w] = np.maximum(xE_lanes[:, :w], temp)
            # Load(mmx) for the NEXT strip *before* the store below
            # overwrites cell p0+32 (= next strip's lane-0 dependency):
            # the double-buffering of Figure 5.
            if s + 1 < len(strips):
                q0, q1 = strips[s + 1]
                mmx = share_mem[:, q0:q1].copy()
                if san is not None:
                    san.shared_load(
                        range(q0, q1), f"msv:dep-load:strip{s + 1}",
                        dependency=True,
                    )
            share_mem[:, p0 + 1 : p1 + 1] = np.where(
                live[:, None], temp, share_mem[:, p0 + 1 : p1 + 1]
            )
            if san is not None:
                san.shared_store(range(p0 + 1, p1 + 1), f"msv:store:strip{s}")
            if counters is not None:
                n_live = int(live.sum())
                counters.strips += n_live
                counters.cells += n_live * w
                counters.shared_loads += n_live  # dependency load (coalesced)
                counters.shared_stores += n_live  # row store (conflict-free)
                if config is MemoryConfig.SHARED:
                    counters.shared_loads += n_live  # emission fetch
                else:
                    counters.global_bytes += n_live * w  # emission fetch

        # warp-level max reduction of the per-lane xE partials; events are
        # charged per *live* warp (finished warps are not executing)
        n_live = int(live.sum())
        live_counters = KernelCounters() if counters is not None else None
        if san is not None:
            # lanes past the model edge must hold the max-neutral 0, or
            # the butterfly shuffle would mix garbage into xE
            san.check_reduction(
                xE_lanes, min(M, WARP_SIZE), 0, "msv:xE-reduce"
            )
        if device.has_warp_shuffle:
            xE = warp_max_shuffle(xE_lanes, None)[:, 0]
            if live_counters is not None:
                warp_max_shuffle(xE_lanes[:1], live_counters)
        else:
            xE = warp_max_shared(xE_lanes, None)[:, 0]
            if live_counters is not None:
                warp_max_shared(xE_lanes[:1], live_counters)
        if counters is not None and live_counters is not None:
            counters.shuffles += live_counters.shuffles * n_live
            counters.shared_loads += live_counters.shared_loads * n_live
            counters.shared_stores += live_counters.shared_stores * n_live
            counters.rows += n_live

        overflow_now = live & (xE >= profile.overflow_threshold)
        overflowed |= overflow_now
        update = live & ~overflow_now
        xJ[update] = np.maximum(xJ[update], np.maximum(0, xE[update] - profile.tec))
        xB[update] = np.maximum(
            0, np.maximum(profile.base, xJ[update]) - profile.tjb
        )

    if san is not None and counters is not None:
        report = san.report()
        counters.attach_sanitizer(report)
        counters.bank_conflict_extra += report.conflict_extra

    scores = ((xJ - profile.tjb) - profile.base) / profile.scale - 3.0
    scores = scores.astype(np.float64)
    scores[overflowed] = float("inf")
    return FilterScores(scores=scores, overflowed=overflowed)
