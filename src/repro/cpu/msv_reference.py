"""Reference MSV filter: the golden quantized semantics, linear layout.

This is the executable specification of the MSV byte DP that every other
engine (batched lockstep pass, simulated warp kernels) must match
bit-for-bit.  The recurrence per target residue ``x_i`` is::

    mpv[j]  = previous row's M value at node j-1   (j = 0 -> byte 0)
    sv[j]   = sat_sub(sat_add(max(mpv[j], xB - tbm), bias), rbv[x_i][j])
    xE      = max_j sv[j]
    overflow when xE >= 255 - bias  ->  score = +inf
    xJ      = max(xJ, xE - tec)
    xB      = max(base, xJ) - tjb            (all subtractions saturating)

with byte 0 acting as minus infinity.  ``msv_score_batch`` is the
vectorized form the pipeline uses: it processes every sequence in lockstep
rows (:func:`msv_lockstep`, which the batched kernel runs too) and is
exactly equivalent to per-sequence scoring.

The lockstep rows stay native u8 and saturate by clamping *before* the
add, so no step can wrap::

    sat_add(a, bias) = min(a, 255 - bias) + bias
    sat_sub(a, r)    = max(a, r) - r

Both hold for every ``a``, ``r``, ``bias`` in [0, 255].  If
``a <= 255 - bias`` the min is ``a`` and ``a + bias <= 255``; otherwise
``a + bias`` saturates and ``(255 - bias) + bias = 255``.  If ``a >= r``
the max is ``a`` and ``a - r >= 0``; otherwise the saturating difference
is 0 and ``r - r = 0``.
"""

from __future__ import annotations

import numpy as np

from ..constants import MSV_BYTE_MAX
from ..errors import KernelError
from ..scoring.guardrails import GuardrailCounters
from ..scoring.msv_profile import MSVByteProfile
from ..scoring.quantized import sat_add_u8, sat_sub_u8
from ..sequence.database import PaddedBatch, SequenceDatabase
from .packing import PackedByteProfile, is_packed, per_model
from .results import FilterScores, lane_blocks, live_counts, retire

__all__ = ["msv_score_sequence", "msv_score_batch", "msv_lockstep"]


def msv_score_sequence(
    profile: MSVByteProfile,
    codes: np.ndarray,
    guard: GuardrailCounters | None = None,
) -> float:
    """MSV score (nats) of one digital sequence; +inf on byte overflow.

    ``guard`` tallies DP cells at the u8 ceiling after the biased
    emission add (``saturations``); counting never changes scores.
    """
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size == 0:
        raise KernelError("codes must be a non-empty 1-D array")
    M = profile.M
    row = np.zeros(M + 1, dtype=np.int32)  # row[j+1] = M value at node j
    xJ = 0
    xB = profile.init_xB
    for x in codes:
        rbv = profile.rbv[int(x)]
        xBv = max(0, xB - profile.tbm)
        sv = np.maximum(row[:M], xBv)
        sv = sat_add_u8(sv, profile.bias)
        if guard is not None:
            guard.saturations += int(np.count_nonzero(sv == MSV_BYTE_MAX))
        sv = sat_sub_u8(sv, rbv)
        row[1:] = sv
        xE = int(sv.max())
        if xE >= profile.overflow_threshold:
            return float("inf")
        xJ = max(xJ, max(0, xE - profile.tec))
        xB = max(0, max(profile.base, xJ) - profile.tjb)
    return profile.final_score_nats(xJ)


def msv_score_batch(
    profile: MSVByteProfile,
    batch: PaddedBatch | SequenceDatabase,
    guard: GuardrailCounters | None = None,
) -> FilterScores:
    """MSV scores for a whole database, lockstep-vectorized across rows.

    Semantics are identical to calling :func:`msv_score_sequence` on every
    sequence (see :func:`msv_lockstep`).
    """
    return msv_lockstep(profile, batch, guard)[0]


def msv_lockstep(
    profile: MSVByteProfile | PackedByteProfile,
    batch: PaddedBatch | SequenceDatabase,
    guard=None,
) -> tuple[FilterScores, np.ndarray]:
    """The lockstep MSV pass; returns the scores and each lane's rows-run.

    Lanes run longest first in blocks (:func:`~repro.cpu.results
    .lane_blocks`), so the lanes still live at row ``i`` form a prefix
    and every row works on views.  A lane whose row maximum reaches the
    overflow threshold is latched at +inf and retired from the prefix,
    so ``rows_run[s]`` is sequence ``s``'s length, or the rows up to and
    including its overflow row.

    ``guard.saturations`` counts DP cells at the u8 ceiling after the
    biased emission add over the live prefix - the tally the batched
    kernel reports as ``KernelCounters.saturations`` - in closed form.
    A live lane's previous-row cells are all below ``cap = 255 - bias``
    (the overflow threshold: a lane whose ``xE`` reaches it is retired
    before its next row), so ``min(max(cell, xBv), cap) + bias`` is 255
    exactly when the lane's ``xBv >= cap``, and then it is 255 at every
    one of the model's ``M`` nodes.

    A packed call (a :class:`~repro.cpu.packing.PackedByteProfile` and a
    batch with per-lane ``models``) gives each lane its model's scalars
    and emission rows, the lane's residue codes offset by ``kp`` rows
    per model index, and ``guard`` is one tally per model.  A one-model
    call gives every lane the profile's scalars and reads ``rbv`` by
    residue code alone.
    """
    if isinstance(batch, SequenceDatabase):
        batch = batch.padded_batch()
    packed = is_packed(profile, batch)
    n, M = batch.n_seqs, profile.M
    xJ_out = np.zeros(n, dtype=np.int32)  # zero-length lanes keep xJ = 0
    overflowed = np.zeros(n, dtype=bool)
    rows_run = batch.lengths.copy()  # overflowed lanes: cut below
    sat_rows = np.zeros(n, dtype=np.int64)  # rows a lane saturated on

    rbv = profile.rbv.astype(np.uint8)  # biased costs all fit u8
    # per-model scalars, one entry per model: (G,) in a packed call,
    # else (1,)
    bias_all = np.atleast_1d(profile.bias).astype(np.uint8)
    threshold = np.atleast_1d(profile.overflow_threshold).astype(np.int32)
    tec = np.atleast_1d(profile.tec).astype(np.int32)
    base = np.atleast_1d(profile.base).astype(np.int32)
    # xB - tbm with both saturating subtractions folded (tbm >= 0)
    jb = np.atleast_1d(profile.tjb + profile.tbm).astype(np.int32)
    xBv_init = np.maximum(np.atleast_1d(profile.init_xB) - profile.tbm, 0)

    for ids, lens in lane_blocks(batch):
        k, width = ids.size, int(lens[0])
        live = live_counts(lens, width)
        # each lane's model's scalars as (k,) columns, in a one-model
        # call too: u8 np.minimum against a (p, 1) bias column runs ~3x
        # faster than against a broadcast scalar
        sel = batch.models[ids] if packed else np.zeros(k, dtype=np.intp)
        L_bias, L_thr, L_tec, L_base, L_jb = (
            bias_all[sel], threshold[sel], tec[sel], base[sel], jb[sel]
        )
        # packed: a lane reads its model's rbv rows, kp rows per model
        offset = profile.kp * sel if packed else None
        lanes = (L_bias, L_thr, L_tec, L_base, L_jb) + (
            (offset,) if packed else ())
        # double-buffered u8 state rows; column 0 is the permanent byte-0
        # minus infinity, so "node j-1" is the view [:, :M]
        Rp = np.zeros((k, M + 1), dtype=np.uint8)
        Rn = np.zeros((k, M + 1), dtype=np.uint8)
        rb_buf = np.empty((k, M), dtype=np.uint8)
        xJ = np.zeros(k, dtype=np.int32)
        xBv = np.empty(k, dtype=np.uint8)
        xBv[:] = xBv_init[sel]
        cut = -1

        for i in range(width):
            p = int(live[i])
            if p == 0:
                break
            if p != cut:  # views of the live prefix's scalars
                cut = p
                bias, thr = L_bias[:p, None], L_thr[:p]
                tec_p, base_p, jb_p = L_tec[:p], L_base[:p], L_jb[:p]
            sv, rb = Rn[:p, 1:], rb_buf[:p]
            codes = batch.codes[ids[:p], i]
            if packed:
                codes = codes + offset[:p]
            np.take(rbv, codes, axis=0, out=rb)
            np.maximum(Rp[:p, :M], xBv[:p, None], out=sv)
            np.minimum(sv, MSV_BYTE_MAX - bias, out=sv)
            np.add(sv, bias, out=sv)
            if guard is not None:
                sat_rows[ids[:p]] += xBv[:p] >= thr
            np.maximum(sv, rb, out=sv)  # sat_sub(a, r) = max(a, r) - r
            np.subtract(sv, rb, out=sv)
            xE = sv.max(axis=1)
            # xJ >= 0 already, so max(xJ, max(0, xE - tec)) needs one max
            np.maximum(xJ[:p], xE.astype(np.int32) - tec_p, out=xJ[:p])
            xBv[:p] = np.maximum(np.maximum(xJ[:p], base_p) - jb_p, 0)
            Rp, Rn = Rn, Rp
            over = xE >= thr
            if over.any():
                keep = retire(over, p, i, ids, overflowed, rows_run,
                              (Rp,) + lanes)
                ids, lens, xJ, xBv = ids[keep], lens[keep], xJ[keep], xBv[keep]
                live = live_counts(lens, width)
                cut = -1

        xJ_out[ids] = xJ

    scores = np.empty(n)
    for prof, lanes_m, g in per_model(profile, batch, guard):
        scores[lanes_m] = prof.final_score_nats(xJ_out[lanes_m])
        if g is not None:
            g.saturations += prof.M * int(sat_rows[lanes_m].sum())
    scores[overflowed] = float("inf")
    return FilterScores(scores=scores, overflowed=overflowed), rows_run
