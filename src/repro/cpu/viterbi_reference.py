"""Reference P7Viterbi filter: the golden word-quantized semantics.

Executable specification of HMMER 3.0's ``ViterbiFilter`` (16-bit words,
-32768 = minus infinity, +32767 = overflow sentinel) in linear layout.
The per-row recurrence for target residue ``x_i`` at node ``j`` (0-based)::

    Mv[j] = sat(max( xB + tbm,
                     Mp[j-1] + enter_mm[j],
                     Ip[j-1] + enter_im[j],
                     Dp[j-1] + enter_dm[j] ) + rwv[x_i][j])
    Iv[j] = sat(max( Mp[j] + tmi[j],  Ip[j] + tii[j] ))
    Dv[j] = max( Mv[j-1] + tmd[j-1],  Dv[j-1] + tdd[j-1] )   (within-row chain)
    xE    = max_j Mv[j]
    xC    = max(xC, xE + E_move);  xJ = max(xJ, xE + E_loop)
    xB    = max(base + NJ_move, xJ + NJ_move)

Two implementations of it live here.  :func:`viterbi_score_sequence` is
the spec, row at a time: every term goes through the per-term saturating
add :func:`~repro.scoring.quantized.sat_add_i16`, exactly where HMMER
applies ``_mm_adds_epi16``.  :func:`viterbi_score_batch` is the fused
form that calibration and the ``cpu_sse`` engine run, and it is checked
against the spec.  Its exactness rests on one fact: the clip to
``[-32768, 32767]`` is monotone, so it commutes with ``max`` -
``max(clip(a), clip(b)) == clip(max(a, b))``.  Hence the entry terms are
summed and maxed unclipped in a wide int32 carrier and clipped once, and
``Iv`` is one clip of the max of its two sums.  Every addend is a word
in ``[-32768, 32767]``, so no int32 sum of two of them can wrap.

The D within-row chain is computed *exactly* with a max-plus prefix scan
(see :func:`exact_d_chain`): because every D->D step cost is
non-positive, the scan followed by flooring at -32768 is provably
identical to the serial saturating recurrence - the property that lets
the striped Lazy-F and the warp-parallel Lazy-F terminate early without
changing any score.  The scan's carrier ``c[j] = sum_{t<j} tdd[t]`` is
int64: it falls by up to 32768 per node, so an int32 carrier would wrap
once ``M >= 65535``, while int64 holds ``32768 * M`` for any model that
fits in memory.
"""

from __future__ import annotations

import numpy as np

from ..constants import VF_WORD_MIN
from ..errors import KernelError
from ..scoring.guardrails import GuardrailCounters
from ..scoring.quantized import clip_i16, sat_add_i16
from ..scoring.vit_profile import ViterbiWordProfile
from ..sequence.database import PaddedBatch, SequenceDatabase
from .packing import PackedWordProfile, is_packed
from .results import FilterScores, lane_blocks, live_counts, retire

__all__ = [
    "viterbi_score_sequence",
    "viterbi_score_batch",
    "viterbi_lockstep",
    "exact_d_chain",
]


def exact_d_chain(m_row: np.ndarray, tmd: np.ndarray, tdd: np.ndarray) -> np.ndarray:
    """Exact within-row Delete chain via a max-plus prefix scan.

    ``D[j] = max(M[j-1] + tmd[j-1], D[j-1] + tdd[j-1])`` with ``D[0] =
    -inf``, floored at -32768.  Vectorized over the trailing axis; works
    on ``(M,)`` rows and ``(n, M)`` batches alike.

    Decomposition: with ``c[j] = sum_{t<j} tdd[t]`` every chain that
    starts at node ``i`` contributes ``start[i] + c[j] - c[i+1]``, so
    ``D[j] = c[j] + max_{i<j}(start[i] - c[i+1])`` - a cumulative sum and
    a running maximum.  All D->D costs are <= 0, which makes flooring at
    the end equivalent to flooring every intermediate (saturating) step.
    """
    m_row = np.asarray(m_row, dtype=np.int64)
    M = m_row.shape[-1]
    if tmd.shape != (M,) or tdd.shape != (M,):
        raise KernelError("transition arrays must match the row length")
    start = np.clip(m_row + tmd, VF_WORD_MIN, None)  # sat_add on stored M
    # c[j] = sum of tdd[t] for t < j; depends only on the profile (1-D)
    c = np.concatenate(
        ([0], np.cumsum(tdd.astype(np.int64)))
    )  # length M+1; c[M] unused below
    g = start - c[1 : M + 1]  # g[i] = start[i] - c[i+1], broadcasts over batch
    h = np.maximum.accumulate(g, axis=-1)
    out = np.full(m_row.shape, VF_WORD_MIN, dtype=np.int64)
    out[..., 1:] = clip_i16(c[1:M] + h[..., :-1])
    return out.astype(np.int32)


def _row_update(profile: ViterbiWordProfile, codes, Mp, Ip, Dp, xB):
    """One DP row for a batch; returns (Mv, Iv, Dv, xE)."""
    rwv = profile.rwv[codes]  # (n, M)
    shift = lambda a: np.concatenate(  # noqa: E731 - local one-liner
        [np.full(a.shape[:-1] + (1,), VF_WORD_MIN, dtype=np.int32), a[..., :-1]],
        axis=-1,
    )
    sv = sat_add_i16(np.asarray(xB)[..., None], profile.tbm)
    sv = np.maximum(sv, sat_add_i16(shift(Mp), profile.enter_mm))
    sv = np.maximum(sv, sat_add_i16(shift(Ip), profile.enter_im))
    sv = np.maximum(sv, sat_add_i16(shift(Dp), profile.enter_dm))
    Mv = sat_add_i16(sv, rwv)
    Iv = np.maximum(
        sat_add_i16(Mp, profile.tmi), sat_add_i16(Ip, profile.tii)
    ).astype(np.int32)
    Dv = exact_d_chain(Mv, profile.tmd, profile.tdd)
    xE = Mv.max(axis=-1)
    return Mv.astype(np.int32), Iv, Dv, xE


def viterbi_score_sequence(
    profile: ViterbiWordProfile,
    codes: np.ndarray,
    guard: GuardrailCounters | None = None,
) -> float:
    """ViterbiFilter score (nats) of one sequence; +inf on word overflow.

    ``guard.saturations`` counts M-row cells pinned at the i16 floor
    (-32768, the filter's minus infinity); counting never changes scores.
    """
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size == 0:
        raise KernelError("codes must be a non-empty 1-D array")
    M = profile.M
    Mp = np.full(M, VF_WORD_MIN, dtype=np.int32)
    Ip = Mp.copy()
    Dp = Mp.copy()
    xJ = VF_WORD_MIN
    xC = VF_WORD_MIN
    xB = profile.init_xB
    for x in codes:
        Mp, Ip, Dp, xE = _row_update(profile, int(x), Mp, Ip, Dp, xB)
        if guard is not None:
            guard.saturations += int(np.count_nonzero(Mp == VF_WORD_MIN))
        xE = int(xE)
        if xE >= profile.overflow_threshold:
            return float("inf")
        xC = max(xC, xE + profile.xE_move)
        xJ = max(xJ, xE + profile.xE_loop)
        xB = max(profile.base + profile.xNJ_move, xJ + profile.xNJ_move)
    if xC == VF_WORD_MIN:
        return float("-inf")
    return profile.final_score_nats(xC)


def viterbi_score_batch(
    profile: ViterbiWordProfile,
    batch: PaddedBatch | SequenceDatabase,
    guard: GuardrailCounters | None = None,
) -> FilterScores:
    """ViterbiFilter scores for a whole database, lockstep across rows.

    Exactly equivalent to per-sequence scoring (the fused arithmetic is
    argued in the module docstring; the pass is :func:`viterbi_lockstep`).
    """
    return viterbi_lockstep(profile, batch, guard)[0]


def _d_scan(tmd: np.ndarray, tdd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Delete-chain scan constants (see :func:`exact_d_chain`) in the
    int64 carrier, over the trailing node axis: ``tmd - c[1:M+1]`` and
    ``c[1:M]``, with ``c[j]`` the sum of ``tdd[t]`` for ``t < j``."""
    M = tdd.shape[-1]
    c = np.concatenate(
        (np.zeros(tdd.shape[:-1] + (1,), dtype=np.int64),
         np.cumsum(tdd, axis=-1, dtype=np.int64)),
        axis=-1,
    )
    return tmd - c[..., 1:], c[..., 1:M]


def viterbi_lockstep(
    profile: ViterbiWordProfile | PackedWordProfile,
    batch: PaddedBatch | SequenceDatabase,
    guard=None,
    *,
    observe=None,
) -> tuple[FilterScores, np.ndarray]:
    """The lockstep ViterbiFilter pass; returns scores and rows-run.

    Lanes run longest first in blocks (:func:`~repro.cpu.results
    .lane_blocks`), so the lanes still live at row ``i`` form a prefix
    and every row works on views, with no masked copies.  A lane whose
    row maximum reaches the overflow threshold is latched at +inf and
    retired from the prefix, so ``rows_run[s]`` is sequence ``s``'s
    length, or the rows up to and including its overflow row.
    ``guard.saturations`` counts M-row cells pinned at the i16 floor
    over the live prefix - the tally the batched kernel reports as
    ``KernelCounters.saturations``.  ``observe(Mv, Dv, lanes)``, when
    given, is called once per row with the live prefix's Match row
    ``(p, M)``, its Delete row at nodes ``1..M-1`` ``(p, M-1)`` and the
    batch indices of those lanes, lanes that overflow on that row
    included; the per-warp kernel charges its Lazy-F votes from them.

    A packed call (a :class:`~repro.cpu.packing.PackedWordProfile` and a
    batch with per-lane ``models``) gives each lane its model's rows,
    and ``guard`` is one tally per model, charged the saturations of
    that model's own nodes.  A one-model call broadcasts the profile's
    ``(M,)`` rows over the lanes.
    """
    if isinstance(batch, SequenceDatabase):
        batch = batch.padded_batch()
    packed = is_packed(profile, batch)
    n, M = batch.n_seqs, profile.M
    # zero-length lanes process no rows: xC stays -inf
    xC_out = np.full(n, VF_WORD_MIN, dtype=np.int64)
    overflowed = np.zeros(n, dtype=bool)
    rows_run = batch.lengths.copy()  # overflowed lanes: cut below
    threshold = profile.overflow_threshold
    # Delete-chain scan constants, once per call.  The chain starts
    # Mv + tmd are not floored first: a start below -32768 only feeds
    # chains that end below it, and the final clip floors those.  A
    # packed call reads the links cut after each model's last node.
    if packed:
        codes = profile.lane_codes(batch)
        tmd_c, c_body = _d_scan(profile.tmd_cut, profile.tdd_cut)
        lane_sat = np.zeros(n, dtype=np.int64)
    else:
        codes = batch.codes
        tmd_c, c_body = _d_scan(profile.tmd, profile.tdd)
    tbm = np.asarray(profile.tbm, dtype=np.int32)
    base_move = np.asarray(profile.base + profile.xNJ_move)

    for ids, lens in lane_blocks(batch):
        k, width = ids.size, int(lens[0])
        live = live_counts(lens, width)
        # the lanes' parameter rows: each lane's model's (k, ...) rows
        # in a packed call, else one broadcast (1, ...) row
        sel = batch.models[ids] if packed else None
        L_emm, L_eim, L_edm = (
            profile.enter_mm[sel], profile.enter_im[sel], profile.enter_dm[sel]
        )
        L_tmi, L_tii, L_tbm = profile.tmi[sel], profile.tii[sel], tbm[sel]
        L_tmd_c, L_c_body = tmd_c[sel], c_body[sel]
        L_move, L_loop, L_nj, L_bm = (
            np.asarray(profile.xE_move)[sel], np.asarray(profile.xE_loop)[sel],
            np.asarray(profile.xNJ_move)[sel], base_move[sel],
        )
        lanes = (L_emm, L_eim, L_edm, L_tmi, L_tii, L_tbm, L_tmd_c,
                 L_c_body, L_move, L_loop, L_nj, L_bm) if packed else ()
        # (M+1)-wide double-buffered state rows; column 0 is the
        # permanent minus-infinity boundary, so "node j-1" is the view
        # [:, :M].  The D rows' column 1 stays -inf too: no Delete state
        # precedes node 0.
        Mp = np.full((k, M + 1), VF_WORD_MIN, dtype=np.int32)
        Ip = Mp.copy()
        Dp = Mp.copy()
        Mn = Mp.copy()
        In = Mp.copy()
        Dn = Mp.copy()
        sv = np.empty((k, M), dtype=np.int32)
        tmp = np.empty((k, M), dtype=np.int32)
        g = np.empty((k, M), dtype=np.int64)
        xJ = np.full(k, VF_WORD_MIN, dtype=np.int64)
        xC = xJ.copy()
        xB = np.empty(k, dtype=np.int32)
        xB[:] = np.asarray(profile.init_xB)[sel]
        cut = -1

        for i in range(width):
            p = int(live[i])
            if p == 0:
                break
            if p != cut:
                # views of the live prefix's rows; a (1, ...) row stays
                # whole and broadcasts
                cut = p
                emm, eim, edm = L_emm[:p], L_eim[:p], L_edm[:p]
                tmi, tii, tbm_p = L_tmi[:p], L_tii[:p], L_tbm[:p]
                tmd_cp, c_bp = L_tmd_c[:p], L_c_body[:p]
                move, loop, nj, bm = L_move[:p], L_loop[:p], L_nj[:p], L_bm[:p]
            Mv, Iv, Dv = Mn[:p, 1:], In[:p, 1:], Dn[:p, 2:]
            s, t, h = sv[:p], tmp[:p], g[:p]
            # Match: the four entry terms maxed unclipped, one clip, then
            # the emission and one more clip
            np.add(Mp[:p, :M], emm, out=s)
            np.add(Ip[:p, :M], eim, out=t)
            np.maximum(s, t, out=s)
            np.add(Dp[:p, :M], edm, out=t)
            np.maximum(s, t, out=s)
            np.maximum(s, xB[:p, None] + tbm_p, out=s)
            clip_i16(s, out=s)
            np.take(profile.rwv, codes[ids[:p], i], axis=0, out=t)
            np.add(s, t, out=s)
            clip_i16(s, out=Mv)
            # Insert: max of two sums, one clip
            np.add(Mp[:p, 1:], tmi, out=s)
            np.add(Ip[:p, 1:], tii, out=t)
            np.maximum(s, t, out=s)
            clip_i16(s, out=Iv)
            # Delete: max-plus prefix scan along the row, one clip
            np.add(Mv, tmd_cp, out=h)
            np.maximum.accumulate(h, axis=1, out=h)
            np.add(h[:, :-1], c_bp, out=h[:, :-1])
            clip_i16(h[:, :-1], out=Dv)
            if observe is not None:
                observe(Mv, Dv, ids[:p])

            xE = Mv.max(axis=1)
            if guard is not None and packed:
                lane_sat[ids[:p]] += np.count_nonzero(Mv == VF_WORD_MIN, axis=1)
            elif guard is not None:
                guard.saturations += int(np.count_nonzero(Mv == VF_WORD_MIN))
            np.maximum(xC[:p], xE + move, out=xC[:p])
            np.maximum(xJ[:p], xE + loop, out=xJ[:p])
            np.maximum(xJ[:p] + nj, bm, out=xB[:p])
            # double buffering: this row's output is the next row's input
            Mp, Mn = Mn, Mp
            Ip, In = In, Ip
            Dp, Dn = Dn, Dp
            if int(xE.max()) >= threshold:
                keep = retire(xE >= threshold, p, i, ids, overflowed,
                              rows_run, (Mp, Ip, Dp) + lanes)
                ids, lens, xJ, xC, xB = (
                    ids[keep], lens[keep], xJ[keep], xC[keep], xB[keep]
                )
                live = live_counts(lens, width)
                cut = -1

        xC_out[ids] = xC

    sel = batch.models if packed else None
    final = np.asarray(profile.xNJ_move - profile.base)[sel]
    scores = np.where(
        xC_out == VF_WORD_MIN,
        float("-inf"),
        (xC_out + final) / np.asarray(profile.scale)[sel] - 2.0,
    )
    scores[overflowed] = float("inf")
    if guard is not None and packed:
        # every pad cell of a live row sits at the floor
        for m, lanes_m in profile.lanes(batch.models):
            pads = (M - int(profile.Ms[m])) * int(rows_run[lanes_m].sum())
            guard[m].saturations += int(lane_sat[lanes_m].sum()) - pads
    return FilterScores(scores=scores, overflowed=overflowed), rows_run
