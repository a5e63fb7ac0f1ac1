"""Batched Forward: score many sequences in lockstep rows, in odds space.

Calibration scores a whole background sample with it, the pipeline's
Forward stage its filter survivors and ``forward_all`` a database.  Same
recurrence as :func:`repro.cpu.generic.generic_forward_score`, which
stays in log space as the oracle (equality to 1e-9 nats is a tested
invariant), computed the way HMMER3's own Forward is:

* scores are exponentiated once per call, so row updates are
  multiply-adds instead of ``logaddexp`` calls;
* after every row each sequence is rescaled so its largest state is 1,
  and the log of the factor is added to a per-sequence accumulator;
* the Delete chain is solved in closed form, ``D = P * cumsum(inject /
  P)`` with ``P`` the running product of D->D odds, cut into chunks
  whose log-product stays above ``-_CHUNK_NATS``;
* lanes are sorted by length once, so row ``i`` touches only the prefix
  of sequences still running.

The overflow, underflow and non-finite argument is in ``docs/engines.md``
("Forward numerics").
"""

from __future__ import annotations

import numpy as np

from ..hmm.profile import SearchProfile
from ..scoring.guardrails import GuardrailCounters
from ..sequence.database import PaddedBatch, SequenceDatabase
from .generic import GenericProfile, _forward_segments

__all__ = ["forward_score_batch"]

# Lowest log-product of tdd links inside one Delete-chain chunk: 1/P then
# stays below e^600, and a chunk's cumsum of up to M such terms stays far
# from the float64 ceiling (~e^709.78).
_CHUNK_NATS = 600.0
_TINY = np.finfo(np.float64).tiny


def _d_chain_plan(
    M: int, tdd: np.ndarray, tmd: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, float]]]:
    """Per-node factors that turn the Delete chain into cumsums.

    Returns ``(inject, P, chunks)``: every row's chain is ``D = P * S``,
    where ``S`` is, chunk by chunk, the cumsum of
    ``M[node k-1] * inject[k]`` plus ``S[lo-1] * carry`` carried in from
    the previous chunk of the same segment (``carry`` is 0.0 at a
    segment start).  ``P[k]`` is the product of the odds links from the
    chunk's first node to ``k``, and ``inject[k] = exp(tmd[k-1]) / P[k]``.
    """
    logp = np.zeros(M)
    chunks = []
    for lo, hi in _forward_segments(M, tdd):
        a = lo
        while a < hi:
            run = np.concatenate(([0.0], np.cumsum(tdd[a : hi - 1])))
            over = np.flatnonzero(run < -_CHUNK_NATS)
            b = a + (int(over[0]) if over.size else hi - a)
            logp[a:b] = run[: b - a]
            carry = float(np.exp(logp[a - 1] + tdd[a - 1])) if a > lo else 0.0
            chunks.append((a, b, carry))
            a = b
    inject = np.concatenate(([0.0], np.exp(tmd[:-1] - logp[1:])))
    return inject, np.exp(logp), chunks


def forward_score_batch(
    profile: SearchProfile | GenericProfile,
    batch: PaddedBatch | SequenceDatabase,
    guard: GuardrailCounters | None = None,
) -> np.ndarray:
    """Forward log-odds scores (nats) for a whole database.

    ``guard.nonfinite`` counts sequences whose final score is NaN or
    infinite - floating-point Forward has no saturating floor, so a
    non-finite score here means numerical trouble (or a sequence no path
    can emit, which scores -inf), not a valid result.
    """
    gp = (
        GenericProfile.from_profile(profile)
        if isinstance(profile, SearchProfile)
        else profile
    )
    if isinstance(batch, SequenceDatabase):
        batch = batch.padded_batch()
    n, M = batch.n_seqs, gp.M

    # odds-space parameters; padded rows below keep column 0 at zero so
    # column j holds node j-1 and a [:-1] slice is the "from node j-1" view
    emsc = np.exp(gp.msc)
    into_m = np.exp([gp.enter_mm, gp.enter_im, gp.enter_dm])  # from M,I,D
    into_i = np.exp([gp.tmi, gp.tii])                         # from M,I
    inject, P, chunks = _d_chain_plan(M, gp.tdd, gp.tmd)
    tbm = float(np.exp(gp.tbm))
    # specials are columns N, J, C, B of one (n, 4) array
    loops = np.exp([gp.N_loop, gp.J_loop, gp.C_loop])
    exits = np.exp([gp.E_loop, gp.E_move])     # E -> J, E -> C
    moves = np.exp([gp.N_move, gp.J_move])     # N -> B, J -> B

    order = np.argsort(-batch.lengths, kind="stable")
    width = batch.max_len
    codes = np.ascontiguousarray(batch.codes[order].T)  # (width, n)
    live = n - np.cumsum(
        np.bincount(batch.lengths.astype(np.int64), minlength=width + 1)
    )[:width]

    # rows[:, s] is the padded (M+1)-wide row of state s = M, I, D;
    # two buffers ping-pong between the previous row and the next
    rows, nxt = np.zeros((n, 3, M + 1)), np.zeros((n, 3, M + 1))
    X = np.zeros((n, 4))
    X[:, 0] = 1.0
    X[:, 3] = moves[0]
    logscale = np.zeros(n)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in range(width):
            p = int(live[i])
            if p == 0:
                break
            prv, cur, x = rows[:p], nxt[:p], X[:p]
            Mv, Dv = cur[:, 0, 1:], cur[:, 2, 1:]
            np.einsum("psm,sm->pm", prv[:, :, :-1], into_m, out=Mv)
            Mv += x[:, 3:] * tbm
            Mv *= emsc[codes[i, :p]]
            np.einsum("psm,sm->pm", prv[:, :2, 1:], into_i, out=cur[:, 1, 1:])
            # D = P * S, S the chunked cumsum of scaled M->D injections
            np.multiply(cur[:, 0, :-1], inject, out=Dv)
            for lo, hi, carry in chunks:
                S = Dv[:, lo:hi]
                np.cumsum(S, axis=1, out=S)
                if carry:
                    S += Dv[:, lo - 1 : lo] * carry
            Dv *= P
            # specials; xE sums the free local exits from every M state
            xE = Mv.sum(axis=1)
            x[:, :3] *= loops
            x[:, 1:3] += xE[:, None] * exits
            x[:, 3] = x[:, :2] @ moves
            # rescale each sequence so its largest state is 1 (an all-zero
            # lane is left as it is, a NaN one stays NaN)
            scale = np.maximum(cur.reshape(p, -1).max(axis=1), x.max(axis=1))
            np.maximum(scale, _TINY, out=scale)
            inv = 1.0 / scale
            cur *= inv[:, None, None]
            x *= inv[:, None]
            logscale[:p] += np.log(scale)
            rows, nxt = nxt, rows

    nats = np.empty(n)
    with np.errstate(divide="ignore"):
        nats[order] = np.log(X[:, 2]) + logscale + gp.C_move
    if guard is not None:
        guard.nonfinite += int(np.count_nonzero(~np.isfinite(nats)))
    return nats
