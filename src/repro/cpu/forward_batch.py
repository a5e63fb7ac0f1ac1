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
from ..sequence.database import PaddedBatch, SequenceDatabase
from .generic import GenericProfile, _coerce, _forward_segments
from .packing import PackedGenericProfile, is_packed

__all__ = ["forward_score_batch"]

# Lowest log-product of tdd links inside one Delete-chain chunk: 1/P then
# stays below e^600, and a chunk's cumsum of up to M such terms stays far
# from the float64 ceiling (~e^709.78).
_CHUNK_NATS = 600.0
_TINY = np.finfo(np.float64).tiny


def _d_chain_plan(
    M: int, tdd: np.ndarray, tmd: np.ndarray, cuts=()
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, float]]]:
    """Per-node factors that turn the Delete chain into cumsums.

    Returns ``(inject, P, chunks)``: every row's chain is ``D = P * S``,
    where ``S`` is, chunk by chunk, the cumsum of
    ``M[node k-1] * inject[k]`` plus ``S[lo-1] * carry`` carried in from
    the previous chunk of the same segment (``carry`` is 0.0 at a
    segment start).  ``P[k]`` is the product of the odds links from the
    chunk's first node to ``k``, and ``inject[k] = exp(tmd[k-1]) / P[k]``.
    A chunk also starts at every node in ``cuts``.
    """
    logp = np.zeros(M)
    chunks = []
    cuts = np.asarray(sorted(cuts), dtype=np.int64)
    for lo, hi in _forward_segments(M, tdd):
        a = lo
        while a < hi:
            run = np.concatenate(([0.0], np.cumsum(tdd[a : hi - 1])))
            over = np.flatnonzero(run < -_CHUNK_NATS)
            b = a + (int(over[0]) if over.size else hi - a)
            inside = cuts[(cuts > a) & (cuts < b)]
            if inside.size:
                b = int(inside[0])
            logp[a:b] = run[: b - a]
            carry = float(np.exp(logp[a - 1] + tdd[a - 1])) if a > lo else 0.0
            chunks.append((a, b, carry))
            a = b
    inject = np.concatenate(([0.0], np.exp(tmd[:-1] - logp[1:])))
    return inject, np.exp(logp), chunks


def _packed_d_chain_plan(gp: PackedGenericProfile):
    """:func:`_d_chain_plan` for every model of a pack, on common chunks.

    A chunk boundary of any model becomes a cut for all of them, until
    every model's plan has the same chunks; each chunk then carries a
    ``(G,)`` vector of the models' carries.
    """
    cuts: set[int] = set()
    while True:
        plans = [_d_chain_plan(gp.M, tdd, tmd, cuts)
                 for tdd, tmd in zip(gp.tdd, gp.tmd)]
        starts = {lo for _, _, chunks in plans for lo, _, _ in chunks} - {0}
        if starts == cuts:
            break
        cuts = starts
    chunks = [
        (lo, hi, np.array([chunks[c][2] for _, _, chunks in plans]))
        for c, (lo, hi, _) in enumerate(plans[0][2])
    ]
    return (np.array([plan[0] for plan in plans]),
            np.array([plan[1] for plan in plans]), chunks)


def forward_score_batch(
    profile: SearchProfile | GenericProfile | PackedGenericProfile,
    batch: PaddedBatch | SequenceDatabase,
    guard=None,
) -> np.ndarray:
    """Forward log-odds scores (nats) for a whole database.

    ``guard.nonfinite`` counts sequences whose final score is NaN or
    infinite - floating-point Forward has no saturating floor, so a
    non-finite score here means numerical trouble (or a sequence no path
    can emit, which scores -inf), not a valid result.

    A packed call (a :class:`~repro.cpu.packing.PackedGenericProfile`
    and a batch with per-lane ``models``) gives each lane its model's
    parameters, and ``guard`` is one tally per model.  A one-model call
    broadcasts the profile's rows over the lanes.
    """
    gp = profile if isinstance(profile, PackedGenericProfile) else _coerce(profile)
    if isinstance(batch, SequenceDatabase):
        batch = batch.padded_batch()
    packed = is_packed(gp, batch)
    n, M = batch.n_seqs, gp.M

    # odds-space parameters; padded rows below keep column 0 at zero so
    # column j holds node j-1 and a [:-1] slice is the "from node j-1" view
    emsc = np.exp(gp.msc)
    into_m = np.exp(np.stack([gp.enter_mm, gp.enter_im, gp.enter_dm], -2))
    into_i = np.exp(np.stack([gp.tmi, gp.tii], -2))
    inject, P, chunks = (
        _packed_d_chain_plan(gp) if packed else _d_chain_plan(M, gp.tdd, gp.tmd)
    )
    tbm = np.exp(gp.tbm)
    # specials are columns N, J, C, B of one (n, 4) array
    loops = np.exp(np.stack([gp.N_loop, gp.J_loop, gp.C_loop], -1))
    exits = np.exp(np.stack([gp.E_loop, gp.E_move], -1))   # E -> J, E -> C
    moves = np.exp(np.stack([gp.N_move, gp.J_move], -1))   # N -> B, J -> B

    order = np.argsort(-batch.lengths, kind="stable")
    width = batch.max_len
    codes = gp.lane_codes(batch) if packed else batch.codes
    codes = np.ascontiguousarray(codes[order].T)  # (width, n)
    live = n - np.cumsum(
        np.bincount(batch.lengths.astype(np.int64), minlength=width + 1)
    )[:width]
    if packed:
        # each lane's model's parameters, in lane order
        sel = batch.models[order]
        into_m, into_i, inject, P = into_m[sel], into_i[sel], inject[sel], P[sel]
        tbm, loops, exits, moves = tbm[sel, None], loops[sel], exits[sel], moves[sel]
        chunks = [(lo, hi, carry[sel, None] if carry.any() else None)
                  for lo, hi, carry in chunks]
        spec = "psm,psm->pm"
    else:
        chunks = [(lo, hi, carry or None) for lo, hi, carry in chunks]
        spec = "psm,sm->pm"
        im, ii, inj, Pp = into_m, into_i, inject, P
        tb, lp, ex, mv, ch = tbm, loops, exits, moves, chunks

    # rows[:, s] is the padded (M+1)-wide row of state s = M, I, D;
    # two buffers ping-pong between the previous row and the next
    rows, nxt = np.zeros((n, 3, M + 1)), np.zeros((n, 3, M + 1))
    X = np.zeros((n, 4))
    X[:, 0] = 1.0
    X[:, 3] = moves[..., 0]
    logscale = np.zeros(n)
    cut = -1

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for i in range(width):
            p = int(live[i])
            if p == 0:
                break
            if packed and p != cut:
                # views of the live prefix's parameters
                cut = p
                im, ii, inj, Pp = into_m[:p], into_i[:p], inject[:p], P[:p]
                tb, lp, ex, mv = tbm[:p], loops[:p], exits[:p], moves[:p]
                ch = [(lo, hi, None if carry is None else carry[:p])
                      for lo, hi, carry in chunks]
            prv, cur, x = rows[:p], nxt[:p], X[:p]
            Mv, Dv = cur[:, 0, 1:], cur[:, 2, 1:]
            np.einsum(spec, prv[:, :, :-1], im, out=Mv)
            Mv += x[:, 3:] * tb
            Mv *= emsc[codes[i, :p]]
            np.einsum(spec, prv[:, :2, 1:], ii, out=cur[:, 1, 1:])
            # D = P * S, S the chunked cumsum of scaled M->D injections
            np.multiply(cur[:, 0, :-1], inj, out=Dv)
            for lo, hi, carry in ch:
                S = Dv[:, lo:hi]
                np.cumsum(S, axis=1, out=S)
                if carry is not None:
                    S += Dv[:, lo - 1 : lo] * carry
            Dv *= Pp
            # specials; xE sums the free local exits from every M state
            xE = Mv.sum(axis=1)
            x[:, :3] *= lp
            x[:, 1:3] += xE[:, None] * ex
            if packed:
                x[:, 3] = np.einsum("pk,pk->p", x[:, :2], mv)
            else:
                x[:, 3] = x[:, :2] @ mv
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
    c_move = gp.C_move[batch.models] if packed else gp.C_move
    with np.errstate(divide="ignore"):
        nats[order] = np.log(X[:, 2]) + logscale
    nats += c_move
    if guard is not None and packed:
        for m, lanes in gp.lanes(batch.models):
            guard[m].nonfinite += int(np.count_nonzero(~np.isfinite(nats[lanes])))
    elif guard is not None:
        guard.nonfinite += int(np.count_nonzero(~np.isfinite(nats)))
    return nats
