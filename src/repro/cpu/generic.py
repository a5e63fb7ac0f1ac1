"""Full-precision generic engines: Viterbi, Forward and Backward.

These are the float64, natural-log-space implementations of the Plan-7
local search model - the unquantized ground truth the filters approximate,
and the oracle for the batched odds-space Forward
(:mod:`repro.cpu.forward_batch`) behind the pipeline's final stage.  The
recurrence uses the same node convention as the word profile:
``enter_*[j]`` is the cost of reaching node ``j`` from node ``j-1``.

The within-row Delete chain (max-plus for Viterbi, log-sum-exp for
Forward) is vectorized with a cumulative-transform trick: with
``C[k] = sum of chain costs``, every chain value is
``inject[m] + C[k] - C[m]``, i.e. a cumulative sum plus a running
max / log-sum-exp.  Impossible (-inf) D->D links split the positions into
independent segments so infinities never enter the cumulative sums (which
would otherwise destroy float precision).

The identity ``forward_score == backward_score`` (to float tolerance) is
enforced by the test suite, which pins both recurrences against each
other; Backward is implemented independently as a suffix recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError
from ..hmm.profile import SearchProfile

__all__ = [
    "GenericProfile",
    "generic_viterbi_score",
    "generic_forward_score",
    "generic_backward_score",
]

_NEG = float("-inf")


@dataclass(frozen=True)
class GenericProfile:
    """Float score arrays laid out for the generic engines."""

    M: int
    msc: np.ndarray       # (Kp, M)
    tbm: float
    enter_mm: np.ndarray  # (M,) destination-indexed (cost into node j)
    enter_im: np.ndarray
    enter_dm: np.ndarray
    tmi: np.ndarray       # (M,) source-indexed
    tii: np.ndarray
    tmd: np.ndarray
    tdd: np.ndarray
    tmm: np.ndarray       # (M,) source-indexed copies (Backward needs them)
    tim: np.ndarray
    tdm: np.ndarray
    E_move: float
    E_loop: float
    N_loop: float
    N_move: float
    C_loop: float
    C_move: float
    J_loop: float
    J_move: float

    @classmethod
    def from_profile(cls, profile: SearchProfile) -> "GenericProfile":
        def shifted(t: np.ndarray) -> np.ndarray:
            return np.concatenate(([_NEG], t[:-1]))

        sp = profile.specials
        return cls(
            M=profile.M,
            msc=profile.msc,
            tbm=profile.tbm,
            enter_mm=shifted(profile.tmm),
            enter_im=shifted(profile.tim),
            enter_dm=shifted(profile.tdm),
            tmi=profile.tmi,
            tii=profile.tii,
            tmd=profile.tmd,
            tdd=profile.tdd,
            tmm=profile.tmm,
            tim=profile.tim,
            tdm=profile.tdm,
            E_move=sp.E_move,
            E_loop=sp.E_loop,
            N_loop=sp.N_loop,
            N_move=sp.N_move,
            C_loop=sp.C_loop,
            C_move=sp.C_move,
            J_loop=sp.J_loop,
            J_move=sp.J_move,
        )


def _coerce(profile: SearchProfile | GenericProfile) -> GenericProfile:
    if isinstance(profile, SearchProfile):
        return GenericProfile.from_profile(profile)
    return profile


def _check_codes(codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size == 0:
        raise KernelError("codes must be a non-empty 1-D array")
    return codes


def _forward_segments(M: int, tdd: np.ndarray) -> list[tuple[int, int]]:
    """Half-open position ranges for the forward-direction Delete chain.

    The chain step into position ``j`` uses ``tdd[j-1]``; a -inf link
    there makes ``j`` start a new segment.
    """
    if M == 1:
        return [(0, 1)]
    bad = np.flatnonzero(~np.isfinite(tdd[: M - 1]))
    starts = np.concatenate(([0], bad + 1))
    starts = np.unique(starts)
    ends = np.concatenate((starts[1:], [M]))
    return list(zip(starts.tolist(), ends.tolist()))


def _d_chain(inject: np.ndarray, tdd: np.ndarray, combine_accumulate) -> np.ndarray:
    """Shared forward Delete-chain scan.

    Solves ``D[j] = combine(inject[j], D[j-1] + tdd[j-1])`` with
    ``D[-1] = -inf``, where ``inject[j]`` is the M->D hop arriving at
    ``j`` and ``combine`` is max (Viterbi) or log-sum-exp (Forward).
    """
    M = inject.shape[0]
    D = np.full(M, _NEG)
    for lo, hi in _forward_segments(M, tdd):
        n = hi - lo
        if n == 1:
            D[lo] = inject[lo]
            continue
        c = np.concatenate(([0.0], np.cumsum(tdd[lo : hi - 1])))  # C[k]
        g = inject[lo:hi] - c
        with np.errstate(invalid="ignore"):
            h = combine_accumulate(g)
        D[lo:hi] = c + h
    return D


def _max_d_chain(start: np.ndarray, tdd: np.ndarray) -> np.ndarray:
    """Viterbi Delete chain; ``start[i] = M[i] + tmd[i]`` enters ``i+1``."""
    inject = np.concatenate(([_NEG], start[:-1]))
    return _d_chain(inject, tdd, np.maximum.accumulate)


def _lse_d_chain(start: np.ndarray, tdd: np.ndarray) -> np.ndarray:
    """Forward Delete chain (log-sum-exp semiring)."""
    inject = np.concatenate(([_NEG], start[:-1]))
    return _d_chain(inject, tdd, np.logaddexp.accumulate)


def _shift(a: np.ndarray) -> np.ndarray:
    """Value at node j-1 aligned to node j (node 0 gets -inf)."""
    out = np.empty_like(a)
    out[0] = _NEG
    out[1:] = a[:-1]
    return out


def _rshift(a: np.ndarray) -> np.ndarray:
    """Value at node j+1 aligned to node j (node M-1 gets -inf)."""
    out = np.empty_like(a)
    out[-1] = _NEG
    out[:-1] = a[1:]
    return out


def _lse_total(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return _NEG
    mx = finite.max()
    return float(mx + np.log(np.exp(finite - mx).sum()))


def generic_viterbi_score(
    profile: SearchProfile | GenericProfile, codes: np.ndarray
) -> float:
    """Optimal-alignment (Viterbi) log-odds score in nats, full precision."""
    gp = _coerce(profile)
    codes = _check_codes(codes)
    M = gp.M
    Mp = np.full(M, _NEG)
    Ip = Mp.copy()
    Dp = Mp.copy()
    xN, xJ, xC = 0.0, _NEG, _NEG
    xB = xN + gp.N_move
    with np.errstate(invalid="ignore"):
        for x in codes:
            rs = gp.msc[int(x)]
            sv = np.maximum(xB + gp.tbm, _shift(Mp) + gp.enter_mm)
            sv = np.maximum(sv, _shift(Ip) + gp.enter_im)
            sv = np.maximum(sv, _shift(Dp) + gp.enter_dm)
            Mv = sv + rs
            Iv = np.maximum(Mp + gp.tmi, Ip + gp.tii)
            Dv = _max_d_chain(Mv + gp.tmd, gp.tdd)
            xE = float(Mv.max())
            xN = xN + gp.N_loop
            xJ = max(xJ + gp.J_loop, xE + gp.E_loop)
            xC = max(xC + gp.C_loop, xE + gp.E_move)
            xB = max(xN + gp.N_move, xJ + gp.J_move)
            Mp, Ip, Dp = Mv, Iv, Dv
    return xC + gp.C_move


def generic_forward_score(
    profile: SearchProfile | GenericProfile, codes: np.ndarray
) -> float:
    """Forward log-odds score in nats: sum over all alignments."""
    gp = _coerce(profile)
    codes = _check_codes(codes)
    M = gp.M
    Mp = np.full(M, _NEG)
    Ip = Mp.copy()
    Dp = Mp.copy()
    xN, xJ, xC = 0.0, _NEG, _NEG
    xB = xN + gp.N_move
    with np.errstate(invalid="ignore"):
        for x in codes:
            rs = gp.msc[int(x)]
            sv = np.logaddexp(xB + gp.tbm, _shift(Mp) + gp.enter_mm)
            sv = np.logaddexp(sv, _shift(Ip) + gp.enter_im)
            sv = np.logaddexp(sv, _shift(Dp) + gp.enter_dm)
            Mv = sv + rs
            Iv = np.logaddexp(Mp + gp.tmi, Ip + gp.tii)
            Dv = _lse_d_chain(Mv + gp.tmd, gp.tdd)
            xE = _lse_total(Mv)  # free local exit from every match state
            xN = xN + gp.N_loop
            xJ = np.logaddexp(xJ + gp.J_loop, xE + gp.E_loop)
            xC = np.logaddexp(xC + gp.C_loop, xE + gp.E_move)
            xB = np.logaddexp(xN + gp.N_move, xJ + gp.J_move)
            Mp, Ip, Dp = Mv, Iv, Dv
    return float(xC + gp.C_move)


def _reverse_lse_chain(start: np.ndarray, tdd: np.ndarray) -> np.ndarray:
    """Reverse Delete chain: ``bD[j] = lse(start[j], tdd[j] + bD[j+1])``.

    ``start[j]`` is the D_j -> M_{j+1} contribution.  Solved right to
    left with the same segmented cumulative transform.
    """
    M = start.shape[0]
    s = start[::-1]
    t = tdd[::-1]  # r[k] = lse(s[k], t[k] + r[k-1])
    out = np.full(M, _NEG)
    bad = np.flatnonzero(~np.isfinite(t))
    starts = np.unique(np.concatenate(([0], bad)))
    ends = np.concatenate((starts[1:], [M]))
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        n = hi - lo
        if n == 1:
            out[lo] = s[lo]
            continue
        c = np.concatenate(([0.0], np.cumsum(t[lo + 1 : hi])))  # C[k], C[0]=0
        g = s[lo:hi] - c
        with np.errstate(invalid="ignore"):
            u = np.logaddexp.accumulate(g)
        out[lo:hi] = c + u
    return out[::-1]


def generic_backward_score(
    profile: SearchProfile | GenericProfile, codes: np.ndarray
) -> float:
    """Backward log-odds score in nats; equals the Forward score."""
    gp = _coerce(profile)
    codes = _check_codes(codes)
    L = codes.size
    M = gp.M

    with np.errstate(invalid="ignore"):
        # row L: all residues emitted; only exit paths remain.
        xC_b = gp.C_move
        xJ_b = _NEG
        xN_b = _NEG
        xE_b = gp.E_move + xC_b
        bM = np.full(M, xE_b)  # M_j -> E with free local exit
        bI = np.full(M, _NEG)
        bD = np.full(M, _NEG)  # no D -> E exit in this model

        for i in range(L - 1, -1, -1):
            em_next = gp.msc[int(codes[i])]  # residue consumed entering row i+1
            mj1 = _rshift(bM)                # bM[i+1] at node j+1
            emj1 = _rshift(em_next)
            # specials at row i (before overwriting core rows)
            xB_b = _lse_total(gp.tbm + em_next + bM)
            xC_b = gp.C_loop + xC_b
            xJ_b = np.logaddexp(gp.J_loop + xJ_b, gp.J_move + xB_b)
            xE_b = np.logaddexp(gp.E_move + xC_b, gp.E_loop + xJ_b)
            xN_b = np.logaddexp(gp.N_loop + xN_b, gp.N_move + xB_b)
            # core states at row i
            bD_new = _reverse_lse_chain(gp.tdm + emj1 + mj1, gp.tdd)
            bM_new = np.logaddexp(np.full(M, xE_b), gp.tmm + emj1 + mj1)
            bM_new = np.logaddexp(bM_new, gp.tmi + bI)
            bM_new = np.logaddexp(bM_new, gp.tmd + _rshift(bD_new))
            bI_new = np.logaddexp(gp.tim + emj1 + mj1, gp.tii + bI)
            bM, bI, bD = bM_new, bI_new, bD_new

        # S -> N is free; N at row 0 must route through xN_b
    return float(xN_b)
