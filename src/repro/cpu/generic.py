"""Full-precision generic engines: Viterbi, Forward and Backward.

These are the float64, natural-log-space implementations of the Plan-7
local search model - the unquantized ground truth the filters approximate,
and the oracle for the batched odds-space Forward
(:mod:`repro.cpu.forward_batch`) behind the pipeline's final stage.  The
recurrence uses the same node convention as the word profile:
``enter_*[j]`` is the cost of reaching node ``j`` from node ``j-1``.

The recurrence is written once per direction.  :func:`_forward_pass` runs
it left to right in a semiring - max-plus for Viterbi, log-sum-exp for
Forward - and :func:`_backward_pass` runs the log-sum-exp suffix
recurrence right to left.  Both keep their state rows only when asked:
the score functions hold one row at a time, while posterior decoding
(:mod:`repro.cpu.posterior`) and traceback (:mod:`repro.cpu.traceback`)
read the kept matrices.

The within-row Delete chain is vectorized with a cumulative-transform
trick: with ``C[k] = sum of chain costs``, every chain value is
``inject[m] + C[k] - C[m]``, i.e. a cumulative sum plus a running
max / log-sum-exp.  Impossible (-inf) D->D links split the positions into
independent segments so infinities never enter the cumulative sums (which
would otherwise destroy float precision).  Backward's chain runs right to
left: the same scan over the reversed nodes and links.

The identity ``forward_score == backward_score`` (to float tolerance) is
enforced by the test suite, which pins the two passes against each other."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

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

# Delete-chain segments of one profile: (lo, hi, cumulative link costs)
_Plan = list[tuple[int, int, np.ndarray]]


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


def _check_codes(gp: GenericProfile, codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.size == 0:
        raise KernelError("codes must be a non-empty 1-D array")
    kp = gp.msc.shape[0]
    if codes.min() < 0 or codes.max() >= kp:
        raise KernelError(f"residue codes must lie in [0, {kp})")
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


def _chain_plan(M: int, links: np.ndarray) -> _Plan:
    """The Delete chain's segments with their cumulative link costs.

    ``links[j-1]`` joins position ``j-1`` to ``j``.  Each entry is
    ``(lo, hi, C)`` with ``C[k]`` the summed links from ``lo`` to
    ``lo + k``; they are profile constants, so a pass builds them once.
    """
    return [
        (lo, hi, np.concatenate(([0.0], np.cumsum(links[lo : hi - 1]))))
        for lo, hi in _forward_segments(M, links)
    ]


def _d_chain(inject: np.ndarray, plan: _Plan, scan) -> np.ndarray:
    """Shared Delete-chain scan.

    Solves ``D[j] = combine(inject[j], D[j-1] + links[j-1])`` with
    ``D[-1] = -inf``, where ``inject[j]`` is the hop arriving at ``j``
    from outside the chain, ``combine`` is max (Viterbi) or log-sum-exp
    (Forward, Backward) and ``scan`` its running form.  Callers run it
    under ``np.errstate(invalid="ignore")``.
    """
    D = np.empty_like(inject)
    for lo, hi, c in plan:
        D[lo:hi] = c + scan(inject[lo:hi] - c)
    return D


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


class _Semiring(NamedTuple):
    """How a pass combines alternative paths into one score."""

    plus: np.ufunc                           # two alternatives
    total: Callable[[np.ndarray], float]     # every entry of a row
    scan: Callable[[np.ndarray], np.ndarray]  # running combine along a row


_MAX_PLUS = _Semiring(np.maximum, lambda v: float(v.max()), np.maximum.accumulate)
_LOG_SUM_EXP = _Semiring(np.logaddexp, _lse_total, np.logaddexp.accumulate)


def _forward_pass(
    gp: GenericProfile, codes: np.ndarray, sr: _Semiring, keep: bool = False
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The Plan-7 recurrence left to right: Viterbi or Forward by ``sr``.

    Returns ``(score, X, rows)``.  ``X[r]`` holds the N, B, E, J, C specials
    after ``r`` residues, shape ``(L+1, 5)``.  ``rows[i]`` holds the M, I,
    D states of residue ``i``, shape ``(L, 3, M)``, kept only when
    ``keep`` is set (else ``None``), so a score costs one row of memory.
    """
    L, M = codes.size, gp.M
    plus = sr.plus
    X = np.full((L + 1, 5), _NEG)
    rows = np.full((L, 3, M), _NEG) if keep else None
    plan = _chain_plan(M, gp.tdd)
    Mp = Ip = Dp = np.full(M, _NEG)
    xN, xJ, xC = 0.0, _NEG, _NEG
    xB = xN + gp.N_move
    X[0, :2] = xN, xB
    with np.errstate(invalid="ignore"):
        for i, x in enumerate(codes):
            sv = plus(xB + gp.tbm, _shift(Mp) + gp.enter_mm)
            sv = plus(sv, _shift(Ip) + gp.enter_im)
            sv = plus(sv, _shift(Dp) + gp.enter_dm)
            Mv = sv + gp.msc[int(x)]
            Iv = plus(Mp + gp.tmi, Ip + gp.tii)
            Dv = _d_chain(_shift(Mv + gp.tmd), plan, sr.scan)
            xE = sr.total(Mv)  # free local exit from every match state
            xN = xN + gp.N_loop
            xJ = plus(xJ + gp.J_loop, xE + gp.E_loop)
            xC = plus(xC + gp.C_loop, xE + gp.E_move)
            xB = plus(xN + gp.N_move, xJ + gp.J_move)
            X[i + 1] = xN, xB, xE, xJ, xC
            if rows is not None:
                rows[i] = Mv, Iv, Dv
            Mp, Ip, Dp = Mv, Iv, Dv
    return float(xC + gp.C_move), X, rows


def _backward_pass(
    gp: GenericProfile, codes: np.ndarray, keep: bool = False
) -> tuple[float, np.ndarray | None]:
    """The log-sum-exp suffix recurrence, right to left.

    Returns ``(score, rows)``: the Backward score (N at row 0) and, when
    ``keep`` is set, the M and I states after residue ``i`` in
    ``rows[i]``, shape ``(L, 2, M)``.  The Delete chain runs right to
    left, which is :func:`_d_chain` over the reversed nodes with the
    reversed links ``tdd[-2::-1]``: the same segments and the same
    cumulative sums as a scan written for that direction.
    """
    L, M = codes.size, gp.M
    rows = np.full((L, 2, M), _NEG) if keep else None
    plan = _chain_plan(M, gp.tdd[-2::-1])
    lse = np.logaddexp
    with np.errstate(invalid="ignore"):
        # after the last residue only exit paths remain
        xC, xJ, xN = gp.C_move, _NEG, _NEG
        xE = gp.E_move + xC
        bM = np.full(M, xE)  # M_j -> E with free local exit
        bI = np.full(M, _NEG)
        for i in range(L - 1, -1, -1):
            if rows is not None:
                rows[i] = bM, bI
            em = gp.msc[int(codes[i])]  # residue consumed entering row i+1
            mj1 = _rshift(bM)           # bM at node j+1
            emj1 = _rshift(em)
            xB = _lse_total(gp.tbm + em + bM)
            xC = gp.C_loop + xC
            xJ = lse(gp.J_loop + xJ, gp.J_move + xB)
            xE = lse(gp.E_move + xC, gp.E_loop + xJ)
            xN = lse(gp.N_loop + xN, gp.N_move + xB)
            bD = _d_chain((gp.tdm + emj1 + mj1)[::-1], plan, lse.accumulate)[::-1]
            bMi = lse(xE, gp.tmm + emj1 + mj1)
            bMi = lse(bMi, gp.tmi + bI)
            bI = lse(gp.tim + emj1 + mj1, gp.tii + bI)
            bM = lse(bMi, gp.tmd + _rshift(bD))
    return float(xN), rows


def generic_viterbi_score(
    profile: SearchProfile | GenericProfile, codes: np.ndarray
) -> float:
    """Optimal-alignment (Viterbi) log-odds score in nats, full precision."""
    gp = _coerce(profile)
    return _forward_pass(gp, _check_codes(gp, codes), _MAX_PLUS)[0]


def generic_forward_score(
    profile: SearchProfile | GenericProfile, codes: np.ndarray
) -> float:
    """Forward log-odds score in nats: sum over all alignments."""
    gp = _coerce(profile)
    return _forward_pass(gp, _check_codes(gp, codes), _LOG_SUM_EXP)[0]


def generic_backward_score(
    profile: SearchProfile | GenericProfile, codes: np.ndarray
) -> float:
    """Backward log-odds score in nats; equals the Forward score."""
    gp = _coerce(profile)
    return _backward_pass(gp, _check_codes(gp, codes))[0]
