"""Parallel Lazy-F for SIMT warps (paper Section III.B, Figure 7).

The P7Viterbi Delete chain ``D[j] = max(M[j-1]+tMD[j-1], D[j-1]+tDD[j-1])``
is the only sequential dependency *within* a DP row.  HMMER's striped SSE
code resolves it with serial "Lazy-F" passes; the paper ports the idea to
warps:

* the warp walks the row in 32-position windows (outer loop);
* within a window, all 32 lanes compute candidate D-D improvements
  simultaneously and a warp vote ``__all(MD_score > DD_score)`` decides
  whether the window is stable; unstable windows repeat (inner
  fixed-point loop), stable windows let the warp advance, carrying the
  boundary D value to the next window;
* no synchronization is ever needed - the vote is a warp instruction.

Because windows are processed left to right and D chains only flow
rightward, a single sweep with converged windows yields the *exact*
Delete row (no multi-pass wrap like the striped layout needs).  Since a
large fraction of rows has no profitable D-D transition at all, most
windows converge after one vote - the reason Lazy-F beats both eager
evaluation and prefix sums on on-chip resources (paper Section III.B),
quantified by the ``abl-lazyf`` benchmark.

:func:`parallel_lazy_f` is the executable form of the procedure.  The
per-warp P7Viterbi kernel takes its exact Delete rows from the shared
lockstep pass instead and charges the votes with :func:`lazy_f_lanes`,
the procedure's closed form (the argument is in its docstring, and
``docs/engines.md``).
"""

from __future__ import annotations

import numpy as np

from ..constants import VF_WORD_MIN, WARP_SIZE
from ..errors import KernelError
from ..gpu.counters import KernelCounters
from ..scoring.quantized import sat_add_i16

__all__ = ["parallel_lazy_f", "lazy_f_lanes", "charge_lazy_f"]

_LANES_1 = np.arange(1, WARP_SIZE + 1, dtype=np.int8)  # lane + 1


def parallel_lazy_f(
    D: np.ndarray,
    tdd_enter: np.ndarray,
    counters: KernelCounters | None = None,
) -> np.ndarray:
    """Resolve the Delete chains of a batch of DP rows in place.

    Parameters
    ----------
    D:
        ``(n, M)`` int32 partial Delete rows holding only the M->D
        contributions (``D[j] = sat(M[j-1] + tMD[j-1])``); updated in
        place to the exact chain values.
    tdd_enter:
        ``(M,)`` D->D cost *entering* node j (i.e. ``tDD[j-1]``, with
        ``tdd_enter[0] = -32768``).
    counters:
        Charged one vote per inner iteration per live warp, plus the
        Lazy-F pass statistics.

    Returns
    -------
    The same array ``D`` (for chaining).
    """
    D = np.asarray(D)
    if D.ndim != 2:
        raise KernelError("parallel_lazy_f expects (n_warps, M) rows")
    n, M = D.shape
    if tdd_enter.shape != (M,):
        raise KernelError("tdd_enter must have one cost per model position")

    carry = np.full(n, VF_WORD_MIN, dtype=np.int32)  # D value left of window
    total_votes = 0  # one vote = one (row, window, iteration) triple
    for p0 in range(0, M, WARP_SIZE):
        p1 = min(p0 + WARP_SIZE, M)
        window = D[:, p0:p1]
        costs = tdd_enter[p0:p1]
        live = np.ones(n, dtype=bool)
        while True:
            # all lanes compute their D-D candidate from the lane to the
            # left (lane 0 from the inter-window carry register); each
            # live warp then votes on whether anything improved
            shifted = np.concatenate([carry[:, None], window[:, :-1]], axis=1)
            cand = sat_add_i16(shifted, costs)
            improves = cand > window
            total_votes += int(live.sum())
            live = live & improves.any(axis=1)
            if not live.any():
                break
            window[live] = np.maximum(window[live], cand[live])
        carry = window[:, -1].copy()
    if counters is not None:
        n_windows = -(-M // WARP_SIZE)
        counters.votes += total_votes
        counters.lazyf_rows_checked += n
        counters.lazyf_passes += total_votes
        # every row votes at least once per window; anything beyond that
        # is real D-D propagation work
        counters.lazyf_extra_passes += max(0, total_votes - n * n_windows)
    return D


def _starts(Mv: np.ndarray, tmd: np.ndarray) -> np.ndarray:
    """The M->D chain starts ``clip(Mv[j-1] + tmd[j-1])`` at nodes
    ``1..M-1``; ``tmd`` is ``(M,)`` or one ``(p, M)`` row per lane."""
    starts = Mv[:, :-1] + tmd[..., :-1]
    np.maximum(starts, VF_WORD_MIN, out=starts)
    return starts


def _window_runs(Dv: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Longest run of improved nodes in each 32-node window, one entry
    per (row, window), row-major."""
    n, M = starts.shape[0], starts.shape[1] + 1
    windows = -(-M // WARP_SIZE)
    # improved[r, j] with node j at column j (node 0 never improves),
    # padded to whole windows.  In a window, the run ending at lane l is
    # (l + 1) - (1 + the last unimproved lane at or before l, 0 if none),
    # and the longest run is its maximum
    improved = np.zeros((n * windows, WARP_SIZE), dtype=bool)
    np.greater(Dv, starts, out=improved.reshape(n, -1)[:, 1:M])
    last = np.maximum.accumulate(_LANES_1 * ~improved, axis=1)
    return (_LANES_1 - last).max(axis=1)


def lazy_f_lanes(
    Mv: np.ndarray, Dv: np.ndarray, tmd: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`parallel_lazy_f`'s votes for one row, per lane, in closed
    form: ``(entered, extra)``, whether each lane's row entered Lazy-F
    and its passes past the first vote of each window.

    ``Mv`` is a batch of exact Match rows ``(p, M)``, ``Dv`` their
    exact Delete rows at nodes ``1..M-1`` ``(p, M-1)``, and ``tmd`` the
    M->D links, ``(M,)`` or one ``(p, M)`` row per lane (a packed
    call's cut links).  A row enters Lazy-F when some M->D start
    ``clip(Mv[j-1] + tmd[j-1])``, ``j >= 1``, is above -32768 (the Dmax
    check).  Node ``j`` is *improved* when ``Dv[j]`` exceeds its start.
    The window's Jacobi fixed point gives an improved node its exact
    value after exactly as many iterations as there are consecutive
    improved nodes ending at it inside the window (every shorter chain
    starts at an improved node, below that node's exact value, so it
    ends strictly lower), and an unimproved node never changes.  So a
    window takes 1 + its longest run of improved nodes votes, and
    everything past the first vote is an extra pass.
    """
    n = Mv.shape[0]
    starts = _starts(Mv, tmd)
    entered = starts.max(axis=1, initial=VF_WORD_MIN) > VF_WORD_MIN
    return entered, _window_runs(Dv, starts).reshape(n, -1).sum(axis=1)


def charge_lazy_f(counters: KernelCounters, rows: int, windows: int,
                  extra: int) -> None:
    """Charge ``rows`` rows that entered Lazy-F over ``windows`` windows
    each, with ``extra`` passes past their first votes."""
    votes = rows * windows + extra
    counters.votes += votes
    counters.lazyf_rows_checked += rows
    counters.lazyf_passes += votes
    counters.lazyf_extra_passes += extra
