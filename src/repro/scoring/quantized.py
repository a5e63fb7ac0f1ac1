"""Saturating fixed-point arithmetic shared by every scoring engine.

The accuracy claim of the paper ("preserving the sensitivity and accuracy
of HMMER 3.0") rests on the GPU kernels computing *exactly* the same
quantized scores as the CPU filters.  We make that property testable by
construction: the scalar reference, the batched lockstep scorers and the
simulated warp kernels all call these helpers, so any divergence is a bug
in an engine, never a rounding discrepancy.

Values are carried in ``int32``/``int64`` NumPy arrays and clipped to the
semantics of the hardware type they model:

* ``u8``  - unsigned saturating bytes of the MSV filter
  (``_mm_adds_epu8`` / ``_mm_subs_epu8``),
* ``i16`` - signed saturating words of the ViterbiFilter
  (``_mm_adds_epi16``), where -32768 doubles as minus infinity.
"""

from __future__ import annotations

import numpy as np

from ..constants import MSV_BYTE_MAX, VF_WORD_MAX, VF_WORD_MIN

__all__ = [
    "sat_add_u8",
    "sat_sub_u8",
    "sat_add_i16",
    "clip_i16",
    "U8_ZERO",
    "I16_NEG_INF",
]

#: Floor of the unsigned byte system (acts as minus infinity in MSV).
U8_ZERO = 0

#: Floor of the signed word system (acts as minus infinity in ViterbiFilter).
I16_NEG_INF = VF_WORD_MIN


def sat_add_u8(a, b, guard=None):
    """``_mm_adds_epu8``: unsigned byte addition saturating at 255.

    ``guard`` is an optional
    :class:`~repro.scoring.guardrails.GuardrailCounters`: elements
    clipped at the 255 ceiling are tallied as ``saturations``.  Counting
    never changes the returned values.
    """
    r = np.asarray(a, dtype=np.int32) + np.asarray(b, dtype=np.int32)
    if guard is not None:
        guard.saturations += int(np.count_nonzero(r > MSV_BYTE_MAX))
    return np.clip(r, 0, MSV_BYTE_MAX)


def sat_sub_u8(a, b):
    """``_mm_subs_epu8``: unsigned byte subtraction saturating at 0."""
    r = np.asarray(a, dtype=np.int32) - np.asarray(b, dtype=np.int32)
    return np.clip(r, 0, MSV_BYTE_MAX)


def sat_add_i16(a, b, guard=None):
    """``_mm_adds_epi16``: signed word addition saturating at both ends.

    Matches the SSE artifact that HMMER accepts: a value pinned at -32768
    can be lifted above the floor again by adding a positive score.
    ``guard`` tallies elements clipped at either end as ``saturations``.
    """
    r = np.asarray(a, dtype=np.int32) + np.asarray(b, dtype=np.int32)
    if guard is not None:
        guard.saturations += int(
            np.count_nonzero((r < VF_WORD_MIN) | (r > VF_WORD_MAX))
        )
    return np.clip(r, VF_WORD_MIN, VF_WORD_MAX)


def clip_i16(a, out=None):
    """Pin a wide accumulator into the i16 lane range, optionally in
    place.

    The fused form of :func:`sat_add_i16` for the cross-sequence
    batched kernels: several already-saturated terms are combined with
    ``np.maximum`` / ``+`` in a wide dtype first, then clamped to
    ``[VF_WORD_MIN, VF_WORD_MAX]`` in one pass.  Because the clamp is
    monotone, clipping after a max-of-sums yields exactly the same
    values as maxing the per-term :func:`sat_add_i16` results, at a
    third of the passes over the lane-major state rows.
    """
    return np.clip(a, VF_WORD_MIN, VF_WORD_MAX, out=out)
