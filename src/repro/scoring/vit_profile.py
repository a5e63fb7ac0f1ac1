"""The ViterbiFilter's 16-bit ("word") scoring system.

HMMER 3.0 quantizes the full Plan-7 profile to signed 16-bit words in
1/500-bit units (``scale = 500 / ln 2``) around ``base = 12000``; -32768
serves as minus infinity and +32767 as the overflow sentinel.  Unlike the
MSV system there is no bias trick: emission and transition scores are
stored signed and added with saturating word arithmetic.

To keep the Viterbi engines (scalar reference, batched lockstep pass,
warp-synchronous GPU with parallel Lazy-F) trivially consistent, this
profile precomputes *enter* arrays indexed by the
destination node ``j`` (0-based): ``enter_mm[j]`` is the cost of reaching
``M_j`` from ``M_{j-1}``, with ``enter_*[0] = -inf`` since node 0 has no
predecessor.  NN/CC/JJ loops cost 0 in the filter and are restored by the
constant -2 nats at score time, as in ``vitfilter.c``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import LOG2, VF_BASE, VF_SCALE, VF_WORD_MAX, VF_WORD_MIN
from ..hmm.profile import SearchProfile

__all__ = ["ViterbiWordProfile"]

#: Missing NN/CC/JJ contribution restored at score time (nats), as HMMER.
_NCJ_CORRECTION = 2.0


def _wordify(scale: float, scores: np.ndarray) -> np.ndarray:
    """Quantize float nat scores to saturated int words (int32 storage)."""
    out = np.full(np.shape(scores), VF_WORD_MIN, dtype=np.int32)
    arr = np.asarray(scores, dtype=np.float64)
    finite = np.isfinite(arr)
    out[finite] = np.clip(
        np.rint(scale * arr[finite]).astype(np.int64), VF_WORD_MIN, VF_WORD_MAX
    ).astype(np.int32)
    return out


@dataclass(frozen=True)
class ViterbiWordProfile:
    """Quantized word profile consumed by every P7Viterbi engine.

    All arrays are int32 holding values within the int16 range.  The
    ``enter_*`` arrays are indexed by destination node (0-based); the
    ``tmi/tii/tmd/tdd`` arrays by source node.
    """

    M: int
    L: int
    rwv: np.ndarray        # (Kp, M) match emission scores
    tbm: int               # uniform local entry B -> M_j
    enter_mm: np.ndarray   # (M,) M_{j-1} -> M_j
    enter_im: np.ndarray   # (M,) I_{j-1} -> M_j
    enter_dm: np.ndarray   # (M,) D_{j-1} -> M_j
    tmi: np.ndarray        # (M,) M_j -> I_j
    tii: np.ndarray        # (M,) I_j -> I_j
    tmd: np.ndarray        # (M,) M_j -> D_{j+1}
    tdd: np.ndarray        # (M,) D_j -> D_{j+1}
    xE_move: int           # E -> C
    xE_loop: int           # E -> J
    xNJ_move: int          # N/J -> B
    base: int = VF_BASE
    scale: float = VF_SCALE

    @classmethod
    def from_profile(cls, profile: SearchProfile) -> "ViterbiWordProfile":
        """Quantize a float search profile into the word system."""
        scale = VF_SCALE
        neg_inf = np.array(float("-inf"))

        def shifted_enter(t: np.ndarray) -> np.ndarray:
            # cost of entering node j from node j-1; node 0 unreachable this way
            return _wordify(scale, np.concatenate(([neg_inf], t[:-1])))

        sp = profile.specials
        return cls(
            M=profile.M,
            L=profile.L,
            rwv=_wordify(scale, profile.msc),
            tbm=int(_wordify(scale, np.array(profile.tbm))),
            enter_mm=shifted_enter(profile.tmm),
            enter_im=shifted_enter(profile.tim),
            enter_dm=shifted_enter(profile.tdm),
            tmi=_wordify(scale, profile.tmi),
            tii=_wordify(scale, profile.tii),
            tmd=_wordify(scale, profile.tmd),
            tdd=_wordify(scale, profile.tdd),
            xE_move=int(_wordify(scale, np.array(sp.E_move))),
            xE_loop=int(_wordify(scale, np.array(sp.E_loop))),
            xNJ_move=int(_wordify(scale, np.array(sp.N_move))),
        )

    # -- score-space helpers --------------------------------------------------

    @property
    def init_xB(self) -> int:
        """Initial xB word: ``base + N->B move`` (N loop is free)."""
        return max(VF_WORD_MIN, self.base + self.xNJ_move)

    @property
    def overflow_threshold(self) -> int:
        """Row maxima at this word value mean overflow (report +inf)."""
        return VF_WORD_MAX

    def final_score_nats(self, xC: int) -> float:
        """Convert the final xC word (before C->T) into nats."""
        # C->T move cost equals the N/J move cost in this length model.
        return (xC + self.xNJ_move - self.base) / self.scale - _NCJ_CORRECTION

    def bits_from_nats(self, nats: float) -> float:
        return nats / LOG2

    def emission_row(self, code: int) -> np.ndarray:
        """Match emission words of one digital code across all nodes."""
        return self.rwv[code]

    def __repr__(self) -> str:
        return f"ViterbiWordProfile(M={self.M}, L={self.L})"
