"""Model packing: one lockstep call over several profiles' lanes.

A scan launch group's P7Viterbi and Forward stages score every model's
survivors in one call (the CUDAMPF++ economy: many small models per
launch).  The group's profiles are padded to its largest ``M`` and
stacked along a leading model axis; each lane of the packed
:class:`~repro.sequence.database.PaddedBatch` names its model in
``models``, and the lockstep passes gather that model's rows per lane.

Pad nodes can never enter a path: every cost into a pad node, and its
emission, is the system's minus infinity (the -32768 word floor, or
odds 0 in float), and the Delete chain is cut after each model's last
node.  Every real cell therefore keeps its one-model value, and every
pad cell stays at minus infinity, so ``xE``, the overflow test, the
saturation tally and the Lazy-F votes see only the model's own nodes.
The full argument is in ``docs/engines.md`` ("Model packing").

A packed call's accumulators (guardrail and kernel counters) are
sequences with one entry per model, in pack order, and each model is
charged what its own call would have been.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import VF_WORD_MAX, VF_WORD_MIN
from ..errors import KernelError
from ..sequence.database import PaddedBatch

__all__ = [
    "CHAIN_CUT",
    "PackedWordProfile",
    "PackedGenericProfile",
    "pack_batch",
    "is_packed",
    "per_model",
]

#: The Delete-chain link after a model's last node in the int64 scan
#: carrier: far below any chain value a word row can reach, so every
#: chain that crosses it ends at the -32768 floor.
CHAIN_CUT = -(1 << 40)

_NEG = float("-inf")


def _pad(rows, M: int, fill, dtype) -> np.ndarray:
    """Stack ``(..., M_g)`` arrays into ``(G, ..., M)``, ``fill`` beyond."""
    first = np.asarray(rows[0])
    out = np.full((len(rows),) + first.shape[:-1] + (M,), fill, dtype=dtype)
    for g, row in enumerate(rows):
        row = np.asarray(row)
        out[g, ..., : row.shape[-1]] = row
    return out


def _past_last(Ms: np.ndarray, M: int, offset: int = 0) -> np.ndarray:
    """``(G, M)`` mask of the nodes at or past ``M_g - 1 + offset``."""
    return np.arange(M) >= (Ms - 1 + offset)[:, None]


@dataclass(frozen=True)
class _Pack:
    """What every pack shares: the profiles and the lane bookkeeping."""

    profiles: tuple
    M: int           # the group's largest model length
    Ms: np.ndarray   # (G,) each model's own length
    kp: int          # emission rows per model

    def lane_codes(self, batch: PaddedBatch) -> np.ndarray:
        """Residue codes offset into the stacked emission table: lane
        code ``c`` of model ``g`` reads row ``g * kp + c``."""
        return batch.codes + (self.kp * batch.models.astype(np.int64))[:, None]

    def lanes(self, models: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """``(model, lane indices)`` of every model with lanes here."""
        out = []
        for g in range(len(self.profiles)):
            idx = np.flatnonzero(models == g)
            if idx.size:
                out.append((g, idx))
        return out


@dataclass(frozen=True)
class PackedWordProfile(_Pack):
    """Viterbi word profiles stacked for one packed lockstep call.

    Tables are ``(G, M)`` and indexed like the one-model profile's
    ``(M,)`` rows; every pad entry is -32768.  ``tbm`` is per node so
    that B->M entry into a pad node is -32768 too.  The Delete links
    are ``tmd_cut`` and ``tdd_cut``, in the int64 carrier the Delete
    scan and the Lazy-F tally read: the model's own links, with every
    link from its last node on set to :data:`CHAIN_CUT`.
    """

    rwv: np.ndarray = None        # (G * kp, M)
    tbm: np.ndarray = None        # (G, M)
    enter_mm: np.ndarray = None   # (G, M)
    enter_im: np.ndarray = None
    enter_dm: np.ndarray = None
    tmi: np.ndarray = None
    tii: np.ndarray = None
    tmd_cut: np.ndarray = None    # (G, M) int64
    tdd_cut: np.ndarray = None    # (G, M) int64
    xE_move: np.ndarray = None    # (G,)
    xE_loop: np.ndarray = None
    xNJ_move: np.ndarray = None
    base: np.ndarray = None
    init_xB: np.ndarray = None
    scale: np.ndarray = None      # (G,) float
    overflow_threshold: int = VF_WORD_MAX

    @classmethod
    def pack(cls, profiles) -> "PackedWordProfile":
        profiles = tuple(profiles)
        Ms = np.array([p.M for p in profiles], dtype=np.int64)
        M = int(Ms.max())
        kp = int(profiles[0].rwv.shape[0])
        i32, floor = np.int32, VF_WORD_MIN

        def table(name):
            return _pad([getattr(p, name) for p in profiles], M, floor, i32)

        def scalars(name, dtype=np.int64):
            return np.array([getattr(p, name) for p in profiles], dtype=dtype)

        def cut(name):
            return np.where(_past_last(Ms, M), CHAIN_CUT,
                            table(name).astype(np.int64))

        return cls(
            profiles=profiles, M=M, Ms=Ms, kp=kp,
            rwv=table("rwv").reshape(-1, M),
            tbm=np.where(~_past_last(Ms, M, 1), scalars("tbm")[:, None],
                         floor).astype(i32),
            enter_mm=table("enter_mm"), enter_im=table("enter_im"),
            enter_dm=table("enter_dm"), tmi=table("tmi"), tii=table("tii"),
            tmd_cut=cut("tmd"), tdd_cut=cut("tdd"),
            xE_move=scalars("xE_move"), xE_loop=scalars("xE_loop"),
            xNJ_move=scalars("xNJ_move"), base=scalars("base"),
            init_xB=scalars("init_xB"), scale=scalars("scale", np.float64),
        )


@dataclass(frozen=True)
class PackedGenericProfile(_Pack):
    """Float profiles stacked for one packed Forward call.

    Tables are ``(G, M)`` in log space, every pad cost and emission
    -inf (odds 0), except the Delete chain: it runs free (``tdd`` 0)
    from a shorter model's last node through its pads, which no M->D
    hop enters (``tmd`` -inf).  A pad Delete cell thus copies the last
    real one, and the model adds no chunk boundary to the pack's.
    """

    msc: np.ndarray = None        # (G * kp, M)
    enter_mm: np.ndarray = None   # (G, M)
    enter_im: np.ndarray = None
    enter_dm: np.ndarray = None
    tmi: np.ndarray = None
    tii: np.ndarray = None
    tmd: np.ndarray = None
    tdd: np.ndarray = None
    tbm: np.ndarray = None        # (G,) float, like every special below
    E_move: np.ndarray = None
    E_loop: np.ndarray = None
    N_loop: np.ndarray = None
    N_move: np.ndarray = None
    C_loop: np.ndarray = None
    C_move: np.ndarray = None
    J_loop: np.ndarray = None
    J_move: np.ndarray = None

    @classmethod
    def pack(cls, profiles) -> "PackedGenericProfile":
        profiles = tuple(profiles)
        Ms = np.array([p.M for p in profiles], dtype=np.int64)
        M = int(Ms.max())
        kp = int(profiles[0].msc.shape[0])

        def table(name):
            return _pad([getattr(p, name) for p in profiles], M, _NEG,
                        np.float64)

        past = _past_last(Ms, M)
        tmd = np.where(past, _NEG, table("tmd"))
        tdd = np.where(past, 0.0, table("tdd"))
        specials = ("tbm", "E_move", "E_loop", "N_loop", "N_move", "C_loop",
                    "C_move", "J_loop", "J_move")
        return cls(
            profiles=profiles, M=M, Ms=Ms, kp=kp,
            msc=table("msc").reshape(-1, M),
            enter_mm=table("enter_mm"), enter_im=table("enter_im"),
            enter_dm=table("enter_dm"), tmi=table("tmi"), tii=table("tii"),
            tmd=tmd, tdd=tdd,
            **{name: np.array([getattr(p, name) for p in profiles],
                              dtype=np.float64) for name in specials},
        )


def is_packed(profile, batch: PaddedBatch) -> bool:
    """True for a packed call; raises when profile and batch disagree."""
    packed = isinstance(profile, _Pack)
    if packed != (batch.models is not None):
        raise KernelError(
            "a packed profile needs a batch with per-lane model indices, "
            "and a one-model profile a batch without them"
        )
    return packed


def per_model(profile, batch: PaddedBatch, acc=None):
    """``(profile, lanes, accumulator)`` of each model a call scores.

    A one-model call yields its profile, every lane and ``acc`` itself;
    a packed call yields each model with lanes, its lane indices and
    its entry of the per-model ``acc`` (None stays None).
    """
    if not is_packed(profile, batch):
        return [(profile, np.arange(batch.n_seqs), acc)]
    return [
        (profile.profiles[m], lanes, None if acc is None else acc[m])
        for m, lanes in profile.lanes(batch.models)
    ]


def pack_batch(batch: PaddedBatch, lanes) -> PaddedBatch:
    """The packed batch of per-model lane sets, model-major.

    ``lanes[g]`` lists the rows of ``batch`` scored under model ``g``;
    a row listed under two models becomes two lanes.
    """
    idx = np.concatenate([np.asarray(rows, dtype=np.int64) for rows in lanes])
    models = np.repeat(np.arange(len(lanes)), [len(rows) for rows in lanes])
    lengths = batch.lengths[idx]
    width = int(lengths.max(initial=0))
    return PaddedBatch(
        codes=batch.codes[idx, :width], lengths=lengths,
        pad_code=batch.pad_code, models=models,
    )

