"""Result containers and lane blocking shared by the scoring engines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError
from ..sequence.database import PaddedBatch

__all__ = ["FilterScores", "LANE_BLOCK", "lane_blocks", "live_counts", "retire"]

#: Lanes per lockstep block of the batch filter scorers.  A block's DP
#: state rows stay small enough to sit in cache while every row's NumPy
#: calls still span about a thousand lanes.
LANE_BLOCK = 1024


@dataclass(frozen=True)
class FilterScores:
    """Scores (nats) for a batch of sequences from one filter stage.

    Attributes
    ----------
    scores:
        ``(n,)`` float64 scores in nats; +inf where the quantized system
        overflowed (the sequence unconditionally passes the stage).
    overflowed:
        ``(n,)`` boolean overflow flags.
    """

    scores: np.ndarray
    overflowed: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.scores, dtype=np.float64)
        o = np.asarray(self.overflowed, dtype=bool)
        if s.shape != o.shape or s.ndim != 1:
            raise KernelError("scores and overflowed must be matching 1-D arrays")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "overflowed", o)

    def __len__(self) -> int:
        return int(self.scores.size)

    def bits(self) -> np.ndarray:
        """Scores converted from nats to bits."""
        return self.scores / np.log(2.0)


def lane_blocks(batch: PaddedBatch):
    """Yield ``(ids, lengths)`` for each lockstep lane block.

    Lanes are the batch's sequences sorted longest first (stable, so
    equal lengths keep batch order), zero-length ones dropped (they
    have no DP rows), cut into blocks of at most :data:`LANE_BLOCK`.
    Row ``i`` of the block's live lanes reads residues
    ``batch.codes[ids[:p], i]``; no per-block copy of the residues is
    made, which keeps a long first block from raising peak memory.
    """
    order = np.argsort(-batch.lengths, kind="stable")
    n = int(np.count_nonzero(batch.lengths))
    for start in range(0, n, LANE_BLOCK):
        ids = order[start : start + LANE_BLOCK]
        yield ids, batch.lengths[ids]


def live_counts(lengths: np.ndarray, width: int) -> np.ndarray:
    """``live[i]`` = number of lanes longer than ``i``.

    With ``lengths`` sorted descending those lanes are a prefix, so
    row ``i`` of a lockstep pass works on the first ``live[i]`` lanes.
    """
    return np.searchsorted(-lengths, -np.arange(width), side="left")


def retire(hit, p, row, ids, overflowed, rows_run, state) -> np.ndarray:
    """Retire the live lanes ``[:p]`` flagged in ``hit`` after ``row``.

    Latches them as overflowed with ``row + 1`` rows run, compacts them
    out of the live prefix of every ``state`` array in place, and
    returns the keep mask for the block's per-lane arrays.
    """
    gone = ids[:p][hit]
    overflowed[gone] = True
    rows_run[gone] = row + 1
    for rows in state:
        rows[: p - gone.size] = rows[:p][~hit]
    keep = np.ones(ids.size, dtype=bool)
    keep[:p] = ~hit
    return keep
