"""Sequence database container with the statistics the harness needs.

A :class:`SequenceDatabase` is an ordered, immutable collection of
:class:`~repro.sequence.sequence.DigitalSequence`.  Besides item access it
provides the aggregate quantities the performance model consumes (total
residues = total DP rows), padded code matrices for the vectorized engines,
residue-balanced chunking for multi-GPU partitioning, and length sorting
(a classic load-balance trick for warp-per-sequence execution).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence as AbcSequence
from dataclasses import dataclass

import numpy as np

from ..errors import SequenceError
from .sequence import DigitalSequence

__all__ = ["SequenceDatabase", "PaddedBatch"]


@dataclass(frozen=True)
class PaddedBatch:
    """Dense, padded view of a database used by vectorized engines.

    Attributes
    ----------
    codes:
        ``(n_seqs, max_len)`` uint8 matrix; slots beyond a sequence's length
        are filled with ``pad_code`` (an out-of-band value, 31).
    lengths:
        ``(n_seqs,)`` int64 true lengths.
    models:
        ``(n_seqs,)`` model index of each lane in a model-packed call
        (:mod:`repro.cpu.packing`), or None when every lane is scored by
        the one profile of the call.  Any lane subset or reorder must
        take the matching entries along.
    """

    codes: np.ndarray
    lengths: np.ndarray
    pad_code: int = 31
    models: np.ndarray | None = None

    @property
    def n_seqs(self) -> int:
        return int(self.codes.shape[0])

    @property
    def max_len(self) -> int:
        return int(self.codes.shape[1])

    def mask_at(self, row: int) -> np.ndarray:
        """Boolean mask of sequences still active at DP row ``row``."""
        return self.lengths > row


class SequenceDatabase(AbcSequence):
    """Ordered immutable collection of digital sequences."""

    def __init__(self, sequences: AbcSequence[DigitalSequence], name: str = "db"):
        if len(sequences) == 0:
            raise SequenceError("a sequence database cannot be empty")
        names = set()
        for seq in sequences:
            if seq.name in names:
                raise SequenceError(f"duplicate sequence name {seq.name!r}")
            names.add(seq.name)
        self._seqs: tuple[DigitalSequence, ...] = tuple(sequences)
        self.name = name
        self._lengths = np.array([len(s) for s in self._seqs], dtype=np.int64)

    # -- container protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self._seqs)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return SequenceDatabase(self._seqs[index], name=self.name)
        return self._seqs[index]

    def __iter__(self) -> Iterator[DigitalSequence]:
        return iter(self._seqs)

    # -- aggregate statistics ----------------------------------------------

    @property
    def lengths(self) -> np.ndarray:
        """Sequence lengths, in database order (read-only view)."""
        view = self._lengths.view()
        view.flags.writeable = False
        return view

    @property
    def total_residues(self) -> int:
        """Sum of all lengths: the number of DP rows each stage processes."""
        return int(self._lengths.sum())

    @property
    def mean_length(self) -> float:
        return float(self._lengths.mean())

    @property
    def max_length(self) -> int:
        return int(self._lengths.max())

    def describe(self) -> dict[str, float]:
        """Summary statistics used in reports and EXPERIMENTS.md."""
        return {
            "n_seqs": float(len(self)),
            "total_residues": float(self.total_residues),
            "mean_length": self.mean_length,
            "median_length": float(np.median(self._lengths)),
            "max_length": float(self.max_length),
        }

    # -- engine-facing views -------------------------------------------------

    def padded_batch(self, pad_code: int = 31) -> PaddedBatch:
        """Dense padded code matrix for lockstep vectorized scoring."""
        n, width = len(self), self.max_length
        codes = np.full((n, width), pad_code, dtype=np.uint8)
        for i, seq in enumerate(self._seqs):
            codes[i, : len(seq)] = seq.codes
        return PaddedBatch(codes=codes, lengths=self._lengths.copy(), pad_code=pad_code)

    def sorted_by_length(self, descending: bool = True) -> "SequenceDatabase":
        """Database reordered by length (warp load-balance heuristic)."""
        order = np.argsort(self._lengths, kind="stable")
        if descending:
            order = order[::-1]
        return SequenceDatabase([self._seqs[i] for i in order], name=self.name)

    def subset(self, indices: AbcSequence[int]) -> "SequenceDatabase":
        """Database restricted to the given indices (original order kept)."""
        return SequenceDatabase([self._seqs[i] for i in indices], name=self.name)

    def chunk_by_residues(self, n_chunks: int) -> list["SequenceDatabase"]:
        """Split into ``n_chunks`` contiguous parts of ~equal residue count.

        This is the multi-GPU partitioning rule: each device receives a
        share of total *residues* (not sequence count), because DP work is
        proportional to residues x model size.
        """
        if n_chunks < 1:
            raise SequenceError("n_chunks must be >= 1")
        if n_chunks > len(self):
            raise SequenceError(
                f"cannot split {len(self)} sequences into {n_chunks} chunks"
            )
        target = self.total_residues / n_chunks
        chunks: list[SequenceDatabase] = []
        start, acc = 0, 0
        for i, seq in enumerate(self._seqs):
            acc += len(seq)
            if len(chunks) >= n_chunks - 1:
                break
            chunks_left = n_chunks - len(chunks)  # including the open one
            seqs_left_after = len(self) - i - 1
            # close the open chunk once its cumulative residue quota is
            # met, or when every remaining sequence is needed to populate
            # the remaining chunks
            quota_met = acc >= target * (len(chunks) + 1)
            must_close = seqs_left_after == chunks_left - 1
            if must_close or (quota_met and seqs_left_after >= chunks_left - 1):
                chunks.append(SequenceDatabase(self._seqs[start : i + 1], self.name))
                start = i + 1
        chunks.append(SequenceDatabase(self._seqs[start:], self.name))
        return chunks

    def __repr__(self) -> str:
        return (
            f"SequenceDatabase(name={self.name!r}, n_seqs={len(self)}, "
            f"total_residues={self.total_residues})"
        )
