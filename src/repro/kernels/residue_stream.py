"""The packed residue stream consumed by the warp kernels (Figure 6).

With ``packed_residues=True`` the per-warp kernels read their residues
from the 5-bit packed 32-bit word stream instead of a byte array: row
``i`` is word ``i // 6``, sub-field ``(5 - i % 6) * 5`` bits up, with
flag 31 marking slots past the end of a sequence.  This helper owns the
padded word matrix and the decode so the kernels share one faithful
implementation.
"""

from __future__ import annotations

import numpy as np

from ..alphabet.packing import pack_residues
from ..errors import KernelError
from ..sequence.database import PaddedBatch
from ..sequence.database import SequenceDatabase

__all__ = ["PackedResidueStream"]


class PackedResidueStream:
    """Per-warp packed residue words, padded with all-terminator words."""

    def __init__(
        self,
        batch: PaddedBatch,
        source_db: SequenceDatabase | None = None,
    ) -> None:
        n = batch.n_seqs
        lengths = self.lengths = batch.lengths
        if source_db is not None:
            per_seq = [seq.packed() for seq in source_db]
        else:
            per_seq = [
                pack_residues(batch.codes[i, : int(lengths[i])])
                for i in range(n)
            ]
        max_words = max(w.size for w in per_seq)
        self.words = np.full((n, max_words), 0xFFFFFFFF, dtype=np.uint32)
        for i, w in enumerate(per_seq):
            self.words[i, : w.size] = w

    def codes_at(self, i: int | np.ndarray, active: np.ndarray) -> np.ndarray:
        """Decode row ``i``'s residue for every warp.

        ``i`` may also be an array of rows, with ``active`` shaped
        ``(n, rows)``; the kernels decode all rows in one call.  The
        terminator flags must agree with the caller's length bookkeeping:
        a divergence means the packer and the batch disagree about
        sequence ends, and raises :class:`~repro.errors.KernelError`
        rather than returning wrong codes.
        """
        i = np.asarray(i)
        shift = ((5 - i % 6) * 5).astype(np.uint32)
        fields = (self.words[:, i // 6] >> shift) & np.uint32(31)
        if not ((fields == 31) == ~active).all():
            raise KernelError(
                "packed residue terminators disagree with the sequence lengths"
            )
        return np.where(active, fields, 0).astype(np.intp)

    def decoded(self) -> PaddedBatch:
        """Every row decoded at once: the batch the lockstep pass reads."""
        rows = np.arange(int(self.lengths.max(initial=0)))
        codes = self.codes_at(rows, self.lengths[:, None] > rows)
        return PaddedBatch(codes=codes.astype(np.uint8), lengths=self.lengths)
