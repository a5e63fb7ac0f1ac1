"""``hmmalign``-style multiple alignment of sequences to a profile.

Each sequence is Viterbi-aligned to the model; the per-sequence paths
are then merged into one multiple alignment whose columns are the model's
match states, with lowercase insert columns padded to the widest insert
run observed at each position (HMMER's alignment convention: match
residues uppercase, deletions ``-``, inserts lowercase, insert padding
``.``).
"""

from __future__ import annotations

from collections.abc import Sequence as AbcSequence

import numpy as np

from ..alphabet import AMINO
from ..errors import KernelError
from ..hmm.profile import SearchProfile
from .generic import GenericProfile, _coerce
from .traceback import viterbi_traceback

__all__ = ["align_to_profile"]


def _sequence_columns(gp: GenericProfile, codes: np.ndarray):
    """Per-model-node characters and insert runs for one sequence."""
    alignment = viterbi_traceback(gp, codes)
    if not alignment.domains:
        raise KernelError("sequence has no aligned domain")
    # use the longest domain (hmmalign aligns the full sequence; for the
    # multihit corner we keep the dominant hit)
    domain = max(alignment.domains, key=lambda d: len(d.steps))
    match_char = ["-"] * gp.M
    inserts: dict[int, list[str]] = {}
    seen_node = np.zeros(gp.M, dtype=bool)
    for step in domain.steps:
        if step.state == "M":
            match_char[step.node] = AMINO.symbols[int(codes[step.residue])]
            seen_node[step.node] = True
        elif step.state == "D":
            match_char[step.node] = "-"
            seen_node[step.node] = True
        elif step.state == "I":
            inserts.setdefault(step.node, []).append(
                AMINO.symbols[int(codes[step.residue])].lower()
            )
    # nodes outside the local alignment render as '-' too (local align)
    return match_char, inserts


def align_to_profile(
    profile: SearchProfile | GenericProfile,
    sequences: AbcSequence,
) -> list[str]:
    """Align sequences to the profile; returns equal-width MSA rows.

    ``sequences`` may be :class:`~repro.sequence.DigitalSequence` objects
    or raw digital code arrays.
    """
    gp = _coerce(profile)
    if len(sequences) == 0:
        raise KernelError("nothing to align")
    per_seq = []
    for seq in sequences:
        codes = np.asarray(getattr(seq, "codes", seq))
        per_seq.append(_sequence_columns(gp, codes))

    # widest insert run after each node across all sequences
    widths = np.zeros(gp.M, dtype=int)
    for _, inserts in per_seq:
        for node, run in inserts.items():
            widths[node] = max(widths[node], len(run))

    rows = []
    for match_char, inserts in per_seq:
        parts = []
        for j in range(gp.M):
            parts.append(match_char[j])
            if widths[j]:
                run = inserts.get(j, [])
                parts.append("".join(run).ljust(int(widths[j]), "."))
        rows.append("".join(parts))
    assert len({len(r) for r in rows}) == 1
    return rows
