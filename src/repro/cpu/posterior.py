"""Posterior decoding: per-residue alignment probabilities and domains.

The full HMMER pipeline follows the Forward stage with posterior
decoding to define domain boundaries.  This module keeps the state
matrices of the Forward and Backward passes of :mod:`repro.cpu.generic`
and derives

* ``match`` / ``insert`` posteriors: ``P(residue i aligned to M_j / I_j)``,
* a per-residue *homology* probability (the residue is emitted by the
  core model rather than the N/C/J flanks),
* contiguous high-homology regions - the domain calls.

Everything is exact (log-space float64); the identity
``sum_j (match + insert)[i] + flank[i] == 1`` per residue is a tested
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError
from ..hmm.profile import SearchProfile
from .generic import (
    _LOG_SUM_EXP,
    GenericProfile,
    _backward_pass,
    _check_codes,
    _coerce,
    _forward_pass,
)

__all__ = ["PosteriorDecoding", "posterior_decode", "domain_regions"]

_NEG = float("-inf")


@dataclass(frozen=True)
class PosteriorDecoding:
    """Posterior probabilities of one sequence against one profile."""

    score: float            # Forward score (nats)
    match: np.ndarray       # (L, M): P(residue i emitted by M_j)
    insert: np.ndarray      # (L, M): P(residue i emitted by I_j)
    homology: np.ndarray    # (L,):   P(residue i inside a domain)

    @property
    def L(self) -> int:
        return int(self.match.shape[0])

    @property
    def M(self) -> int:
        return int(self.match.shape[1])

    def expected_aligned_residues(self) -> float:
        """Expected number of residues inside domains."""
        return float(self.homology.sum())


def posterior_decode(
    profile: SearchProfile | GenericProfile, codes: np.ndarray
) -> PosteriorDecoding:
    """Exact posterior decoding of one digital sequence."""
    gp = _coerce(profile)
    codes = _check_codes(gp, codes)
    total, _, fwd = _forward_pass(gp, codes, _LOG_SUM_EXP, keep=True)
    _, bwd = _backward_pass(gp, codes, keep=True)
    with np.errstate(invalid="ignore"):
        pM = np.exp(np.nan_to_num(fwd[:, 0] + bwd[:, 0], nan=_NEG) - total)
        pI = np.exp(np.nan_to_num(fwd[:, 1] + bwd[:, 1], nan=_NEG) - total)
    homology = np.clip(pM.sum(axis=1) + pI.sum(axis=1), 0.0, 1.0)
    return PosteriorDecoding(
        score=total,
        match=np.clip(pM, 0.0, 1.0),
        insert=np.clip(pI, 0.0, 1.0),
        homology=homology,
    )


def domain_regions(
    decoding: PosteriorDecoding, threshold: float = 0.5, min_length: int = 3
) -> list[tuple[int, int]]:
    """Half-open residue ranges whose homology posterior clears
    ``threshold`` - the domain calls.

    A simple region finder in the spirit of HMMER's domain definition:
    contiguous runs above the threshold, discarding runs shorter than
    ``min_length``.
    """
    if not 0.0 < threshold < 1.0:
        raise KernelError("threshold must be in (0, 1)")
    above = decoding.homology >= threshold
    regions: list[tuple[int, int]] = []
    start: int | None = None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_length:
                regions.append((start, i))
            start = None
    if start is not None and decoding.L - start >= min_length:
        regions.append((start, decoding.L))
    return regions
