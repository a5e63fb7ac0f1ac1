"""CPU engines: golden references, batched lockstep scorers, float generics."""

from .forward_batch import forward_score_batch
from .generic import (
    GenericProfile,
    generic_backward_score,
    generic_forward_score,
    generic_viterbi_score,
)
from .msv_reference import msv_score_batch, msv_score_sequence
from .hmmalign import align_to_profile
from .posterior import PosteriorDecoding, domain_regions, posterior_decode
from .traceback import (
    DomainAlignment,
    PathStep,
    ViterbiAlignment,
    viterbi_traceback,
)
from .results import FilterScores
from .viterbi_reference import (
    exact_d_chain,
    viterbi_score_batch,
    viterbi_score_sequence,
)

__all__ = [
    "FilterScores",
    "msv_score_sequence",
    "msv_score_batch",
    "viterbi_score_sequence",
    "viterbi_score_batch",
    "exact_d_chain",
    "GenericProfile",
    "generic_viterbi_score",
    "generic_forward_score",
    "generic_backward_score",
    "forward_score_batch",
    "PosteriorDecoding",
    "posterior_decode",
    "domain_regions",
    "viterbi_traceback",
    "ViterbiAlignment",
    "DomainAlignment",
    "PathStep",
    "align_to_profile",
]
