"""The flagship consistency matrix: every engine, one score vector.

For each stage, every implementation in the repository must produce the
*same* quantized scores on the same inputs:

MSV:        scalar reference | warp kernel (Kepler shared / Kepler
            global / Fermi) | packed-residue decode | synchronized
            multi-warp baseline | multi-GPU partitioned | every
            registered engine
P7Viterbi:  scalar reference | warp kernel (Kepler shared / global /
            Fermi) | multi-GPU partitioned | every registered engine

The registered engines (``repro.engines.list_engines()``: ``cpu_sse``,
``gpu_warp``, ``gpu_warp_batched``, ``mp``) are called through their
scorers, the way the pipeline dispatches a stage.

This single test file is the library's strongest statement of the
paper's accuracy-preservation claim.
"""

import numpy as np
import pytest

from repro import engines
from repro.cpu import (
    msv_score_batch,
    msv_score_sequence,
    viterbi_score_batch,
    viterbi_score_sequence,
)
from repro.gpu import FERMI_GTX580, KEPLER_K40
from repro.gpu.multi_gpu import run_multi_gpu
from repro.hmm import SearchProfile, sample_hmm
from repro.kernels import (
    MemoryConfig,
    msv_multiwarp_sync_kernel,
    msv_warp_kernel,
    viterbi_warp_kernel,
)
from repro.options import SearchOptions
from repro.scoring import MSVByteProfile, ViterbiWordProfile
from repro.scoring.guardrails import GuardrailCounters
from repro.sequence import DigitalSequence, SequenceDatabase, random_sequence_codes

SIZES = (17, 48, 100)


def _engine_columns(stage, prof, db):
    """One ``(label, scores)`` column per registered engine."""
    return [
        (name, engines.get(name).scorer(
            stage, prof, db, opts=SearchOptions(engine=name, mp_workers=2),
            counters={}, guard=GuardrailCounters(), executor=None, M=prof.M,
        ).scores)
        for name in engines.list_engines()
    ]


def _setup(M):
    rng = np.random.default_rng(M * 7 + 1)
    hmm = sample_hmm(M, rng)
    profile = SearchProfile(hmm, L=120)
    seqs = [
        DigitalSequence(f"s{i}", random_sequence_codes(int(L), rng))
        for i, L in enumerate(rng.integers(4, 160, size=9))
    ]
    seqs.append(DigitalSequence("hom", hmm.sample_sequence(rng)))
    db = SequenceDatabase(seqs)
    return (
        MSVByteProfile.from_profile(profile),
        ViterbiWordProfile.from_profile(profile),
        db,
    )


@pytest.mark.parametrize("M", SIZES)
def test_msv_engine_matrix(M):
    bp, _, db = _setup(M)
    canonical = msv_score_batch(bp, db).scores

    per_sequence = np.array(
        [msv_score_sequence(bp, s.codes) for s in db]
    )
    warp_shared = msv_warp_kernel(bp, db, config=MemoryConfig.SHARED).scores
    warp_global = msv_warp_kernel(bp, db, config=MemoryConfig.GLOBAL).scores
    warp_fermi = msv_warp_kernel(bp, db, device=FERMI_GTX580).scores
    warp_packed = msv_warp_kernel(bp, db, packed_residues=True).scores
    naive = msv_multiwarp_sync_kernel(bp, db).scores
    multi = run_multi_gpu(
        msv_warp_kernel, bp, db, device=KEPLER_K40, device_count=3
    ).scores.scores

    for label, scores in [
        ("per-sequence", per_sequence),
        ("warp shared", warp_shared),
        ("warp global", warp_global),
        ("warp fermi", warp_fermi),
        ("warp packed", warp_packed),
        ("naive sync", naive),
        ("multi-gpu", multi),
        *_engine_columns("msv", bp, db),
    ]:
        assert np.array_equal(canonical, scores), f"MSV {label} diverged"


@pytest.mark.parametrize("M", SIZES)
def test_viterbi_engine_matrix(M):
    _, wp, db = _setup(M)
    canonical = viterbi_score_batch(wp, db).scores

    per_sequence = np.array(
        [viterbi_score_sequence(wp, s.codes) for s in db]
    )
    warp_shared = viterbi_warp_kernel(wp, db, config=MemoryConfig.SHARED).scores
    warp_global = viterbi_warp_kernel(wp, db, config=MemoryConfig.GLOBAL).scores
    warp_fermi = viterbi_warp_kernel(wp, db, device=FERMI_GTX580).scores
    multi = run_multi_gpu(
        viterbi_warp_kernel, wp, db, device=FERMI_GTX580, device_count=2
    ).scores.scores

    for label, scores in [
        ("per-sequence", per_sequence),
        ("warp shared", warp_shared),
        ("warp global", warp_global),
        ("warp fermi", warp_fermi),
        ("multi-gpu", multi),
        *_engine_columns("p7viterbi", wp, db),
    ]:
        assert np.array_equal(canonical, scores), f"Viterbi {label} diverged"


def test_matrix_with_overflowing_sequences():
    """The engine matrix holds through byte/word saturation."""
    rng = np.random.default_rng(99)
    hmm = sample_hmm(60, rng, conservation=90.0)
    profile = SearchProfile(hmm, L=800)
    bp = MSVByteProfile.from_profile(profile)
    wp = ViterbiWordProfile.from_profile(profile)
    hot = np.concatenate(
        [hmm.sample_sequence(rng) for _ in range(12)]
    ).astype(np.uint8)
    db = SequenceDatabase(
        [
            DigitalSequence("hot", hot),
            DigitalSequence("cold", random_sequence_codes(100, rng)),
        ]
    )
    msv_ref = msv_score_batch(bp, db).scores
    assert msv_ref[0] == float("inf")
    assert np.array_equal(msv_ref, msv_warp_kernel(bp, db).scores)
    for label, scores in _engine_columns("msv", bp, db):
        assert np.array_equal(msv_ref, scores), f"MSV {label} diverged"
    vit_ref = viterbi_score_batch(wp, db).scores
    assert np.array_equal(vit_ref, viterbi_warp_kernel(wp, db).scores)
    for label, scores in _engine_columns("p7viterbi", wp, db):
        assert np.array_equal(vit_ref, scores), f"Viterbi {label} diverged"
