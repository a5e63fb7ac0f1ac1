"""Pinned event model of the per-warp kernels.

The warp kernels score through the shared lockstep pass and charge
their per-warp events in closed form.  These tests pin every
``KernelCounters`` field and the full ``SanitizerReport`` to the values
the strip-by-strip row loops produced, on fixed batches: model sizes
around the 32-wide strip edges, Kepler and Fermi, both memory configs,
packed and byte residues, lanes that overflow, lanes with all-minus-
infinity residues (word saturations) and a zero-length lane.  The data
lives in ``data/warp_counters.json``.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import VF_WORD_MIN, WARP_SIZE
from repro.cpu import msv_score_batch, viterbi_score_batch
from repro.cpu.viterbi_reference import _row_update
from repro.gpu import FERMI_GTX580, KEPLER_K40, KernelCounters
from repro.hmm import SearchProfile, sample_hmm
from repro.kernels import (
    SYNCS_PER_ROW,
    MemoryConfig,
    msv_multiwarp_sync_kernel,
    msv_warp_kernel,
    parallel_lazy_f,
    viterbi_warp_kernel,
)
from repro.kernels.lazy_f import charge_lazy_f, lazy_f_lanes
from repro.scoring import MSVByteProfile, ViterbiWordProfile
from repro.sequence import random_sequence_codes
from repro.sequence.database import PaddedBatch

PINNED = json.loads(
    (Path(__file__).parent / "data" / "warp_counters.json").read_text()
)
MODEL_SIZES = (1, 31, 32, 33, 65, 150)
DEVICES = {"kepler": KEPLER_K40, "fermi": FERMI_GTX580}
KERNELS = {"msv": msv_warp_kernel, "vit": viterbi_warp_kernel}


def fixture_batch(M: int):
    """The fixed batch for model size ``M``: (MSV, Viterbi, batch).

    Random lanes of assorted lengths, one homolog, one concatenation of
    homologs long enough to overflow both filters (for M > 1), one lane
    of gap/missing codes whose emissions are minus infinity, and a
    zero-length lane.
    """
    rng = np.random.default_rng(1000 + M)
    hmm = sample_hmm(M, rng, conservation=40.0)
    sp = SearchProfile(hmm, L=400)
    seqs = [random_sequence_codes(L, rng) for L in (1, 6, 37, 64, 90)]
    seqs.append(hmm.sample_sequence(rng))
    seqs.append(np.concatenate(
        [hmm.sample_sequence(rng) for _ in range(max(2, 400 // M))]
    ))
    seqs.append(np.array([26, 27, 28, 0, 5, 26, 20, 21, 27, 3], np.uint8))
    lengths = np.array([len(s) for s in seqs] + [0], dtype=np.int64)
    codes = np.full((lengths.size, int(lengths.max())), 31, dtype=np.uint8)
    for i, s in enumerate(seqs):
        codes[i, : len(s)] = s
    return (MSVByteProfile.from_profile(sp),
            ViterbiWordProfile.from_profile(sp),
            PaddedBatch(codes=codes, lengths=lengths))


def case_key(M, device, config, packed):
    return f"M{M}-{device}-{config.value}-{'packed' if packed else 'bytes'}"


@pytest.fixture(scope="module", params=MODEL_SIZES, ids=lambda M: f"M{M}")
def batch_case(request):
    return request.param, fixture_batch(request.param)


@pytest.mark.parametrize("packed", [False, True], ids=["bytes", "packed"])
@pytest.mark.parametrize("config", list(MemoryConfig), ids=lambda c: c.value)
@pytest.mark.parametrize("device", list(DEVICES))
@pytest.mark.parametrize("kernel", list(KERNELS))
class TestPinnedWarpEvents:
    def _run(self, batch_case, kernel, device, config, packed, sanitize):
        M, (byte_prof, word_prof, batch) = batch_case
        prof = byte_prof if kernel == "msv" else word_prof
        c = KernelCounters()
        out = KERNELS[kernel](prof, batch, config=config,
                              device=DEVICES[device], counters=c,
                              packed_residues=packed, sanitize=sanitize)
        return PINNED[kernel][case_key(M, device, config, packed)], c, out

    def test_counters_and_report_match(self, batch_case, kernel, device, config,
                                       packed):
        pinned, c, _ = self._run(batch_case, kernel, device, config, packed,
                                 sanitize=True)
        assert c.as_dict() == pinned["counters"]
        assert c.sanitizer.as_dict() == pinned["sanitizer"]

    def test_unsanitized_counters_match(self, batch_case, kernel, device,
                                        config, packed):
        pinned, c, out = self._run(batch_case, kernel, device, config, packed,
                                   sanitize=False)
        assert c.as_dict() == pinned["counters"]
        assert c.sanitizer is None
        M, (byte_prof, word_prof, batch) = batch_case
        ref = (msv_score_batch(byte_prof, batch) if kernel == "msv"
               else viterbi_score_batch(word_prof, batch))
        assert np.array_equal(out.scores, ref.scores)
        assert np.array_equal(out.overflowed, ref.overflowed)


def test_fixture_batches_cover_the_edges():
    """The pinned batches overflow, hold a zero-length lane and run
    Lazy-F with real D-D propagation, or the pins would prove little."""
    for M in MODEL_SIZES[1:]:
        msv = PINNED["msv"][case_key(M, "kepler", MemoryConfig.SHARED, False)]
        vit = PINNED["vit"][case_key(M, "kepler", MemoryConfig.SHARED, False)]
        batch = fixture_batch(M)[2]
        assert (batch.lengths == 0).any()
        assert msv["counters"]["rows"] < batch.lengths.sum()  # overflow cut
        assert vit["counters"]["rows"] < batch.lengths.sum()
        assert vit["counters"]["lazyf_extra_passes"] > 0


@pytest.mark.parametrize("M", MODEL_SIZES)
def test_sync_baseline_charges_per_live_block_row(M):
    """Every field of the synchronized baseline matches its pinned value,
    except the barriers and the reduction's shared traffic, which are
    charged per live block-row: ``SYNCS_PER_ROW`` barriers and 6 loads +
    6 stores of the tree reduction each."""
    byte_prof, _, batch = fixture_batch(M)
    c = KernelCounters()
    out = msv_multiwarp_sync_kernel(byte_prof, batch, counters=c)
    assert np.array_equal(out.scores, msv_score_batch(byte_prof, batch).scores)
    pinned = dict(PINNED["sync"][f"M{M}"]["counters"])
    rows, warps = pinned["rows"], -(-M // WARP_SIZE)
    pinned["syncthreads"] = SYNCS_PER_ROW * rows
    pinned["shared_loads"] = rows * (2 * warps + 6)
    pinned["shared_stores"] = rows * (warps + 6)
    assert c.as_dict() == pinned


@given(
    M=st.integers(min_value=1, max_value=100),
    seed=st.integers(min_value=0, max_value=2**31),
    homolog=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_lazy_f_lanes_charge_equals_parallel_lazy_f(M, seed, homolog):
    """The closed-form tally charges exactly the votes and passes that
    ``parallel_lazy_f`` casts on the per-sequence spec's rows, where the
    kernel calls it: on the rows whose Dmax check finds a finite M->D
    start."""
    rng = np.random.default_rng(seed)
    hmm = sample_hmm(M, rng, conservation=40.0)
    prof = ViterbiWordProfile.from_profile(SearchProfile(hmm, L=200))
    codes = (hmm.sample_sequence(rng) if homolog
             else random_sequence_codes(int(rng.integers(1, 60)), rng))
    tdd_enter = np.concatenate(([VF_WORD_MIN], prof.tdd[:-1])).astype(np.int32)
    Mp = np.full(M, VF_WORD_MIN, dtype=np.int32)
    Ip, Dp = Mp.copy(), Mp.copy()
    xJ, xB = VF_WORD_MIN, prof.init_xB
    spec, tally = KernelCounters(), KernelCounters()
    for x in codes[:80]:
        Mp, Ip, Dp, xE = _row_update(prof, int(x), Mp, Ip, Dp, xB)
        starts = np.full(M, VF_WORD_MIN, dtype=np.int32)
        starts[1:] = np.maximum(Mp[:-1] + prof.tmd[:-1], VF_WORD_MIN)
        if starts.max() > VF_WORD_MIN:
            resolved = parallel_lazy_f(starts[None, :].copy(), tdd_enter, spec)
            assert np.array_equal(resolved[0], Dp)
        if M >= 2:  # no Delete states: the Dmax check skips every row
            entered, extra = lazy_f_lanes(Mp[None, :], Dp[None, 1:], prof.tmd)
            charge_lazy_f(tally, int(entered.sum()), -(-M // WARP_SIZE),
                          int(extra.sum()))
        xJ = max(xJ, int(xE) + prof.xE_loop)
        xB = max(prof.base + prof.xNJ_move, xJ + prof.xNJ_move)
    assert tally.as_dict() == spec.as_dict()
