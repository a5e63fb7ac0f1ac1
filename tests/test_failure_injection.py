"""Failure injection: corrupted inputs must fail loudly, not silently.

A production search tool is judged by how it handles garbage: truncated
model files, alignment rows of ragged width, probability tables that do
not normalize, sequences carrying illegal codes, devices with impossible
resources.  Every failure here must raise a :class:`repro.errors.ReproError`
subclass with the offending detail - never produce wrong scores.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.errors import (
    AlphabetError,
    FormatError,
    KernelError,
    LaunchError,
    ModelError,
    SequenceError,
)
from repro.hmm import Plan7HMM, dumps_hmm, loads_hmm, sample_hmm


@pytest.fixture
def hmm():
    return sample_hmm(12, np.random.default_rng(0), name="victim")


class TestCorruptedModelFiles:
    def test_truncated_mid_row(self, hmm):
        text = dumps_hmm(hmm)
        lines = text.splitlines()
        lines[8] = lines[8][: len(lines[8]) // 2]
        with pytest.raises(FormatError):
            loads_hmm("\n".join(lines))

    def test_bitflip_in_probability(self, hmm):
        """A corrupted probability that breaks normalization is caught by
        the model validator, not silently accepted."""
        text = dumps_hmm(hmm)
        lines = text.splitlines()
        first = lines[6].split()
        first[0] = "0.9999999"
        lines[6] = "  " + " ".join(first)
        with pytest.raises((FormatError, ModelError)):
            loads_hmm("\n".join(lines))

    def test_negative_probability(self, hmm):
        bad = hmm.match_emissions.copy()
        bad[0, 0] = -bad[0, 0]
        with pytest.raises(ModelError):
            Plan7HMM("x", bad, hmm.insert_emissions, hmm.transitions)

    def test_nan_probability(self, hmm):
        bad = hmm.transitions.copy()
        bad[0, 0] = float("nan")
        with pytest.raises(ModelError):
            Plan7HMM("x", hmm.match_emissions, hmm.insert_emissions, bad)

    def test_empty_file(self):
        with pytest.raises(FormatError):
            loads_hmm("")


class TestCorruptedSequences:
    def test_illegal_symbol(self):
        with pytest.raises(AlphabetError):
            repro.DigitalSequence.from_text("bad", "ACDE5")

    def test_gap_in_search_sequence(self):
        with pytest.raises(AlphabetError):
            repro.DigitalSequence.from_text("bad", "AC-DE")

    def test_code_out_of_alphabet(self):
        with pytest.raises(AlphabetError):
            repro.DigitalSequence("bad", np.array([0, 99], dtype=np.uint8))

    def test_terminator_code_in_sequence(self):
        with pytest.raises(AlphabetError):
            repro.DigitalSequence("bad", np.array([31], dtype=np.uint8))

    def test_empty_database(self):
        with pytest.raises(SequenceError):
            repro.SequenceDatabase([])

    def test_corrupt_fasta(self, tmp_path):
        path = tmp_path / "bad.fasta"
        path.write_text("ACDEF\n>late header\nAC\n")
        with pytest.raises(FormatError):
            repro.read_fasta(path)


class TestImpossibleHardware:
    def test_zero_warp_device(self):
        with pytest.raises(LaunchError):
            dataclasses.replace(repro.KEPLER_K40, max_warps_per_sm=0)

    def test_kernel_rejects_empty_codes(self, hmm):
        from repro.cpu import msv_score_sequence
        from repro.hmm import SearchProfile
        from repro.scoring import MSVByteProfile

        prof = MSVByteProfile.from_profile(SearchProfile(hmm, L=50))
        with pytest.raises(KernelError):
            msv_score_sequence(prof, np.array([], dtype=np.uint8))


class TestScoresNeverSilentlyWrong:
    def test_degenerate_heavy_sequence_still_consistent(self, hmm):
        """A sequence of nothing but degenerate codes exercises the
        marginalized emission path; all engines must still agree."""
        from repro.cpu import (
            msv_score_batch,
            msv_score_sequence,
            viterbi_score_batch,
            viterbi_score_sequence,
        )
        from repro.hmm import SearchProfile
        from repro.kernels import msv_warp_kernel, viterbi_warp_kernel
        from repro.scoring import MSVByteProfile, ViterbiWordProfile

        profile = SearchProfile(hmm, L=40)
        bp = MSVByteProfile.from_profile(profile)
        wp = ViterbiWordProfile.from_profile(profile)
        codes = np.array([20, 21, 22, 23, 24, 25] * 6, dtype=np.uint8)
        db = repro.SequenceDatabase([repro.DigitalSequence("deg", codes)])
        m = msv_score_sequence(bp, codes)
        v = viterbi_score_sequence(wp, codes)
        assert msv_score_batch(bp, db).scores[0] == m
        assert viterbi_score_batch(wp, db).scores[0] == v
        assert msv_warp_kernel(bp, db).scores[0] == m
        assert viterbi_warp_kernel(wp, db).scores[0] == v

    def test_extreme_length_sequence(self, hmm):
        """A sequence far longer than the length model's L still scores
        finitely and identically across engines."""
        from repro.cpu import msv_score_batch
        from repro.hmm import SearchProfile
        from repro.kernels import msv_warp_kernel
        from repro.scoring import MSVByteProfile
        from repro.sequence import random_sequence_codes

        profile = SearchProfile(hmm, L=50)
        bp = MSVByteProfile.from_profile(profile)
        rng = np.random.default_rng(1)
        codes = random_sequence_codes(3000, rng)
        db = repro.SequenceDatabase([repro.DigitalSequence("long", codes)])
        a = msv_score_batch(bp, db).scores[0]
        b = msv_warp_kernel(bp, db).scores[0]
        assert a == b
