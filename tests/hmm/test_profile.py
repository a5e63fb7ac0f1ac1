"""Unit tests for the search-profile configuration."""

import math

import numpy as np
import pytest

from repro.alphabet import AMINO
from repro.errors import ProfileError
from repro.hmm import NullModel, SearchProfile, sample_hmm


@pytest.fixture
def hmm():
    return sample_hmm(25, np.random.default_rng(5))


class TestMatchScores:
    def test_shape_covers_all_codes(self, hmm):
        prof = SearchProfile(hmm, L=100)
        assert prof.msc.shape == (AMINO.Kp, 25)

    def test_canonical_scores_are_log_odds(self, hmm):
        prof = SearchProfile(hmm, L=100)
        f = prof.null.frequencies
        expected = math.log(hmm.match_emissions[3, 7] / f[7])
        assert prof.msc[7, 3] == pytest.approx(expected)

    def test_special_codes_are_impossible(self, hmm):
        prof = SearchProfile(hmm, L=100)
        for code in range(26, 29):
            assert np.all(np.isneginf(prof.msc[code]))

    def test_degenerate_is_expected_probability(self, hmm):
        prof = SearchProfile(hmm, L=100)
        b = AMINO.code("B")
        d, n = AMINO.code("D"), AMINO.code("N")
        f = prof.null.frequencies
        expected = np.log(
            (hmm.match_emissions[:, d] + hmm.match_emissions[:, n])
            / (f[d] + f[n])
        )
        assert np.allclose(prof.msc[b], expected)

    def test_x_score_is_modest(self, hmm):
        """Fully unknown residues cannot score strongly positive."""
        prof = SearchProfile(hmm, L=100)
        x = AMINO.code("X")
        assert np.all(prof.msc[x] < 2.0)

    def test_match_score_row_bounds(self, hmm):
        prof = SearchProfile(hmm, L=100)
        with pytest.raises(ProfileError):
            prof.match_score_row(29)


class TestTransitions:
    def test_uniform_entry(self, hmm):
        prof = SearchProfile(hmm, L=100)
        assert prof.tbm == pytest.approx(math.log(2 / (25 * 26)))

    def test_transition_logs(self, hmm):
        prof = SearchProfile(hmm, L=100)
        assert prof.tmm[0] == pytest.approx(math.log(hmm.transitions[0, 0]))
        assert prof.tdd[3] == pytest.approx(math.log(hmm.transitions[3, 6]))

    def test_boundary_impossible_transitions(self, hmm):
        prof = SearchProfile(hmm, L=100)
        assert np.isneginf(prof.tmi[-1])
        assert np.isneginf(prof.tdd[-1])


class TestSpecials:
    def test_multihit_split(self, hmm):
        sp = SearchProfile(hmm, L=100, multihit=True).specials
        assert sp.E_move == pytest.approx(math.log(0.5))
        assert sp.E_loop == pytest.approx(math.log(0.5))

    def test_unihit_no_loop(self, hmm):
        sp = SearchProfile(hmm, L=100, multihit=False).specials
        assert sp.E_move == 0.0
        assert np.isneginf(sp.E_loop)

    def test_length_model_multihit(self, hmm):
        sp = SearchProfile(hmm, L=100, multihit=True).specials
        assert sp.N_move == pytest.approx(math.log(3 / 103))
        assert sp.N_loop == pytest.approx(math.log(100 / 103))

    def test_length_model_unihit(self, hmm):
        sp = SearchProfile(hmm, L=100, multihit=False).specials
        assert sp.N_move == pytest.approx(math.log(2 / 102))

    def test_invalid_length(self, hmm):
        with pytest.raises(ProfileError):
            SearchProfile(hmm, L=0)


class TestReconfiguration:
    def test_configured_for_length_same_returns_self(self, hmm):
        prof = SearchProfile(hmm, L=100)
        assert prof.configured_for_length(100) is prof

    def test_configured_for_length_changes_specials(self, hmm):
        p1 = SearchProfile(hmm, L=100)
        p2 = p1.configured_for_length(400)
        assert p2.L == 400
        assert p2.specials.N_loop > p1.specials.N_loop
        # core scores unchanged
        assert np.array_equal(p1.msc, p2.msc)

    def test_extreme_score_helpers(self, hmm):
        prof = SearchProfile(hmm, L=100)
        assert prof.max_match_score() > 0
        assert prof.min_match_score() < 0
        assert prof.max_match_score() >= prof.min_match_score()


def test_null_length_correction_matches_null_model(hmm):
    prof = SearchProfile(hmm, L=100)
    null = NullModel()
    assert prof.null_length_correction(77) == pytest.approx(
        null.length_log_likelihood(77)
    )
