"""Property-based suites over the model layer: any valid construction
round-trips and scores consistently."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabet import AMINO
from repro.hmm import (
    SearchProfile,
    build_hmm_from_msa,
    dumps_hmm,
    loads_hmm,
    sample_hmm,
)
from repro.hmm.info import match_occupancy, relative_entropy


@given(
    M=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31),
    conservation=st.floats(min_value=0.5, max_value=200.0),
)
@settings(max_examples=50, deadline=None)
def test_sampled_models_always_valid(M, seed, conservation):
    """sample_hmm output always passes the Plan7 validator (construction
    *is* validation) and supports every downstream computation."""
    hmm = sample_hmm(M, np.random.default_rng(seed), conservation=conservation)
    assert hmm.M == M
    assert (relative_entropy(hmm) >= -1e-9).all()
    occ = match_occupancy(hmm)
    assert (occ > 0).all() and (occ <= 1).all()
    profile = SearchProfile(hmm, L=50)
    assert np.isfinite(profile.tbm)


@given(
    M=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=30, deadline=None)
def test_hmmfile_roundtrip_property(M, seed):
    hmm = sample_hmm(M, np.random.default_rng(seed))
    restored = loads_hmm(dumps_hmm(hmm))
    assert restored.M == hmm.M
    assert np.allclose(restored.match_emissions, hmm.match_emissions, atol=1e-8)
    assert np.allclose(restored.transitions, hmm.transitions, atol=1e-8)


@st.composite
def random_msa(draw):
    n_rows = draw(st.integers(min_value=1, max_value=8))
    width = draw(st.integers(min_value=2, max_value=25))
    symbols = "ACDEFGHIKLMNPQRSTVWY-"
    rows = []
    for _ in range(n_rows):
        rows.append(
            "".join(
                draw(st.sampled_from(symbols)) for _ in range(width)
            )
        )
    return rows


@given(msa=random_msa(), seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_builder_never_produces_invalid_models(msa, seed):
    """Any alignment either builds a valid model or raises ModelError -
    never a crash or a silent invalid model."""
    from repro.errors import ModelError

    try:
        hmm = build_hmm_from_msa(msa)
    except ModelError:
        return  # e.g. all-gap columns: a legitimate rejection
    # constructing Plan7HMM validated everything; scoring must work too
    profile = SearchProfile(hmm, L=30)
    codes = AMINO.encode("ACDEFGHIKL"[: max(1, hmm.M)])
    from repro.cpu import generic_viterbi_score

    score = generic_viterbi_score(profile, codes)
    assert np.isfinite(score) or score == float("-inf")


@given(
    M=st.integers(min_value=2, max_value=40),
    L=st.integers(min_value=10, max_value=200),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_longer_length_model_penalizes_nothing_structural(M, L, seed):
    """Reconfiguring L changes only the specials, never the core scores."""
    hmm = sample_hmm(M, np.random.default_rng(seed))
    p1 = SearchProfile(hmm, L=L)
    p2 = p1.configured_for_length(L + 100)
    assert np.array_equal(p1.msc, p2.msc)
    assert p1.tbm == p2.tbm
    assert p2.specials.N_loop > p1.specials.N_loop


@given(
    M=st.integers(min_value=1, max_value=30),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=30, deadline=None)
def test_quantized_profiles_always_constructible(M, seed):
    """Every sampled model quantizes into both filter systems within
    range."""
    from repro.scoring import MSVByteProfile, ViterbiWordProfile

    profile = SearchProfile(sample_hmm(M, np.random.default_rng(seed)), L=77)
    bp = MSVByteProfile.from_profile(profile)
    assert 0 <= bp.bias <= 255
    assert bp.rbv.shape == (29, M)
    wp = ViterbiWordProfile.from_profile(profile)
    assert wp.rwv.min() >= -32768 and wp.rwv.max() <= 32767
