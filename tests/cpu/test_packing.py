"""Model packing: one packed P7Viterbi or Forward call over several
models' lanes equals the per-model calls, on every engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engines
from repro.constants import VF_WORD_MIN
from repro.cpu.forward_batch import forward_score_batch
from repro.cpu.generic import GenericProfile
from repro.cpu.packing import PackedGenericProfile, PackedWordProfile, pack_batch
from repro.cpu.viterbi_reference import viterbi_lockstep
from repro.errors import KernelError
from repro.gpu import KernelCounters
from repro.hmm import SearchProfile, sample_hmm
from repro.options import SearchOptions
from repro.scoring import ViterbiWordProfile
from repro.scoring.guardrails import GuardrailCounters
from repro.sequence import DigitalSequence, random_sequence_codes
from repro.sequence.database import SequenceDatabase

ENGINES = ("cpu_sse", "gpu_warp_batched", "gpu_warp", "mp")


def _models(Ms, seed, cut_node=None):
    """Word and generic profiles of models of lengths ``Ms``; with
    ``cut_node`` the first model long enough gets an impossible interior
    D->D link there."""
    rng = np.random.default_rng(seed)
    hmms = [sample_hmm(M, rng, name=f"m{g}", conservation=30.0)
            for g, M in enumerate(Ms)]
    words, generics = [], []
    for hmm in hmms:
        sp = SearchProfile(hmm, L=200)
        words.append(ViterbiWordProfile.from_profile(sp))
        generics.append(GenericProfile.from_profile(sp))
    for g, M in enumerate(Ms):
        if cut_node is not None and M > cut_node + 2:
            tdd = words[g].tdd.copy()
            tdd[cut_node] = VF_WORD_MIN
            words[g] = dataclasses.replace(words[g], tdd=tdd)
            tdd = generics[g].tdd.copy()
            tdd[cut_node] = -np.inf
            generics[g] = dataclasses.replace(generics[g], tdd=tdd)
            break
    return hmms, words, generics


def _pool(hmms, lengths, seed, repeats):
    """Random sequences plus a many-domain homolog of the longest model,
    the last entry (long enough to overflow the word system)."""
    rng = np.random.default_rng(seed)
    seqs = [DigitalSequence(f"s{i}", random_sequence_codes(int(L), rng))
            for i, L in enumerate(lengths)]
    top = max(hmms, key=lambda h: h.M)
    domains = [top.sample_sequence(rng) for _ in range(repeats)]
    seqs.append(DigitalSequence("homolog", np.concatenate(domains)))
    return SequenceDatabase(seqs, name="pool")


def _run(engine, stage_profile, db, counters, guard, M):
    opts = SearchOptions(engine=engine, mp_workers=2)
    return engines.get(engine).scorer(
        "p7viterbi", stage_profile, db, opts=opts, counters=counters,
        guard=guard, executor=None, M=M,
    )


def _check_packed_matches(words, generics, db, lanes):
    base = db.padded_batch()
    batch = pack_batch(base, lanes)
    bounds = np.cumsum([0] + [len(x) for x in lanes])
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    subs = [db.subset(list(x)) for x in lanes]
    M = max(w.M for w in words)

    # the pass itself: scores, overflow flags, rows-run, saturations
    wpack = PackedWordProfile.pack(words)
    guards = [GuardrailCounters() for _ in words]
    packed, rows_run = viterbi_lockstep(wpack, batch, guards)
    for w, sub, lane, guard in zip(words, subs, slices, guards):
        own_guard = GuardrailCounters()
        own, own_rows = viterbi_lockstep(w, sub, own_guard)
        assert np.array_equal(own.scores, packed.scores[lane])
        assert np.array_equal(own.overflowed, packed.overflowed[lane])
        assert np.array_equal(own_rows, rows_run[lane])
        # the packed tally counts every pad cell at the floor and takes
        # them back out: what is left must be the model's own count
        assert own_guard.saturations == guard.saturations

    # every engine: scores, flags, guards and every counter field
    for engine in ENGINES:
        counters = [{} for _ in words]
        guards = [GuardrailCounters() for _ in words]
        packed = _run(engine, wpack, batch, counters, guards, M)
        total = KernelCounters()
        for w, sub, lane, c, guard in zip(words, subs, slices, counters,
                                          guards):
            own_c, own_guard = {}, GuardrailCounters()
            own = _run(engine, w, sub, own_c, own_guard, w.M)
            assert np.array_equal(own.scores, packed.scores[lane]), engine
            assert np.array_equal(own.overflowed, packed.overflowed[lane])
            assert own_guard.saturations == guard.saturations, engine
            # the reference engine keeps no kernel counters
            assert own_c.keys() == c.keys(), engine
            if own_c:
                assert own_c["p7viterbi"].as_dict() == \
                    c["p7viterbi"].as_dict(), engine
                total.merge(own_c["p7viterbi"])
        merged = KernelCounters()
        for c in counters:
            merged.merge(c.get("p7viterbi", KernelCounters()))
        assert merged.as_dict() == total.as_dict(), engine

    # Forward: within 1e-9 nats, same non-finite tallies
    guards = [GuardrailCounters() for _ in generics]
    packed = forward_score_batch(PackedGenericProfile.pack(generics), batch,
                                 guards)
    for gp, sub, lane, guard in zip(generics, subs, slices, guards):
        own_guard = GuardrailCounters()
        own = forward_score_batch(gp, sub, own_guard)
        np.testing.assert_allclose(packed[lane], own, rtol=0, atol=1e-9)
        assert own_guard.nonfinite == guard.nonfinite


@settings(max_examples=8, deadline=None)
@given(
    Ms=st.lists(st.integers(1, 60), min_size=1, max_size=4),
    lengths=st.lists(st.integers(1, 90), min_size=2, max_size=6),
    picks=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5,
                            unique=True), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_packed_call_matches_per_model_calls(Ms, lengths, picks, seed):
    hmms, words, generics = _models(Ms, seed, cut_node=1)
    db = _pool(hmms, lengths, seed, repeats=4)
    homolog = len(db) - 1
    lanes = [sorted({i % len(db) for i in picks[g]} | {homolog}
                    if g < 2 else {i % len(db) for i in picks[g]})
             for g in range(len(Ms))]
    _check_packed_matches(words, generics, db, lanes)


def test_overflowing_homolog_under_two_models():
    hmms, words, generics = _models([40, 7, 23], seed=5, cut_node=3)
    db = _pool(hmms, [30, 64, 12], seed=9, repeats=12)
    homolog = len(db) - 1
    lanes = [[0, homolog], [1, 2, homolog], [0, 2]]
    packed, _ = viterbi_lockstep(PackedWordProfile.pack(words),
                                 pack_batch(db.padded_batch(), lanes))
    assert packed.overflowed[1]  # the M=40 model's homolog lane
    _check_packed_matches(words, generics, db, lanes)


def test_pad_cells_stay_at_the_floor():
    _, words, _ = _models([9, 33], seed=2)
    pack = PackedWordProfile.pack(words)
    assert pack.M == 33
    assert (pack.rwv.reshape(2, -1, 33)[0, :, 9:] == VF_WORD_MIN).all()
    assert (pack.tbm[0, 9:] == VF_WORD_MIN).all()
    assert (pack.tbm[0, :9] == words[0].tbm).all()
    assert (pack.tmd_cut[0, 8:] < 32 * VF_WORD_MIN * 33).all()


def test_profile_and_batch_must_agree():
    _, words, _ = _models([5, 6], seed=1)
    db = _pool([sample_hmm(5, np.random.default_rng(0))], [10], 0, 1)
    with pytest.raises(KernelError, match="packed profile"):
        viterbi_lockstep(PackedWordProfile.pack(words), db.padded_batch())
    with pytest.raises(KernelError, match="packed profile"):
        viterbi_lockstep(words[0], pack_batch(db.padded_batch(), [[0], [1]]))
