"""Model packing: one packed MSV, P7Viterbi or Forward call over
several models' lanes equals the per-model calls, on every engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engines
from repro.constants import MSV_BYTE_MAX, VF_WORD_MIN
from repro.cpu.forward_batch import forward_score_batch
from repro.cpu.generic import GenericProfile
from repro.cpu.msv_reference import msv_lockstep, msv_score_sequence
from repro.cpu.packing import (
    PackedByteProfile,
    PackedGenericProfile,
    PackedWordProfile,
    pack_batch,
)
from repro.cpu.viterbi_reference import viterbi_lockstep
from repro.errors import KernelError
from repro.gpu import KernelCounters
from repro.hmm import SearchProfile, sample_hmm
from repro.options import SearchOptions
from repro.scoring import MSVByteProfile, ViterbiWordProfile
from repro.scoring.guardrails import GuardrailCounters
from repro.sequence import DigitalSequence, random_sequence_codes
from repro.sequence.database import SequenceDatabase

ENGINES = ("cpu_sse", "gpu_warp_batched", "gpu_warp", "mp")


def _models(Ms, seed, cut_node=None):
    """Byte, word and generic profiles of models of lengths ``Ms``; with
    ``cut_node`` the first model long enough gets an impossible interior
    D->D link there."""
    rng = np.random.default_rng(seed)
    hmms = [sample_hmm(M, rng, name=f"m{g}", conservation=30.0)
            for g, M in enumerate(Ms)]
    bytes_, words, generics = [], [], []
    for hmm in hmms:
        sp = SearchProfile(hmm, L=200)
        bytes_.append(MSVByteProfile.from_profile(sp))
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
    return hmms, {"msv": bytes_, "p7viterbi": words}, generics


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


LOCKSTEP = {"msv": (msv_lockstep, PackedByteProfile.pack),
            "p7viterbi": (viterbi_lockstep, PackedWordProfile.pack)}


def _run(engine, stage, stage_profile, db, counters, guard, M):
    opts = SearchOptions(engine=engine, mp_workers=2, sanitize=True)
    return engines.get(engine).scorer(
        stage, stage_profile, db, opts=opts, counters=counters,
        guard=guard, executor=None, M=M,
    )


def _check_filter_matches(stage, profiles, batch, subs, slices):
    """A packed filter call equals the per-model calls; returns the
    packed pass's scores."""
    lockstep, packer = LOCKSTEP[stage]
    pack = packer(profiles)

    # the pass itself: scores, overflow flags, rows-run, saturations
    guards = [GuardrailCounters() for _ in profiles]
    result, rows_run = lockstep(pack, batch, guards)
    for prof, sub, lane, guard in zip(profiles, subs, slices, guards):
        own_guard = GuardrailCounters()
        own, own_rows = lockstep(prof, sub, own_guard)
        assert np.array_equal(own.scores, result.scores[lane]), stage
        assert np.array_equal(own.overflowed, result.overflowed[lane])
        assert np.array_equal(own_rows, rows_run[lane])
        # the packed tally counts only the model's own nodes
        assert own_guard.saturations == guard.saturations, stage

    # every engine: scores, flags, guards, every counter field and the
    # sanitizer report
    for engine in ENGINES:
        counters = [{} for _ in profiles]
        guards = [GuardrailCounters() for _ in profiles]
        packed = _run(engine, stage, pack, batch, counters, guards, pack.M)
        total = KernelCounters()
        for prof, sub, lane, c, guard in zip(profiles, subs, slices,
                                             counters, guards):
            own_c, own_guard = {}, GuardrailCounters()
            own = _run(engine, stage, prof, sub, own_c, own_guard, prof.M)
            assert np.array_equal(own.scores, packed.scores[lane]), engine
            assert np.array_equal(own.overflowed, packed.overflowed[lane])
            assert own_guard.saturations == guard.saturations, engine
            # the reference engine keeps no kernel counters
            assert own_c.keys() == c.keys(), engine
            if own_c:
                assert own_c[stage].as_dict() == c[stage].as_dict(), engine
                assert own_c[stage].sanitizer == c[stage].sanitizer, engine
                total.merge(own_c[stage])
        merged = KernelCounters()
        for c in counters:
            merged.merge(c.get(stage, KernelCounters()))
        assert merged.as_dict() == total.as_dict(), engine
        assert merged.sanitizer == total.sanitizer, engine
    return result


def _check_packed_matches(profiles, generics, db, lanes):
    batch = pack_batch(db.padded_batch(), lanes)
    bounds = np.cumsum([0] + [len(x) for x in lanes])
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    subs = [db.subset(list(x)) for x in lanes]
    results = {stage: _check_filter_matches(stage, profs, batch, subs, slices)
               for stage, profs in profiles.items()}

    # Forward: within 1e-9 nats, same non-finite tallies
    guards = [GuardrailCounters() for _ in generics]
    packed = forward_score_batch(PackedGenericProfile.pack(generics), batch,
                                 guards)
    for gp, sub, lane, guard in zip(generics, subs, slices, guards):
        own_guard = GuardrailCounters()
        own = forward_score_batch(gp, sub, own_guard)
        np.testing.assert_allclose(packed[lane], own, rtol=0, atol=1e-9)
        assert own_guard.nonfinite == guard.nonfinite
    return results


@settings(max_examples=8, deadline=None)
@given(
    Ms=st.lists(st.integers(1, 60), min_size=1, max_size=4),
    lengths=st.lists(st.integers(1, 90), min_size=2, max_size=6),
    picks=st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5,
                            unique=True), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_packed_call_matches_per_model_calls(Ms, lengths, picks, seed):
    hmms, profiles, generics = _models(Ms, seed, cut_node=1)
    db = _pool(hmms, lengths, seed, repeats=4)
    homolog = len(db) - 1
    lanes = [sorted({i % len(db) for i in picks[g]} | {homolog}
                    if g < 2 else {i % len(db) for i in picks[g]})
             for g in range(len(Ms))]
    _check_packed_matches(profiles, generics, db, lanes)


def test_overflowing_homolog_under_two_models():
    hmms, profiles, generics = _models([40, 7, 23], seed=5, cut_node=3)
    db = _pool(hmms, [30, 64, 12], seed=9, repeats=12)
    homolog = len(db) - 1
    lanes = [[0, homolog], [1, 2, homolog], [0, 2]]
    results = _check_packed_matches(profiles, generics, db, lanes)
    # the M=40 model's homolog lane overflows both filters
    assert results["msv"].overflowed[1]
    assert results["p7viterbi"].overflowed[1]


def test_saturating_model_inside_a_pack():
    """A model whose entry byte ``base - tjb - tbm`` reaches its ``cap =
    255 - bias`` saturates every node on every row; the closed-form
    tally charges it alone, for its own ``M`` nodes rather than the
    pack's, and matches the per-cell reference count."""
    hmms, profiles, generics = _models([12, 30, 5], seed=8)
    raw = profiles["msv"][0]
    entry = raw.base - raw.tjb - raw.tbm
    # xBv lands exactly on the cap: the boundary of the closed form
    hot = dataclasses.replace(raw, bias=MSV_BYTE_MAX - entry)
    assert hot.base - hot.tjb - hot.tbm == hot.overflow_threshold
    profiles["msv"][0] = hot
    db = _pool(hmms, [20, 50, 9, 33], seed=4, repeats=2)
    lanes = [[0, 1, 2, 3, 4], [0, 1, 4], [2, 3]]
    _check_packed_matches(profiles, generics, db, lanes)

    guards = [GuardrailCounters() for _ in lanes]
    msv_lockstep(PackedByteProfile.pack(profiles["msv"]),
                 pack_batch(db.padded_batch(), lanes), guards)
    for prof, rows, guard in zip(profiles["msv"], lanes, guards):
        spec = GuardrailCounters()
        for i in rows:
            msv_score_sequence(prof, db[i].codes, spec)
        assert guard.saturations == spec.saturations
    assert guards[0].saturations > 0
    assert guards[1].saturations == guards[2].saturations == 0


def test_byte_pad_cost_is_load_bearing():
    """Pad costs of 255 keep every pad cell at byte 0; a pad cost of 0
    lets the pads carry the entry byte into ``xE`` and the scores move."""
    hmms, profiles, _ = _models([6, 40], seed=3)
    db = _pool(hmms, [30, 45], seed=1, repeats=1)
    lanes = [[0, 1], [0, 1]]
    batch = pack_batch(db.padded_batch(), lanes)
    pack = PackedByteProfile.pack(profiles["msv"])
    own, _ = msv_lockstep(profiles["msv"][0], db.subset([0, 1]))
    packed, _ = msv_lockstep(pack, batch)
    assert np.array_equal(packed.scores[:2], own.scores)
    rbv = pack.rbv.reshape(2, pack.kp, 40).copy()
    rbv[0, :, 6:] = 0
    leaky = dataclasses.replace(pack, rbv=rbv.reshape(-1, 40))
    broken, _ = msv_lockstep(leaky, batch)
    assert not np.array_equal(broken.scores[:2], own.scores)


def test_pad_cells_stay_at_the_floor():
    _, profiles, _ = _models([9, 33], seed=2)
    bpack = PackedByteProfile.pack(profiles["msv"])
    assert (bpack.rbv.reshape(2, -1, 33)[0, :, 9:] == MSV_BYTE_MAX).all()
    for name in ("bias", "tbm", "tec", "tjb", "base", "overflow_threshold",
                 "init_xB"):
        assert list(getattr(bpack, name)) == [
            getattr(p, name) for p in profiles["msv"]]
    words = profiles["p7viterbi"]
    pack = PackedWordProfile.pack(words)
    assert pack.M == 33
    assert (pack.rwv.reshape(2, -1, 33)[0, :, 9:] == VF_WORD_MIN).all()
    assert (pack.tbm[0, 9:] == VF_WORD_MIN).all()
    assert (pack.tbm[0, :9] == words[0].tbm).all()
    assert (pack.tmd_cut[0, 8:] < 32 * VF_WORD_MIN * 33).all()


def test_profile_and_batch_must_agree():
    _, profiles, _ = _models([5, 6], seed=1)
    words = profiles["p7viterbi"]
    db = _pool([sample_hmm(5, np.random.default_rng(0))], [10], 0, 1)
    with pytest.raises(KernelError, match="packed profile"):
        viterbi_lockstep(PackedWordProfile.pack(words), db.padded_batch())
    with pytest.raises(KernelError, match="packed profile"):
        viterbi_lockstep(words[0], pack_batch(db.padded_batch(), [[0], [1]]))
    with pytest.raises(KernelError, match="packed profile"):
        msv_lockstep(PackedByteProfile.pack(profiles["msv"]), db.padded_batch())
