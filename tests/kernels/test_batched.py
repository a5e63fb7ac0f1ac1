"""Cross-sequence batched MSV/P7Viterbi kernels: packing, accuracy,
counters and sanitizer behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabet.packing import packed_stream_bytes
from repro.cpu import (
    msv_score_batch,
    msv_score_sequence,
    viterbi_score_batch,
    viterbi_score_sequence,
)
from repro.gpu import KernelCounters
from repro.hmm import SearchProfile, sample_hmm
from repro.kernels import msv_warp_kernel, viterbi_warp_kernel
from repro.kernels.batched import (
    DEFAULT_MAX_WASTE,
    msv_batched_kernel,
    pack_length_buckets,
    viterbi_batched_kernel,
)
from repro.kernels.memconfig import MemoryConfig
from repro.scoring.guardrails import GuardrailCounters
from repro.scoring import MSVByteProfile, ViterbiWordProfile
from repro.sequence import random_sequence_codes
from repro.sequence.database import PaddedBatch
from repro.sequence.synthetic import homolog_database, random_database

WARP = 32


def _profiles(M, seed=0, L=100):
    sp = SearchProfile(sample_hmm(M, np.random.default_rng(seed)), L=L)
    return MSVByteProfile.from_profile(sp), ViterbiWordProfile.from_profile(sp)


def _padded_batch(lengths, rng):
    """A PaddedBatch with arbitrary lengths, including 0 and 1."""
    lengths = np.asarray(lengths, dtype=np.int64)
    width = max(int(lengths.max(initial=0)), 1)
    codes = np.full((lengths.size, width), 31, dtype=np.uint8)
    for i, L in enumerate(lengths):
        if L > 0:
            codes[i, :L] = random_sequence_codes(int(L), rng)
    return PaddedBatch(codes=codes, lengths=lengths)


def _reference_pack(lengths, max_waste=DEFAULT_MAX_WASTE):
    """The packing DP evaluated over every k: the oracle the packer's
    warp-count candidates must reproduce, tie-break included."""
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    sorted_lens = lengths[order]
    n = int(np.searchsorted(-sorted_lens, 0, side="left"))
    best = np.zeros(n + 1, dtype=np.int64)
    split = np.zeros(n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        width = int(sorted_lens[i])
        floor = (1.0 - max_waste) * width
        last = int(np.searchsorted(-sorted_lens[i:], -floor, side="right"))
        last = min(n - i, max(last, WARP))
        k = np.arange(1, last + 1)
        cost = (-(-k // WARP)) * WARP * width + best[i + k]
        j = int(np.argmin(cost))
        best[i] = cost[j]
        split[i] = i + j + 1
    plan, start = [], 0
    while start < n:
        end = int(split[start])
        plan.append((order[start:end].tolist(), int(sorted_lens[start])))
        start = end
    return plan


class TestPacker:
    @pytest.mark.parametrize("kind", ["random", "equal", "heavy_tail", "ties"])
    @pytest.mark.parametrize("max_waste", [0.0, DEFAULT_MAX_WASTE, 0.6])
    def test_matches_reference_dp(self, kind, max_waste):
        gen = np.random.default_rng([len(kind), int(100 * max_waste)])
        for _ in range(12):
            n = int(gen.integers(1, 600))
            if kind == "random":
                lengths = gen.integers(0, 400, size=n)
            elif kind == "equal":
                lengths = np.full(n, int(gen.integers(1, 300)))
            elif kind == "heavy_tail":
                lengths = (gen.pareto(1.1, size=n) * 25 + 1).astype(np.int64)
            else:
                lengths = gen.integers(1, 5, size=n)
            got = [(b.indices.tolist(), b.width)
                   for b in pack_length_buckets(lengths, max_waste=max_waste)]
            assert got == _reference_pack(lengths, max_waste)

    def test_indices_partition_the_batch(self, rng):
        lengths = rng.integers(1, 400, size=257)
        buckets = pack_length_buckets(lengths)
        seen = np.concatenate([b.indices for b in buckets])
        assert sorted(seen.tolist()) == list(range(257))

    def test_width_covers_members(self, rng):
        lengths = rng.integers(1, 300, size=100)
        for b in pack_length_buckets(lengths):
            assert int(lengths[b.indices].max()) == b.width
            assert b.lanes_padded % WARP == 0
            assert b.lanes <= b.lanes_padded < b.lanes + WARP

    def test_padding_bound(self, rng):
        """Per-bucket waste invariants: any multi-warp bucket's shortest
        lane covers at least ``1 - max_waste`` of its rows, warp
        rounding absorbs strictly less than one warp per bucket, and the
        DP total never exceeds the greedy pure-threshold split it
        dominates."""
        lengths = np.asarray(
            np.concatenate([rng.integers(1, 40, 200), rng.integers(200, 2000, 80)])
        )
        buckets = pack_length_buckets(lengths)
        for b in buckets:
            assert b.lanes_padded - b.lanes < WARP
            if b.lanes > WARP:
                floor = (1.0 - DEFAULT_MAX_WASTE) * b.width
                assert int(lengths[b.indices].min()) >= floor
        launched = sum(b.grid_cells() for b in buckets)
        # greedy admissible baseline: cut whenever a length drops below
        # the current bucket's floor
        s = np.sort(lengths[lengths > 0])[::-1]
        greedy, start = 0, 0
        for i in range(1, s.size + 1):
            if i == s.size or s[i] < (1.0 - DEFAULT_MAX_WASTE) * s[start]:
                k = i - start
                greedy += (-(-k // WARP)) * WARP * int(s[start])
                start = i
        assert launched <= greedy

    def test_uniform_lengths_pack_without_length_padding(self):
        lengths = np.full(64, 100, dtype=np.int64)
        buckets = pack_length_buckets(lengths)
        assert all(b.width == 100 for b in buckets)
        assert sum(b.grid_cells() for b in buckets) == 64 * 100

    def test_zero_length_sequences_are_dropped(self):
        lengths = np.array([0, 5, 0, 7], dtype=np.int64)
        buckets = pack_length_buckets(lengths)
        packed = np.concatenate([b.indices for b in buckets])
        assert sorted(packed.tolist()) == [1, 3]


class TestAccuracy:
    @pytest.mark.parametrize("M", [1, 16, 31, 32, 33, 96])
    def test_msv_bit_identical(self, M, rng):
        mp, _ = _profiles(M, seed=M)
        db = random_database(40, 90, rng)
        ref = msv_score_batch(mp, db)
        got = msv_batched_kernel(mp, db)
        assert np.array_equal(ref.scores, got.scores)
        assert np.array_equal(ref.overflowed, got.overflowed)

    @pytest.mark.parametrize("M", [1, 16, 31, 32, 33, 96])
    def test_viterbi_bit_identical(self, M, rng):
        _, vp = _profiles(M, seed=M)
        db = random_database(40, 90, rng)
        ref = viterbi_score_batch(vp, db)
        got = viterbi_batched_kernel(vp, db)
        assert np.array_equal(ref.scores, got.scores)
        assert np.array_equal(ref.overflowed, got.overflowed)

    def test_matches_per_sequence_loop(self, rng):
        """The batched kernel IS N single-sequence calls, bit for bit."""
        mp, vp = _profiles(48, seed=3)
        db = random_database(30, 120, rng)
        msv = msv_batched_kernel(mp, db)
        vit = viterbi_batched_kernel(vp, db)
        for i, seq in enumerate(db):
            assert msv_score_sequence(mp, seq.codes) == (
                float("inf") if msv.overflowed[i] else msv.scores[i]
            )
            assert viterbi_score_sequence(vp, seq.codes) == (
                float("inf") if vit.overflowed[i] else vit.scores[i]
            )

    def test_overflow_lane_retirement(self, rng):
        """Strong homologs overflow the u8/i16 range mid-kernel; retired
        lanes must latch exactly like the reference."""
        hmm = sample_hmm(70, rng)
        sp = SearchProfile(hmm, L=110)
        mp = MSVByteProfile.from_profile(sp)
        vp = ViterbiWordProfile.from_profile(sp)
        db = homolog_database(50, 110, rng, hmm=hmm, homolog_fraction=0.6)
        for prof, batched, ref_fn in (
            (mp, msv_batched_kernel, msv_score_batch),
            (vp, viterbi_batched_kernel, viterbi_score_batch),
        ):
            ref = ref_fn(prof, db)
            got = batched(prof, db)
            assert np.array_equal(ref.scores, got.scores)
            assert np.array_equal(ref.overflowed, got.overflowed)
        assert msv_score_batch(mp, db).overflowed.any()  # the point

    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=150),
                         min_size=1, max_size=40),
        data_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_arbitrary_length_mixtures(self, lengths, data_seed):
        """Batched == reference for any length mixture, including empty
        and 1-residue lanes (a PaddedBatch admits length 0)."""
        mp, vp = _profiles(37, seed=7)
        batch = _padded_batch(lengths, np.random.default_rng(data_seed))
        for prof, batched, ref_fn in (
            (mp, msv_batched_kernel, msv_score_batch),
            (vp, viterbi_batched_kernel, viterbi_score_batch),
        ):
            ref = ref_fn(prof, batch)
            got = batched(prof, batch)
            assert np.array_equal(ref.scores, got.scores)
            assert np.array_equal(ref.overflowed, got.overflowed)


def _rows_run(spec, prof, batch):
    """Rows each lane ran, from the per-sequence spec alone: its length,
    or the rows through the first one whose prefix overflows."""
    run = []
    for codes, L in zip(batch.codes, batch.lengths):
        L = int(L)
        r = L
        if L and spec(prof, codes[:L]) == float("inf"):
            r = next(i for i in range(1, L + 1)
                     if spec(prof, codes[:i]) == float("inf"))
        run.append(r)
    return np.array(run, dtype=np.int64)


def _per_row_tally(spec, prof, batch, config):
    """Every counter the simulated launch charges, tallied row by row
    over each 32-lane bucket, as a per-row kernel loop would."""
    c = KernelCounters()
    M = prof.M
    c.sequences = batch.n_seqs
    c.global_bytes = sum(packed_stream_bytes(int(L)) for L in batch.lengths)
    guard = GuardrailCounters()
    for codes, L in zip(batch.codes, batch.lengths):
        if L:
            spec(prof, codes[: int(L)], guard=guard)
    c.saturations = guard.saturations
    run = _rows_run(spec, prof, batch)
    for b in pack_length_buckets(batch.lengths):
        c.grid_cells += b.grid_cells()
        c.padding_cells += b.grid_cells() - int(batch.lengths[b.indices].sum())
        for i in range(b.width):
            p = int((run[b.indices] > i).sum())
            n_warps = -(-p // WARP)
            c.rows += p
            c.strips += n_warps
            c.cells += p * M
            c.shared_loads += n_warps * M
            c.shared_stores += n_warps * M
            if config is MemoryConfig.SHARED:
                c.shared_loads += n_warps * M
            else:
                c.global_bytes += p * M
    return c


class TestCounters:
    @pytest.mark.parametrize("config", list(MemoryConfig))
    @pytest.mark.parametrize("kernel_idx", [0, 1])
    def test_counters_equal_per_row_tally(self, kernel_idx, config, rng):
        """Closed-form per-bucket charges == the per-row tally, with
        ragged buckets and overflowed lanes retiring mid-bucket."""
        hmm = sample_hmm(40, rng, conservation=30.0)
        sp = SearchProfile(hmm, L=90)
        prof = (MSVByteProfile.from_profile(sp),
                ViterbiWordProfile.from_profile(sp))[kernel_idx]
        spec = (msv_score_sequence, viterbi_score_sequence)[kernel_idx]
        batched = (msv_batched_kernel, viterbi_batched_kernel)[kernel_idx]
        hom = homolog_database(30, 90, rng, hmm=hmm, homolog_fraction=0.5)
        lengths = [len(s) for s in hom] + [0, 1, 33, 34, 35, 120, 121]
        batch = _padded_batch(lengths, rng)
        for k, seq in enumerate(hom):
            batch.codes[k, : len(seq)] = seq.codes
        c = KernelCounters()
        result = batched(prof, batch, config=config, counters=c)
        assert result.overflowed.any()  # retirement is exercised
        want = _per_row_tally(spec, prof, batch, config)
        got = {k: v for k, v in vars(c).items() if k != "sanitizer"}
        assert got == {k: v for k, v in vars(want).items() if k != "sanitizer"}

    def test_counters_match_warp_kernel(self, rng):
        """Same model+database => same rows/cells/saturations as the
        one-sequence-per-warp kernels; only the launch geometry differs."""
        mp, vp = _profiles(64, seed=5)
        db = random_database(40, 100, rng)
        for prof, batched, warp in (
            (mp, msv_batched_kernel, msv_warp_kernel),
            (vp, viterbi_batched_kernel, viterbi_warp_kernel),
        ):
            cb, cw = KernelCounters(), KernelCounters()
            batched(prof, db, counters=cb)
            warp(prof, db, counters=cw)
            assert cb.rows == cw.rows
            assert cb.cells == cw.cells
            assert cb.saturations == cw.saturations
            assert cb.sequences == cw.sequences

    def test_padding_fraction_is_bounded_and_reported(self, rng):
        mp, _ = _profiles(40, seed=9)
        db = random_database(200, 120, rng)
        c = KernelCounters()
        msv_batched_kernel(mp, db, counters=c)
        assert c.grid_cells > 0
        assert c.grid_cells == c.padding_cells + sum(
            int(len(s)) for s in db
        )
        frac = c.padding_fraction
        assert 0.0 <= frac < 0.5
        assert frac == pytest.approx(c.padding_cells / c.grid_cells)

    def test_no_warp_primitives_needed(self, rng):
        """Cross-sequence batching is lane-local: no shuffles, no
        barriers - that is the whole point of packing over lanes."""
        mp, vp = _profiles(50, seed=2)
        db = random_database(30, 90, rng)
        for prof, batched in ((mp, msv_batched_kernel),
                              (vp, viterbi_batched_kernel)):
            c = KernelCounters()
            batched(prof, db, counters=c)
            assert c.shuffles == 0
            assert c.syncthreads == 0


class TestSanitizer:
    @pytest.mark.parametrize("kernel_idx", [0, 1])
    def test_sanitizer_clean(self, kernel_idx, rng):
        mp, vp = _profiles(45, seed=4)
        prof, batched = ((mp, msv_batched_kernel),
                         (vp, viterbi_batched_kernel))[kernel_idx]
        db = random_database(40, 90, rng)
        c = KernelCounters()
        batched(prof, db, counters=c, sanitize=True)
        assert c.sanitizer is not None
        assert c.sanitizer.clean
        assert c.bank_conflict_extra == 0

    @pytest.mark.parametrize("kernel_idx", [0, 1])
    def test_sanitizer_clean_mixed_length_buckets(self, kernel_idx, rng):
        """Wildly mixed lengths force several packing buckets with
        partially filled warps; the shared-memory model must stay
        conflict-, hazard- and garbage-free in every one of them."""
        mp, vp = _profiles(45, seed=4)
        prof, batched = ((mp, msv_batched_kernel),
                         (vp, viterbi_batched_kernel))[kernel_idx]
        lengths = [0, 1, 2, 7, 8, 9, 60, 61, 63, 64, 65, 240, 241, 400]
        batch = _padded_batch(lengths, rng)
        c = KernelCounters()
        batched(prof, batch, counters=c, sanitize=True)
        assert c.sanitizer is not None
        assert c.sanitizer.clean
        assert c.bank_conflict_extra == 0

    @pytest.mark.parametrize("kernel_idx,accesses,transactions",
                             [(0, 800, 2442), (1, 2400, 7326)])
    def test_replayed_access_stream_is_pinned(self, kernel_idx, accesses,
                                              transactions, rng):
        """The replayed warp accesses on the mixed-length batch of
        ``test_sanitizer_clean_mixed_length_buckets`` match what the
        per-row bucket loop issued: one dependency load and one store
        per matrix, per row, per bucket."""
        mp, vp = _profiles(45, seed=4)
        prof, batched = ((mp, msv_batched_kernel),
                         (vp, viterbi_batched_kernel))[kernel_idx]
        lengths = [0, 1, 2, 7, 8, 9, 60, 61, 63, 64, 65, 240, 241, 400]
        batch = _padded_batch(lengths, rng)
        c = KernelCounters()
        batched(prof, batch, counters=c, sanitize=True)
        assert c.sanitizer.accesses == accesses
        assert c.sanitizer.transactions == transactions

    @pytest.mark.parametrize("kernel_idx", [0, 1])
    def test_sanitizer_clean_across_retirement(self, kernel_idx, rng):
        """Lane retirement (overflowed homologs latching mid-kernel)
        must not leak lane garbage into live lanes' shared traffic."""
        hmm = sample_hmm(70, rng)
        sp = SearchProfile(hmm, L=110)
        prof = (MSVByteProfile.from_profile(sp),
                ViterbiWordProfile.from_profile(sp))[kernel_idx]
        batched = (msv_batched_kernel, viterbi_batched_kernel)[kernel_idx]
        db = homolog_database(50, 110, rng, hmm=hmm, homolog_fraction=0.6)
        c = KernelCounters()
        result = batched(prof, db, counters=c, sanitize=True)
        assert result.overflowed.any()  # retirement actually happened
        assert c.sanitizer is not None
        assert c.sanitizer.clean
        assert c.bank_conflict_extra == 0
