"""Cross-sequence batched MSV and P7Viterbi kernels, and the lockstep
launch every simulated kernel shares.

The warp kernels in :mod:`repro.kernels.msv_warp` /
:mod:`repro.kernels.viterbi_warp` model **one sequence per warp**: a
warp's 32 lanes sweep the model dimension.  These kernels model
batching *across sequences* instead (AnySeq/GPU-style cross-alignment
batching): each lane owns one whole sequence and all lanes advance one
residue per lockstep row.

Both families execute the same way, through :func:`lockstep_launch`:
the lockstep pass the ``cpu_sse`` engine runs too
(:func:`~repro.cpu.msv_reference.msv_lockstep`,
:func:`~repro.cpu.viterbi_reference.viterbi_lockstep`), one row loop
per call over blocks of about a thousand length-sorted lanes, so the
row loop runs ``max_len`` times per block, not per warp or per 32-lane
bucket.  Each kernel then charges its own simulated launch from the
lanes' rows-run.

What the batched kernels add is their launch - the 32-lane warp
buckets a GPU would run - as accounting, observable through the
counters:

* **Length-sorted lane packing.**  Sequences are sorted by length
  (descending), so the lanes still live at row ``i`` always form a
  contiguous prefix, exactly like a GPU retiring trailing lanes.
* **Length bucketing bounds padding waste.**  A bucket closes when the
  next sequence is shorter than ``(1 - max_waste)`` of the bucket's
  first (longest) sequence, so the fraction of launched lane-rows that
  hold no residue is bounded by ``max_waste`` plus the final
  warp-rounding term.  The realized fraction is reported as
  ``KernelCounters.padding_fraction`` (``grid_cells`` /
  ``padding_cells``).
* **Lane retirement on overflow.**  A lane whose score overflows the
  quantized range leaves the live prefix after its overflow row, in
  the lockstep pass and in every bucket's row count alike.
* **Closed-form charges.**  Each lane's rows-run (its length, or the
  rows through its overflow row) fixes every per-row event tally of
  its bucket, so ``rows``, ``strips``, ``cells`` and the memory
  traffic are charged per bucket without a per-bucket row loop.
* **No reduction, no barriers.**  Each lane reduces its own row maximum
  serially in registers; the cross-lane shuffle of the per-warp kernels
  disappears (``shuffles == 0``, ``syncthreads == 0``).
* **Conflict-free lane-major layout.**  Lane ``l``'s DP row lives at
  stride :func:`~repro.gpu.warp.conflict_free_lane_stride`, so a
  warp-wide access to cell ``j`` across lanes touches 32 distinct
  banks; the WarpSanitizer certifies this on every replayed row.

Scores are bit-identical to :mod:`repro.cpu.msv_reference` and
:mod:`repro.cpu.viterbi_reference` - the paper's accuracy-preservation
claim, pinned per-sequence by a hypothesis property test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..alphabet.packing import packed_stream_bytes
from ..analysis.sanitizer import resolve_sanitizer
from ..constants import WARP_SIZE
from ..cpu.msv_reference import msv_lockstep
from ..cpu.packing import PackedByteProfile, PackedWordProfile, is_packed, per_model
from ..cpu.results import FilterScores, live_counts
from ..cpu.viterbi_reference import viterbi_lockstep
from ..errors import KernelError
from ..gpu.counters import KernelCounters
from ..gpu.device import KEPLER_K40, DeviceSpec
from ..gpu.warp import conflict_free_lane_stride
from ..scoring.guardrails import GuardrailCounters
from ..scoring.msv_profile import MSVByteProfile
from ..scoring.vit_profile import ViterbiWordProfile
from ..sequence.database import PaddedBatch, SequenceDatabase
from .memconfig import MemoryConfig
from .residue_stream import PackedResidueStream

__all__ = [
    "LaneBucket",
    "pack_length_buckets",
    "msv_batched_kernel",
    "viterbi_batched_kernel",
    "DEFAULT_MAX_WASTE",
]

#: Default padding-waste bound for length bucketing.
DEFAULT_MAX_WASTE = 0.25


@dataclass(frozen=True)
class LaneBucket:
    """One launch group: length-sorted sequences packed across lanes.

    Attributes
    ----------
    indices:
        Original batch positions of the member sequences, length-sorted
        descending (stable).
    width:
        The bucket's row count = its longest member's length.
    lanes_padded:
        Lane count rounded up to a whole number of 32-lane warps - the
        launched grid width.
    """

    indices: np.ndarray
    width: int

    @property
    def lanes(self) -> int:
        return int(self.indices.size)

    @property
    def lanes_padded(self) -> int:
        return -(-self.lanes // WARP_SIZE) * WARP_SIZE

    def grid_cells(self) -> int:
        """Lane-rows launched for this bucket (live + padding)."""
        return self.lanes_padded * self.width


def pack_length_buckets(
    lengths: np.ndarray, max_waste: float = DEFAULT_MAX_WASTE
) -> list[LaneBucket]:
    """Length bucketing of a batch for cross-sequence lane packing.

    Sequences are sorted by length descending (stable, so equal lengths
    keep batch order) and split into buckets by a shortest-path dynamic
    program that minimizes the total launched grid
    (``sum of lanes_padded * width`` over buckets).  A split is
    *admissible* when every lane covers at least ``1 - max_waste`` of
    its bucket's rows - that bounds the per-lane length padding - with
    one relaxation: a bucket may always absorb up to a full warp of 32
    lanes, because splitting below warp granularity only trades length
    padding for strictly-larger warp-rounding padding.  The greedy
    pure-threshold split is admissible, so the DP's total padding never
    exceeds it; the realized fraction is reported as
    ``KernelCounters.padding_fraction``.  Among equal-cost plans the
    first bucket is the smallest.  Zero-length sequences never join a
    bucket - they have no DP rows.
    """
    if not 0.0 <= max_waste < 1.0:
        raise KernelError("max_waste must be in [0, 1)")
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    sorted_lens = lengths[order]
    n = int(np.searchsorted(-sorted_lens, 0, side="left"))  # drop zero tail
    if n == 0:
        return []
    sorted_lens = sorted_lens[:n]
    # reach[i]: one past the last lane a bucket opened at lane i may take
    floors = (1.0 - max_waste) * sorted_lens
    reach = np.searchsorted(-sorted_lens, -floors, side="right")
    reach = np.minimum(n, np.maximum(reach, np.arange(n) + WARP_SIZE))
    # best[i]: minimal grid cells to pack lanes i..n-1.  best[] is
    # non-increasing in i (dropping a bucket's first lane never costs
    # more), so among the k sharing a warp count m the largest wins:
    # only k = min(32 m, last) compete, and a k past the last admissible
    # one repeats that one at a higher cost, so argmin never takes it.
    # Every such k >= 32 (or reaches n), so 32 consecutive starts depend
    # only on already-solved ones and are solved together.
    best = np.zeros(n + 1, dtype=np.int64)
    won = np.zeros(n, dtype=np.int64)  # the winning k per start
    for top in range(n, 0, -WARP_SIZE):
        i = np.arange(max(0, top - WARP_SIZE), top)
        last = reach[i] - i
        m = np.arange(1, -(-int(last.max()) // WARP_SIZE) + 1)
        k = np.minimum(m * WARP_SIZE, last[:, None])
        cost = m * WARP_SIZE * sorted_lens[i, None] + best[i[:, None] + k]
        j = np.argmin(cost, axis=1)
        rows = np.arange(i.size)
        best[i] = cost[rows, j]
        won[i] = k[rows, j]
    # argmin keeps the smallest k overall: the first minimal warp count,
    # then the first k of that count reaching the same best[i + k]
    starts = np.arange(n)
    first_equal = np.searchsorted(-best, -best[starts + won], side="left")
    group_lo = starts + (won - 1) // WARP_SIZE * WARP_SIZE + 1
    split = np.maximum(first_equal, group_lo)
    buckets: list[LaneBucket] = []
    start = 0
    while start < n:
        end = int(split[start])
        buckets.append(
            LaneBucket(indices=order[start:end], width=int(sorted_lens[start]))
        )
        start = end
    return buckets


def _account(
    counters: KernelCounters | None,
    san,
    lengths: np.ndarray,
    rows_run: np.ndarray,
    M: int,
    config: MemoryConfig,
    max_waste: float,
    label: str,
    stride: int,
    cell_bytes: int,
    matrices: tuple[tuple[str, int], ...],
) -> None:
    """Charge the simulated bucketed launch of one model's lanes.

    Bucket ``b`` runs row ``i`` over its ``p_i`` lanes with
    ``rows_run > i`` (longest first, so a prefix; retired lanes drop
    out after their overflow row).  Per row and warp the lanes sweep
    the model serially: one conflict-free warp-wide load + store per
    cell of the lane-major DP row, plus the emission fetch from shared
    or global memory - the same convention the per-warp kernels charge,
    transposed to lane-per-sequence.  Summed over rows that is, per
    bucket, ``rows = sum(rows_run)`` and ``strips = sum_i ceil(p_i/32)``,
    which equals the sum of every 32nd rows-run in descending order
    (warp ``w`` is live while lane ``32 w`` is).  With a sanitizer the
    per-row warp accesses are replayed: one representative warp-wide
    dependency load and store per matrix per row, the pattern being
    identical for every warp and cell.
    """
    buckets = pack_length_buckets(lengths, max_waste=max_waste)
    rows = strips = 0
    for b in buckets:
        if counters is not None:
            grid = b.grid_cells()
            counters.grid_cells += grid
            counters.padding_cells += grid - int(lengths[b.indices].sum())
        run = np.sort(rows_run[b.indices])[::-1]
        rows += int(run.sum())
        strips += int(run[::WARP_SIZE].sum())
        if san is None:
            continue
        for i, p in enumerate(live_counts(run, int(run[0]))):
            san.begin_row(f"{label}:row{i}")
            lanes = np.arange(min(WARP_SIZE, int(p)), dtype=np.int64) * stride
            cell = cell_bytes * (i % M)
            for mat, base in matrices:
                san.shared_load(lanes + base + cell, f"{label}:dep-load{mat}",
                                dependency=True)
            for mat, base in matrices:
                san.shared_store(lanes + base + cell + cell_bytes,
                                 f"{label}:store{mat}")
    if counters is not None:
        counters.rows += rows
        counters.strips += strips
        counters.cells += rows * M
        counters.shared_loads += strips * M
        counters.shared_stores += strips * M
        if config is MemoryConfig.SHARED:
            counters.shared_loads += strips * M  # emission fetch
        else:
            counters.global_bytes += rows * M  # emission fetch
    attach_report(counters, san)


def lockstep_launch(lockstep, profile, database, counters,
                    packed_residues=False, observe=None):
    """Score a simulated launch with the shared lockstep pass.

    Returns the scores, the padded batch and each lane's rows-run, from
    which the kernel charges its own event model.  Charges what every
    launch shares: the sequences, their residues read at the packed
    5-bit rate (paper Figure 6) and the pass's saturation tally.  With
    ``packed_residues`` the residues are decoded from the packed word
    stream, all rows in one call, into the codes the pass reads.
    ``observe`` is the P7Viterbi pass's per-row hook.  In a packed call
    (:mod:`repro.cpu.packing`) ``counters`` holds one entry per model,
    each charged for its own lanes.
    """
    source_db = database if isinstance(database, SequenceDatabase) else None
    batch = database if source_db is None else database.padded_batch()
    if packed_residues:
        decoded = PackedResidueStream(batch, source_db).decoded()
        batch = replace(decoded, models=batch.models)
    guard = None
    if counters is not None:
        guard = ([GuardrailCounters() for _ in profile.profiles]
                 if is_packed(profile, batch) else GuardrailCounters())
    result, rows_run = (
        lockstep(profile, batch, guard) if observe is None
        else lockstep(profile, batch, guard, observe=observe)
    )
    if counters is not None:
        for (_, lanes, c), (_, _, g) in zip(per_model(profile, batch, counters),
                                            per_model(profile, batch, guard)):
            c.sequences += lanes.size
            c.global_bytes += int(
                sum(packed_stream_bytes(int(L)) for L in batch.lengths[lanes])
            )
            c.saturations += g.saturations
    return result, batch, rows_run


def attach_report(counters: KernelCounters | None, san) -> None:
    """Attach a sanitized launch's report and its bank-conflict replays."""
    if san is not None and counters is not None:
        report = san.report()
        counters.attach_sanitizer(report)
        counters.bank_conflict_extra += report.conflict_extra


def _run(lockstep, profile, database, config, counters, sanitize,
         max_waste, layout) -> FilterScores:
    """Score with the shared lockstep pass, then account the launch of
    each model's lanes.

    ``layout(profile)`` is the kernel's ``(label, lane stride, cell
    bytes, matrices)`` for :func:`_account`.
    """
    result, batch, rows_run = lockstep_launch(lockstep, profile, database,
                                              counters)
    for prof, lanes, c in per_model(profile, batch, counters):
        san = resolve_sanitizer(sanitize)
        if c is not None or san is not None:
            _account(c, san, batch.lengths[lanes], rows_run[lanes], prof.M,
                     config, max_waste, *layout(prof))
    return result


def msv_batched_kernel(
    profile: MSVByteProfile | PackedByteProfile,
    database: SequenceDatabase | PaddedBatch,
    config: MemoryConfig = MemoryConfig.SHARED,
    device: DeviceSpec = KEPLER_K40,
    counters: KernelCounters | None = None,
    sanitize: bool | None = None,
    max_waste: float = DEFAULT_MAX_WASTE,
) -> FilterScores:
    """Score a database with the cross-sequence batched MSV kernel.

    Bit-identical to :func:`repro.cpu.msv_reference.msv_score_batch`
    (and therefore to per-sequence scoring): both run
    :func:`~repro.cpu.msv_reference.msv_lockstep`, whose u8 state is
    carried natively with the clamp-before-add saturation identities.
    A packed call (:mod:`repro.cpu.packing`) takes one ``counters``
    entry per model and charges each the launch of its own lanes.
    """
    def layout(prof):
        # one u8 row per lane; cell 0 is the byte-0 minus infinity
        return ("msv_batched", conflict_free_lane_stride(prof.M + 1), 1,
                (("", 0),))

    return _run(msv_lockstep, profile, database, config, counters, sanitize,
                max_waste, layout)


def viterbi_batched_kernel(
    profile: ViterbiWordProfile | PackedWordProfile,
    database: SequenceDatabase | PaddedBatch,
    config: MemoryConfig = MemoryConfig.SHARED,
    device: DeviceSpec = KEPLER_K40,
    counters: KernelCounters | None = None,
    sanitize: bool | None = None,
    max_waste: float = DEFAULT_MAX_WASTE,
) -> FilterScores:
    """Score a database with the cross-sequence batched P7Viterbi kernel.

    Bit-identical to
    :func:`repro.cpu.viterbi_reference.viterbi_score_batch`: both run
    :func:`~repro.cpu.viterbi_reference.viterbi_lockstep`, the fused
    word recurrence argued exact in that module.  A packed call
    (:mod:`repro.cpu.packing`) takes one ``counters`` entry per model
    and charges each the launch of its own lanes.
    """
    def layout(prof):
        # i16 rows for three matrices per lane: M, I, D
        row = 2 * (prof.M + 1)
        return ("vit_batched", conflict_free_lane_stride(3 * row), 2,
                ((":m", 0), (":i", row), (":d", 2 * row)))

    return _run(viterbi_lockstep, profile, database, config, counters,
                sanitize, max_waste, layout)
