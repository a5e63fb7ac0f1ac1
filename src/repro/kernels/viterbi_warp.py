"""Warp-synchronous P7Viterbi kernel (paper Algorithm 2).

The full Plan-7 filter on the GPU: same three-tiered, synchronization-free
structure as the MSV kernel (one warp per sequence, 32-wide strips,
double-buffered strip boundaries, shuffle reduction), extended with

* three DP rows (M / I / D words) instead of one byte row,
* the within-row D-D dependency resolved by the **parallel Lazy-F**
  procedure with a warp vote (:mod:`repro.kernels.lazy_f`),
* a ``Dmax`` shuffle reduction per row that skips Lazy-F entirely when no
  finite M->D contribution exists ("selected residues need pass through
  this checking procedure", Figure 7).

The M and I rows are updated in place in (simulated) shared memory with
the same load-before-store double buffering as the MSV kernel - both the
diagonal (node ``j-1``) and same-position dependencies of the next strip
are staged in registers before the store; the D row writes back strip by
strip after the Lazy-F resolution.  That order is the access stream the
warp-model sanitizer replays for every row.

Execution is the lockstep pass every filter engine shares
(:func:`~repro.cpu.viterbi_reference.viterbi_lockstep`), so scores are
bit-identical to :mod:`repro.cpu.viterbi_reference`.  The warps are the
simulated launch, charged in closed form from each warp's rows-run like
the MSV kernel, with two reductions (xE and Dmax) per row.  The Lazy-F
tallies depend on the data: the pass shows every row's exact Match and
Delete values to :func:`~repro.kernels.lazy_f.lazy_f_lanes`, which
counts, per lane, the votes :func:`~repro.kernels.lazy_f.parallel_lazy_f`
would cast on that row; each model is charged its lanes' sum.
"""

from __future__ import annotations

import numpy as np

from ..analysis.sanitizer import resolve_sanitizer
from ..constants import VF_WORD_MIN, WARP_SIZE
from ..cpu.packing import PackedWordProfile, per_model
from ..cpu.results import FilterScores
from ..cpu.viterbi_reference import viterbi_lockstep
from ..gpu.counters import KernelCounters
from ..gpu.device import KEPLER_K40, DeviceSpec
from ..scoring.vit_profile import ViterbiWordProfile
from ..sequence.database import PaddedBatch, SequenceDatabase
from .batched import lockstep_launch
from .lazy_f import charge_lazy_f, lazy_f_lanes
from .memconfig import MemoryConfig
from .msv_warp import charge_sweep, reduction_input, replay_sweep, strip_bounds

__all__ = ["viterbi_warp_kernel"]


def viterbi_warp_kernel(
    profile: ViterbiWordProfile | PackedWordProfile,
    database: SequenceDatabase | PaddedBatch,
    config: MemoryConfig = MemoryConfig.SHARED,
    device: DeviceSpec = KEPLER_K40,
    counters: KernelCounters | None = None,
    packed_residues: bool = False,
    sanitize: bool | None = None,
) -> FilterScores:
    """Score a database with the warp-synchronous P7Viterbi kernel.

    ``packed_residues=True`` decodes residues from the 5-bit packed word
    stream (Figure 6), exactly like the MSV kernel; scores are identical.
    ``sanitize`` arms the warp-model sanitizer (``None`` defers to the
    ``REPRO_SANITIZE`` environment variable); the report is attached to
    ``counters.sanitizer``.  A packed call (:mod:`repro.cpu.packing`)
    takes one ``counters`` entry per model and charges each the warps
    of its own lanes, with its own sanitizer.
    """
    observe = None
    models = getattr(database, "models", None)
    if counters is not None:
        # per-lane Lazy-F tallies, charged per model below; a packed
        # call's cut links keep every start at or past a model's last
        # node at the floor
        n = (len(database) if isinstance(database, SequenceDatabase)
             else database.n_seqs)
        entered = np.zeros(n, dtype=np.int64)
        extra = np.zeros(n, dtype=np.int64)

        def observe(Mv, Dv, lanes):
            tmd = (profile.tmd if models is None
                   else profile.tmd_cut[models[lanes]])
            e, x = lazy_f_lanes(Mv, Dv, tmd)
            entered[lanes] += e
            extra[lanes] += x
    result, batch, rows_run = lockstep_launch(
        viterbi_lockstep, profile, database, counters, packed_residues,
        observe,
    )
    for prof, lanes, c in per_model(profile, batch, counters):
        M = prof.M
        if c is not None:
            # M/I/D dependency loads and row stores, emission + transition
            # fetches, and the xE and Dmax reductions
            charge_sweep(c, int(rows_run[lanes].sum()), M, config, device,
                         matrices=3, fetches=2, fetch_bytes=4, reductions=2)
            if M >= 2:
                charge_lazy_f(c, int(entered[lanes].sum()),
                              -(-M // WARP_SIZE), int(extra[lanes].sum()))
        san = resolve_sanitizer(sanitize)
        if san is not None:
            replay_sweep(san, c, "vit", rows_run[lanes], _script(san, M))
    return result


def _script(san, M: int) -> list:
    """One row's shared-memory access stream for the sanitizer.

    i16 rows, 2 bytes per cell; the three DP buffers occupy disjoint
    shared-memory ranges so the hazard tracker sees them as distinct
    cells: cell c of mmx at byte 2c, imx at row + 2c, dmx at 2 row + 2c.
    """
    row = 2 * (M + 1)

    def cells(base, lo, hi):
        return range(base + 2 * lo, base + 2 * hi, 2)

    def load(name, s, base, lo, hi):
        return (san.shared_load, cells(base, lo, hi),
                f"vit:{name}:strip{s}", True)

    strips = strip_bounds(M)
    first = strips[0][1]
    script = [load("mpv", 0, 0, 0, first), load("ipv", 0, row, 0, first),
              load("dpv", 0, 2 * row, 0, first - 1)]
    for s, (p0, p1) in enumerate(strips):
        # same-position previous-row values for the I update, read
        # before this strip's store overwrites them
        script += [load("m-same", s, 0, p0 + 1, p1 + 1),
                   load("i-same", s, row, p0 + 1, p1 + 1)]
        if s + 1 < len(strips):
            # the next strip's diagonal dependencies, before the
            # in-place store clobbers cell p1
            q0, q1 = strips[s + 1]
            script += [load("mpv", s + 1, 0, q0, q1),
                       load("ipv", s + 1, row, q0, q1),
                       load("dpv", s + 1, 2 * row, q0 - 1, q1 - 1)]
        script += [(san.shared_store, cells(0, p0 + 1, p1 + 1),
                    f"vit:m-store:strip{s}"),
                   (san.shared_store, cells(row, p0 + 1, p1 + 1),
                    f"vit:i-store:strip{s}")]
    lanes = reduction_input(VF_WORD_MIN)
    script += [(san.check_reduction, lanes, min(M, WARP_SIZE),
                VF_WORD_MIN, f"vit:{name}-reduce") for name in ("xE", "dmax")]
    script += [(san.shared_store, cells(2 * row, p0, p1),
                f"vit:d-store:strip{s}")
               for s, (p0, p1) in enumerate(strips)]
    return script
