"""Warp-synchronous MSV kernel (paper Algorithm 1, Figure 5).

One 32-thread warp scores one sequence; the warp sweeps each DP row in
32-wide strips over the model.  The three architecture-aware ideas of
Section III.A are all present and observable through the counters:

* **No synchronization.**  Because a single warp owns the whole row, the
  two ``__syncthreads`` barriers of the multi-warp design (Figure 4) are
  unnecessary: the kernel issues exactly zero barriers (asserted by the
  test suite, ``counters.syncthreads == 0``).
* **Double buffering at the strip boundary.**  The cell at ``p0 + 32``
  is read by the *next* strip as its lane-0 dependency but written by the
  *current* strip's store; the kernel therefore loads the next strip's 32
  dependency values into registers *before* storing - steps (1)-(4) in
  Figure 5.  That order is the access stream the warp-model sanitizer
  replays for every row, and it flags a dependency load that follows
  the store clobbering it.
* **Shuffle reduction & residue packing.**  Per row, ``xE`` is reduced
  with the butterfly shuffle (Kepler) or the shared-memory tree (Fermi),
  and global residue traffic is charged at the packed 5-bit rate.

Execution is the lockstep pass every filter engine shares
(:func:`~repro.cpu.msv_reference.msv_lockstep`); the warps are the
simulated launch, charged in closed form.  Warp ``s`` is live for
``rows_run[s]`` rows (its length, or through its overflow row), and
every live warp-row sweeps the same ``ceil(M/32)`` strips with the same
loads, stores and one reduction, so every event tally is a multiple of
``rows = sum(rows_run)``.  Scores are bit-identical to
:mod:`repro.cpu.msv_reference` - the paper's "preserving the
sensitivity and accuracy of HMMER 3.0".
"""

from __future__ import annotations

import numpy as np

from ..analysis.sanitizer import resolve_sanitizer
from ..constants import WARP_SIZE
from ..cpu.msv_reference import msv_lockstep
from ..cpu.packing import PackedByteProfile, per_model
from ..cpu.results import FilterScores
from ..gpu.counters import KernelCounters
from ..gpu.device import KEPLER_K40, DeviceSpec
from ..scoring.msv_profile import MSVByteProfile
from ..sequence.database import PaddedBatch, SequenceDatabase
from .batched import attach_report, lockstep_launch
from .memconfig import MemoryConfig
from .reduction import warp_max_shared, warp_max_shuffle

__all__ = ["msv_warp_kernel"]


def strip_bounds(M: int) -> list[tuple[int, int]]:
    """(start, end) model-position ranges of each 32-wide strip."""
    return [(p0, min(p0 + WARP_SIZE, M)) for p0 in range(0, M, WARP_SIZE)]


def charge_sweep(counters: KernelCounters, rows: int, M: int,
                 config: MemoryConfig, device: DeviceSpec, matrices: int,
                 fetches: int, fetch_bytes: int, reductions: int) -> None:
    """Charge ``rows`` live warp-rows of the strip sweep.

    Per strip a warp loads and stores one coalesced, conflict-free
    transaction per DP ``matrices`` row and fetches its ``fetches``
    parameter rows from shared memory (or ``fetch_bytes`` per cell from
    global memory); per row it runs ``reductions`` warp max-reductions.
    """
    strips = rows * -(-M // WARP_SIZE)
    counters.rows += rows
    counters.strips += strips
    counters.cells += rows * M
    counters.shared_loads += matrices * strips
    counters.shared_stores += matrices * strips
    if config is MemoryConfig.SHARED:
        counters.shared_loads += fetches * strips
    else:
        counters.global_bytes += fetch_bytes * rows * M
    one = KernelCounters()  # one warp's reduction on this device
    reduce = warp_max_shuffle if device.has_warp_shuffle else warp_max_shared
    reduce(np.zeros((1, WARP_SIZE), dtype=np.int32), one)
    counters.shuffles += reductions * rows * one.shuffles
    counters.shared_loads += reductions * rows * one.shared_loads
    counters.shared_stores += reductions * rows * one.shared_stores


def replay_sweep(san, counters: KernelCounters | None, label: str,
                 rows_run: np.ndarray, script) -> None:
    """Replay a row sweep's access ``script`` once per lockstep row.

    The access pattern is identical for every warp and row, so each
    simulated warp-wide access is recorded once per row, for as many
    rows as the longest-running warp: ``script`` holds ``(hook, *args)``
    entries for the sanitizer's access and reduction-check hooks.
    """
    for i in range(int(rows_run.max(initial=0))):
        san.begin_row(f"{label}:row{i}")
        for hook, *args in script:
            hook(*args)
    attach_report(counters, san)


def reduction_input(neutral: int) -> np.ndarray:
    """The replayed input of one row-max reduction.

    Lane ``l`` folds in cells ``l, l + 32, ...``.  The check reads only
    the lanes past the model edge, which hold no cell and keep the
    max-neutral they start from; the butterfly needs that or it mixes
    garbage into the result.  The lanes holding cells are not read, so
    the neutral stands in for them as well.
    """
    return np.full((1, WARP_SIZE), neutral, dtype=np.int32)


def msv_warp_kernel(
    profile: MSVByteProfile | PackedByteProfile,
    database: SequenceDatabase | PaddedBatch,
    config: MemoryConfig = MemoryConfig.SHARED,
    device: DeviceSpec = KEPLER_K40,
    counters: KernelCounters | None = None,
    packed_residues: bool = False,
    sanitize: bool | None = None,
) -> FilterScores:
    """Score a database with the warp-synchronous MSV kernel.

    Every sequence is assigned to one (simulated) warp; a warp retires
    after its last residue or its overflow row - functionally equivalent
    to the paper's dynamic scheme where a finished warp grabs the next
    sequence.

    Parameters
    ----------
    config:
        Where emission scores notionally live; functional results are
        identical, only the charged memory traffic differs.
    counters:
        Optional event tally; pass a fresh :class:`KernelCounters`.
    packed_residues:
        Decode the residues from the 5-bit packed word stream (paper
        Figure 6) instead of the padded byte matrix.  Scores are
        identical (tested); this exercises the packed layout end to end,
        including the terminator-flag handling.
    sanitize:
        Arm the warp-model sanitizer for this launch; ``None`` (default)
        defers to the ``REPRO_SANITIZE`` environment variable.  The
        resulting :class:`~repro.analysis.sanitizer.SanitizerReport` is
        attached to ``counters.sanitizer``.

    A packed call (:mod:`repro.cpu.packing`) takes one ``counters``
    entry per model and charges each the warps of its own lanes, with
    its own sanitizer.
    """
    result, batch, rows_run = lockstep_launch(
        msv_lockstep, profile, database, counters, packed_residues
    )
    for prof, lanes, c in per_model(profile, batch, counters):
        if c is not None:
            charge_sweep(c, int(rows_run[lanes].sum()), prof.M, config,
                         device, matrices=1, fetches=1, fetch_bytes=1,
                         reductions=1)
        san = resolve_sanitizer(sanitize)
        if san is not None:
            replay_sweep(san, c, "msv", rows_run[lanes], _script(san, prof.M))
    return result


def _script(san, M: int) -> list:
    """One row's shared-memory access stream for the sanitizer.

    The MSV row is one byte per cell (u8 scores): cell j lives at
    shared-memory byte j, cell 0 the permanent minus infinity.
    """
    strips = strip_bounds(M)
    script = [(san.shared_load, range(*strips[0]), "msv:dep-load:strip0",
               True)]
    for s, (p0, p1) in enumerate(strips):
        if s + 1 < len(strips):
            # the next strip's dependencies, loaded before this strip's
            # store overwrites cell p1 (Figure 5)
            q0, q1 = strips[s + 1]
            script.append((san.shared_load, range(q0, q1),
                           f"msv:dep-load:strip{s + 1}", True))
        script.append((san.shared_store, range(p0 + 1, p1 + 1),
                       f"msv:store:strip{s}"))
    script.append((san.check_reduction, reduction_input(0),
                   min(M, WARP_SIZE), 0, "msv:xE-reduce"))
    return script
