"""Process-parallel stage scoring: the ``mp`` engine backend.

On hosts without the simulated accelerator's vector width - or to
overlap scoring with the service plane's Python-side bookkeeping - the
``mp`` engine shards a database across a ``ProcessPoolExecutor`` of
**forked** worker processes, each running a configurable *inner* engine
(``gpu_warp_batched`` by default) on its contiguous shard.

Design points:

* **Shared-memory score arrays.**  The per-sequence score and overflow
  arrays live in anonymous shared mappings
  (:func:`multiprocessing.sharedctypes.RawArray`) created *before* the
  pool forks, so workers write results in place and nothing is
  serialized on the way back except the small counter tally.  Anonymous
  mappings need no names, no resource tracker and no cleanup.
* **Fork inheritance, not pickling.**  The work description (profile,
  padded batch, inner scorer) is bound to a module global before the
  pool starts; forked children inherit it copy-on-write, so the
  sequence data crosses into workers without pickling.
* **Fork-safe seeding.**  Stage scoring is deterministic and touches no
  RNG (enforced by repro-lint R001 on this directory), so forked
  workers cannot correlate random streams.  Anything stochastic a
  worker ever adds must derive its own private generator from
  :func:`chunk_seed` - a content-derived seed, unique per shard and
  independent of worker identity or fork order - never from inherited
  global state.
* **Composition-independent determinism.**  Every sequence's score is a
  pure function of (profile, sequence) in every inner engine, so the
  concatenated result is bit-identical for any worker count; the test
  suite pins workers = 1/2/4 to identical hits.

``workers=1`` scores inline in this process - no pool, no fork - which
is also the fallback when the platform lacks the ``fork`` start method
(see the engine's capability probe).
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from ctypes import c_double, c_uint8
from multiprocessing import get_context
from multiprocessing.sharedctypes import RawArray
from typing import Callable

import numpy as np

from ..errors import KernelError
from ..gpu.counters import KernelCounters
from ..sequence.database import PaddedBatch, SequenceDatabase
from .packing import is_packed, per_model
from .results import FilterScores

__all__ = ["mp_score_stage", "chunk_seed"]


def chunk_seed(stage: str, start: int, stop: int, payload: bytes = b"") -> int:
    """Deterministic per-shard seed for worker-private generators.

    Derived from the shard's identity (stage + index span + optional
    content digest), never from process ids, fork order or inherited
    generator state - the fork-safe seeding contract of the ``mp``
    engine.  Scoring itself is RNG-free; this exists so stochastic
    instrumentation added inside a worker has a correct seed to hand.
    """
    h = hashlib.sha256(f"{stage}:{start}:{stop}:".encode() + payload)
    return int.from_bytes(h.digest()[:8], "big")


def _inner_scorer(stage: str, inner: str) -> Callable[..., FilterScores]:
    """The plain scoring callable a worker runs on its shard."""
    if inner == "cpu_sse":
        from .msv_reference import msv_score_batch
        from .viterbi_reference import viterbi_score_batch

        ref = msv_score_batch if stage == "msv" else viterbi_score_batch

        def run(profile, shard, counters):
            for _, lanes, c in per_model(profile, shard, counters):
                c.sequences += lanes.size
                c.rows += int(shard.lengths[lanes].sum())
            return ref(profile, shard)

        return run
    if inner == "gpu_warp":
        from ..kernels.msv_warp import msv_warp_kernel
        from ..kernels.viterbi_warp import viterbi_warp_kernel

        kernel = msv_warp_kernel if stage == "msv" else viterbi_warp_kernel
    elif inner == "gpu_warp_batched":
        from ..kernels.batched import msv_batched_kernel, viterbi_batched_kernel

        kernel = msv_batched_kernel if stage == "msv" else viterbi_batched_kernel
    else:
        raise KernelError(
            f"mp backend cannot run inner engine {inner!r} "
            "(inner engines: cpu_sse, gpu_warp, gpu_warp_batched)"
        )

    def run(profile, shard, counters):
        return kernel(profile, shard, counters=counters)

    return run


# Work description for forked children, bound immediately before the
# pool starts: (scorer, profile, batch, score_buf, overflow_buf).
_TASK: tuple | None = None


def _score_span(span: tuple[int, int]) -> list[dict[str, int]]:
    """Worker body: score one contiguous shard into the shared arrays."""
    assert _TASK is not None, "mp worker forked without a bound task"
    run, profile, batch, score_buf, overflow_buf = _TASK
    lo, hi = span
    shard = PaddedBatch(
        codes=batch.codes[lo:hi],
        lengths=batch.lengths[lo:hi],
        pad_code=batch.pad_code,
        models=None if batch.models is None else batch.models[lo:hi],
    )
    packed = batch.models is not None
    counters = (
        [KernelCounters() for _ in profile.profiles] if packed
        else KernelCounters()
    )
    result = run(profile, shard, counters)
    scores = np.frombuffer(score_buf, dtype=np.float64)
    overflowed = np.frombuffer(overflow_buf, dtype=np.uint8)
    scores[lo:hi] = result.scores
    overflowed[lo:hi] = result.overflowed
    return [c.as_dict() for c in (counters if packed else [counters])]


def _shards(models: np.ndarray | None, n: int,
            workers: int) -> list[tuple[int, int]]:
    """The ``(lo, hi)`` lane span of each worker shard: residue-blind
    splits of ``min(workers, lanes)`` per model.  A packed batch is
    model-major, so each model's lanes are one range and its spans are
    exactly the shards its own call would make."""
    edges = [0, n] if models is None else [
        0, *(np.flatnonzero(np.diff(models)) + 1), n]
    spans = []
    for a, b in zip(edges[:-1], edges[1:]):
        cuts = a + np.linspace(0, b - a, min(workers, b - a) + 1).astype(int)
        spans += [(int(lo), int(hi)) for lo, hi in zip(cuts[:-1], cuts[1:])]
    return spans


def mp_score_stage(
    stage: str,
    profile,
    database: SequenceDatabase | PaddedBatch,
    *,
    workers: int,
    inner: str,
    counters: KernelCounters | None = None,
) -> FilterScores:
    """Score one filter stage with a pool of forked worker processes.

    Returns the same :class:`~repro.cpu.results.FilterScores` the inner
    engine would produce on the whole database, bit-identical for every
    ``workers`` value.  Worker counter tallies are merged into
    ``counters``.  A packed call (:mod:`repro.cpu.packing`) shards each
    model's lanes as that model's own call would, and ``counters`` holds
    one entry per model.
    """
    if workers < 1:
        raise KernelError("mp workers must be >= 1")
    batch = (
        database.padded_batch()
        if isinstance(database, SequenceDatabase)
        else database
    )
    run = _inner_scorer(stage, inner)
    n = batch.n_seqs
    packed = is_packed(profile, batch)
    if counters is None:
        counters = (
            [KernelCounters() for _ in profile.profiles] if packed
            else KernelCounters()
        )
    shards = _shards(batch.models, n, workers)
    if workers == 1 or len(shards) <= 1:
        return run(profile, batch, counters)

    score_buf = RawArray(c_double, n)
    overflow_buf = RawArray(c_uint8, n)
    global _TASK
    _TASK = (run, profile, batch, score_buf, overflow_buf)
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(shards)),
            mp_context=get_context("fork"),
        ) as pool:
            tallies = list(pool.map(_score_span, shards))
    finally:
        _TASK = None

    for tally in tallies:
        for c, fields in zip(counters if packed else [counters], tally):
            for name, value in fields.items():
                setattr(c, name, getattr(c, name) + value)
    scores = np.frombuffer(score_buf, dtype=np.float64).copy()
    overflowed = np.frombuffer(overflow_buf, dtype=np.uint8).astype(bool)
    return FilterScores(scores=scores, overflowed=overflowed)
