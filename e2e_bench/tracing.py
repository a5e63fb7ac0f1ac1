"""The traced run: benchmark-owned spans, layer wrappers and the rollup.

Two sources of spans feed one :class:`repro.Tracer`:

* the program's own spans (job / schedule / search / stage / shard /
  kernel), armed through ``SearchOptions(tracer=...)``;
* spans added by the benchmark: around its own calls into a layer's
  public entry point (:func:`layer_span` at the call site: FASTA and
  model readers, press, load), and around internal entry points the
  program calls on its own - pipeline construction, calibration,
  traceback, WAL appends - by wrapping them in place (:data:`TARGETS`).

A wrapper whose target has moved is skipped and its metrics are left
out of the rollup; the workload still runs.  Wrappers record only while
:data:`ACTIVE` holds a tracer, so the same process can time untraced
rounds and traced rounds back to back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time

import numpy as np

#: The tracer wrappers and call-site spans record into (None = off).
ACTIVE = None

#: Internal entry points wrapped during the traced run:
#: span name -> "module:attribute[.attribute]".
TARGETS = {
    "pipeline.build": "repro.pipeline.pipeline:HmmsearchPipeline.__init__",
    "calibrate": "repro.pipeline.pipeline:calibrate_profile",
    "calibrate.msv": "repro.pipeline.calibrate:msv_score_batch",
    "calibrate.p7viterbi": "repro.pipeline.calibrate:viterbi_score_batch",
    "calibrate.forward": "repro.pipeline.calibrate:forward_score_batch",
    "traceback": "repro.cpu.traceback:viterbi_traceback",
    "wal.append": "repro.service.wal:WriteAheadJournal.append",
}

#: Span kind of every benchmark-owned span.
KIND = "bench"


def layer_span(name: str):
    """A benchmark-owned span around one call into a layer (no-op
    when tracing is off)."""
    if ACTIVE is None:
        return contextlib.nullcontext()
    return ACTIVE.span(name, KIND)


def _wrap(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if ACTIVE is None:
            return fn(*args, **kwargs)
        with ACTIVE.span(name, KIND):
            return fn(*args, **kwargs)

    return wrapper


def install() -> tuple[set[str], list]:
    """Wrap every resolvable target in :data:`TARGETS`.

    Returns the names that resolved and an undo list for
    :func:`uninstall`.
    """
    installed, undo = set(), []
    for name, target in TARGETS.items():
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            continue
        setattr(owner, attr, _wrap(name, original))
        undo.append((owner, attr, original))
        installed.add(name)
    return installed, undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def yardstick() -> float:
    """Seconds for a fixed numpy loop; shows how fast the host ran.

    The loop mixes small-array ufunc calls and a matrix product, the
    same kinds of work the DP kernels do, and never changes with the
    program under test.
    """
    rng = np.random.default_rng(0)
    a = rng.random((160, 160))
    row = rng.random(256)
    t0 = time.perf_counter()
    for _ in range(6):
        a = a @ a
        a /= np.abs(a).max()
    for _ in range(4000):
        row = np.maximum(row * 0.999, np.roll(row, 1)) + 1e-3
    return time.perf_counter() - t0


def _self_seconds(sp) -> float:
    return sp.seconds - sum(c.seconds for c in sp.children)


def _total(spans, counter=None) -> float:
    if counter is None:
        return float(sum(s.seconds for s in spans))
    return float(sum(s.counters.get(counter, 0) for s in spans))


def _rate(cells: float, seconds: float) -> float:
    return cells / seconds / 1e6 if seconds > 0 else 0.0


def rollup(
    *,
    setup_roots: list,
    round_roots: list,
    rounds: int,
    round_wall: float,
    overhead: float,
    installed: set[str],
    extra: dict,
) -> dict:
    """Per-layer metrics from one traced run.

    Set-up layers (readers, profile building, calibration, press, load)
    are reported per set-up; everything measured in the timed phase is
    reported per round, so no figure depends on how many rounds a host
    managed to run.  ``extra`` carries figures the workload measured
    itself (WAL bytes, cache misses, the yardstick).
    """
    setup_spans = [s for r in setup_roots for s in r.walk()]
    spans = [s for r in round_roots for s in r.walk()]
    per = 1.0 / max(rounds, 1)

    def named(pool, name, kind=KIND):
        return [s for s in pool if s.kind == kind and s.name == name]

    m: dict[str, tuple[float, str]] = {}
    m["sequence.read_s"] = (_total(named(setup_spans, "sequence.read")), "s")
    m["hmm.load_s"] = (_total(named(setup_spans, "hmm.load")), "s")
    builds = named(setup_spans, "pipeline.build")
    if {"pipeline.build", "calibrate"} <= installed:
        calib = named(setup_spans, "calibrate")
        filters = named(setup_spans, "calibrate.msv") + named(
            setup_spans, "calibrate.p7viterbi")
        m["profile.build_s"] = (_total(builds) - _total(calib), "s")
        m["calibrate.s"] = (_total(calib), "s")
        m["calibrate.count"] = (float(len(calib)), "count")
        if {"calibrate.msv", "calibrate.p7viterbi"} <= installed:
            m["calibrate.filters_s"] = (_total(filters), "s")
        if "calibrate.forward" in installed:
            m["calibrate.forward_s"] = (
                _total(named(setup_spans, "calibrate.forward")), "s")

    stages = {
        name: [s for s in spans if s.kind == "stage" and s.name == name]
        for name in ("msv", "p7viterbi", "forward")
    }
    for name, group in stages.items():
        secs = _total(group)
        m[f"stage.{name}.s"] = (secs * per, "s")
        m[f"stage.{name}.mcells_per_s"] = (
            _rate(_total(group, "cells"), secs), "Mcells/s")
    kernels = [s for s in spans if s.kind == "kernel"]
    grid = _total(kernels, "grid_cells")
    m["kernel.batched.lane_fill"] = (
        1.0 - _total(kernels, "padding_cells") / grid if grid else 0.0,
        "ratio",
    )
    # warp kernels are the filter kernels that launch no packed grid
    warp = [
        s for s in kernels
        if "grid_cells" not in s.counters and s.tags.get("stage") in
        ("msv", "p7viterbi")
    ]
    m["kernel.warp.mcells_per_s"] = (
        _rate(_total(warp, "cells"), _total(warp)), "Mcells/s")
    for key in ("global_bytes", "bank_conflict_extra", "shuffles"):
        unit = "bytes" if key == "global_bytes" else "count"
        m[f"kernel.sim.{key}"] = (_total(kernels, key) * per, unit)
    searches = [s for s in spans if s.kind == "search"]
    fwd_in = _total(stages["forward"], "n_in")
    m["forward.hit_yield"] = (
        _total(searches, "hits") / fwd_in if fwd_in else 0.0, "ratio")
    if "traceback" in installed:
        tb = named(spans, "traceback")
        m["traceback.s"] = (_total(tb) * per, "s")
        m["traceback.calls"] = (len(tb) * per, "count")
    m["pipeline.self_s"] = (
        sum(s.seconds - sum(c.seconds for c in s.children
                            if c.kind == "stage") for s in searches) * per,
        "s",
    )

    jobs = [s for s in spans if s.kind == "job" and s.name.startswith("job:")]
    m["service.job_p50_s"] = (
        statistics.median(s.seconds for s in jobs) if jobs else 0.0, "s")
    for engine, key in (("gpu_warp", "warp"), ("gpu_warp_batched", "batched")):
        mine = [s for s in jobs if s.tags.get("engine") == engine]
        m[f"service.{key}_jobs_s"] = (_total(mine) * per, "s")
    dispatch = [
        s for s in spans
        if s.kind == "schedule" and s.name.startswith("dispatch:")
    ]
    m["service.dispatch_self_s"] = (
        sum(_self_seconds(s) for s in dispatch) * per, "s")
    shards = [s for s in spans if s.kind == "shard"]
    m["service.shards"] = (len(shards) * per, "count")
    m["service.shard_s"] = (_total(shards) * per, "s")
    imbalance = []
    for d in dispatch:
        parts = [c.seconds for c in d.children if c.kind == "shard"]
        if len(parts) > 1 and max(parts) > 0:
            imbalance.append(max(parts) / statistics.fmean(parts))
    m["gpu.load_imbalance"] = (
        statistics.fmean(imbalance) if imbalance else 1.0, "ratio")
    if "wal.append" in installed:
        wal = named(spans, "wal.append")
        m["service.wal_s"] = (_total(wal) * per, "s")
        m["service.wal_records"] = (len(wal) * per, "count")

    m["scan.press_s"] = (_total(named(setup_spans, "scan.press")), "s")
    m["scan.load_s"] = (_total(named(setup_spans, "scan.load")), "s")
    scans = [s for s in spans if s.kind == "job" and s.name.startswith("scan:")]
    buckets = [s for sc in scans for s in sc.children if s.kind == "schedule"]
    m["scan.launch_groups"] = (
        sum(int(b.tags.get("launches", 0)) for b in buckets) * per, "count")
    m["scan.self_s"] = (
        sum(sc.seconds - _total(sc.find("search")) for sc in scans) * per,
        "s",
    )

    covered = sum(r.seconds for r in round_roots)
    m["unattributed_s"] = (max(round_wall - covered, 0.0) * per, "s")
    m["trace.overhead_s"] = (overhead, "s")
    m.update(extra)
    return m
