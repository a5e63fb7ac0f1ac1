"""One workload in one fresh process: set-up, checks, timed phase, result.

Started by ``run.py`` with a scrubbed environment; prints one JSON
object as its last line.  Not meant to be run by hand - use ``run.py``.

Timeline of an untraced run (``--trace 0``)::

    imports | set-up x SETUP_REPEATS | reference checks | timed rounds

Every set-up and round is bracketed by yardstick samples (outside the
clock), and its wall time is rescaled to *reference seconds*: seconds on
a host where the yardstick takes :data:`Y_REF`.  The host this runs on
changes speed by 20-40% within minutes, and the yardstick follows it
(correlation 0.98 over 20 s windows), so the rescaled figures hold still
where wall-clock ones do not.

``setup_s`` is the import time plus the median set-up; ``mcells_per_s``
is the timed phase's total cells over its total reference seconds
(checks excluded); ``peak_rss_mb`` is the process's peak resident set.
The raw wall-clock figures are reported alongside.

A traced run (``--trace 1``) sets up once with tracing on, times
``BASELINE_ROUNDS`` untraced rounds, then traced rounds for the given
seconds, and prints the per-layer rollup.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import repro  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

SETUP_REPEATS = 3
BASELINE_ROUNDS = 2
#: Yardstick samples taken before and after every set-up and round.
YARD_SAMPLES = 3
#: The reference host: one on which the yardstick takes this long.
Y_REF = 0.05


class BenchTracer(repro.Tracer):
    """A tracer that can be paused, for objects that hold one for life
    (the batch service) while untraced rounds run."""

    paused = False

    def span(self, name, kind="span", **tags):
        if self.paused:
            return contextlib.nullcontext()
        return super().span(name, kind, **tags)


def host_block() -> list[float]:
    """A few yardstick samples: how fast the host is running now."""
    return [tracing.yardstick() for _ in range(YARD_SAMPLES)]


def in_reference_seconds(wall: float, before: list, after: list) -> float:
    """``wall`` rescaled to a host on which the yardstick takes
    :data:`Y_REF`, using the samples taken just before and after."""
    return wall * Y_REF / statistics.median(before + after)


def timed_rounds(wl, seconds: float, tracer=None, min_rounds: int = 1):
    """Run whole rounds until ``seconds`` of operation time have passed.

    Each round is bracketed by yardstick samples (outside the clock).
    Returns a dict: round ``walls`` and their ``refs`` in reference
    seconds, ``cells``, ``attempted``, ``failed``, ``problems``, the
    ``yard`` samples, and the top-level spans (``roots``) recorded.
    """
    out = {"walls": [], "refs": [], "cells": 0, "attempted": 0,
           "failed": 0, "problems": [], "yard": []}
    n_roots = len(tracer.roots) if tracer is not None else 0
    before = host_block()
    out["yard"] += before
    while sum(out["walls"]) < seconds or len(out["walls"]) < min_rounds:
        t0 = time.perf_counter()
        cells, outcomes = wl.run_round(tracer)
        wall = time.perf_counter() - t0
        after = host_block()
        out["walls"].append(wall)
        out["refs"].append(in_reference_seconds(wall, before, after))
        out["yard"] += after
        out["cells"] += cells
        for key, outcome in outcomes:  # checks stay outside the clock
            out["attempted"] += 1
            found = wl.check(key, outcome)
            if found:
                out["failed"] += 1
                out["problems"].extend(found)
        before = host_block()
        out["yard"] += before
    out["roots"] = tracer.roots[n_roots:] if tracer is not None else []
    return out


def run_untraced(wl, seconds: float, setups_n: int) -> dict:
    setups, raw = [], []
    before = host_block()
    for rep in range(setups_n):
        t0 = time.perf_counter()
        wl.setup(rep)
        raw.append(time.perf_counter() - t0)
        after = host_block()
        setups.append(in_reference_seconds(raw[-1], before, after))
        before = after
    wl.prepare_checks()
    r = timed_rounds(wl, seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": r["attempted"],
        "failed": r["failed"],
        "problems": r["problems"],
        "metrics": {
            "setup_s": (IMPORT_S + statistics.median(setups), "s"),
            "mcells_per_s": (r["cells"] / sum(r["refs"]) / 1e6, "Mcells/s"),
            "peak_rss_mb": (peak, "MB"),
        },
        "raw": {
            "setup_s": IMPORT_S + statistics.median(raw),
            "mcells_per_s": r["cells"] / sum(r["walls"]) / 1e6,
            "yardstick_s": statistics.median(r["yard"]),
        },
        "detail": {"setups": raw, "rounds": r["walls"], "cells": r["cells"]},
    }


def run_traced(wl, seconds: float) -> dict:
    installed, undo = tracing.install()
    tracer = BenchTracer()
    tracing.ACTIVE = tracer
    try:
        wl.setup(0, tracer)
        setup_roots = list(tracer.roots)
        tracing.ACTIVE = None
        wl.prepare_checks()
        base = timed_rounds(wl, 0.0, None, min_rounds=BASELINE_ROUNDS)
        wal_before, misses_before = wl.wal_bytes(), wl.cache_misses()
        tracing.ACTIVE = tracer
        r = timed_rounds(wl, seconds, tracer)
        tracing.ACTIVE = None
    finally:
        tracing.uninstall(undo)
    rounds = len(r["walls"])
    extra = {
        "machine.yardstick_s": (statistics.median(base["yard"] + r["yard"]), "s"),
        "service.cache_misses": (
            (wl.cache_misses() - misses_before) / rounds, "count"),
        "service.wal_bytes": ((wl.wal_bytes() - wal_before) / rounds, "bytes"),
    }
    metrics = tracing.rollup(
        setup_roots=setup_roots,
        round_roots=r["roots"],
        rounds=rounds,
        round_wall=sum(r["walls"]),
        overhead=statistics.fmean(r["refs"]) - statistics.median(base["refs"]),
        installed=installed,
        extra=extra,
    )
    return {
        "attempted": base["attempted"] + r["attempted"],
        "failed": base["failed"] + r["failed"],
        "problems": base["problems"] + r["problems"],
        "metrics": metrics,
        "detail": {"rounds": r["walls"], "baseline_rounds": base["walls"]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setups", type=int, default=SETUP_REPEATS)
    args = ap.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.inputs, args.work)
    try:
        if args.trace:
            out = run_traced(wl, args.seconds)
        else:
            out = run_untraced(wl, args.seconds, args.setups)
    finally:
        wl.teardown()
    out["metrics"] = {
        k: {"value": float(v), "unit": u}
        for k, (v, u) in out["metrics"].items()
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
