"""Deterministic overload soak: seeded load waves against the service.

The chaos drill for the overload plane.  Each wave builds a seeded batch
of synthetic search jobs (mixed model sizes, priorities, and per-job
``deadline_ms`` budgets), arms a seeded fault plan plus admission
control, drains the service, and then re-runs every admitted job
unloaded and fault-free to prove the soak changed *nothing* about the
science:

* hits of every admitted job are bit-identical to the unloaded run,
* ``admitted + rejected + shed == submitted`` (no job unaccounted for),
* the in-system gauge never exceeded the ``max_pending`` watermark,
* rejected jobs produced no partial execution (no job record exists).

A scan wave rides along so the hmmscan plane soaks under the same fault
seeds.  Everything runs on the virtual timeline - the whole soak is
wall-clock free and replays bit-identically for a given ``--seed``.

Usage::

    python tools/soak.py --seed 7 --waves 3 --jobs 8 --out soak.json
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import (
    AdmissionLimits,
    BatchSearchService,
    FaultPlan,
    LibraryCatalog,
    OverloadError,
    ScanService,
    SearchOptions,
    sample_hmm,
    search,
    swissprot_like,
)

MODEL_SIZES = (60, 110, 180)

#: tight enough that a default wave trips rejection and shedding
LIMITS = AdmissionLimits(max_pending=4, shed_below_priority=1)


def build_jobs(seed: int, n_jobs: int) -> list:
    """The seeded synthetic workload for one wave."""
    rng = np.random.default_rng(seed)
    jobs = []
    for _ in range(n_jobs):
        size = int(rng.choice(MODEL_SIZES))
        hmm = sample_hmm(size, rng)
        db = swissprot_like(int(rng.integers(30, 90)), rng, hmm=hmm)
        priority = int(rng.integers(0, 3))
        # a third of the jobs carry a budget; the tiny one only expires
        # when an injected fault forces a retry against it
        deadline_ms = (
            float(rng.choice((0.5, 500.0))) if rng.random() < 0.34 else None
        )
        jobs.append((hmm, db, priority, deadline_ms))
    return jobs


def hit_signature(results) -> list:
    return [
        (h.name, float(h.msv_bits), float(h.vit_bits), float(h.fwd_bits))
        for h in results.hits
    ]


def run_search_wave(seed: int, n_jobs: int) -> dict:
    """One soaked batch wave; returns its metrics + invariant verdicts."""
    plan = FaultPlan.seeded(seed, n_faults=3, n_devices=4)
    service = BatchSearchService(fault_plan=plan, limits=LIMITS)
    refused = 0
    admitted = []
    for hmm, db, priority, deadline_ms in build_jobs(seed, n_jobs):
        opts = (
            SearchOptions(deadline_ms=deadline_ms)
            if deadline_ms is not None
            else None
        )
        try:
            job = service.submit(
                hmm, db, engine="gpu_warp", priority=priority, options=opts
            )
        except OverloadError:
            refused += 1
            continue
        admitted.append((job, hmm, db))
    service.run()

    # the science invariant: every admitted job that completed scored
    # bit-identically to an unloaded, fault-free run of the same search
    mismatches = 0
    for job, hmm, db in admitted:
        if job.results is None:
            continue
        clean = search(hmm, db, SearchOptions(engine="gpu"))
        if hit_signature(job.results) != hit_signature(clean):
            mismatches += 1

    snap = service.admission.snapshot()
    return {
        "seed": seed,
        "fault_plan": plan.describe(),
        "admission": snap,
        "jobs_failed": service.metrics.jobs_failed,
        "deadline_failures": service.metrics.deadline_failures,
        "degradation": service.degradation.name,
        "invariants": {
            "conservation": snap["submitted"]
            == snap["admitted"] + snap["rejected"] + snap["shed"],
            "watermark": snap["peak_in_system"] <= LIMITS.max_pending,
            "no_partial_rejections": refused
            == snap["rejected"] + snap["shed"]
            and len(service.metrics.records) == len(admitted),
            "bit_identical_hits": mismatches == 0,
        },
    }


def run_scan_wave(seed: int) -> dict:
    """A library scan soaked under the same fault seed family."""
    rng = np.random.default_rng(seed)
    models = [sample_hmm(m, rng) for m in (50, 90)]
    db = swissprot_like(40, rng, hmm=models[0])
    plan = FaultPlan.seeded(seed + 1, n_faults=2, n_devices=4)
    catalog = LibraryCatalog.press(models)
    soaked = ScanService(catalog, fault_plan=plan).scan(db)
    clean = ScanService(catalog, fault_plan=FaultPlan([])).scan(db)
    same = [h.to_dict() for h in soaked.hits] == [
        h.to_dict() for h in clean.hits
    ]
    return {
        "seed": seed,
        "models": len(catalog),
        "hits": len(soaked.hits),
        "fallbacks": soaked.fallbacks,
        "invariants": {"bit_identical_hits": same},
    }


def run_soak(seed: int, waves: int, jobs: int) -> dict:
    report = {"seed": seed, "search_waves": [], "scan_waves": []}
    for wave in range(waves):
        report["search_waves"].append(run_search_wave(seed + 101 * wave, jobs))
        report["scan_waves"].append(run_scan_wave(seed + 101 * wave))
    report["ok"] = all(
        all(w["invariants"].values())
        for w in report["search_waves"] + report["scan_waves"]
    )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--waves", type=int, default=2)
    ap.add_argument("--jobs", type=int, default=8, help="jobs per wave")
    ap.add_argument("--out", default=None, metavar="FILE",
                    help="write the full soak metrics JSON to FILE")
    args = ap.parse_args(argv)

    report = run_soak(args.seed, args.waves, args.jobs)
    for w in report["search_waves"]:
        snap = w["admission"]
        print(
            f"search wave seed={w['seed']}: submitted {snap['submitted']}, "
            f"admitted {snap['admitted']}, rejected {snap['rejected']}, "
            f"shed {snap['shed']}, deadline failures "
            f"{w['deadline_failures']}, degradation {w['degradation']}"
        )
    for w in report["scan_waves"]:
        print(
            f"scan wave seed={w['seed']}: {w['models']} models, "
            f"{w['hits']} hits, {w['fallbacks']} fallback(s)"
        )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"soak metrics -> {args.out}")
    print("soak:", "OK" if report["ok"] else "INVARIANT VIOLATION")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
