"""Batch search service demo: queue, device pool, cache, metrics.

Run with::

    python examples/batch_service.py [--selfcheck N]

Submits ten hmmsearch jobs - repeat queries, mixed engines, mixed
priorities - to the batch service on a heterogeneous Kepler + Fermi
device pool, then prints the service metrics report: per-stage survivor
funnels aggregated over every job, per-device dispatch shares, and the
pipeline-cache hit rate that shows repeat queries skipping calibration.
Finally a fault drill: a device is armed to fail its next launch, and
the job transparently degrades to the CPU engine with identical hits.

Then two resilience drills: a *chaos drill* arms a seeded deterministic
fault plan (launch failures, kernel faults, hangs, corrupted shards)
and shows the shard-level degradation ladder absorbing every fault with
bit-identical hits; a *checkpoint/resume drill* kills a batch run
mid-way and resumes it from its journal without recomputing the
finished job.

``--selfcheck N`` arms the runtime differential oracle on every job:
N sequences per search are shadow-scored through the scalar reference
engines and any divergence is reported (the CI smoke job runs this
under a seeded fault plan).  A final *salvage drill* feeds a corrupted
FASTA through salvage-mode ingestion and shows the quarantine report.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    BatchSearchService,
    DevicePool,
    DurableRunJournal,
    FaultPlan,
    PipelineSettings,
    RecordQuarantine,
    SALVAGE,
    SearchOptions,
    read_fasta,
    sample_hmm,
    swissprot_like,
    write_fasta,
)


def main(selfcheck: int = 0) -> None:
    # a global REPRO_FAULT_SEED plan (the CI smoke job) reroutes fault
    # handling through the resilient executor, which absorbs the legacy
    # whole-job drill's launch fault at shard level instead
    env_plan = FaultPlan.from_env()
    rng = np.random.default_rng(7)
    families = {
        name: sample_hmm(M, rng, name=name)
        for name, M in (("globin-like", 60), ("kinase-like", 90))
    }
    databases = {
        name: swissprot_like(100, rng, hmm=hmm)
        for name, hmm in families.items()
    }
    settings = PipelineSettings(
        L=150, calibration_filter_sample=120, calibration_forward_sample=40
    )

    service = BatchSearchService(
        pool=DevicePool.heterogeneous(2, 2),
        options=SearchOptions(selfcheck=selfcheck),
    )
    print(f"service: {service.pool.name}, cache for "
          f"{service.cache.max_entries} pipelines"
          + (f", selfcheck={selfcheck}" if selfcheck else "") + "\n")

    # 10 jobs: every family queried repeatedly, plus CPU and urgent jobs
    for round_no in range(3):
        for name, hmm in families.items():
            service.submit(hmm, databases[name], settings=settings)
    for name, hmm in families.items():
        service.submit(hmm, databases[name], engine="cpu_sse",
                       settings=settings)
        service.submit(hmm, databases[name], priority=10, settings=settings)

    jobs = service.run()
    done = [j for j in jobs if j.results is not None]
    print(f"ran {len(jobs)} jobs, {len(done)} completed")
    # priority-10 jobs ran before everything submitted earlier
    print(f"first job executed: {jobs[0].job_id} "
          f"(priority {jobs[0].priority})")
    print()
    print(service.metrics.render())

    # --- fault drill: device failure degrades to the CPU engine ---
    print("\nfault drill")
    print("-" * 11)
    hmm = families["globin-like"]
    db = databases["globin-like"]
    clean = service.cache.get(hmm, settings).search(
        db, SearchOptions(engine="cpu_sse")
    )
    drill = BatchSearchService(pool=DevicePool.homogeneous(count=2))
    drill.pool.slots[0].inject_fault()
    job = drill.submit(hmm, db, settings=settings)
    drill.run()
    if env_plan is None:
        # legacy path: the whole job degrades to the CPU engine
        assert job.fallback_engine.value == "cpu_sse"
    assert job.results.hit_names() == clean.hit_names()
    print(f"{job.job_id}: LaunchError on dev0 -> recovered on "
          f"{job.effective_engine.value}, {job.attempts} attempt(s), "
          f"hits identical to the fault-free run "
          f"({len(job.results.hits)} hits)")

    # --- chaos drill: seeded fault plan, shard-level recovery ---
    print("\nchaos drill")
    print("-" * 11)
    plan = FaultPlan.seeded(2026, n_faults=4, n_devices=4)
    print(plan.describe())
    chaos = BatchSearchService(
        pool=DevicePool.heterogeneous(2, 2), fault_plan=plan
    )
    chaos_jobs = [
        chaos.submit(hmm, db, settings=settings) for _ in range(8)
    ]
    chaos.run()
    stats = chaos.metrics.resilience
    for cjob in chaos_jobs:
        assert cjob.results.hit_names() == clean.hit_names()
    assert stats.total_faults == plan.fired_count
    assert stats.fault_responses == stats.total_faults
    print(f"fired {plan.fired_count} fault(s); responses: "
          f"{stats.total_retries} retried on-device, "
          f"{stats.repartitions} repartitioned, "
          f"{stats.cpu_shard_fallbacks} shard CPU fallbacks; "
          f"quarantines: {stats.quarantines}")
    print(f"all {len(chaos_jobs)} chaos jobs: hits identical to the "
          f"fault-free baseline")

    # --- checkpoint/resume drill: kill a batch mid-way, resume it ---
    print("\ncheckpoint/resume drill")
    print("-" * 23)
    with tempfile.TemporaryDirectory() as tmp:
        jpath = Path(tmp) / "run.wal"
        first = BatchSearchService(
            pool=DevicePool.heterogeneous(2, 2),
            journal=DurableRunJournal(jpath, resume=False),
        )
        for name, fam in families.items():
            first.submit(fam, databases[name], settings=settings,
                         job_id=f"demo-{name}")
        # simulate a crash: execute one job, abandon the rest
        done_job = first.scheduler.execute(first.queue.pop())
        print(f"'crash' after {done_job.job_id}: journal holds "
              f"{len(first.journal)} of 2 jobs")
        first.journal.close()
        second = BatchSearchService(
            pool=DevicePool.heterogeneous(2, 2),
            journal=DurableRunJournal(jpath, resume=True),
        )
        for name, fam in families.items():
            second.submit(fam, databases[name], settings=settings,
                          job_id=f"demo-{name}")
        second.run()
        second.journal.close()
        assert second.metrics.resumed_jobs == 1
        assert second.metrics.recomputed_jobs == 1
        print(f"resumed run: {second.metrics.resumed_jobs} job restored "
              f"from the journal, {second.metrics.recomputed_jobs} "
              f"recomputed; journal now holds {len(second.journal)} jobs")

    if selfcheck:
        assert service.metrics.total_selfchecked > 0
        assert service.metrics.total_divergences == 0
        print(f"\nselfcheck: {service.metrics.total_selfchecked} "
              f"sequence(s) shadow-scored against the scalar reference, "
              f"0 divergences")

    # --- salvage drill: corrupted FASTA -> quarantine, not an abort ---
    print("\nsalvage drill")
    print("-" * 13)
    with tempfile.TemporaryDirectory() as tmp:
        dirty = Path(tmp) / "dirty.fasta"
        write_fasta(dirty, databases["globin-like"])
        with dirty.open("a") as fh:
            fh.write(">corrupt-1\nAC1DEF\n>\nGHIKL\n")
        quarantine = RecordQuarantine()
        salvaged = read_fasta(dirty, policy=SALVAGE, quarantine=quarantine)
        assert len(salvaged) == len(databases["globin-like"])
        assert len(quarantine) == 2
        print(f"salvaged {len(salvaged)} of {len(salvaged) + 2} records")
        for line in quarantine.render_lines():
            print(line)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--selfcheck", type=int, default=0, metavar="N",
        help="shadow-score N sequences per job through the scalar "
             "reference engines (differential oracle)",
    )
    main(selfcheck=parser.parse_args().selfcheck)
