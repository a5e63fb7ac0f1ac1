"""The hmmscan service: sequence set x model library through the pool.

:class:`ScanService` is the scan-side twin of the batch search
scheduler: where hmmsearch runs one model over many sequences, hmmscan
runs one sequence set over a whole pressed library.  The service plane
is reused wholesale - device slots are checked out per launch group,
injected faults trigger the same health accounting and CPU fallback,
and a traced run produces the familiar span tree::

    job scan:<library>
      schedule bucket:small          (shared-memory kernels, co-scheduled)
        search ... stage ... kernel  (one subtree per model)
      schedule bucket:large          (global-memory kernels)
        ...

Work is ordered by the :class:`~repro.scan.bucketing.BucketPlan`: each
bucket fixes the kernel memory configuration for its models, and each
co-schedule group occupies one device slot for its whole launch, so a
group of co-resident small models pays one checkout rather than one
per model (the CUDAMPF++ economy).

Significance inverts with the workload: a scan hit's E-value is its
Forward P-value times the number of **models** searched, so the same
alignment gets less significant as the library grows - exactly real
hmmscan's semantics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ..errors import LaunchError, PipelineError
from .. import engines
from ..gpu.counters import KernelCounters
from ..kernels.memconfig import Stage
from ..obs.span import Tracer, span
from ..options import PipelineThresholds, SearchOptions
from ..pipeline.results import StageStats
from ..sequence.database import SequenceDatabase
from ..service.devices import DevicePool, DeviceSlot
from ..service.faults import FaultPlan, ResilienceEvent
from ..service.metrics import MetricsRegistry
from ..service.wal import DurableRunJournal
from ..service.watchdog import Deadline, VirtualClock
from .bucketing import BucketPlan, build_bucket_plan
from .catalog import LibraryCatalog

__all__ = ["ScanOptions", "LibraryScanHit", "LibraryScanResults", "ScanService"]


@dataclass(frozen=True)
class ScanOptions:
    """Scan-level knobs wrapping per-model :class:`SearchOptions`.

    ``search`` configures every per-model pipeline run (engine,
    thresholds, selfcheck, policy, tracer...); ``top_hits`` truncates
    the ranked hit list (None = report everything passing the E-value
    gate).
    """

    search: SearchOptions = field(default_factory=SearchOptions)
    engine: object | None = None      # any registered engine name, alias,
                                      # EngineSelection or per-stage mapping;
                                      # overrides search.engine when set
    top_hits: int | None = None
    deadline_ms: float | None = None  # whole-scan budget; checked between
                                      # buckets and launch groups, raises
                                      # DeadlineExceeded when exhausted

    def __post_init__(self) -> None:
        if self.engine is not None:
            selection = engines.resolve(self.engine)
            object.__setattr__(self, "engine", selection)
            object.__setattr__(
                self, "search", replace(self.search, engine=selection)
            )
        if self.top_hits is not None and self.top_hits < 1:
            raise ValueError("top_hits must be positive (or None)")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise PipelineError("deadline_ms must be positive")


@dataclass(frozen=True)
class LibraryScanHit:
    """One (sequence, model) pair passing the reporting gate."""

    sequence_name: str
    sequence_index: int
    model_name: str
    M: int
    msv_bits: float
    vit_bits: float
    fwd_bits: float
    fwd_p: float
    evalue: float  # fwd_p * number of models in the library

    def to_dict(self) -> dict:
        return {
            "sequence_name": self.sequence_name,
            "sequence_index": int(self.sequence_index),
            "model_name": self.model_name,
            "M": int(self.M),
            "msv_bits": float(self.msv_bits),
            "vit_bits": float(self.vit_bits),
            "fwd_bits": float(self.fwd_bits),
            "fwd_p": float(self.fwd_p),
            "evalue": float(self.evalue),
        }


@dataclass
class LibraryScanResults:
    """Everything one library scan produced, ranked by significance."""

    library_name: str
    database_name: str
    n_models: int
    n_sequences: int
    hits: list[LibraryScanHit]
    model_stages: dict[str, list[StageStats]]  # per-model funnel accounting
    bucket_stats: list[dict]                   # per-bucket schedule summary
    crossover: int                             # memconfig split point used
    fallbacks: int                             # launch groups retried on CPU
    resumed_groups: int = 0     # launch groups served from a durable journal
    recomputed_groups: int = 0  # launch groups executed live under a journal

    def hit_models(self) -> list[str]:
        seen: dict[str, None] = {}
        for h in self.hits:
            seen.setdefault(h.model_name, None)
        return list(seen)

    def hits_for(self, sequence_name: str) -> list[LibraryScanHit]:
        return [h for h in self.hits if h.sequence_name == sequence_name]

    def summary(self) -> str:
        lines = [
            f"library: {self.library_name}  models: {self.n_models}  "
            f"sequences: {self.n_sequences}  hits: {len(self.hits)}",
            f"schedule: crossover M={self.crossover}, "
            f"{len(self.bucket_stats)} bucket(s), fallbacks: {self.fallbacks}",
        ]
        if self.resumed_groups or self.recomputed_groups:
            lines.append(
                f"journal: {self.resumed_groups} launch group(s) resumed, "
                f"{self.recomputed_groups} recomputed"
            )
        for b in self.bucket_stats:
            lines.append(
                f"  bucket {b['key']}: {b['models']} models in "
                f"{b['launches']} launch(es), config={b['config']}"
            )
        for h in self.hits:
            lines.append(
                f"  {h.sequence_name} ~ {h.model_name}  "
                f"fwd {h.fwd_bits:7.2f} bits  E {h.evalue:.3g}"
            )
        return "\n".join(lines)


class ScanService:
    """Run sequence-set x model-library jobs over the device pool.

    The catalog supplies calibrated pipelines (zero recalibration for a
    pressed library), the bucket plan supplies the schedule, and the
    pool supplies - and health-checks - the devices.  A launch group
    whose checkout trips an injected fault falls back to the CPU engine
    for that group, exactly like the batch search scheduler, and scores
    are engine-invariant so the hit list does not change.
    """

    def __init__(
        self,
        catalog: LibraryCatalog,
        pool: DevicePool | None = None,
        metrics: MetricsRegistry | None = None,
        fault_plan: FaultPlan | None = None,
        options: ScanOptions | None = None,
        clock: Callable[[], float] | None = None,
        journal: DurableRunJournal | None = None,
    ) -> None:
        self.catalog = catalog
        self.pool = pool if pool is not None else DevicePool.heterogeneous()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fault_plan = (
            fault_plan if fault_plan is not None else FaultPlan.from_env()
        )
        self.options = options if options is not None else ScanOptions()
        # launch groups are checkpointed as they complete, and a
        # resumed scan replays only unfinished ones
        self.journal = journal
        # monotonic timebase for deadline_ms budgets; injectable (the CLI
        # passes a real monotonic clock, tests a stepped fake) and
        # defaults to a private virtual timeline
        self.clock = clock if clock is not None else VirtualClock().now
        self._next_slot = 0

    def _checkout(self) -> DeviceSlot | None:
        """Round-robin a healthy slot; None when the pool is exhausted."""
        for _ in range(self.pool.size):
            slot = self.pool.slots[self._next_slot % self.pool.size]
            self._next_slot += 1
            if self.fault_plan is not None:
                if self.fault_plan.draw(slot.index) is not None:
                    slot.inject_fault()
            try:
                slot.checkout()
            except LaunchError:
                slot.mark_failure(self.pool.advance())
                continue
            return slot
        return None

    def plan(self, stage: Stage = Stage.MSV) -> BucketPlan:
        """The model-batched schedule for the pool's lead device."""
        device = self.pool.slots[0].spec
        return build_bucket_plan(self.catalog.entries(), stage, device)

    # -- durable checkpointing -----------------------------------------------

    def _database_fingerprint(self, database: SequenceDatabase) -> str:
        """Content hash of the scanned sequence set (names + residues)."""
        h = hashlib.sha256()
        h.update(database.name.encode())
        h.update(str(len(database)).encode())
        for seq in database:
            h.update(seq.name.encode())
            h.update(np.asarray(seq.codes, dtype=np.uint8).tobytes())
        return h.hexdigest()

    def _group_key(
        self,
        db_fp: str,
        bucket,
        names: tuple[str, ...],
        n_models: int,
        report_evalue: float,
    ) -> str:
        """Content key of one launch group's durable unit.

        Hashes the models' *content fingerprints* (a re-pressed model
        changes the key), the database content, the kernel memory
        configuration, the reporting gate and the library size - scan
        E-values are ``fwd_p x n_models``, so the same group scanned in
        a different-sized library is a different unit.  The engine is
        deliberately excluded: hits are engine-invariant.
        """
        h = hashlib.sha256()
        h.update(b"scan-group:")
        h.update(db_fp.encode())
        h.update(bucket.config.value.encode())
        h.update(str(n_models).encode())
        h.update(np.float64(report_evalue).tobytes())
        for name in names:
            entry = self.catalog.get(name)
            h.update(name.encode())
            h.update(entry.fingerprint.encode())
        return h.hexdigest()

    def _restore_group(
        self,
        entry: dict,
        hits: list[LibraryScanHit],
        model_stages: dict[str, list[StageStats]],
    ) -> None:
        """Replay one journaled launch group without touching a device."""
        for h in entry.get("hits", []):
            hits.append(
                LibraryScanHit(
                    sequence_name=str(h["sequence_name"]),
                    sequence_index=int(h["sequence_index"]),
                    model_name=str(h["model_name"]),
                    M=int(h["M"]),
                    msv_bits=float(h["msv_bits"]),
                    vit_bits=float(h["vit_bits"]),
                    fwd_bits=float(h["fwd_bits"]),
                    fwd_p=float(h["fwd_p"]),
                    evalue=float(h["evalue"]),
                )
            )
        for name, sts in entry.get("stages", {}).items():
            model_stages[name] = [StageStats.from_dict(d) for d in sts]
        self.metrics.resilience.record(
            ResilienceEvent(
                kind="resume_group",
                stage="scan",
                job_id=f"scan:{self.catalog.name}",
                detail=(
                    f"{len(entry.get('stages', {}))} model(s), "
                    f"{len(entry.get('hits', []))} hit(s) restored "
                    "from the journal"
                ),
            )
        )

    def scan(
        self,
        database: SequenceDatabase,
        options: ScanOptions | None = None,
    ) -> LibraryScanResults:
        opts = options if options is not None else self.options
        sopts = opts.search
        tracer: Tracer | None = sopts.tracer
        th = sopts.thresholds if sopts.thresholds is not None else \
            PipelineThresholds()
        # per-model pipelines must not apply the hmmsearch E-value gate:
        # scan significance is per-library (fwd_p * n_models), applied
        # below after the per-model searches ran
        inner_th = replace(th, report_evalue=float("inf"))

        n_models = len(self.catalog)
        plan = self.plan()
        hits: list[LibraryScanHit] = []
        model_stages: dict[str, list[StageStats]] = {}
        bucket_stats: list[dict] = []
        fallbacks = 0
        resumed_groups = 0
        recomputed_groups = 0
        db_fp = (
            self._database_fingerprint(database)
            if self.journal is not None
            else ""
        )
        # deadline: the ScanOptions budget wins; a budget set on the
        # wrapped SearchOptions applies to the whole scan as a fallback
        deadline_ms = (
            opts.deadline_ms
            if opts.deadline_ms is not None
            else sopts.deadline_ms
        )
        deadline = (
            Deadline(
                deadline_ms / 1e3, self.clock,
                label=f"scan:{self.catalog.name}",
            )
            if deadline_ms is not None
            else None
        )

        with span(
            tracer, f"scan:{self.catalog.name}", "job",
            library=self.catalog.name, database=database.name,
            models=n_models, engine=sopts.engine.value,
        ) as job_span:
            if job_span is not None:
                job_span.count(
                    targets=len(database), residues=database.total_residues
                )
            for bucket in plan.buckets:
                if deadline is not None:
                    deadline.check(f"bucket {bucket.key}")
                with span(
                    tracer, f"bucket:{bucket.key}", "schedule",
                    config=bucket.config.value, stage=bucket.stage.name,
                    models=len(bucket), launches=len(bucket.groups),
                    crossover=plan.crossover,
                ):
                    for group in bucket.groups:
                        if deadline is not None:
                            deadline.check(
                                f"launch group {group.names[0]}..."
                            )
                        key = None
                        if self.journal is not None:
                            key = self._group_key(
                                db_fp, bucket, group.names, n_models,
                                th.report_evalue,
                            )
                            done = self.journal.group(key)
                            if done is not None:
                                self._restore_group(
                                    done, hits, model_stages
                                )
                                resumed_groups += 1
                                continue
                        g_hits: list[LibraryScanHit] = []
                        g_stages: dict[str, list[StageStats]] = {}
                        fb = self._run_group(
                            bucket, group.names, database, sopts, inner_th,
                            th, n_models, g_hits, g_stages,
                        )
                        fallbacks += fb
                        hits.extend(g_hits)
                        model_stages.update(g_stages)
                        if key is not None:
                            self.journal.record_group(
                                key,
                                hits=[h.to_dict() for h in g_hits],
                                stages={
                                    name: [st.to_dict() for st in sts]
                                    for name, sts in g_stages.items()
                                },
                                fallbacks=fb,
                            )
                            recomputed_groups += 1
                bucket_stats.append(
                    {
                        "key": bucket.key,
                        "config": bucket.config.value,
                        "models": len(bucket),
                        "launches": len(bucket.groups),
                        "coscheduled": max(
                            (len(g) for g in bucket.groups), default=0
                        ),
                    }
                )
        if tracer is not None:
            for s in tracer.spans("job"):
                if s.name == f"scan:{self.catalog.name}":
                    self.metrics.observe_job_span(s)
                    break

        hits.sort(key=lambda h: (h.evalue, h.model_name, h.sequence_name))
        if opts.top_hits is not None:
            hits = hits[: opts.top_hits]
        return LibraryScanResults(
            library_name=self.catalog.name,
            database_name=database.name,
            n_models=n_models,
            n_sequences=len(database),
            hits=hits,
            model_stages=model_stages,
            bucket_stats=bucket_stats,
            crossover=plan.crossover,
            fallbacks=fallbacks,
            resumed_groups=resumed_groups,
            recomputed_groups=recomputed_groups,
        )

    def _run_group(
        self,
        bucket,
        names: tuple[str, ...],
        database: SequenceDatabase,
        sopts: SearchOptions,
        inner_th: PipelineThresholds,
        th: PipelineThresholds,
        n_models: int,
        hits: list[LibraryScanHit],
        model_stages: dict[str, list[StageStats]],
    ) -> int:
        """Run one launch group on one slot; returns 1 on CPU fallback."""
        slot: DeviceSlot | None = None
        engine = sopts.engine
        fallback = 0
        if engine.device_bound:
            # any selection with a device-bound stage engine (gpu_warp,
            # gpu_warp_batched) occupies a pool slot for the group
            slot = self._checkout()
            if slot is None:
                # pool exhausted (injected faults): the group still
                # completes, scored by the engine-invariant CPU path
                engine = engines.resolve("cpu_sse")
                fallback = 1
        group_opts = replace(
            sopts,
            engine=engine,
            thresholds=inner_th,
            device=slot.spec if slot is not None else sopts.device,
            config=bucket.config,
        )
        merged = KernelCounters()
        try:
            for name in names:
                entry = self.catalog.get(name)
                results = entry.pipeline().search(database, group_opts)
                model_stages[name] = results.stages
                for c in results.counters.values():
                    merged.merge(c)
                for h in results.hits:
                    evalue = h.fwd_p * n_models
                    if evalue > th.report_evalue:
                        continue
                    hits.append(
                        LibraryScanHit(
                            sequence_name=h.name,
                            sequence_index=h.index,
                            model_name=name,
                            M=entry.M,
                            msv_bits=h.msv_bits,
                            vit_bits=h.vit_bits,
                            fwd_bits=h.fwd_bits,
                            fwd_p=h.fwd_p,
                            evalue=evalue,
                        )
                    )
        finally:
            if slot is not None:
                slot.record(
                    len(database) * len(names),
                    database.total_residues * len(names),
                    merged,
                )
                slot.mark_success()
                slot.release()
        return fallback
