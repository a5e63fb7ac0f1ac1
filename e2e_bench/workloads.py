"""The three workloads: set-up, one round of operations, output checks.

A workload object owns the state its set-up builds.  The timed phase
runs whole *rounds*; every round issues the same operations, so the
share of failed operations cannot depend on run length or seed.

* ``search_envnr`` - one operation is one ``HmmsearchPipeline.search``
  call on ``gpu_warp_batched``; a round searches every query model once
  against the Env-nr-like database.
* ``batch_swissprot`` - one operation is one batch job; a round submits
  every (model, engine) job of the mix to a long-lived
  ``BatchSearchService`` and drains it.
* ``scan_pfam`` - one operation is one ``repro.scan`` call with
  ``cpu_sse``; a round scans every query set against the pressed library.

Only ``repro`` facade names (and names it re-exports) are used.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import repro
from repro import ScanOptions, SearchOptions

from checks import check_scan, check_search, expect
from tracing import layer_span

#: One round's batch jobs, as (query model index, engine): the pooled
#: engine the batch CLI defaults to, and the in-process batched engine.
BATCH_JOBS = ((0, "gpu_warp"), (0, "gpu_warp_batched"), (1, "gpu_warp_batched"))
#: Batch jobs pass MSV at P < 1e-3 instead of HMMER's 0.02 (see README:
#: at 0.02 a random number of decoys reach the P7Viterbi warp kernel).
BATCH_THRESHOLDS = repro.PipelineThresholds(f1=1e-3)
SEARCH_ENGINE = "gpu_warp_batched"
SCAN_ENGINE = "cpu_sse"


class Workload:
    """Shared plumbing; subclasses fill in set-up, rounds and checks."""

    name = ""

    def __init__(self, inputs: Path, work: Path) -> None:
        self.inputs = inputs
        self.work = work
        manifest = json.loads((inputs / "manifest.json").read_text())
        self.files = manifest[self.name]
        self.state = None
        self.expectations: dict = {}
        self.rounds_run = 0

    def read_inputs(self):
        with layer_span("hmm.load"):
            models = [repro.load_hmm(self.inputs / f)
                      for f in self.files["models"]]
        with layer_span("sequence.read"):
            dbs = [repro.load_fasta(self.inputs / f)
                   for f in self.files["databases"]]
        return models, dbs

    def setup(self, rep: int, tracer=None) -> None:
        """Build everything the timed phase needs (timed as set-up)."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Reference-score the check sample (untimed)."""
        raise NotImplementedError

    def run_round(self, tracer=None) -> tuple[int, list]:
        """One round; returns (cells scored, [(key, outcome), ...])."""
        self.rounds_run += 1
        return self._round(self.rounds_run, tracer)

    def _round(self, rnd: int, tracer) -> tuple[int, list]:
        raise NotImplementedError

    def check(self, key, outcome) -> list[str]:
        """Problems with one operation's outcome (empty = passed)."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def cache_misses(self) -> int:
        """Pipeline-cache misses since the checks were prepared."""
        return 0

    def wal_bytes(self) -> int:
        """Current size of the workload's WAL journal (0 without one)."""
        return 0


class SearchEnvnr(Workload):
    name = "search_envnr"

    def setup(self, rep, tracer=None):
        models, (db,) = self.read_inputs()
        pipes = [repro.HmmsearchPipeline(h) for h in models]
        self.state = (models, pipes, db)

    def prepare_checks(self):
        models, pipes, db = self.state
        self.expectations = {
            h.name: expect(p, db, h.name, len(db))
            for h, p in zip(models, pipes)
        }

    def _round(self, rnd, tracer):
        models, pipes, db = self.state
        opts = SearchOptions(engine=SEARCH_ENGINE, tracer=tracer)
        outcomes, cells = [], 0
        for hmm, pipe in zip(models, pipes):
            try:
                outcome = pipe.search(db, opts)
            except Exception as exc:  # an operation that raises has failed
                outcome = exc
            cells += db.total_residues * hmm.M
            outcomes.append((hmm.name, outcome))
        return cells, outcomes

    def check(self, key, outcome) -> list[str]:
        if isinstance(outcome, Exception):
            return [f"{key}: raised {outcome!r}"]
        return check_search(outcome, self.state[2], self.expectations[key])


class BatchSwissprot(Workload):
    name = "batch_swissprot"

    def setup(self, rep, tracer=None):
        models, dbs = self.read_inputs()
        wal = self.work / f"batch-{rep}.wal"
        wal.unlink(missing_ok=True)
        journal = repro.DurableRunJournal(wal, resume=False)
        service = repro.BatchSearchService(
            options=SearchOptions(
                alignments=True, thresholds=BATCH_THRESHOLDS, tracer=tracer),
            journal=journal,
        )
        for hmm in models:  # prime the pipeline cache
            service.cache.get(hmm)
        if self.state is not None:
            self.state["journal"].close()
        self.state = {
            "models": models, "dbs": dbs, "service": service,
            "journal": journal, "wal": wal, "tracer": tracer,
            "misses": service.cache.misses,
        }

    def prepare_checks(self):
        st = self.state
        self.expectations = [
            expect(st["service"].cache.get(h), db, h.name, len(db),
                   BATCH_THRESHOLDS)
            for h, db in zip(st["models"], st["dbs"])
        ]
        st["misses"] = st["service"].cache.misses

    def _round(self, rnd, tracer):
        st = self.state
        service = st["service"]
        if st["tracer"] is not None:
            st["tracer"].paused = tracer is None
        submitted, cells = [], 0
        for k, engine in BATCH_JOBS:
            hmm, db = st["models"][k], st["dbs"][k]
            # a fresh database name per round gives every job a new
            # content fingerprint, so the journal never resumes one
            renamed = repro.SequenceDatabase(
                list(db), name=f"{db.name}@r{rnd}-{engine}")
            submitted.append((k, service.submit(hmm, renamed, engine=engine)))
            cells += db.total_residues * hmm.M
        try:
            service.run()
        except Exception as exc:  # every job of the round has failed
            return cells, [(k, exc) for k, _ in submitted]
        records = {r.job_id: r for r in service.metrics.records[-len(submitted):]}
        return cells, [
            (k, (job, records.get(job.job_id))) for k, job in submitted
        ]

    def check(self, key, outcome) -> list[str]:
        if isinstance(outcome, Exception):
            return [f"job of model {key}: raised {outcome!r}"]
        job, record = outcome
        label = f"{job.hmm.name}/{job.engine.value} {job.job_id}"
        if job.state.value != "done" or job.results is None:
            return [f"{label}: state {job.state.value} ({job.error})"]
        problems = []
        # (v) every timed job is recomputed, none resumed from the WAL
        if job.resumed or record is None or record.resumed_units:
            problems.append(f"{label}: resumed from the journal")
        if any(h.alignment is None for h in job.results.hits):
            problems.append(f"{label}: a reported hit has no alignment")
        return problems + [
            f"{label}: {p}" for p in check_search(
                job.results, self.state["dbs"][key], self.expectations[key])
        ]

    def teardown(self):
        if self.state is not None:
            self.state["journal"].close()

    def cache_misses(self):
        st = self.state
        return st["service"].cache.misses - st["misses"]

    def wal_bytes(self):
        return self.state["wal"].stat().st_size


class ScanPfam(Workload):
    name = "scan_pfam"

    def setup(self, rep, tracer=None):
        models, dbs = self.read_inputs()
        store = self.work / f"pfam-store-{rep}"
        shutil.rmtree(store, ignore_errors=True)
        with layer_span("scan.press"):
            repro.press_library(models, store=store, name="pfam")
        with layer_span("scan.load"):
            catalog = repro.load_library(store)
        self.state = (catalog, dbs)

    def prepare_checks(self):
        catalog, dbs = self.state
        n_models = len(catalog)
        self.expectations = {
            q: {
                e.name: expect(e.pipeline(), db, e.name, n_models)
                for e in catalog.entries()
            }
            for q, db in enumerate(dbs)
        }

    def _round(self, rnd, tracer):
        catalog, dbs = self.state
        opts = ScanOptions(
            search=SearchOptions(tracer=tracer), engine=SCAN_ENGINE)
        cells_per_residue = sum(e.M for e in catalog.entries())
        outcomes, cells = [], 0
        for q, db in enumerate(dbs):
            try:
                outcome = repro.scan(catalog, db, opts)
            except Exception as exc:  # an operation that raises has failed
                outcome = exc
            cells += db.total_residues * cells_per_residue
            outcomes.append((q, outcome))
        return cells, outcomes

    def check(self, key, outcome) -> list[str]:
        if isinstance(outcome, Exception):
            return [f"query set {key}: raised {outcome!r}"]
        return check_scan(outcome, self.state[1][key], self.expectations[key])


WORKLOADS = {w.name: w for w in (SearchEnvnr, BatchSwissprot, ScanPfam)}
