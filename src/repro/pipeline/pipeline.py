"""The hmmsearch task pipeline (paper Figure 1).

``MSV filter -> P7Viterbi filter -> Forward``, with P-value thresholds
between stages (HMMER 3.0 defaults: 0.02, 1e-3, 1e-5).  The two
accelerated stages dispatch through the engine registry
(:mod:`repro.engines`): ``cpu_sse`` (the vectorized golden reference,
with HMMER's SSE filter semantics), ``gpu_warp`` (the paper's
warp-synchronous kernels), ``gpu_warp_batched`` (cross-sequence batched
kernels) and ``mp`` (process pool), selectable per stage via
``SearchOptions.engine``.

All produce *identical* results - the paper's accuracy-preservation
claim - which the test suite asserts; they differ in the hardware event
counters and in the stage times the performance model assigns.

:meth:`HmmsearchPipeline.search` takes a
:class:`~repro.options.SearchOptions`; it is the one-model case of
:func:`search_group`, which runs several models over one database and
scores each survivor stage of all of them in one packed call (the scan
service's launch groups).  When ``options.tracer`` is
armed, the search records a span tree (search -> stage -> kernel, with schedule
and shard levels added by the service executors) carrying stage
funnels, kernel counters, occupancy and memory-config choices; with the
tracer off, results are bit-identical and the instrumentation reduces
to one ``is None`` check per block.
"""

from __future__ import annotations

import numpy as np

from ..cpu.forward_batch import forward_score_batch
from ..cpu.generic import GenericProfile, generic_forward_score
from ..cpu.msv_reference import msv_score_sequence
from ..cpu.packing import PackedByteProfile, PackedGenericProfile, PackedWordProfile, pack_batch
from ..cpu.viterbi_reference import viterbi_score_sequence
from ..errors import DivergenceError, PipelineError
from ..gpu.counters import KernelCounters
from ..hardening import RecordQuarantine
from ..hmm.background import NullModel
from ..hmm.plan7 import Plan7HMM
from ..hmm.profile import SearchProfile
from ..obs.span import span
from ..options import PipelineThresholds, SearchOptions
from ..scoring.guardrails import GuardrailCounters
from ..scoring.msv_profile import MSVByteProfile
from ..scoring.vit_profile import ViterbiWordProfile
from ..sequence.database import SequenceDatabase
from .calibrate import PipelineCalibration, calibrate_profile
from .oracle import FORWARD_ABS_TOL, Divergence, OracleReport, sample_indices, scores_match
from .results import SearchHit, SearchResults, StageStats
from .stats import bits_from_nats

__all__ = ["PipelineThresholds", "HmmsearchPipeline", "search_group"]


class HmmsearchPipeline:
    """A query model prepared for searching sequence databases.

    Construction configures the search profile, quantizes the filter
    profiles and calibrates the stage statistics; :meth:`search` can then
    be run against any number of databases.

    Parameters
    ----------
    hmm:
        The query Plan-7 model.
    L:
        Length-model configuration used for scoring and calibration
        (HMMER reconfigures per target; we use a fixed representative
        length, which shifts all scores coherently and cancels in the
        calibrated P-values).
    seed:
        Seed of the calibration sample; fixed by default so results are
        reproducible.
    """

    def __init__(
        self,
        hmm: Plan7HMM,
        L: int = 400,
        multihit: bool = True,
        thresholds: PipelineThresholds | None = None,
        null: NullModel | None = None,
        seed: int = 42,
        calibration_filter_sample: int = 400,
        calibration_forward_sample: int = 120,
        calibration: PipelineCalibration | None = None,
    ) -> None:
        self.hmm = hmm
        self.thresholds = thresholds or PipelineThresholds()
        self.profile = SearchProfile(hmm, null=null, multihit=multihit, L=L)
        self.byte_profile = MSVByteProfile.from_profile(self.profile)
        self.word_profile = ViterbiWordProfile.from_profile(self.profile)
        self.generic_profile = GenericProfile.from_profile(self.profile)
        if calibration is not None and calibration.L != self.profile.L:
            raise PipelineError(
                f"supplied calibration was fitted at L={calibration.L}, "
                f"pipeline is configured with L={self.profile.L}"
            )
        # a pre-fitted calibration (e.g. from a pressed library catalog)
        # skips the expensive background-sample scoring entirely
        self.calibration: PipelineCalibration = (
            calibration
            if calibration is not None
            else calibrate_profile(
                self.profile,
                np.random.default_rng(seed),
                n_filter=calibration_filter_sample,
                n_forward=calibration_forward_sample,
            )
        )

    # -- search ---------------------------------------------------------------

    def search(
        self,
        database: SequenceDatabase,
        options: SearchOptions | None = None,
        *,
        executor: object | None = None,
    ) -> SearchResults:
        """Run the three-stage pipeline over a database.

        All behaviour is configured by ``options``
        (:class:`~repro.options.SearchOptions`; None uses the defaults).

        With ``options.alignments`` every reported hit additionally
        carries its optimal Viterbi alignment (domains, coordinates,
        rendering) - the post-pipeline step real hmmsearch output
        includes.

        ``executor`` replaces the single-device GPU dispatch: any object
        with ``score_stage(name, kernel, profile, database, *, config,
        counters) -> FilterScores`` (the batch search service passes a
        device-pool executor here to spread each stage across several
        simulated devices).  Scores - and therefore hits - are identical
        either way; only the per-device accounting differs.

        ``options.selfcheck = N`` arms the runtime differential oracle:
        a deterministic sample of up to ``N`` sequences is shadow-scored
        through the scalar reference engines and compared against the
        pipeline's scores (bit-exact for the quantized filters, tiny
        absolute tolerance for Forward).  On divergence a strict
        ``options.policy`` raises
        :class:`~repro.errors.DivergenceError` naming the sequence and
        stage; a salvage policy drops the diverged sequences from the
        hit list and records them into ``options.quarantine`` (kind
        ``divergence``).  The full outcome is returned as
        ``SearchResults.oracle`` either way.

        ``options.tracer`` records a ``search`` span wrapping one
        ``stage`` span per pipeline stage (funnel counters attached) and
        a ``kernel`` span per kernel launch; tracing never changes
        scores, hits or stats - the invariant the test suite pins.

        This is the one-model case of :func:`search_group`.
        """
        return search_group([self], database, options, executor=executor)[0]

    def _run_oracle(
        self,
        database: SequenceDatabase,
        selfcheck: int,
        msv_nats: np.ndarray,
        vit_nats: dict[int, float],
        fwd_nats: dict[int, float],
    ) -> OracleReport:
        """Shadow-score a deterministic sample through the scalar
        reference engines and compare against the pipeline's scores."""
        report = OracleReport()
        for idx in sample_indices(
            self.hmm.name, database.name, len(database), selfcheck
        ):
            idx = int(idx)
            seq = database[idx]
            report.checked += 1
            checks = [
                ("msv",
                 msv_score_sequence(self.byte_profile, seq.codes),
                 float(msv_nats[idx]), 0.0),
            ]
            if idx in vit_nats:
                checks.append(
                    ("p7viterbi",
                     viterbi_score_sequence(self.word_profile, seq.codes),
                     vit_nats[idx], 0.0)
                )
            if idx in fwd_nats:
                checks.append(
                    ("forward",
                     generic_forward_score(self.generic_profile, seq.codes),
                     fwd_nats[idx], FORWARD_ABS_TOL)
                )
            for stage, expected, observed, tol in checks:
                report.comparisons += 1
                if not scores_match(expected, observed, tol):
                    report.divergences.append(
                        Divergence(
                            sequence=seq.name,
                            index=idx,
                            stage=stage,
                            expected=expected,
                            observed=observed,
                        )
                    )
        return report

    def forward_all(self, database: SequenceDatabase) -> np.ndarray:
        """Forward bit scores of *every* sequence, bypassing the filters.

        The ground truth for filter-sensitivity studies: anything
        significant here but absent from :meth:`search`'s hits was lost
        to a filter.  Expensive by design - this is exactly the cost the
        MSV/Viterbi cascade exists to avoid.
        """
        nats = forward_score_batch(self.generic_profile, database)
        return np.asarray(
            bits_from_nats(nats, self.calibration.null_length_nats)
        )

    def filter_loss(
        self, database: SequenceDatabase, results: SearchResults | None = None
    ) -> tuple[int, int]:
        """(lost, total) significant sequences missed by the filter
        cascade, judged against the unfiltered Forward ground truth."""
        if results is None:
            results = self.search(database)
        fwd_bits = self.forward_all(database)
        fwd_p = np.asarray(self.calibration.fwd.pvalue(fwd_bits))
        significant = set(np.flatnonzero(fwd_p < self.thresholds.f3).tolist())
        found = {h.index for h in results.hits}
        return len(significant - found), len(significant)

    def __repr__(self) -> str:
        return (
            f"HmmsearchPipeline({self.hmm.name!r}, M={self.profile.M}, "
            f"L={self.profile.L})"
        )


def _score_filter(stage, profile, db, opts, counters, executor, guard, M):
    """Score one accelerated filter stage (MSV or P7Viterbi).

    Dispatch goes through the engine registry: the stage's resolved
    :class:`~repro.engines.EngineSpec` owns the scoring strategy
    (reference batch, warp kernel, cross-sequence batched kernel,
    process pool).  The device-pool ``executor`` is handed only to
    ``pooled`` engines - the others score in-process and the
    sharded-retry machinery never sees them.
    """
    spec = opts.engine.spec_for(stage)
    return spec.scorer(
        stage, profile, db,
        opts=opts, counters=counters, guard=guard,
        executor=executor if spec.pooled else None,
        M=M,
    )


def _survivor_call(database, base, survivors, profiles, packer, accs):
    """The arguments of one survivor stage's call over several models.

    ``survivors[g]`` are model ``g``'s surviving database indices.  The
    models with survivors are scored together: one model alone is an
    ordinary call on its database subset (the database itself when
    every sequence survives) with its own profile and accumulators;
    several are one packed call (:mod:`repro.cpu.packing`)
    on a model-major lane batch, with per-model accumulator lists.
    Returns ``(models, profile, batch, accs, lane slices)``, or None
    when no model has survivors.  ``base()`` gives the database's
    padded batch, built only when a call packs.
    """
    models = [g for g, idx in enumerate(survivors) if idx.size]
    if not models:
        return None
    bounds = np.cumsum([0] + [survivors[g].size for g in models])
    slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    if len(models) == 1:
        g = models[0]
        sub = (database if survivors[g].size == len(database)
               else database.subset(survivors[g].tolist()))
        return models, profiles[g], sub, [a[g] for a in accs], slices
    batch = pack_batch(base(), [survivors[g] for g in models])
    packed_accs = [None if a[models[0]] is None else [a[g] for g in models]
                   for a in accs]
    return (models, packer([profiles[g] for g in models]), batch,
            packed_accs, slices)


def search_group(
    pipelines,
    database: SequenceDatabase,
    options: SearchOptions | None = None,
    *,
    executor: object | None = None,
) -> list[SearchResults]:
    """Run several models' three-stage pipelines over one database.

    The scan service runs one call per launch group.  MSV is one engine
    call over every (model, sequence) lane, P7Viterbi one over every
    model's MSV survivors and Forward one over every model's P7Viterbi
    survivors, packed (:mod:`repro.cpu.packing`) so that a stage keeps
    many DP problems in flight per call.  Everything per model - scores,
    P-values, thresholds, hits, :class:`StageStats`, guardrail and
    kernel counters, the selfcheck oracle - is what
    :meth:`HmmsearchPipeline.search` alone gives; see that method for
    ``options``.  One ``search`` span covers the group, with one stage
    span per stage.  ``executor`` is for one-model searches only.
    """
    pipes = list(pipelines)
    if executor is not None and len(pipes) != 1:
        raise PipelineError("an executor dispatches one model's search only")
    opts = options if options is not None else SearchOptions()
    tracer = opts.tracer
    n = len(database)
    G = len(pipes)
    names = [pipe.hmm.name for pipe in pipes]
    Ms = [pipe.profile.M for pipe in pipes]
    null_len = [pipe.calibration.null_length_nats for pipe in pipes]
    ths = [opts.thresholds or pipe.thresholds for pipe in pipes]
    counters: list[dict[str, KernelCounters]] = [{} for _ in pipes]
    stages: list[list[StageStats]] = [[] for _ in pipes]
    padded: list = []

    def base():
        if not padded:
            padded.append(database.padded_batch())
        return padded[0]

    def guards():
        return [GuardrailCounters() if opts.guard else None for _ in pipes]

    def filter_stage(stage, survivors, profiles, packer, guard):
        """One filter stage's call over every model's survivors; returns
        ``{model: scores (nats)}`` of the models with survivors."""
        out = {}
        call = _survivor_call(database, base, survivors, profiles, packer,
                              (counters, guard))
        if call is None:
            return out
        models, profile, sub, (c, gd), slices = call
        scores = _score_filter(stage, profile, sub, opts, c, executor, gd,
                               max(Ms[g] for g in models))
        for g, lanes in zip(models, slices):
            out[g] = scores.scores[lanes]
            if guard[g] is not None:
                guard[g].overflows += int(
                    np.count_nonzero(scores.overflowed[lanes]))
                guard[g].underflows += int(np.count_nonzero(np.isneginf(out[g])))
        return out

    def close_stage(st_span, name, n_in, n_out, rows, guard):
        for g in range(G):
            stages[g].append(StageStats(
                name=name, n_in=int(n_in[g]), n_out=int(n_out[g]),
                rows=int(rows[g]), cells=int(rows[g]) * Ms[g], guard=guard[g],
            ))
        if st_span is not None:
            st_span.count(
                n_in=sum(int(x) for x in n_in),
                n_out=sum(int(x) for x in n_out),
                rows=sum(int(x) for x in rows),
                cells=sum(int(r) * M for r, M in zip(rows, Ms)),
            )

    with span(
        tracer, "search:" + "+".join(names), "search",
        query="+".join(names), database=database.name,
        engine=opts.engine.value, M=max(Ms),
    ) as search_span:
        if search_span is not None:
            search_span.count(targets=n * G,
                              residues=database.total_residues * G)

        # ---- stage 1: MSV filter over every (model, sequence) lane ----
        guard1 = guards()
        with span(tracer, "msv", "stage", stage="msv") as st_span:
            msv = filter_stage(
                "msv", [np.arange(n)] * G, [p.byte_profile for p in pipes],
                PackedByteProfile.pack, guard1,
            )
            msv_nats = [msv[g] for g in range(G)]
            msv_bits = [np.asarray(bits_from_nats(x, nl))
                        for x, nl in zip(msv_nats, null_len)]
            msv_p = [pipe.calibration.msv.pvalue(b)
                     for pipe, b in zip(pipes, msv_bits)]
            pass1 = [np.flatnonzero(p < th.f1) for p, th in zip(msv_p, ths)]
            close_stage(st_span, "msv", [n] * G, [x.size for x in pass1],
                        [database.total_residues] * G, guard1)

        # ---- stage 2: P7Viterbi over every model's MSV survivors ----
        vit_bits = [np.full(n, np.nan) for _ in pipes]
        vit_p = [np.full(n, np.nan) for _ in pipes]
        vit_nats: list[dict[int, float]] = [{} for _ in pipes]
        pass2 = [np.array([], dtype=np.int64) for _ in pipes]
        guard2 = guards()
        with span(tracer, "p7viterbi", "stage", stage="p7viterbi") as st_span:
            vit = filter_stage(
                "p7viterbi", pass1, [p.word_profile for p in pipes],
                PackedWordProfile.pack, guard2,
            )
            for g, got in vit.items():
                vit_nats[g] = {int(i): float(v) for i, v in zip(pass1[g], got)}
                vb = np.asarray(bits_from_nats(got, null_len[g]))
                vit_bits[g][pass1[g]] = vb
                vp = pipes[g].calibration.vit.pvalue(vb)
                vit_p[g][pass1[g]] = vp
                pass2[g] = pass1[g][vp < ths[g].f2]
            close_stage(
                st_span, "p7viterbi", [x.size for x in pass1],
                [x.size for x in pass2],
                [int(database.lengths[x].sum()) for x in pass1], guard2,
            )

        # ---- stage 3: Forward over every model's survivors (always CPU) ----
        fwd_bits = [np.full(n, np.nan) for _ in pipes]
        fwd_p = [np.full(n, np.nan) for _ in pipes]
        fwd_nats: list[dict[int, float]] = [{} for _ in pipes]
        hits: list[list[SearchHit]] = [[] for _ in pipes]
        guard3 = guards()
        with span(tracer, "forward", "stage", stage="forward") as st_span:
            call = _survivor_call(
                database, base, pass2, [p.generic_profile for p in pipes],
                PackedGenericProfile.pack, (guard3,),
            )
            if call is not None:
                models, profile, sub, (g3,), slices = call
                with span(
                    tracer, "forward_batch", "kernel",
                    stage="forward", engine="cpu_generic",
                ) as ks:
                    batch_nats = forward_score_batch(profile, sub, guard=g3)
                    if ks is not None:
                        ks.count(rows=int(np.sum(sub.lengths)),
                                 sequences=len(batch_nats))
                for g, lanes in zip(models, slices):
                    fwd_nats[g] = {
                        int(i): float(v)
                        for i, v in zip(pass2[g], batch_nats[lanes])
                    }
            n_pass3 = [0] * G
            for g, pipe in enumerate(pipes):
                for idx in pass2[g]:
                    fb = float(bits_from_nats(fwd_nats[g][int(idx)],
                                              null_len[g]))
                    fwd_bits[g][idx] = fb
                    fp = float(pipe.calibration.fwd.pvalue(fb))
                    fwd_p[g][idx] = fp
                    if fp >= ths[g].f3:
                        continue
                    n_pass3[g] += 1
                    evalue = fp * n
                    if evalue > ths[g].report_evalue:
                        continue
                    seq = database[int(idx)]
                    aln = None
                    if opts.alignments:
                        from ..cpu.traceback import viterbi_traceback

                        aln = viterbi_traceback(
                            pipe.generic_profile, seq.codes
                        )
                    hits[g].append(
                        SearchHit(
                            name=seq.name,
                            index=int(idx),
                            length=len(seq),
                            msv_bits=float(msv_bits[g][idx]),
                            msv_p=float(msv_p[g][idx]),
                            vit_bits=float(vit_bits[g][idx]),
                            vit_p=float(vit_p[g][idx]),
                            fwd_bits=fb,
                            fwd_p=fp,
                            evalue=evalue,
                            alignment=aln,
                        )
                    )
            close_stage(
                st_span, "forward", [x.size for x in pass2], n_pass3,
                [int(database.lengths[x].sum()) for x in pass2], guard3,
            )

        # ---- differential oracle over a deterministic sample ----
        results = []
        for g, pipe in enumerate(pipes):
            oracle = None
            if opts.selfcheck > 0:
                oracle = pipe._run_oracle(
                    database, opts.selfcheck, msv_nats[g],
                    vit_nats[g], fwd_nats[g],
                )
                if not oracle.ok:
                    if not opts.policy.salvage:
                        raise DivergenceError(
                            f"query {names[g]!r} vs database "
                            f"{database.name!r}: engine scores diverged from "
                            "the scalar reference - "
                            + "; ".join(
                                d.describe() for d in oracle.divergences[:3]
                            )
                        )
                    q = (
                        opts.quarantine
                        if opts.quarantine is not None
                        else RecordQuarantine()
                    )
                    diverged = {d.index for d in oracle.divergences}
                    for d in oracle.divergences:
                        q.add(
                            database.name, 0, d.sequence, d.describe(),
                            kind="divergence",
                        )
                    hits[g] = [h for h in hits[g] if h.index not in diverged]
            hits[g].sort(key=lambda h: (h.evalue, h.name))
            results.append(SearchResults(
                query_name=names[g],
                n_targets=n,
                hits=hits[g],
                stages=stages[g],
                msv_bits=msv_bits[g],
                vit_bits=vit_bits[g],
                fwd_bits=fwd_bits[g],
                counters=counters[g],
                oracle=oracle,
            ))
        if search_span is not None:
            search_span.count(hits=sum(len(h) for h in hits))
    return results
