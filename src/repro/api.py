"""The supported public API of :mod:`repro` in one small facade.

Four years of stacked PRs grew ~60 public names; almost every consumer
needs ten of them.  This module is that ten: load a model, load a
database, run one search or a batch of them, press/load/scan a model
library, and the types those calls exchange.  ``repro.__all__`` is
exactly this facade; everything else is importable from its defining
submodule (``repro`` also re-exports the internals that the examples,
benchmarks and tools use).

Quickstart::

    import repro

    hmm = repro.load_hmm("globin.hmm")
    db = repro.load_fasta("swissprot.fa")
    results = repro.search(hmm, db)
    print(results.summary())

    opts = repro.SearchOptions(engine="gpu", selfcheck=4)
    jobs, report = repro.batch_search([(hmm, db), (hmm, db)], options=opts)

The scan direction (one sequence set against a model library) works on
pressed libraries, hmmpress-style::

    catalog = repro.press_library("pfam/", store="pfam.pressed")
    catalog = repro.load_library("pfam.pressed")   # zero recalibration
    hits = repro.scan(catalog, db)
    print(hits.summary())
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .engines import EngineSpec, get as get_engine, list_engines, register as register_engine
from .errors import PipelineError
from .hmm.hmmfile import load_hmm as _load_hmm
from .hmm.plan7 import Plan7HMM
from .options import SearchOptions
from .pipeline.pipeline import HmmsearchPipeline
from .pipeline.results import SearchResults
from .scan.service import ScanOptions
from .sequence.database import SequenceDatabase
from .sequence.fasta import read_fasta
from .sequence.sequence import DigitalSequence

__all__ = [
    "load_hmm",
    "load_fasta",
    "search",
    "search_many",
    "batch_search",
    "press_library",
    "load_library",
    "fsck_library",
    "scan",
    "SearchOptions",
    "ScanOptions",
    "SearchResults",
    # the engine registry (repro.engines), facade-blessed
    "EngineSpec",
    "register_engine",
    "get_engine",
    "list_engines",
]


def load_hmm(path: str | Path, options: SearchOptions | None = None):
    """Read a Plan-7 model from an HMMER3 ASCII file.

    ``options`` supplies the ingestion policy and quarantine (strict by
    default).  Returns ``None`` if salvage mode quarantined the model.
    """
    opts = options if options is not None else SearchOptions()
    return _load_hmm(path, policy=opts.policy, quarantine=opts.quarantine)


def load_fasta(
    path: str | Path, options: SearchOptions | None = None
) -> SequenceDatabase:
    """Read a FASTA file into a :class:`SequenceDatabase`.

    ``options`` supplies the ingestion policy and quarantine (strict by
    default); salvage mode skips malformed records instead of raising.
    """
    opts = options if options is not None else SearchOptions()
    return read_fasta(path, policy=opts.policy, quarantine=opts.quarantine)


def search(
    hmm: Plan7HMM,
    database: SequenceDatabase,
    options: SearchOptions | None = None,
) -> SearchResults:
    """Run one hmmsearch: the three-stage filter pipeline, configured
    entirely by ``options`` (engine, thresholds, selfcheck, tracing).

    Builds a freshly calibrated :class:`HmmsearchPipeline` per call; for
    many searches against the same model, use :func:`batch_search`,
    whose pipeline cache amortizes calibration across jobs.
    """
    opts = options if options is not None else SearchOptions()
    pipeline = HmmsearchPipeline(hmm, thresholds=opts.thresholds)
    return pipeline.search(database, opts)


def search_many(
    hmm: Plan7HMM,
    targets,
    options: SearchOptions | None = None,
) -> SearchResults:
    """Search many target sequences against one model in a single
    batched pipeline invocation - the preferred high-throughput path.

    ``targets`` is a :class:`SequenceDatabase` or any iterable mixing
    :class:`~repro.sequence.sequence.DigitalSequence` objects and
    databases; everything is merged into one database and scored by
    **one** pipeline call.  Where a Python loop over :func:`search`
    launches one kernel per sequence, this routes the whole set through
    the cross-sequence batched packer (length-sorted, bucketed across
    warp lanes), so the MSV and P7Viterbi filters each run as a single
    vectorized kernel over all lanes.  Hit scores are bit-identical to
    per-sequence calls.

    When ``options`` is ``None`` the ``gpu_warp_batched`` engine is
    selected (that is the point of this entry point); pass explicit
    :class:`SearchOptions` to choose any registered engine, including a
    per-stage mapping such as
    ``engine={"msv": "gpu_warp_batched", "p7viterbi": "mp"}``.
    """
    opts = (
        options
        if options is not None
        else SearchOptions(engine="gpu_warp_batched")
    )
    if isinstance(targets, SequenceDatabase):
        database = targets
    else:
        seqs: list[DigitalSequence] = []
        for item in targets:
            if isinstance(item, SequenceDatabase):
                seqs.extend(item)
            elif isinstance(item, DigitalSequence):
                seqs.append(item)
            else:
                raise PipelineError(
                    "search_many targets must be DigitalSequence or "
                    f"SequenceDatabase items, got {type(item).__name__}"
                )
        database = SequenceDatabase(seqs, name="search_many")
    pipeline = HmmsearchPipeline(hmm, thresholds=opts.thresholds)
    return pipeline.search(database, opts)


def batch_search(
    requests: Iterable[
        tuple[Plan7HMM, SequenceDatabase]
        | tuple[Plan7HMM, SequenceDatabase, SearchOptions]
    ],
    options: SearchOptions | None = None,
    limits=None,
):
    """Run many searches through the batch service; returns
    ``(jobs, report)``.

    Each request is ``(hmm, database)`` or ``(hmm, database, options)``
    - a per-request :class:`SearchOptions` overrides the batch-wide
    ``options`` for that job only.  Jobs run on the service's simulated
    device pool with the pipeline cache, resilient accounting and (if
    ``options.tracer`` is set) full span tracing; ``report`` is the
    service metrics report text.

    ``limits`` (an :class:`~repro.service.AdmissionLimits`) arms
    predictive admission control: every request is priced through the
    cost model, and an over-watermark submission raises
    :class:`~repro.errors.OverloadError` instead of queueing - callers
    that want partial progress should submit and catch per request.
    """
    from .service import BatchSearchService

    opts = options if options is not None else SearchOptions()
    service = BatchSearchService(options=opts, limits=limits)
    for request in requests:
        if len(request) == 2:
            hmm, database = request
            job_opts = None
        else:
            hmm, database, job_opts = request
        service.submit(hmm, database, options=job_opts or opts)
    jobs = service.run()
    return jobs, service.metrics.render()


def _collect_models(models, options: SearchOptions):
    """Accept an iterable of models, a directory of ``.hmm`` files, or a
    single model file; returns the loaded model list."""
    if isinstance(models, (str, Path)):
        path = Path(models)
        if path.is_dir():
            files = sorted(path.glob("*.hmm"))
            if not files:
                raise PipelineError(f"no .hmm files found in {path}")
        elif path.is_file():
            files = [path]
        else:
            raise PipelineError(f"{path}: no such model file or directory")
        loaded = [load_hmm(f, options) for f in files]
        return [h for h in loaded if h is not None]  # salvage skips
    return list(models)


def press_library(
    models,
    store: str | Path | None = None,
    options: SearchOptions | None = None,
    settings=None,
    name: str = "library",
):
    """Press a model library into a calibrated catalog (``hmmpress``).

    ``models`` is an iterable of :class:`Plan7HMM`, a directory of
    ``.hmm`` files, or one model file.  With ``store``, the pressing is
    persisted (and any prior pressing there is reused entry-by-entry
    where model content is unchanged); later sessions then
    :func:`load_library` it with zero recalibration.  ``settings`` is a
    :class:`~repro.scan.catalog.PressSettings`; ``options`` supplies
    ingestion policy/quarantine for reading model files.
    """
    from .scan import LibraryCatalog

    opts = options if options is not None else SearchOptions()
    return LibraryCatalog.press(
        _collect_models(models, opts),
        store=store,
        settings=settings,
        name=name,
        policy=opts.policy,
        quarantine=opts.quarantine,
    )


def load_library(store: str | Path, options: SearchOptions | None = None):
    """Reopen a pressed library with zero recalibration.

    Every entry is integrity-checked against its content fingerprint
    and stored scoring tables; a strict ``options.policy`` raises
    :class:`~repro.errors.CatalogError` on the first stale or corrupt
    entry, salvage quarantines bad entries and loads the rest.
    """
    from .scan import LibraryCatalog

    opts = options if options is not None else SearchOptions()
    return LibraryCatalog.load(
        store, policy=opts.policy, quarantine=opts.quarantine
    )


def fsck_library(store: str | Path, repair: bool = False):
    """Verify a pressed library store on disk; optionally repair it.

    Walks the ``index.json`` + payload files of a :func:`press_library`
    store, checking every entry's content fingerprint and scoring
    tables.  With ``repair=True``, rebuildable damage (missing or
    corrupt ``.npz`` tables) is regenerated from the fingerprint-true
    model, unrecoverable entries are quarantined under
    ``<store>/quarantine/``, and orphan payload files are swept aside.
    Returns a :class:`~repro.scan.fsck.FsckReport`.
    """
    from .scan import LibraryCatalog

    return LibraryCatalog.fsck(store, repair=repair)


def scan(
    library,
    database: SequenceDatabase,
    options: ScanOptions | None = None,
):
    """Scan a sequence database against a pressed model library.

    ``library`` is a :class:`~repro.scan.catalog.LibraryCatalog` (from
    :func:`press_library` / :func:`load_library`) or anything
    :func:`press_library` accepts (pressed on the fly).  Models are
    bucketed by the kernel memory-configuration crossover and scheduled
    over the simulated device pool; hits are ranked by E-value over the
    library size.
    """
    from .scan import LibraryCatalog, ScanService

    opts = options if options is not None else ScanOptions()
    if not isinstance(library, LibraryCatalog):
        library = press_library(library, options=opts.search)
    return ScanService(library, options=opts).scan(database)
