"""repro: a reproduction of "Fine-Grained Acceleration of HMMER 3.0 via
Architecture-Aware Optimization on Massively Parallel Processors"
(Jiang & Ganesan, IPDPSW 2015).

The package contains a from-scratch HMMER 3.0 ``hmmsearch`` engine
(Plan-7 profile HMMs, the quantized MSV and ViterbiFilter scoring
systems, full-precision Forward/Backward, the filter pipeline with
Gumbel/exponential statistics) plus a simulated SIMT GPU substrate on
which the paper's warp-synchronous kernels run with bit-identical
scores, and a mechanistic performance model that regenerates every
figure of the paper's evaluation.

The supported import surface is the :mod:`repro.api` facade::

    import repro

    hmm = repro.load_hmm("globin.hmm")
    db = repro.load_fasta("swissprot.fa")
    results = repro.search(hmm, db, repro.SearchOptions(engine="gpu"))
    print(results.summary())

The package also re-exports the internals that the examples,
benchmarks, tools and end-to-end benchmark use (``HmmsearchPipeline``,
``sample_hmm``, ``msv_warp_kernel``, ...): the facade-discipline lint
rule lets code outside ``src/repro`` import only from :mod:`repro` and
:mod:`repro.api`.  ``__all__`` lists the facade alone; everything else
should be imported from its defining submodule.
"""

from __future__ import annotations

from .alphabet import AMINO, packed_stream_bytes, unpack_residues
from .api import (
    EngineSpec,
    ScanOptions,
    SearchOptions,
    SearchResults,
    batch_search,
    fsck_library,
    get_engine,
    list_engines,
    load_fasta,
    load_hmm,
    load_library,
    press_library,
    register_engine,
    scan,
    search,
    search_many,
)
from .cpu import (
    generic_forward_score,
    msv_score_batch,
    msv_score_sequence,
    viterbi_score_batch,
    viterbi_score_sequence,
)
from .cpu.posterior import domain_regions, posterior_decode
from .errors import JournalCorruptError, OverloadError
from .gpu import FERMI_GTX580, KEPLER_K40, KernelCounters
from .hardening import SALVAGE, STRICT, RecordQuarantine
from .hmm import (
    PAPER_MODEL_SIZES,
    SearchProfile,
    build_hmm_from_msa,
    pfam_band_fractions,
    sample_hmm,
    sample_pfam_size,
    save_hmm,
)
from .kernels import (
    SYNCS_PER_ROW,
    MemoryConfig,
    Stage,
    msv_multiwarp_sync_kernel,
    msv_warp_kernel,
    stage_occupancy,
    viterbi_warp_kernel,
)
from .obs import Tracer, compare_bench, load_bench, write_bench_json
from .perf import (
    DEFAULT_COSTS,
    CostConstants,
    SchedulePolicy,
    StageWork,
    best_gpu_stage_time,
    cpu_forward_time,
    cpu_stage_time,
    experiment_workload,
    gpu_stage_time,
    hybrid_stage_split,
    imbalance_factor,
    kernel_intensity,
    multi_gpu_speedup,
    optimal_stage_speedup,
    overall_speedup,
    paper_database,
    paper_hmm,
    ridge_point,
    roofline_summary,
    stage_speedup,
    transfer_time_s,
)
from .perf.workloads import PAPER_RESIDUES
from .pipeline import HmmsearchPipeline, PipelineThresholds
from .scan import LibraryCatalog, PressSettings, ScanService
from .scoring import MSVByteProfile, ViterbiWordProfile
from .sequence import (
    DigitalSequence,
    SequenceDatabase,
    envnr_like,
    homolog_database,
    random_sequence_codes,
    read_fasta,
    swissprot_like,
    write_fasta,
)
from .service import (
    AdmissionLimits,
    BatchSearchService,
    CrashPoint,
    DevicePool,
    DurableRunJournal,
    FaultPlan,
    PipelineCache,
    PipelineSettings,
    VirtualClock,
    result_digest,
)

__version__ = "2.0.0"

__all__ = [
    "__version__",
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
    "EngineSpec",
    "register_engine",
    "get_engine",
    "list_engines",
]
