"""Consolidated search configuration: :class:`SearchOptions`.

One frozen options object configures every search: it is accepted by
:meth:`HmmsearchPipeline.search`, :class:`~repro.service.Scheduler`,
:class:`~repro.service.BatchSearchService` and the scan service.
Engines are chosen by registered name or per-stage mapping and
resolved through :func:`repro.engines.resolve`.

:class:`PipelineThresholds` is *defined* here (and re-exported from
:mod:`repro.pipeline`) so that the options object, the pipeline and
the service can all share it without an import cycle.

Every field carries a ``doc`` metadata string; :func:`field_doc` feeds
the CLI, whose ``--selfcheck``/``--strict|--salvage``/``--trace`` help
text is generated from these docs so the flags and the API cannot
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import engines
from .engines import EngineSelection
from .errors import PipelineError
from .gpu.device import KEPLER_K40, DeviceSpec
from .hardening import STRICT, IngestPolicy, RecordQuarantine
from .kernels.memconfig import MemoryConfig
from .obs.span import Tracer

__all__ = [
    "PipelineThresholds",
    "SearchOptions",
    "field_doc",
]


@dataclass(frozen=True)
class PipelineThresholds:
    """Stage P-value thresholds and the reporting E-value cutoff."""

    f1: float = 0.02    # MSV
    f2: float = 1e-3    # P7Viterbi
    f3: float = 1e-5    # Forward
    report_evalue: float = 10.0

    def __post_init__(self) -> None:
        for name, v in (("f1", self.f1), ("f2", self.f2), ("f3", self.f3)):
            if not 0.0 < v <= 1.0:
                raise PipelineError(f"threshold {name} must be in (0, 1]")


@dataclass(frozen=True)
class SearchOptions:
    """Everything configurable about running one search.

    Frozen so it can be shared across jobs, used as a default, and
    varied with :func:`dataclasses.replace`.  The contained tracer and
    quarantine are mutable collectors by design - the options object
    only decides *whether* they are fed.
    """

    engine: EngineSelection = field(
        default=engines.resolve("cpu_sse"),
        metadata={"doc": "scoring engine for the MSV and P7Viterbi "
                         "stages: any registered engine name "
                         "(repro.engines.list_engines(); e.g. cpu_sse, "
                         "gpu_warp, gpu_warp_batched, mp) or a "
                         "per-stage mapping like "
                         "msv=gpu_warp_batched,p7viterbi=mp "
                         "('*' keys the default stage engine)"},
    )
    device: DeviceSpec = field(
        default=KEPLER_K40,
        metadata={"doc": "simulated device for single-device GPU "
                         "dispatch (service jobs use the pool instead)"},
    )
    config: MemoryConfig = field(
        default=MemoryConfig.SHARED,
        metadata={"doc": "where kernel emission scores notionally live "
                         "(shared/global); results are identical, only "
                         "the charged memory traffic differs"},
    )
    thresholds: PipelineThresholds | None = field(
        default=None,
        metadata={"doc": "per-search stage P-value thresholds; None "
                         "uses the pipeline's calibrated defaults"},
    )
    alignments: bool = field(
        default=False,
        metadata={"doc": "attach the optimal Viterbi alignment to every "
                         "reported hit"},
    )
    selfcheck: int = field(
        default=0,
        metadata={"doc": "shadow-score N sampled sequences per search "
                         "through the scalar reference engines "
                         "(differential oracle; 0 = off)"},
    )
    guard: bool = field(
        default=True,
        metadata={"doc": "tally numerical guardrail events (u8/i16 "
                         "saturations, overflows, non-finite scores) "
                         "per stage"},
    )
    policy: IngestPolicy = field(
        default=STRICT,
        metadata={"doc": "strict fails fast on malformed records or "
                         "divergences; salvage skips-and-quarantines "
                         "them instead of aborting"},
    )
    quarantine: RecordQuarantine | None = field(
        default=None,
        metadata={"doc": "where salvage mode deposits skipped records "
                         "(the service wires its metrics-owned "
                         "quarantine here)"},
    )
    tracer: Tracer | None = field(
        default=None,
        metadata={"doc": "record nested job/stage/kernel spans with "
                         "timings and counters into this tracer "
                         "(None = tracing off, zero overhead)"},
    )
    sanitize: bool = field(
        default=False,
        metadata={"doc": "arm the warp-model sanitizer for GPU kernel "
                         "launches (bank conflicts, read-before-write "
                         "hazards, inactive-lane garbage); the report "
                         "lands on each stage's KernelCounters; the "
                         "REPRO_SANITIZE env var arms it globally"},
    )
    deadline_ms: float | None = field(
        default=None,
        metadata={"doc": "per-job time budget in modelled milliseconds; "
                         "the budget is decremented through every retry "
                         "backoff and injected stall, and an expired job "
                         "fails fast with DeadlineExceeded (exit code 5) "
                         "instead of burning devices (None = no deadline)"},
    )
    mp_workers: int = field(
        default=2,
        metadata={"doc": "worker-process count for the mp engine; 1 "
                         "scores inline in this process (hits are "
                         "bit-identical for every worker count)"},
    )
    mp_inner_engine: str = field(
        default="gpu_warp_batched",
        metadata={"doc": "registered engine each mp worker runs on its "
                         "shard (anything but mp itself)"},
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", engines.resolve(self.engine))
        if self.selfcheck < 0:
            raise PipelineError("selfcheck must be >= 0")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise PipelineError("deadline_ms must be positive")
        if self.mp_workers < 1:
            raise PipelineError("mp_workers must be >= 1")
        inner = engines.get(self.mp_inner_engine).name
        if inner == "mp":
            raise PipelineError("mp_inner_engine cannot be 'mp' itself")
        object.__setattr__(self, "mp_inner_engine", inner)

    def with_(self, **changes) -> "SearchOptions":
        """A copy with the given fields replaced (ergonomic alias)."""
        return replace(self, **changes)


def field_doc(name: str) -> str:
    """The documented meaning of one :class:`SearchOptions` field.

    The CLI builds its flag help text from these strings.
    """
    try:
        f = SearchOptions.__dataclass_fields__[name]
    except KeyError:
        raise PipelineError(
            f"SearchOptions has no field {name!r}"
        ) from None
    return f.metadata["doc"]
