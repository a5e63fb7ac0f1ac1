"""Pluggable engine registry: which implementation scores each stage.

The registry is open, so it can express CUDAMPF++-style per-model
kernel-variant selection and admit new engines without touching any
dispatch site: an engine registers an
:class:`EngineSpec` - ``(name, stages, scorer, capability probe,
cost-model hook)`` plus dispatch traits - and every consumer (pipeline,
scheduler, scan service, admission pricing, CLI, benchmarks) resolves
engines by name through :func:`get` / :func:`resolve`.

Selection is *per stage*: :func:`resolve` accepts a bare name
(``"gpu_warp_batched"``), a short alias (``"cpu"``/``"gpu"``), an
existing :class:`EngineSelection`, or a per-stage mapping such as
``{"msv": "gpu_warp_batched", "p7viterbi": "mp"}`` (the ``"*"`` key
sets the default for unmapped stages).  Resolved selections are
*interned*: resolving equal inputs returns the identical object, so
``opts.engine is resolve("gpu")`` holds for any ``gpu_warp``
selection.

Built-in engines:

``cpu_sse``
    The striped-SSE-equivalent vectorized golden reference.
``gpu_warp``
    The paper's warp-synchronous kernels, one sequence per warp; the
    only engine the device-pool ``PoolExecutor`` shards (``pooled``).
``gpu_warp_batched``
    Cross-sequence batched kernels packing many length-sorted sequences
    across the warp (lane) dimension of one vectorized invocation
    (:mod:`repro.kernels.batched`).
``mp``
    Process-parallel backend: shared-memory score arrays +
    ``ProcessPoolExecutor`` running a configurable inner engine in each
    worker (:mod:`repro.cpu.mp_backend`).

Scores are bit-identical across all of them - the paper's
accuracy-preservation claim, pinned by the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .errors import UnknownEngineError

__all__ = [
    "STAGE_NAMES",
    "EngineSpec",
    "EngineSelection",
    "register",
    "get",
    "list_engines",
    "resolve",
]

#: The accelerated pipeline stages an engine can claim.
STAGE_NAMES = ("msv", "p7viterbi")


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: identity, dispatch traits and hooks.

    Attributes
    ----------
    name:
        Canonical registry key (``cpu_sse``, ``gpu_warp_batched``, ...).
    stages:
        The pipeline stages this engine can score.
    scorer:
        ``scorer(stage, profile, database, *, opts, counters, guard,
        executor, M) -> FilterScores``; the pipeline's per-stage
        dispatch target.  ``counters`` is the search-wide
        ``{stage: KernelCounters}`` dict, ``guard`` the stage's
        :class:`~repro.scoring.guardrails.GuardrailCounters`.
    probe:
        Zero-argument capability probe; a falsy return means the engine
        cannot run in this process (the CLI marks it, the cost model
        falls back to CPU pricing).
    cost_hook:
        ``cost_hook(stage, work, device, costs) -> float`` modelled
        seconds for admission pricing (:mod:`repro.perf.cost_model`
        provides the canonical implementations).
    description:
        One line for registry-generated CLI help.
    aliases:
        Extra lookup names (the short ``cpu``/``gpu`` spellings).
    pooled:
        The device-pool executor path (multi-device sharding, fault
        injection, shard retry) dispatches this engine.
    device_bound:
        The scan service checks out a device-pool slot before running
        this engine (occupancy accounting + fault injection).
    """

    name: str
    stages: tuple[str, ...]
    scorer: Callable[..., Any]
    probe: Callable[[], bool] = field(default=lambda: True)
    cost_hook: Callable[..., float] | None = None
    description: str = ""
    aliases: tuple[str, ...] = ()
    pooled: bool = False
    device_bound: bool = False


_REGISTRY: dict[str, EngineSpec] = {}
_ALIASES: dict[str, str] = {}
_SELECTIONS: dict[tuple, "EngineSelection"] = {}


def register(spec: EngineSpec) -> EngineSpec:
    """Add an engine to the registry (idempotent for identical names).

    Registering a name twice replaces the previous spec - deliberate,
    so tests and downstream packages can shadow a built-in.  Interned
    selections survive re-registration because they hold names, not
    specs.
    """
    for stage in spec.stages:
        if stage not in STAGE_NAMES:
            raise UnknownEngineError(
                f"engine {spec.name!r} claims unknown stage {stage!r} "
                f"(stages are {'/'.join(STAGE_NAMES)})"
            )
    _REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def list_engines() -> tuple[str, ...]:
    """Canonical names of every registered engine, sorted."""
    return tuple(sorted(_REGISTRY))


def _canonical(name: str) -> str:
    name = str(name).strip().lower()
    name = _ALIASES.get(name, name)
    if name not in _REGISTRY:
        known = ", ".join(list_engines())
        raise UnknownEngineError(
            f"unknown engine {name!r}: registered engines are {known} "
            "(see repro.engines.list_engines(); aliases: "
            + ", ".join(f"{a}={c}" for a, c in sorted(_ALIASES.items()))
            + ")"
        )
    return name


def get(name: str) -> EngineSpec:
    """Look up one engine spec by canonical name or alias."""
    return _REGISTRY[_canonical(name)]


@dataclass(frozen=True)
class EngineSelection:
    """A resolved engine choice: one default plus per-stage overrides.

    Instances are created only by :func:`resolve`, which interns them:
    two equal selections are the *same* object, so selections compare
    by identity.
    """

    default: str
    overrides: tuple[tuple[str, str], ...] = ()

    @property
    def value(self) -> str:
        """Stable string form: the bare name for a single-engine
        selection (keeps WAL fingerprints and span tags unchanged), a
        canonical ``stage=name`` listing for per-stage selections."""
        if not self.overrides:
            return self.default
        parts = [f"{s}={e}" for s, e in self.overrides]
        if any(self.for_stage(s) == self.default for s in STAGE_NAMES):
            parts.append(f"*={self.default}")
        return ",".join(sorted(parts))

    def for_stage(self, stage: str) -> str:
        """The engine name scoring ``stage`` under this selection."""
        for s, e in self.overrides:
            if s == stage:
                return e
        return self.default

    def spec_for(self, stage: str) -> EngineSpec:
        return get(self.for_stage(stage))

    @property
    def specs(self) -> tuple[EngineSpec, ...]:
        """Distinct specs this selection dispatches to, stage order."""
        seen: dict[str, EngineSpec] = {}
        for stage in STAGE_NAMES:
            name = self.for_stage(stage)
            seen.setdefault(name, get(name))
        return tuple(seen.values())

    @property
    def pooled(self) -> bool:
        """True when *every* stage's engine takes the device-pool
        executor path (the resilient sharded dispatch)."""
        return all(spec.pooled for spec in self.specs)

    @property
    def device_bound(self) -> bool:
        """True when any stage's engine needs a device-pool slot."""
        return any(spec.device_bound for spec in self.specs)

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"EngineSelection({self.value!r})"


def _intern(default: str, overrides: tuple[tuple[str, str], ...]) -> EngineSelection:
    key = (default, overrides)
    sel = _SELECTIONS.get(key)
    if sel is None:
        sel = EngineSelection(default=default, overrides=overrides)
        _SELECTIONS[key] = sel
    return sel


def resolve(value: "EngineSelection | str | Mapping[str, str]") -> EngineSelection:
    """Resolve anything engine-shaped into an interned selection.

    Accepts an :class:`EngineSelection` (returned interned), a name or
    alias string, a ``stage=name,...`` string (the CLI form), or a
    ``{stage: name}`` mapping whose optional ``"*"`` key sets the
    default for unmapped stages.  Unknown engine or stage names raise
    :class:`~repro.errors.UnknownEngineError` naming the registry.
    """
    if isinstance(value, EngineSelection):
        return _intern(value.default, value.overrides)
    if isinstance(value, Mapping):
        items = dict(value)
    elif isinstance(value, str) and "=" in value:
        items = {}
        for part in value.split(","):
            part = part.strip()
            if not part:
                continue
            stage, _, name = part.partition("=")
            items[stage.strip()] = name.strip()
    else:
        return _intern(_canonical(value), ())
    default = _canonical(items.pop("*", "cpu_sse"))
    overrides = []
    for stage, name in items.items():
        if stage not in STAGE_NAMES:
            raise UnknownEngineError(
                f"unknown stage {stage!r} in engine mapping (stages are "
                f"{'/'.join(STAGE_NAMES)}; '*' sets the default)"
            )
        name = _canonical(name)
        spec = _REGISTRY[name]
        if stage not in spec.stages:
            raise UnknownEngineError(
                f"engine {name!r} does not implement stage {stage!r} "
                f"(it implements {'/'.join(spec.stages)})"
            )
        overrides.append((stage, name))
    overrides.sort()
    # a mapping that names every stage identically collapses to a bare
    # selection so `resolve({"msv": "mp", "p7viterbi": "mp"})` is
    # `resolve("mp")` - same interned object, same .value
    names = {name for _, name in overrides}
    if len(names) == 1 and {s for s, _ in overrides} == set(STAGE_NAMES):
        return _intern(overrides[0][1], ())
    return _intern(default, tuple(overrides))


# -- built-in engine scorers -------------------------------------------------
# Scorers lazy-import their kernels: options.py imports this module at
# definition time, and eager kernel imports here would cycle back
# through repro.kernels -> repro.gpu -> ... -> repro.options.


def _launch(stage, database, score, tracer, name, tags, counters=None,
            guard=None, tally_rows=False):
    """Run ``score(c)`` in one ``kernel`` span: every scorer's body.

    ``c`` is the stage's :class:`~repro.gpu.counters.KernelCounters`
    from the search-wide ``counters`` dict, or None without one (the CPU
    reference keeps none and tallies its saturations on the guard
    itself); ``guard`` gains the saturations ``score`` added to ``c``.
    In a packed call (:mod:`repro.cpu.packing`) ``counters`` and
    ``guard`` are per-model lists, and so is ``c``.  The span records
    the rows and sequences scored (``tally_rows``) or else the kernel
    counters, summed over the models.
    """
    from .gpu.counters import KernelCounters
    from .obs.profiling import record_kernel_counters
    from .obs.span import span

    packed = getattr(database, "models", None) is not None
    per = None if counters is None else [
        d.setdefault(stage, KernelCounters())
        for d in (counters if packed else [counters])
    ]
    before = [c.saturations for c in per or []]
    with span(tracer, name, "kernel", **tags) as ks:
        scores = score(None if per is None else per if packed else per[0])
        if ks is not None and tally_rows:
            ks.count(rows=int(database.lengths.sum()), sequences=len(scores))
        elif ks is not None and per is not None:
            total = KernelCounters()
            for c in per:
                total.merge(c)
            record_kernel_counters(ks, total)
    if guard is not None and per is not None:
        for g, c, b in zip(guard if packed else [guard], per, before):
            g.saturations += c.saturations - b
    return scores


def _reference_scorer(stage, profile, database, *, opts, counters, guard,
                      executor=None, M=None):
    from .cpu.msv_reference import msv_score_batch
    from .cpu.viterbi_reference import viterbi_score_batch

    ref = msv_score_batch if stage == "msv" else viterbi_score_batch
    return _launch(
        stage, database, lambda c: ref(profile, database, guard=guard),
        opts.tracer, f"{stage}_batch", {"stage": stage, "engine": "cpu_sse"},
        tally_rows=True,
    )


def _warp_kernel_scorer(stage, profile, database, *, opts, counters, guard,
                        executor=None, M=None):
    from .kernels.msv_warp import msv_warp_kernel
    from .kernels.viterbi_warp import viterbi_warp_kernel
    from .obs.profiling import kernel_tags

    kernel = msv_warp_kernel if stage == "msv" else viterbi_warp_kernel
    run = kernel
    if opts.sanitize:
        # bind the flag so executor-dispatched launches (which own their
        # kernel calls) are sanitized too; sanitize=None would only
        # defer to REPRO_SANITIZE
        run = functools.partial(kernel, sanitize=True)
    if executor is not None:
        # the pooled executor records its own schedule/shard/kernel spans
        return _launch(stage, database, lambda c: executor.score_stage(
            stage, run, profile, database, config=opts.config, counters=c,
        ), None, kernel.__name__, {}, counters, guard)
    tags = kernel_tags(stage, M, opts.config, opts.device, engine="gpu_warp")
    return _launch(stage, database, lambda c: run(
        profile, database, config=opts.config, device=opts.device, counters=c,
    ), opts.tracer, kernel.__name__, tags, counters, guard)


def _batched_kernel_scorer(stage, profile, database, *, opts, counters, guard,
                           executor=None, M=None):
    from .kernels.batched import msv_batched_kernel, viterbi_batched_kernel
    from .obs.profiling import kernel_tags

    kernel = msv_batched_kernel if stage == "msv" else viterbi_batched_kernel
    tags = kernel_tags(stage, M, opts.config, opts.device,
                       engine="gpu_warp_batched")
    return _launch(stage, database, lambda c: kernel(
        profile, database, config=opts.config, device=opts.device,
        counters=c, sanitize=True if opts.sanitize else None,
    ), opts.tracer, kernel.__name__, tags, counters, guard)


def _mp_scorer(stage, profile, database, *, opts, counters, guard,
               executor=None, M=None):
    from .cpu.mp_backend import mp_score_stage

    tags = {"stage": stage, "engine": "mp", "workers": opts.mp_workers,
            "inner": opts.mp_inner_engine}
    return _launch(stage, database, lambda c: mp_score_stage(
        stage, profile, database, workers=opts.mp_workers,
        inner=opts.mp_inner_engine, counters=c,
    ), opts.tracer, f"{stage}_mp", tags, counters, guard, tally_rows=True)


def _mp_probe() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _cost_hook(kind: str):
    def hook(stage, work, device, costs):
        from .perf.cost_model import engine_cost_hook

        return engine_cost_hook(kind, stage, work, device, costs)

    hook.kind = kind  # introspectable for tests / admission diagnostics
    return hook


register(EngineSpec(
    name="cpu_sse",
    stages=STAGE_NAMES,
    scorer=_reference_scorer,
    cost_hook=_cost_hook("cpu"),
    description="striped-SSE golden reference, lockstep-vectorized",
    aliases=("cpu",),
))
register(EngineSpec(
    name="gpu_warp",
    stages=STAGE_NAMES,
    scorer=_warp_kernel_scorer,
    cost_hook=_cost_hook("gpu"),
    description="warp-synchronous simulated kernels, one sequence per warp",
    aliases=("gpu",),
    pooled=True,
    device_bound=True,
))
register(EngineSpec(
    name="gpu_warp_batched",
    stages=STAGE_NAMES,
    scorer=_batched_kernel_scorer,
    cost_hook=_cost_hook("gpu"),
    description="cross-sequence batched kernels: many length-sorted "
                "sequences packed across the warp lane dimension",
    device_bound=True,
))
register(EngineSpec(
    name="mp",
    stages=STAGE_NAMES,
    scorer=_mp_scorer,
    probe=_mp_probe,
    cost_hook=_cost_hook("mp"),
    description="process-parallel backend: shared-memory score arrays + "
                "ProcessPoolExecutor over an inner engine",
))
