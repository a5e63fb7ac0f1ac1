"""Predictive admission control for the batch search service.

The paper's speedups come from keeping devices *saturated but not
drowned*: work arrives at a steady, predictable rate.  This module is
the service-plane analogue - a bounded front door for the
:class:`~repro.service.job.JobQueue` that prices every submission with
the same mechanistic cost model (:mod:`repro.perf.cost_model`) that
already drives memory-configuration and co-scheduling decisions, and
refuses work the backlog cannot absorb.

The flow at submit time:

1. :func:`estimate_job_cost` prices the job from ``M x residues``
   through the three-stage filter cascade (MSV over everything,
   P7Viterbi over the expected ``f1`` survivors, Forward over the
   expected ``f2`` survivors - HMMER 3.0's 0.02 / 1e-3 defaults).
2. :meth:`AdmissionController.admit` checks the bounded-queue
   watermarks in :class:`AdmissionLimits` (pending jobs, modelled
   backlog seconds, backlog residues).  Over a watermark the submission
   is **rejected** with :class:`~repro.errors.OverloadError` carrying a
   retry-after hint (the modelled backlog drain time); under pressure
   but below the hard watermark, low-priority work is **shed** instead.
3. Admitted estimates ride on the job; :meth:`AdmissionController.complete`
   returns their cost to the pool when the scheduler finishes them.

:class:`DegradationState` summarises utilisation into the documented
shedding ladder (selfcheck sampling -> tracing -> bench spans) that the
scheduler applies to per-job options, and that
``MetricsRegistry.render()`` reports.

Accounting invariant (property-tested): every submission is counted
exactly once - ``admitted + rejected + shed == submitted``.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from .. import engines
from ..errors import OverloadError, PipelineError
from ..gpu.device import DeviceSpec
from ..hmm.plan7 import Plan7HMM
from ..kernels.memconfig import Stage
from ..options import PipelineThresholds
from ..perf.calibration import DEFAULT_COSTS, CostConstants
from ..perf.cost_model import StageWork, cpu_forward_time, cpu_stage_time
from ..sequence.database import SequenceDatabase

__all__ = [
    "AdmissionLimits",
    "CostEstimate",
    "DegradationState",
    "AdmissionController",
    "estimate_job_cost",
]


class DegradationState(enum.IntEnum):
    """How much optional work the service is currently shedding.

    States are ordered by severity; each state sheds everything the
    previous one did plus one more class of optional work, in the
    documented order: selfcheck sampling first (it multiplies scoring
    work), then tracing, then bench spans.  Reported hits are never
    affected - degradation only ever drops *optional* work.
    """

    NORMAL = 0
    REDUCED = 1    # shed differential-oracle selfcheck sampling
    MINIMAL = 2    # ... and tracing
    CRITICAL = 3   # ... and bench span export

    @property
    def sheds(self) -> tuple[str, ...]:
        """The classes of optional work shed in this state, in order."""
        return ("selfcheck", "tracing", "bench")[: int(self)]


@dataclass(frozen=True)
class AdmissionLimits:
    """Watermarks for the bounded job queue.

    A limit of ``None`` disarms that watermark.  ``degrade_at`` /
    ``minimal_at`` / ``critical_at`` are fractions of the *most loaded*
    armed watermark at which the service steps down the
    :class:`DegradationState` ladder; shedding of whole submissions
    (below ``shed_below_priority``) starts at ``degrade_at``.
    """

    max_pending: int | None = 64
    max_backlog_cost: float | None = None   # modelled seconds
    max_backlog_residues: int | None = None
    shed_below_priority: int = 0
    degrade_at: float = 0.5
    minimal_at: float = 0.75
    critical_at: float = 0.9

    def __post_init__(self) -> None:
        if self.max_pending is not None and self.max_pending < 1:
            raise PipelineError("max_pending must be positive")
        if self.max_backlog_cost is not None and self.max_backlog_cost <= 0:
            raise PipelineError("max_backlog_cost must be positive")
        if (
            self.max_backlog_residues is not None
            and self.max_backlog_residues < 1
        ):
            raise PipelineError("max_backlog_residues must be positive")
        if not 0.0 < self.degrade_at <= self.minimal_at <= self.critical_at <= 1.0:
            raise PipelineError(
                "degradation thresholds must satisfy "
                "0 < degrade_at <= minimal_at <= critical_at <= 1"
            )


@dataclass(frozen=True)
class CostEstimate:
    """The modelled price of one job, computed at admission time.

    ``seconds`` is modelled *device* time (virtual-timeline seconds, the
    same unit the hung-shard watchdog budgets in), not wall time of the
    Python simulation.
    """

    seconds: float
    residues: int
    sequences: int
    M: int
    engine: str
    device: str
    stage_seconds: tuple[tuple[str, float], ...]

    def __repr__(self) -> str:
        return (
            f"CostEstimate({self.seconds:.4f}s, M={self.M}, "
            f"residues={self.residues}, engine={self.engine!r})"
        )


def _expected_rows(residues: int, fraction: float) -> int:
    """Expected surviving DP rows after a filter with pass rate ``fraction``."""
    return max(1, int(residues * fraction)) if residues > 0 else 0


def estimate_job_cost(
    hmm: Plan7HMM,
    database: SequenceDatabase,
    engine: engines.EngineSelection | str = "gpu_warp",
    device: DeviceSpec | None = None,
    thresholds: PipelineThresholds | None = None,
    costs: CostConstants = DEFAULT_COSTS,
) -> CostEstimate:
    """Price one (query, database) job through the filter cascade.

    MSV sees every residue; P7Viterbi the expected ``f1`` survivors;
    Forward (always CPU) the expected ``f2`` survivors.  GPU stages are
    priced with the optimal-strategy memory configuration
    (:func:`~repro.perf.cost_model.best_gpu_stage_time`); a model too
    large for any feasible configuration falls back to the CPU price
    (which is what the executor's fallback ladder would do too).
    """
    selection = engines.resolve(engine)
    th = thresholds or PipelineThresholds()
    residues = database.total_residues
    seqs = len(database)
    msv = StageWork(rows=residues, seqs=seqs, M=hmm.M)
    vit_rows = _expected_rows(residues, th.f1)
    vit_seqs = min(seqs, max(1, int(seqs * th.f1))) if seqs else 0
    vit = StageWork(rows=vit_rows, seqs=max(1, vit_seqs), M=hmm.M)
    fwd = StageWork(
        rows=_expected_rows(residues, th.f2), seqs=1, M=hmm.M
    )

    def price(stage: Stage, work: StageWork) -> float:
        if work.rows <= 0:
            return 0.0
        # each stage's registered engine prices itself through its
        # cost hook; engines without one are priced as the CPU baseline
        spec = selection.spec_for(stage.value)
        if spec.cost_hook is None:
            return cpu_stage_time(stage, work, costs)
        return spec.cost_hook(stage, work, device, costs)

    msv_s = price(Stage.MSV, msv)
    vit_s = price(Stage.P7VITERBI, vit)
    fwd_s = cpu_forward_time(fwd, costs) if fwd.rows > 0 else 0.0
    return CostEstimate(
        seconds=msv_s + vit_s + fwd_s,
        residues=residues,
        sequences=seqs,
        M=hmm.M,
        engine=selection.value,
        device=device.name if device is not None else "cpu",
        stage_seconds=(("msv", msv_s), ("p7viterbi", vit_s), ("fwd", fwd_s)),
    )


class AdmissionController:
    """The bounded front door: price, admit, shed, or reject.

    Thread-safe; the queue calls :meth:`admit` under its own lock but
    the scheduler's :meth:`complete` arrives from worker context, so all
    accounting lives behind an internal lock.
    """

    def __init__(
        self,
        limits: AdmissionLimits | None = None,
        device: DeviceSpec | None = None,
        thresholds: PipelineThresholds | None = None,
        costs: CostConstants = DEFAULT_COSTS,
    ) -> None:
        self.limits = limits or AdmissionLimits()
        self.device = device
        self.thresholds = thresholds or PipelineThresholds()
        self.costs = costs
        self._lock = threading.RLock()
        self.submitted = 0       # guarded-by: _lock
        self.admitted = 0        # guarded-by: _lock
        self.rejected = 0        # guarded-by: _lock
        self.shed = 0            # guarded-by: _lock
        self.in_system = 0       # guarded-by: _lock
        self.peak_in_system = 0  # guarded-by: _lock
        self.backlog_cost = 0.0      # guarded-by: _lock
        self.backlog_residues = 0    # guarded-by: _lock
        self.peak_backlog_cost = 0.0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # load assessment

    @property
    def utilization(self) -> float:
        """Fraction of the most-loaded armed watermark (0 when none armed)."""
        lim = self.limits
        with self._lock:
            frac = 0.0
            if lim.max_pending is not None:
                frac = max(frac, self.in_system / lim.max_pending)
            if lim.max_backlog_cost is not None:
                frac = max(frac, self.backlog_cost / lim.max_backlog_cost)
            if lim.max_backlog_residues is not None:
                frac = max(
                    frac, self.backlog_residues / lim.max_backlog_residues
                )
            return frac

    @property
    def state(self) -> DegradationState:
        """Current rung of the degradation ladder."""
        u = self.utilization
        lim = self.limits
        if u >= lim.critical_at:
            return DegradationState.CRITICAL
        if u >= lim.minimal_at:
            return DegradationState.MINIMAL
        if u >= lim.degrade_at:
            return DegradationState.REDUCED
        return DegradationState.NORMAL

    def _retry_after(self, estimate: CostEstimate) -> float:
        """Modelled seconds until the backlog could absorb ``estimate``."""
        with self._lock:
            return max(self.backlog_cost, estimate.seconds, 1e-3)

    # ------------------------------------------------------------------
    # admit / complete

    def admit(
        self,
        hmm: Plan7HMM,
        database: SequenceDatabase,
        engine: engines.EngineSelection | str = "gpu_warp",
        priority: int = 0,
    ) -> CostEstimate:
        """Price a submission and admit it, or raise :class:`OverloadError`.

        On success the estimate's cost is charged to the backlog; the
        caller must eventually hand the returned estimate back via
        :meth:`complete` (the scheduler does this when the job finishes,
        in any terminal state).
        """
        estimate = estimate_job_cost(
            hmm,
            database,
            engine=engine,
            device=self.device,
            thresholds=self.thresholds,
            costs=self.costs,
        )
        return self.admit_estimate(estimate, priority=priority)

    def admit_estimate(
        self, estimate: CostEstimate, priority: int = 0
    ) -> CostEstimate:
        """The low-level admission decision for an already-priced job."""
        lim = self.limits
        with self._lock:
            self.submitted += 1
            over: str | None = None
            if (
                lim.max_pending is not None
                and self.in_system + 1 > lim.max_pending
            ):
                over = f"pending jobs at watermark ({lim.max_pending})"
            elif (
                lim.max_backlog_cost is not None
                and self.backlog_cost + estimate.seconds > lim.max_backlog_cost
            ):
                over = (
                    f"modelled backlog at watermark "
                    f"({lim.max_backlog_cost:g}s)"
                )
            elif (
                lim.max_backlog_residues is not None
                and self.backlog_residues + estimate.residues
                > lim.max_backlog_residues
            ):
                over = (
                    f"backlog residues at watermark "
                    f"({lim.max_backlog_residues})"
                )
            if over is not None:
                self.rejected += 1
                raise OverloadError(
                    f"admission rejected {estimate!r}: {over}",
                    retry_after=self._retry_after(estimate),
                    kind="rejected",
                )
            if (
                priority < lim.shed_below_priority
                and self.utilization >= lim.degrade_at
            ):
                self.shed += 1
                raise OverloadError(
                    f"admission shed low-priority {estimate!r} "
                    f"(priority {priority} < {lim.shed_below_priority} "
                    f"under load)",
                    retry_after=self._retry_after(estimate),
                    kind="shed",
                )
            self.admitted += 1
            self.in_system += 1
            self.peak_in_system = max(self.peak_in_system, self.in_system)
            self.backlog_cost += estimate.seconds
            self.backlog_residues += estimate.residues
            self.peak_backlog_cost = max(
                self.peak_backlog_cost, self.backlog_cost
            )
            return estimate

    def complete(self, estimate: CostEstimate | None) -> None:
        """Return an admitted job's cost to the pool (idempotent on None)."""
        if estimate is None:
            return
        with self._lock:
            self.in_system = max(0, self.in_system - 1)
            self.backlog_cost = max(0.0, self.backlog_cost - estimate.seconds)
            self.backlog_residues = max(
                0, self.backlog_residues - estimate.residues
            )

    # ------------------------------------------------------------------
    # reporting

    def snapshot(self) -> dict:
        """A point-in-time view for metrics rendering and the soak trace."""
        with self._lock:
            state = self.state
            return {
                "submitted": self.submitted,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "shed": self.shed,
                "in_system": self.in_system,
                "peak_in_system": self.peak_in_system,
                "backlog_cost_s": self.backlog_cost,
                "backlog_residues": self.backlog_residues,
                "peak_backlog_cost_s": self.peak_backlog_cost,
                "utilization": self.utilization,
                "state": state.name,
                "sheds": list(state.sheds),
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"AdmissionController(in_system={self.in_system}, "
                f"admitted={self.admitted}, rejected={self.rejected}, "
                f"shed={self.shed}, state={self.state.name})"
            )
