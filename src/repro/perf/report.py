"""Programmatic regeneration of the paper's full evaluation.

:func:`full_report` runs every figure's computation from scratch (the
same code paths as the benchmarks) and returns the tables as structured
data plus rendered text - the engine behind
``repro-hmmsearch figures`` and a convenient API for notebooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.device import FERMI_GTX580
from ..hmm.sampler import PAPER_MODEL_SIZES
from ..kernels.memconfig import MemoryConfig, Stage
from .calibration import DEFAULT_COSTS, CostConstants
from .speedup import (
    multi_gpu_speedup,
    optimal_stage_speedup,
    overall_speedup,
    stage_speedup,
)
from .workloads import experiment_workload

__all__ = ["FigureTable", "EvaluationReport", "full_report"]

#: Paper-reported reference maxima, for side-by-side display.
PAPER_HEADLINES = {
    "msv_peak_envnr": 5.4,
    "vit_peak": 2.9,
    "overall_swissprot": 3.0,
    "overall_envnr": 3.8,
    "multigpu_swissprot": 5.6,
    "multigpu_envnr": 7.8,
}


@dataclass
class FigureTable:
    """One regenerated figure: header + rows + rendered text."""

    figure: str
    header: list[str]
    rows: list[list[str]]

    def render(self) -> str:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in self.rows))
            for i, h in enumerate(self.header)
        ]
        out = [self.figure]
        out.append("  ".join(str(h).rjust(w) for h, w in zip(self.header, widths)))
        out.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            out.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
        return "\n".join(out)


@dataclass
class EvaluationReport:
    """All regenerated figures plus the headline comparison."""

    tables: list[FigureTable] = field(default_factory=list)
    headlines: dict[str, tuple[float, float]] = field(default_factory=dict)

    def render(self) -> str:
        parts = [t.render() for t in self.tables]
        parts.append("headline numbers (paper vs measured):")
        for key, (paper, measured) in self.headlines.items():
            parts.append(f"  {key:22s} {paper:5.1f}x  vs  {measured:5.2f}x")
        return "\n\n".join(parts)


def _fmt(p):
    return "--" if p is None else f"{p:.2f}"


def full_report(
    sizes: tuple[int, ...] = PAPER_MODEL_SIZES,
    databases: tuple[str, ...] = ("swissprot", "envnr"),
    costs: CostConstants = DEFAULT_COSTS,
    calibration_filter_sample: int = 200,
    calibration_forward_sample: int = 50,
) -> EvaluationReport:
    """Regenerate Figures 9, 10 and 11 (slow: scores the surrogate
    databases for every model size)."""
    workloads = {
        (M, db): experiment_workload(
            M,
            db,
            calibration_filter_sample=calibration_filter_sample,
            calibration_forward_sample=calibration_forward_sample,
        )
        for db in databases
        for M in sizes
    }
    report = EvaluationReport()
    peaks: dict[str, float] = {}

    for stage in Stage:
        for db in databases:
            rows = []
            best = 0.0
            for M in sizes:
                wl = workloads[(M, db)]
                shared = stage_speedup(wl, stage, MemoryConfig.SHARED, costs=costs)
                global_ = stage_speedup(wl, stage, MemoryConfig.GLOBAL, costs=costs)
                opt = optimal_stage_speedup(wl, stage, costs=costs)
                best = max(best, opt.speedup)
                rows.append(
                    [
                        M,
                        _fmt(shared.speedup),
                        "--" if shared.occupancy is None else f"{shared.occupancy:.0%}",
                        _fmt(global_.speedup),
                        f"{global_.occupancy:.0%}",
                        _fmt(opt.speedup),
                    ]
                )
            report.tables.append(
                FigureTable(
                    figure=f"Figure 9 ({stage.value}, {db})",
                    header=["M", "shared", "occ", "global", "occ", "optimal"],
                    rows=rows,
                )
            )
            peaks[f"{stage.value}_{db}"] = best

    for figure, fn, device_label in (
        ("Figure 10 (overall, Tesla K40)", lambda wl: overall_speedup(wl, costs=costs), "k40"),
        (
            "Figure 11 (overall, 4x GTX 580)",
            lambda wl: multi_gpu_speedup(
                wl, device=FERMI_GTX580, device_count=4, costs=costs
            ),
            "4gpu",
        ),
    ):
        rows = []
        for M in sizes:
            row = [M]
            for db in databases:
                point = fn(workloads[(M, db)])
                peaks[f"{device_label}_{db}"] = max(
                    peaks.get(f"{device_label}_{db}", 0.0), point.speedup
                )
                row.append(f"{point.speedup:.2f}")
            rows.append(row)
        report.tables.append(
            FigureTable(figure=figure, header=["M", *databases], rows=rows)
        )

    report.headlines = {
        "MSV peak (Env-nr)": (
            PAPER_HEADLINES["msv_peak_envnr"],
            peaks.get("msv_envnr", 0.0),
        ),
        "P7Viterbi peak": (
            PAPER_HEADLINES["vit_peak"],
            max(peaks.get("p7viterbi_envnr", 0.0), peaks.get("p7viterbi_swissprot", 0.0)),
        ),
        "overall K40 Swissprot": (
            PAPER_HEADLINES["overall_swissprot"],
            peaks.get("k40_swissprot", 0.0),
        ),
        "overall K40 Env-nr": (
            PAPER_HEADLINES["overall_envnr"],
            peaks.get("k40_envnr", 0.0),
        ),
        "4x GTX580 Swissprot": (
            PAPER_HEADLINES["multigpu_swissprot"],
            peaks.get("4gpu_swissprot", 0.0),
        ),
        "4x GTX580 Env-nr": (
            PAPER_HEADLINES["multigpu_envnr"],
            peaks.get("4gpu_envnr", 0.0),
        ),
    }
    return report
