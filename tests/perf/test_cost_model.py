"""Unit tests for the mechanistic cost model."""

import dataclasses

import pytest

from repro.errors import CalibrationError
from repro.gpu import FERMI_GTX580, KEPLER_K40
from repro.kernels import MemoryConfig, Stage
from repro.perf import (
    StageWork,
    best_gpu_stage_time,
    cpu_forward_time,
    cpu_stage_time,
    gpu_stage_time,
)

WORK = StageWork(rows=10_000_000, seqs=50_000, M=400)


class TestStageWork:
    def test_validation(self):
        with pytest.raises(CalibrationError):
            StageWork(rows=-1, seqs=1, M=10)
        with pytest.raises(CalibrationError):
            StageWork(rows=1, seqs=1, M=0)


class TestCpuModel:
    def test_viterbi_slower_than_msv_per_row(self):
        """The per-cell ratio behind Figure 1's 80/15 split."""
        t_msv = cpu_stage_time(Stage.MSV, WORK)
        t_vit = cpu_stage_time(Stage.P7VITERBI, WORK)
        assert 4.0 < t_vit / t_msv < 12.0

    def test_time_scales_linearly_with_rows(self):
        half = dataclasses.replace(WORK, rows=WORK.rows // 2, seqs=WORK.seqs // 2)
        assert cpu_stage_time(Stage.MSV, half) == pytest.approx(
            cpu_stage_time(Stage.MSV, WORK) / 2, rel=1e-6
        )

    def test_time_grows_with_model(self):
        big = dataclasses.replace(WORK, M=800)
        assert cpu_stage_time(Stage.MSV, big) > cpu_stage_time(Stage.MSV, WORK)

    def test_forward_much_slower_per_cell(self):
        t_fwd = cpu_forward_time(WORK)
        t_msv = cpu_stage_time(Stage.MSV, WORK)
        assert t_fwd / t_msv > 20.0


class TestGpuModel:
    def test_feasible_configs_return_time(self):
        t = gpu_stage_time(Stage.MSV, WORK, KEPLER_K40, MemoryConfig.SHARED)
        assert t is not None
        assert t.seconds > 0
        assert 0 < t.occupancy <= 1
        assert t.bound in ("latency", "issue", "bandwidth")

    def test_infeasible_returns_none(self):
        work = StageWork(rows=1000, seqs=10, M=2405)
        assert (
            gpu_stage_time(Stage.P7VITERBI, work, KEPLER_K40, MemoryConfig.SHARED)
            is None
        )

    def test_best_picks_faster_config(self):
        for M in (48, 400, 1528, 2405):
            work = dataclasses.replace(WORK, M=M)
            best = best_gpu_stage_time(Stage.MSV, work, KEPLER_K40)
            for config in MemoryConfig:
                t = gpu_stage_time(Stage.MSV, work, KEPLER_K40, config)
                if t is not None:
                    assert best.seconds <= t.seconds + 1e-12

    def test_shared_wins_small_global_wins_large(self):
        """The paper's crossover: shared for small models, global beyond
        ~1002 on the K40."""
        small = dataclasses.replace(WORK, M=400)
        large = dataclasses.replace(WORK, M=1528)
        assert (
            best_gpu_stage_time(Stage.MSV, small, KEPLER_K40).config
            is MemoryConfig.SHARED
        )
        assert (
            best_gpu_stage_time(Stage.MSV, large, KEPLER_K40).config
            is MemoryConfig.GLOBAL
        )

    def test_fermi_slower_than_kepler(self):
        tk = best_gpu_stage_time(Stage.MSV, WORK, KEPLER_K40)
        tf = best_gpu_stage_time(Stage.MSV, WORK, FERMI_GTX580)
        assert tf.seconds > tk.seconds

    def test_lazyf_fraction_raises_viterbi_time(self):
        lo = gpu_stage_time(
            Stage.P7VITERBI, WORK, KEPLER_K40, MemoryConfig.GLOBAL,
            lazyf_extra_fraction=0.0,
        )
        hi = gpu_stage_time(
            Stage.P7VITERBI, WORK, KEPLER_K40, MemoryConfig.GLOBAL,
            lazyf_extra_fraction=4.0,
        )
        assert hi.seconds > lo.seconds

    def test_speedup_in_paper_band_at_peak(self):
        """Headline sanity: MSV speedup at M=800 lands in the 4.5-5.5x
        band the paper reports for the K40."""
        work = StageWork(rows=1_000_000_000, seqs=6_500_000, M=800)
        cpu_s = cpu_stage_time(Stage.MSV, work)
        gpu = best_gpu_stage_time(Stage.MSV, work, KEPLER_K40)
        assert 4.5 < cpu_s / gpu.seconds < 5.8

    def test_time_scales_linearly_with_rows_when_amortized(self):
        big = dataclasses.replace(WORK, rows=WORK.rows * 2)
        t1 = best_gpu_stage_time(Stage.MSV, WORK, KEPLER_K40).seconds
        t2 = best_gpu_stage_time(Stage.MSV, big, KEPLER_K40).seconds
        assert t2 == pytest.approx(2 * t1, rel=0.01)


class TestRoofline:
    def test_both_stages_memory_bound_on_k40(self):
        from repro.perf import roofline_summary

        for entry in roofline_summary(KEPLER_K40):
            assert entry["memory_bound"]

    def test_viterbi_lower_intensity_than_msv(self):
        """More state traffic per cell than extra arithmetic: the full
        model is even more bandwidth-starved than the byte filter."""
        from repro.perf import kernel_intensity

        msv = kernel_intensity(Stage.MSV, MemoryConfig.SHARED)
        vit = kernel_intensity(Stage.P7VITERBI, MemoryConfig.SHARED)
        assert vit.intensity < msv.intensity

    def test_ridge_validation(self):
        from repro.errors import CalibrationError
        from repro.perf import ridge_point

        with pytest.raises(CalibrationError):
            ridge_point(KEPLER_K40, ops_per_cycle_per_sm=0)
