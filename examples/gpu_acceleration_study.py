"""GPU acceleration study: the paper's headline experiment in miniature.

Run with::

    python examples/gpu_acceleration_study.py

Searches the same database with the CPU (SSE reference) engine and the
simulated warp-synchronous GPU engine, verifies the results are
*identical* (the paper's accuracy-preservation claim), inspects the
hardware event counters that make the GPU kernels architecture-aware,
and prints the modelled per-stage speedups for a Tesla K40.
"""

import numpy as np

from repro import (
    HmmsearchPipeline,
    KEPLER_K40,
    MemoryConfig,
    SearchOptions,
    Stage,
    StageWork,
    best_gpu_stage_time,
    cpu_stage_time,
    envnr_like,
    sample_hmm,
    stage_occupancy,
)


def main() -> None:
    rng = np.random.default_rng(7)
    hmm = sample_hmm(200, rng, name="demo-200")
    database = envnr_like(500, rng, hmm=hmm, homolog_fraction=0.01)
    print(f"query: {hmm}   targets: {database}")

    pipeline = HmmsearchPipeline(hmm, L=int(database.mean_length))

    cpu = pipeline.search(database, SearchOptions(engine="cpu_sse"))
    gpu = pipeline.search(
        database,
        SearchOptions(
            engine="gpu_warp",
            device=KEPLER_K40,
            config=MemoryConfig.SHARED,
        ),
    )

    # --- accuracy: bit-identical scores, identical hit lists ---
    assert cpu.hit_names() == gpu.hit_names()
    assert np.allclose(cpu.msv_bits, gpu.msv_bits, equal_nan=True)
    print(f"\nCPU and GPU pipelines agree exactly: {len(cpu.hits)} hits")

    # --- what the architecture-aware kernels did ---
    print("\nGPU kernel event counters:")
    for stage_name, c in gpu.counters.items():
        print(
            f"  {stage_name:10s} rows={c.rows:7d} strips={c.strips:8d} "
            f"shuffles={c.shuffles:8d} syncthreads={c.syncthreads} "
            f"lazyf_rows={c.lazyf_rows_checked}"
        )
    print("  (note syncthreads == 0: warp-synchronous execution)")

    # --- modelled performance at the paper's database scale ---
    print("\nModelled stage speedups on the K40 (Env-nr scale):")
    scale = 1_290_247_663 / database.total_residues
    for stage, stats in (
        (Stage.MSV, cpu.stage("msv")),
        (Stage.P7VITERBI, cpu.stage("p7viterbi")),
    ):
        work = StageWork(
            rows=int(stats.rows * scale),
            seqs=max(1, int(stats.n_in * scale)),
            M=hmm.M,
        )
        t_cpu = cpu_stage_time(stage, work)
        t_gpu = best_gpu_stage_time(stage, work, KEPLER_K40)
        occ = stage_occupancy(stage, hmm.M, t_gpu.config, KEPLER_K40)
        print(
            f"  {stage.value:10s} cpu={t_cpu:7.2f}s  gpu={t_gpu.seconds:6.2f}s "
            f"({t_gpu.config.value} config, occupancy {occ.occupancy:.0%}) "
            f"-> {t_cpu / t_gpu.seconds:.1f}x"
        )


if __name__ == "__main__":
    main()
