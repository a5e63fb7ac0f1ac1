"""End-to-end benchmark of the hmmsearch reproduction: the entry point.

One run::

    python3 e2e_bench/run.py --workload search_envnr --seed 1 \
        --seconds 15 --trace 0

builds (or reuses) the seed's inputs, starts the workload in a fresh
interpreter with a scrubbed environment, prints every metric by name
with its unit plus the operations attempted and failed, and ends with
one JSON line::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (``setup_s``,
``mcells_per_s``, ``peak_rss_mb``); ``--trace 1`` runs the traced
variant and reports the per-layer rollup instead.

Steadiness: ``--steady N`` repeats each workload (or only
``--workload``) N times with seeds ``--seed``, ``--seed``+1, ... and
prints each end-to-end metric's median, quartiles and spread against
its bound in BENCHMARK.json.  ``--smoke`` runs every workload once with
one set-up and one round (the benchmark's own tests use it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
WORKLOAD_NAMES = ("search_envnr", "batch_swissprot", "scan_pfam")
#: Environment variables that arm fault injection or the warp
#: sanitizer inside the program; a measured run must not inherit them.
SCRUBBED_PREFIX = "REPRO_"
#: A workload run is cut after this long.
RUN_TIMEOUT_S = 170


def clean_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(SCRUBBED_PREFIX)}
    env["PYTHONPATH"] = str(SRC)
    # one process, one thread: BLAS pools would add threads and noise
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def build_inputs(seed: int) -> Path:
    """Generate the seed's inputs in a scrubbed child process."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from inputs import ensure_inputs;"
        "print(ensure_inputs(int(sys.argv[2])))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(seed)],
        env=clean_env(), capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return Path(proc.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int,
             setups: int | None = None) -> dict:
    """One workload run in a fresh interpreter; returns its result."""
    inputs = build_inputs(seed)
    work = WORK_DIR / f"{workload}-{os.getpid()}"
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--inputs", str(inputs),
        "--work", str(work), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    try:
        proc = subprocess.run(
            cmd, env=clean_env(), capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload: str, seed: int, out: dict) -> dict:
    """Print the run's figures; returns the result line's object."""
    print(f"workload {workload}  seed {seed}")
    for name, m in out["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"  operations attempted {out['attempted']}, failed {out['failed']}")
    if "raw" in out:
        raw = out["raw"]
        print(f"  wall clock: setup_s {raw['setup_s']:.4g} s, mcells_per_s "
              f"{raw['mcells_per_s']:.4g} Mcells/s at a yardstick of "
              f"{raw['yardstick_s']:.4g} s")
    detail = ", ".join(
        f"{k} [{', '.join(f'{x:.3g}' for x in v)}]"
        for k, v in out["detail"].items() if isinstance(v, list))
    print(f"  phases (s): {detail}", file=sys.stderr)
    for problem in out["problems"][:10]:
        print(f"  check failed: {problem}", file=sys.stderr)
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }


def steady(workloads, runs: int, seed: int, seconds: float) -> int:
    """Repeat workloads with successive seeds; print spread vs bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        failed = []
        for i in range(runs):
            out = run_once(workload, seed + i, seconds, 0)
            failed.append(f"{out['failed']}/{out['attempted']}")
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, value in out["raw"].items():
                values.setdefault(f"wall-clock {name}", []).append(value)
            print(f"{workload} seed {seed + i}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        print(f"== {workload}: {runs} runs, failed/attempted {failed}")
        print(f"   {'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"   {name:14s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:8.3f} " + (f"{bound:6.2f}" if bound else "     -"))
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0 if worst < 1.0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="N",
                    help="repeat each workload N times with successive seeds")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload once: one set-up, one round")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e_bench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.steady:
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        return steady(names, args.steady, args.seed, args.seconds)
    if args.smoke:
        bad = 0
        for workload in WORKLOAD_NAMES:
            for trace in (0, 1):
                line = report(workload, args.seed,
                              run_once(workload, args.seed, 0, trace, setups=1))
                bad += not line["correct"]
        return 1 if bad else 0
    if args.workload is None:
        ap.error("--workload is required")
    line = report(args.workload, args.seed,
                  run_once(args.workload, args.seed, args.seconds, args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
