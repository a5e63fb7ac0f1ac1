"""Tests of the benchmark itself (not part of the repo's tier-1 suite).

Run with ``python3 -m pytest e2e_bench``.  The smoke test drives every
workload once, untraced and traced, with one set-up and one round.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_poisson_bound():
    assert checks.poisson_bound(0.0) == 0
    # lambda = 0.05: P(X > 4) ~ 2.5e-9 exceeds 1e-9, P(X > 5) ~ 2e-11
    assert checks.poisson_bound(0.05) == 5
    assert checks.poisson_bound(2.0) > checks.poisson_bound(0.5)


def test_databases_differ_by_seed_but_not_in_make_up():
    models, mrng = inputs._query_set("t", (20, 30), 0)
    members = inputs._members(models, 4, 150.0, mrng)
    dbs = [
        inputs.labelled_database("db", 60, 150.0, members,
                                 np.random.default_rng(seed))
        for seed in (1, 2)
    ]
    lengths = [sorted(len(s) for s in db) for db in dbs]
    labels = [sorted(s.description for s in db) for db in dbs]
    assert lengths[0] == lengths[1] and labels[0] == labels[1]
    assert [s.codes.tobytes() for s in dbs[0]] != [
        s.codes.tobytes() for s in dbs[1]]
    assert labels[0].count("homolog:t0_M20") == 2


def test_scrubbed_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SEED", "3")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    env = run.clean_env()
    assert not any(k.startswith("REPRO_") for k in env)
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_wrappers_resolve_or_are_skipped(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "gone", "repro.nowhere:missing")
    installed, undo = tracing.install()
    try:
        assert "gone" not in installed
        assert set(tracing.TARGETS) - {"gone"} == installed
    finally:
        tracing.uninstall(undo)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2e_bench",
                    ignore=shutil.ignore_patterns("_*"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "e2e_bench/run.py", "--workload", "scan_pfam",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.slow
def test_smoke_every_workload_reports_every_metric():
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(run.WORKLOAD_NAMES)
    for workload in run.WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run.run_once(workload, 1, 0, trace, setups=1)
            assert out["failed"] == 0, out["problems"][:5]
            assert out["attempted"] > 0
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            assert got == declared, (workload, trace)
