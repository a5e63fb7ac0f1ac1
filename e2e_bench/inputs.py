"""Seeded input builder: query models, databases and scan query sets.

Everything the three workloads read is generated here, ahead of time,
into ``e2e_bench/_cache/seed-<n>/`` and read back from disk by the
workload process.  The same seed always gives byte-identical files, and
a finished cache directory is reused as is.

Each workload has a fixed query set, as the paper's Pfam families are:
the query models and their planted family members (proteins carrying
one model-emitted domain) come from :data:`MODEL_SEED`, not from the
run's seed.  The run's seed generates the databases around them: every
decoy, and where the members sit.  Scoring cost varies up to fivefold
with model and member content (the P7Viterbi warp kernel's Lazy-F
passes): with a handful of members per job, seeded members turned seed
choice into 20-40% run-to-run spread.  For the
same reason database sizes, target lengths and homolog counts are fixed
(see :func:`_lengths`).

Every FASTA record carries its label in the description: ``decoy`` for
an i.i.d. background sequence, ``homolog:<model>`` for a sequence with
one domain emitted from that model embedded in background flanks.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from statistics import NormalDist

import numpy as np

import repro

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR / "_cache"

#: Seed of every workload's query models (fixed across runs).
MODEL_SEED = 2015

#: Seed caches kept besides the one in use (older ones are deleted).
KEEP_CACHES = 6

#: Bumped whenever the generator changes, so stale caches are rebuilt.
INPUT_VERSION = 7

#: Env-nr surrogate: short targets, a sliver of homologs (paper Sec. V).
ENVNR_MODEL_SIZES = (32, 80, 140)
ENVNR_SEQS = 4000
ENVNR_MEAN_LENGTH = 197.0
ENVNR_HOMOLOG_FRACTION = 0.002

#: Swissprot surrogate: longer targets, 6.5% homologs of each job's model.
SWISSPROT_MODEL_SIZES = (64, 150)
SWISSPROT_SEQS = 48
SWISSPROT_MEAN_LENGTH = 374.0
SWISSPROT_HOMOLOG_FRACTION = 0.065

#: Pfam-like library for hmmscan, and query sets rich in its domains.
SCAN_MODEL_SIZES = (24, 40, 64, 96, 140, 200)
SCAN_QUERY_SETS = 2
SCAN_SEQS = 36
SCAN_MEAN_LENGTH = 300.0
SCAN_HOMOLOG_FRACTION = 0.5

_GAMMA_SHAPE = 2.2
_MIN_LENGTH = 25
_MAX_LENGTH = 2000


def _lengths(n: int, mean: float) -> np.ndarray:
    """``n`` protein lengths, stratified over a gamma distribution.

    Length ``k`` is the gamma quantile at ``(k + 0.5) / n``: the shape
    real protein databases fit, with no sampling noise, so total
    residues - and the work they cost - are the same for every seed.
    """
    # Wilson-Hilferty: gamma quantiles from normal ones, no scipy needed
    z = np.array([NormalDist().inv_cdf((k + 0.5) / n) for k in range(n)])
    c = 1.0 / (9.0 * _GAMMA_SHAPE)
    raw = mean * np.maximum(1.0 - c + z * np.sqrt(c), 0.0) ** 3
    return np.clip(np.round(raw), _MIN_LENGTH, _MAX_LENGTH).astype(np.int64)


def _members(models: list, n: int, mean: float, rng) -> list:
    """The fixed family members planted as homologs: ``n`` proteins of
    stratified lengths, each one domain emitted round-robin from
    ``models`` (cut to the protein's length when longer, a
    partial-length homolog) embedded in random background flanks."""
    lengths = rng.permutation(_lengths(n, mean))
    out = []
    for k, length in enumerate(lengths):
        hmm = models[k % len(models)]
        domain = hmm.sample_sequence(rng)
        if domain.size > length:
            start = int(rng.integers(0, domain.size - length + 1))
            domain = domain[start : start + length]
        flank = int(length) - domain.size
        left = int(rng.integers(0, flank + 1))
        parts = [
            repro.random_sequence_codes(size, rng) if size else domain[:0]
            for size in (left, flank - left)
        ]
        codes = np.concatenate([parts[0], domain, parts[1]])
        out.append((hmm.name, codes.astype(np.uint8)))
    return out


def labelled_database(
    name: str,
    n: int,
    mean_length: float,
    members: list,
    rng: np.random.Generator,
) -> list:
    """``n`` sequences: every family member of ``members`` at a seeded
    position, and decoys with stratified lengths filling the rest."""
    decoy_len = iter(rng.permutation(_lengths(n - len(members), mean_length)))
    slots = rng.choice(n, size=len(members), replace=False).tolist()
    planted = dict(zip(slots, members))
    seqs = []
    for i in range(n):
        if i in planted:
            model, codes = planted[i]
            label = f"homolog:{model}"
        else:
            codes = repro.random_sequence_codes(int(next(decoy_len)), rng)
            label = "decoy"
        seqs.append(
            repro.DigitalSequence(f"{name}/{i:06d}", codes, description=label)
        )
    return seqs


def _query_set(prefix: str, sizes, stream: int):
    """A workload's fixed query models and the generator of their
    family members; neither depends on the run's seed."""
    rng = np.random.default_rng([MODEL_SEED, stream])
    models = [
        repro.sample_hmm(M, rng, name=f"{prefix}{j}_M{M}")
        for j, M in enumerate(sizes)
    ]
    return models, rng


def _write_models(out: Path, subdir: str, models: list) -> list[str]:
    (out / subdir).mkdir(parents=True, exist_ok=True)
    files = []
    for hmm in models:
        files.append(f"{subdir}/{hmm.name}.hmm")
        repro.save_hmm(out / files[-1], hmm)
    return files


def _build(seed: int, out: Path) -> dict:
    """Generate every workload's inputs under ``out``; returns the manifest."""
    # one independent stream per workload: changing one workload's
    # make-up never shifts another workload's inputs
    streams = np.random.SeedSequence(seed).spawn(3)
    manifest: dict = {"version": INPUT_VERSION, "seed": seed}

    def database(fname, name, n, mean, members, rng):
        repro.write_fasta(
            out / fname, labelled_database(name, n, mean, members, rng))
        return fname

    rng = np.random.default_rng(streams[0])
    models, mrng = _query_set("envq", ENVNR_MODEL_SIZES, 0)
    members = _members(models, round(ENVNR_HOMOLOG_FRACTION * ENVNR_SEQS),
                       ENVNR_MEAN_LENGTH, mrng)
    manifest["search_envnr"] = {
        "models": _write_models(out, "envnr_models", models),
        "databases": [database("envnr.fasta", "envnr", ENVNR_SEQS,
                               ENVNR_MEAN_LENGTH, members, rng)],
    }

    rng = np.random.default_rng(streams[1])
    models, mrng = _query_set("spq", SWISSPROT_MODEL_SIZES, 1)
    n_hom = round(SWISSPROT_HOMOLOG_FRACTION * SWISSPROT_SEQS)
    manifest["batch_swissprot"] = {
        "models": _write_models(out, "sp_models", models),
        "databases": [
            database(f"sp_{hmm.name}.fasta", f"sp_{hmm.name}",
                     SWISSPROT_SEQS, SWISSPROT_MEAN_LENGTH,
                     _members([hmm], n_hom, SWISSPROT_MEAN_LENGTH, mrng), rng)
            for hmm in models
        ],
    }

    rng = np.random.default_rng(streams[2])
    models, mrng = _query_set("pf", SCAN_MODEL_SIZES, 2)
    n_hom = round(SCAN_HOMOLOG_FRACTION * SCAN_SEQS)
    manifest["scan_pfam"] = {
        "models": _write_models(out, "pfam_lib", models),
        "databases": [
            database(f"scanq{q}.fasta", f"scanq{q}", SCAN_SEQS,
                     SCAN_MEAN_LENGTH,
                     _members(models, n_hom, SCAN_MEAN_LENGTH, mrng), rng)
            for q in range(SCAN_QUERY_SETS)
        ],
    }
    return manifest


def ensure_inputs(seed: int) -> Path:
    """The cache directory for ``seed``, generating it if needed.

    A build goes to a scratch directory that is renamed into place
    once complete, so an interrupted build is never mistaken for a
    cache.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    final = CACHE_DIR / f"seed-{seed}"
    manifest = final / "manifest.json"
    if manifest.exists():
        if json.loads(manifest.read_text()).get("version") == INPUT_VERSION:
            _prune(keep=final)
            return final
    shutil.rmtree(final, ignore_errors=True)
    work = CACHE_DIR / f".building-seed-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = _build(seed, work)
    (work / "manifest.json").write_text(json.dumps(data, indent=1))
    work.rename(final)
    _prune(keep=final)
    return final


def _prune(keep: Path) -> None:
    """Delete all but the newest :data:`KEEP_CACHES` other seed caches."""
    others = sorted(
        (p for p in CACHE_DIR.glob("seed-*") if p != keep),
        key=lambda p: p.stat().st_mtime,
    )
    for old in others[: max(len(others) - KEEP_CACHES, 0)]:
        shutil.rmtree(old, ignore_errors=True)

