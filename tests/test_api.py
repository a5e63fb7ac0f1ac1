"""Public API surface: the repro.api facade, the re-exported internals
that code outside the package uses, the version, and the README
snippets."""

import ast
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.api


FACADE = [
    "load_hmm",
    "load_fasta",
    "search",
    "search_many",
    "batch_search",
    "press_library",
    "load_library",
    "fsck_library",
    "scan",
    "SearchOptions",
    "ScanOptions",
    "SearchResults",
    "EngineSpec",
    "register_engine",
    "get_engine",
    "list_engines",
]


def test_all_is_the_facade():
    assert repro.__all__ == ["__version__"] + FACADE
    assert repro.api.__all__ == FACADE
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_facade_names_are_the_api_objects():
    for name in FACADE:
        assert getattr(repro, name) is getattr(repro.api, name)


LEGACY_NAMES = [
    # one representative per re-exported group
    "AMINO", "DigitalSequence", "read_fasta", "swissprot_like",
    "SearchProfile", "sample_hmm", "MSVByteProfile", "msv_score_batch",
    "generic_forward_score", "KEPLER_K40", "KernelCounters",
    "MemoryConfig", "msv_warp_kernel", "HmmsearchPipeline",
    "posterior_decode", "SALVAGE", "RecordQuarantine", "Tracer",
    "paper_hmm", "LibraryCatalog", "DurableRunJournal", "OverloadError",
]


def test_legacy_names_still_resolve():
    for name in LEGACY_NAMES:
        assert getattr(repro, name) is not None, name
        assert name in dir(repro)


def test_legacy_names_are_the_defining_objects():
    from repro.pipeline.pipeline import HmmsearchPipeline
    from repro.service.wal import DurableRunJournal

    assert repro.HmmsearchPipeline is HmmsearchPipeline
    assert repro.DurableRunJournal is DurableRunJournal


ROOT = Path(__file__).resolve().parents[1]


def test_external_code_names_resolve():
    """Every ``repro.<name>`` / ``from repro import <name>`` in code
    outside the package (R002 limits it to the facade module) exists."""
    found: dict[str, str] = {}
    for top in ("examples", "benchmarks", "tools", "e2e_bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "repro":
                    names = [a.name for a in node.names]
                elif (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "repro"):
                    names = [node.attr]
                else:
                    continue
                for name in names:
                    found.setdefault(name, f"{path.name}:{node.lineno}")
    # e2e_bench is not collected here, yet its workloads need these
    assert {
        "DigitalSequence", "SequenceDatabase", "HmmsearchPipeline",
        "PipelineThresholds", "BatchSearchService", "DurableRunJournal",
        "Tracer", "sample_hmm", "save_hmm", "write_fasta",
        "random_sequence_codes", "msv_score_sequence",
        "viterbi_score_sequence", "generic_forward_score",
    } <= set(found)
    for name, where in found.items():
        # ``repro.scan``-style submodule access resolves by import
        if not hasattr(repro, name):
            assert importlib.util.find_spec(f"repro.{name}"), where


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="warp_speed"):
        repro.warp_speed


def test_version():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_version_matches_packaging_metadata():
    pyproject = (ROOT / "pyproject.toml").read_text()
    citation = (ROOT / "CITATION.cff").read_text()
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"', project, re.M).group(1) == \
        repro.__version__
    assert re.search(r"^version: (\S+)", citation, re.M).group(1) == \
        repro.__version__


def test_facade_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    hmm = repro.sample_hmm(40, rng)
    db = repro.swissprot_like(50, rng, hmm=hmm)
    hmm_path, fa_path = tmp_path / "m.hmm", tmp_path / "db.fa"
    repro.save_hmm(hmm_path, hmm)
    repro.write_fasta(fa_path, db)
    loaded_hmm = repro.load_hmm(hmm_path)
    loaded_db = repro.load_fasta(fa_path)
    assert loaded_hmm.name == hmm.name
    assert len(loaded_db) == len(db)
    results = repro.search(loaded_hmm, loaded_db)
    assert isinstance(results, repro.SearchResults)
    assert results.n_targets == 50


def test_facade_search_matches_pipeline():
    rng = np.random.default_rng(0)
    hmm = repro.sample_hmm(50, rng)
    db = repro.swissprot_like(60, rng, hmm=hmm)
    direct = repro.HmmsearchPipeline(hmm).search(db)
    via_facade = repro.search(hmm, db)
    assert via_facade.hit_names() == direct.hit_names()


def test_facade_batch_search():
    rng = np.random.default_rng(2)
    hmm = repro.sample_hmm(40, rng)
    db = repro.envnr_like(50, rng, hmm=hmm)
    opts = repro.SearchOptions(engine="gpu")
    jobs, report = repro.batch_search(
        [(hmm, db), (hmm, db, repro.SearchOptions(engine="cpu"))],
        options=opts,
    )
    assert [j.state.value for j in jobs] == ["done", "done"]
    assert jobs[0].engine.value == "gpu_warp"
    assert jobs[1].engine.value == "cpu_sse"
    assert jobs[0].results.hit_names() == jobs[1].results.hit_names()
    assert "batch search service report" in report


def test_readme_quickstart():
    rng = np.random.default_rng(0)
    hmm = repro.sample_hmm(50, rng)
    db = repro.swissprot_like(60, rng, hmm=hmm)
    pipeline = repro.HmmsearchPipeline(
        hmm, calibration_filter_sample=80, calibration_forward_sample=25
    )
    results = pipeline.search(db)
    assert results.n_targets == 60
    assert "msv" in results.summary()


def test_readme_gpu_snippet():
    rng = np.random.default_rng(1)
    hmm = repro.sample_hmm(40, rng)
    db = repro.envnr_like(50, rng, hmm=hmm)
    pipeline = repro.HmmsearchPipeline(
        hmm, calibration_filter_sample=80, calibration_forward_sample=25
    )
    # pyproject's filterwarnings turns any DeprecationWarning into an error
    cpu = pipeline.search(db)
    gpu = pipeline.search(
        db,
        repro.SearchOptions(
            engine="gpu_warp",
            device=repro.KEPLER_K40,
            config=repro.MemoryConfig.SHARED,
        ),
    )
    assert gpu.hit_names() == cpu.hit_names()
    assert gpu.counters["msv"].syncthreads == 0


def test_error_hierarchy():
    from repro.errors import (
        AlphabetError,
        CalibrationError,
        FormatError,
        KernelError,
        LaunchError,
        ModelError,
        PipelineError,
        ProfileError,
        ReproError,
        SequenceError,
    )

    for exc in (
        AlphabetError,
        SequenceError,
        ModelError,
        ProfileError,
        FormatError,
        KernelError,
        LaunchError,
        PipelineError,
        CalibrationError,
    ):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)


def test_constants_are_consistent():
    from repro import constants as c

    assert c.MSV_SCALE == pytest.approx(3.0 / c.LOG2)
    assert c.VF_SCALE == pytest.approx(500.0 / c.LOG2)
    assert c.GUMBEL_LAMBDA == c.EXP_LAMBDA == c.LOG2
    assert c.RESIDUE_BITS * c.RESIDUES_PER_WORD <= 32
    assert c.PACK_TERMINATOR < (1 << c.RESIDUE_BITS)
    assert c.DEFAULT_F1 > c.DEFAULT_F2 > c.DEFAULT_F3
