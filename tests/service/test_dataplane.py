"""Acceptance tests for the hardened data plane.

The ISSUE-level contract: a salvage batch over a corrupted corpus
quarantines *exactly* the injected bad records (with file/line
context), reports them, and produces hits bit-identical to the same
batch over the clean corpus - corruption must cost only the corrupted
records, never the good ones.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import FormatError
from repro.hardening import SALVAGE, STRICT
from repro.hmm import sample_hmm, save_hmm
from repro.options import SearchOptions
from repro.sequence import DigitalSequence, write_fasta, random_sequence_codes
from repro.service import BatchSearchService, JobState, submit_manifest


@pytest.fixture
def corpus(tmp_path):
    """Clean and corrupted copies of the same model+database corpus."""
    rng = np.random.default_rng(11)
    hmm = sample_hmm(50, np.random.default_rng(12), name="dp")
    save_hmm(tmp_path / "dp.hmm", hmm)
    seqs = [
        DigitalSequence(f"t{i:03d}", random_sequence_codes(int(L), rng))
        for i, L in enumerate(rng.integers(40, 140, size=25))
    ]
    seqs.append(DigitalSequence("planted", hmm.sample_sequence(rng)))
    write_fasta(tmp_path / "clean.fasta", seqs)

    clean_text = (tmp_path / "clean.fasta").read_text()
    # inject exactly three bad records among the good ones
    corrupt = (
        ">badresidue\nAC1DEF\n"
        + clean_text
        + ">t003\nACDEF\n"          # duplicate of a clean record
        + ">\nGHIKL\n"              # empty header
    )
    (tmp_path / "corrupt.fasta").write_text(corrupt)
    return tmp_path


def _run_batch(tmp_path, database, policy):
    service = BatchSearchService(options=SearchOptions(policy=policy))
    manifest = tmp_path / f"{database}.json"
    manifest.write_text(json.dumps({
        "jobs": [
            {"id": "j", "model": "dp.hmm", "database": f"{database}.fasta"}
        ]
    }))
    jobs = submit_manifest(service, manifest, policy=policy)
    service.run()
    return service, jobs


class TestSalvageAcceptance:
    def test_exact_quarantine_and_bit_identical_hits(self, corpus):
        clean_service, clean_jobs = _run_batch(corpus, "clean", STRICT)
        dirty_service, dirty_jobs = _run_batch(corpus, "corrupt", SALVAGE)

        assert clean_jobs[0].state is JobState.DONE
        assert dirty_jobs[0].state is JobState.DONE

        # exactly the three injected records, nothing else
        q = dirty_service.quarantine
        assert len(q) == 3
        assert sorted(q.names()) == ["", "badresidue", "t003"]
        assert all(r.kind == "fasta" for r in q)
        # file/line context points into the corrupted file
        src = str(corpus / "corrupt.fasta")
        lines = {r.record: r.line for r in q}
        assert all(r.source == src for r in q)
        assert lines["badresidue"] == 1
        assert all(line > 0 for line in lines.values())

        # hits bit-identical to the clean run
        clean_hits = clean_jobs[0].results.hits
        dirty_hits = dirty_jobs[0].results.hits
        assert [h.name for h in dirty_hits] == [h.name for h in clean_hits]
        for a, b in zip(clean_hits, dirty_hits):
            assert a.fwd_bits == b.fwd_bits
            assert a.msv_bits == b.msv_bits
            assert a.vit_bits == b.vit_bits
            assert a.evalue == b.evalue

    def test_strict_batch_refuses_corrupt_corpus(self, corpus):
        with pytest.raises(FormatError, match="badresidue|line 2"):
            _run_batch(corpus, "corrupt", STRICT)

    def test_metrics_expose_quarantines(self, corpus):
        service, _ = _run_batch(corpus, "corrupt", SALVAGE)
        # ingest-time quarantines are batch-level (they happen before any
        # job runs), so they live on the registry, not the job record
        (record,) = service.metrics.records
        assert record.quarantined == 0
        assert service.metrics.quarantined_records == 3
        assert service.metrics.to_dict()["quarantine"]["n_quarantined"] == 3

    def test_report_renders_quarantine_section(self, corpus):
        service, _ = _run_batch(corpus, "corrupt", SALVAGE)
        report = service.metrics.render()
        assert "quarantined records: 3" in report
        assert "badresidue" in report


class TestManifestSalvage:
    def test_unusable_job_skipped_not_fatal(self, corpus):
        manifest = corpus / "jobs.json"
        manifest.write_text(json.dumps({"jobs": [
            {"id": "good", "model": "dp.hmm", "database": "clean.fasta"},
            {"id": "gone", "model": "missing.hmm", "database": "clean.fasta"},
        ]}))
        service = BatchSearchService(options=SearchOptions(policy=SALVAGE))
        jobs = submit_manifest(service, manifest, policy=SALVAGE)
        assert len(jobs) == 1  # only the usable job was submitted
        service.run()
        assert jobs[0].state is JobState.DONE
        kinds = service.quarantine.by_kind()
        assert kinds.get("manifest", 0) == 2  # the file + the job it sinks
        assert "gone" in service.quarantine.names()

    def test_strict_manifest_still_fails_fast(self, corpus):
        manifest = corpus / "jobs.json"
        manifest.write_text(json.dumps({"jobs": [
            {"id": "gone", "model": "missing.hmm", "database": "clean.fasta"},
        ]}))
        service = BatchSearchService()
        with pytest.raises(FormatError, match="nonexistent"):
            submit_manifest(service, manifest)


class TestCliExitCodes:
    def test_clean_batch_exits_zero(self, corpus, capsys):
        manifest = corpus / "m.json"
        manifest.write_text(json.dumps({"jobs": [
            {"model": "dp.hmm", "database": "clean.fasta"}
        ]}))
        assert main(["batch", str(manifest), "--devices", "k40=1"]) == 0

    def test_salvage_batch_exits_two_on_quarantine(self, corpus, capsys):
        manifest = corpus / "m.json"
        manifest.write_text(json.dumps({"jobs": [
            {"model": "dp.hmm", "database": "corrupt.fasta"}
        ]}))
        rc = main(
            ["batch", str(manifest), "--devices", "k40=1", "--salvage"]
        )
        assert rc == 2
        out = capsys.readouterr().out
        assert "quarantined records: 3" in out

    def test_search_salvage_exits_two(self, corpus, capsys):
        rc = main([
            "search", str(corpus / "dp.hmm"), str(corpus / "corrupt.fasta"),
            "--salvage", "--selfcheck", "4",
        ])
        assert rc == 2
        out = capsys.readouterr().out
        assert "selfcheck: 4" in out
        assert "quarantined records" in out

    def test_search_strict_default_unchanged(self, corpus, capsys):
        rc = main([
            "search", str(corpus / "dp.hmm"), str(corpus / "clean.fasta"),
        ])
        assert rc == 0

    @pytest.mark.faults
    def test_divergence_exits_three(self, corpus, capsys, monkeypatch):
        """An undetected CORRUPT fault + selfcheck -> exit code 3."""
        import repro.cli as cli_mod
        from repro.service import FaultKind, FaultPlan, FaultSpec, RetryPolicy

        manifest = corpus / "m.json"
        manifest.write_text(json.dumps({"jobs": [
            {"model": "dp.hmm", "database": "clean.fasta"}
        ]}))

        real_service = cli_mod.__dict__.get("BatchSearchService")
        from repro import service as service_mod

        class RiggedService(service_mod.BatchSearchService):
            def __init__(self, **kw):
                kw["fault_plan"] = FaultPlan(
                    [FaultSpec(device=0, dispatch=0, kind=FaultKind.CORRUPT)]
                )
                kw["retry_policy"] = RetryPolicy(verify_shards=False)
                super().__init__(**kw)

        monkeypatch.setattr(
            service_mod, "BatchSearchService", RiggedService
        )
        rc = main([
            "batch", str(manifest), "--devices", "k40=1",
            "--selfcheck", "6",
        ])
        assert rc == 3
