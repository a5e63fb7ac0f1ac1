"""Manifest parsing and submission to the batch service."""

import json

import numpy as np
import pytest

from repro.engines import resolve
from repro.errors import FormatError
from repro.hmm import sample_hmm, save_hmm
from repro.sequence import (
    DigitalSequence,
    random_sequence_codes,
    write_fasta,
)
from repro.service import BatchSearchService, DevicePool, load_manifest, submit_manifest


@pytest.fixture
def fixture_dir(tmp_path):
    rng = np.random.default_rng(41)
    for name, M in (("famA", 25), ("famB", 20)):
        hmm = sample_hmm(M, rng, name=name)
        save_hmm(tmp_path / f"{name}.hmm", hmm)
        seqs = [
            DigitalSequence(f"{name}-t{i}", random_sequence_codes(50, rng))
            for i in range(10)
        ]
        seqs.append(DigitalSequence(f"{name}-hom", hmm.sample_sequence(rng)))
        write_fasta(tmp_path / f"{name}.fasta", seqs)
    return tmp_path


def _write(tmp_path, payload):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoadManifest:
    def test_jobs_key_and_bare_list_equivalent(self, tmp_path):
        entry = {"model": "a.hmm", "database": "b.fasta"}
        wrapped = load_manifest(_write(tmp_path, {"jobs": [entry]}))
        bare = load_manifest(_write(tmp_path, [entry]))
        assert wrapped == bare
        assert wrapped[0]["engine"] == "gpu"
        assert wrapped[0]["priority"] == 0

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="invalid JSON"):
            load_manifest(path)

    def test_empty_job_list(self, tmp_path):
        with pytest.raises(FormatError, match="non-empty"):
            load_manifest(_write(tmp_path, {"jobs": []}))

    def test_missing_field(self, tmp_path):
        with pytest.raises(FormatError, match="missing 'database'"):
            load_manifest(_write(tmp_path, [{"model": "a.hmm"}]))

    def test_unknown_engine(self, tmp_path):
        with pytest.raises(FormatError, match="unknown engine"):
            load_manifest(
                _write(
                    tmp_path,
                    [{"model": "a", "database": "b", "engine": "tpu"}],
                )
            )

    def test_duplicate_job_ids_rejected(self, tmp_path):
        entry = {"id": "same", "model": "a.hmm", "database": "b.fasta"}
        with pytest.raises(
            FormatError, match=r"job 1 reuses id 'same' \(first used by job 0\)"
        ):
            load_manifest(_write(tmp_path, [entry, dict(entry)]))

    def test_blank_job_id_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="job 0 has an invalid id"):
            load_manifest(
                _write(
                    tmp_path,
                    [{"id": "  ", "model": "a.hmm", "database": "b.fasta"}],
                )
            )

    def test_distinct_ids_accepted(self, tmp_path):
        entries = load_manifest(
            _write(
                tmp_path,
                [
                    {"id": "one", "model": "a.hmm", "database": "b.fasta"},
                    {"model": "a.hmm", "database": "b.fasta"},
                ],
            )
        )
        assert entries[0]["id"] == "one"
        assert entries[1]["id"] is None


class TestSubmitManifest:
    def test_submits_all_jobs_with_settings(self, fixture_dir):
        manifest = _write(
            fixture_dir,
            {
                "jobs": [
                    {"model": "famA.hmm", "database": "famA.fasta"},
                    {"model": "famA.hmm", "database": "famA.fasta"},
                    {
                        "model": "famB.hmm",
                        "database": "famB.fasta",
                        "engine": "cpu",
                        "priority": 7,
                        "length": 80,
                    },
                ]
            },
        )
        service = BatchSearchService(pool=DevicePool.homogeneous(count=2))
        jobs = submit_manifest(
            service,
            manifest,
            default_length=60,
            calibration_filter_sample=60,
            calibration_forward_sample=25,
        )
        assert len(jobs) == 3
        assert jobs[0].engine is resolve("gpu_warp")
        assert jobs[0].settings.L == 60
        assert jobs[2].engine is resolve("cpu_sse")
        assert jobs[2].priority == 7
        assert jobs[2].settings.L == 80
        # repeated model paths reuse the loaded object
        assert jobs[0].hmm is jobs[1].hmm

        executed = service.run()
        assert executed[0] is jobs[2]       # priority 7 first
        assert all(j.results is not None for j in jobs)
        assert service.cache.hits >= 1      # the repeated famA query

    def test_nonexistent_model_path_rejected_up_front(self, fixture_dir):
        manifest = _write(
            fixture_dir,
            {
                "jobs": [
                    {"model": "famA.hmm", "database": "famA.fasta"},
                    {"model": "missing.hmm", "database": "famA.fasta"},
                ]
            },
        )
        service = BatchSearchService(pool=DevicePool.homogeneous(count=2))
        with pytest.raises(
            FormatError, match="job 1 references a nonexistent model path"
        ):
            submit_manifest(service, manifest)
        # validation happens before anything loads or enqueues
        assert len(service.queue) == 0

    def test_nonexistent_database_path_rejected_up_front(self, fixture_dir):
        manifest = _write(
            fixture_dir,
            {
                "jobs": [
                    {"model": "famA.hmm", "database": "gone.fasta"},
                ]
            },
        )
        service = BatchSearchService(pool=DevicePool.homogeneous(count=2))
        with pytest.raises(
            FormatError,
            match="job 0 references a nonexistent database path",
        ) as excinfo:
            submit_manifest(service, manifest)
        assert "gone.fasta" in str(excinfo.value)

    def test_manifest_ids_become_job_ids(self, fixture_dir):
        manifest = _write(
            fixture_dir,
            {
                "jobs": [
                    {
                        "id": "famA-main",
                        "model": "famA.hmm",
                        "database": "famA.fasta",
                    },
                    {"model": "famA.hmm", "database": "famA.fasta"},
                ]
            },
        )
        service = BatchSearchService(pool=DevicePool.homogeneous(count=2))
        jobs = submit_manifest(
            service,
            manifest,
            default_length=60,
            calibration_filter_sample=60,
            calibration_forward_sample=25,
        )
        assert jobs[0].job_id == "famA-main"
        assert jobs[1].job_id.startswith("job-0001-")
