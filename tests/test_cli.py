"""End-to-end tests of the repro-hmmsearch CLI."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.hmm import sample_hmm, save_hmm
from repro.engines import resolve
from repro.sequence import DigitalSequence, write_fasta, random_sequence_codes


@pytest.fixture
def model_file(tmp_path):
    hmm = sample_hmm(40, np.random.default_rng(3), name="clitest")
    path = tmp_path / "model.hmm"
    save_hmm(path, hmm)
    return path, hmm


@pytest.fixture
def fasta_file(tmp_path, model_file):
    _, hmm = model_file
    rng = np.random.default_rng(4)
    seqs = [
        DigitalSequence(f"t{i}", random_sequence_codes(int(L), rng))
        for i, L in enumerate(rng.integers(40, 160, size=30))
    ]
    seqs.append(DigitalSequence("planted", hmm.sample_sequence(rng)))
    path = tmp_path / "targets.fasta"
    write_fasta(path, seqs)
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.model_size == 200
        # argparse applies the registry-resolving type= converter to the
        # string default, so the parsed value is an interned selection
        assert args.engine is resolve("gpu_warp")
        assert args.engine.value == "gpu_warp"


class TestSearch:
    def test_search_finds_planted_hit(self, model_file, fasta_file, capsys):
        path, _ = model_file
        rc = main(["search", str(path), str(fasta_file), "--length", "120"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "planted" in out
        assert "msv" in out

    def test_search_gpu_engine(self, model_file, fasta_file, capsys):
        path, _ = model_file
        rc = main(
            ["search", str(path), str(fasta_file), "--engine", "gpu",
             "--length", "120"]
        )
        assert rc == 0
        assert "planted" in capsys.readouterr().out


class TestDemo:
    def test_demo_runs(self, capsys):
        rc = main(
            ["demo", "--model-size", "40", "--n-seqs", "60",
             "--engine", "gpu", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "counters[msv]" in out
        assert "syncthreads=0" in out

    def test_demo_cpu_engine(self, capsys):
        rc = main(
            ["demo", "--model-size", "30", "--n-seqs", "50",
             "--engine", "cpu", "--database", "swissprot"]
        )
        assert rc == 0
        assert "hits" in capsys.readouterr().out


class TestOccupancy:
    def test_msv_table(self, capsys):
        rc = main(["occupancy", "--stage", "msv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shared" in out and "global" in out
        assert "2405" in out

    def test_viterbi_table_marks_infeasible(self, capsys):
        rc = main(["occupancy", "--stage", "p7viterbi", "--device", "k40"])
        assert rc == 0
        assert "--" in capsys.readouterr().out

    def test_fermi_device(self, capsys):
        rc = main(["occupancy", "--device", "gtx580"])
        assert rc == 0
        assert "GTX 580" in capsys.readouterr().out


class TestBatch:
    @pytest.fixture
    def manifest(self, tmp_path, model_file, fasta_file):
        import json

        model_path, _ = model_file
        jobs = [
            {"model": str(model_path), "database": str(fasta_file)},
            {"model": str(model_path), "database": str(fasta_file)},
            {"model": str(model_path), "database": str(fasta_file),
             "engine": "cpu", "priority": 3},
        ]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": jobs}))
        return path

    def test_batch_runs_manifest(self, manifest, capsys):
        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100", "--devices", "k40=1,gtx580=1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "submitted 3 jobs" in out
        assert "jobs: 3 total, 3 done" in out
        assert "2 hits" in out          # repeated query hit the cache
        assert "device pool" in out and "dispatches=" in out
        assert "stage funnel" in out

    def test_batch_rejects_unknown_device(self, manifest):
        with pytest.raises(SystemExit):
            main(["batch", str(manifest), "--devices", "tpu=4"])

    def test_batch_show_hits(self, manifest, capsys):
        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100", "--show-hits"]
        )
        assert rc == 0
        assert "planted" in capsys.readouterr().out

    def test_batch_journal_then_resume(self, manifest, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100", "--journal", str(journal)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 job(s) checkpointed (0 resumed this run)" in out
        # identical manifest + deterministic job ids: everything resumes
        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100",
             "--journal", str(journal), "--resume"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 resumed from journal (0 recomputed)" in out
        assert "3 job(s) checkpointed (3 resumed this run)" in out

    def test_batch_resume_requires_journal(self, manifest):
        with pytest.raises(SystemExit, match="requires --journal"):
            main(["batch", str(manifest), "--resume"])

    def test_batch_fault_seed_chaos_run(self, manifest, capsys):
        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100",
             "--fault-seed", "11", "--fault-count", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault plan (seed=11, 3 faults)" in out
        assert "jobs: 3 total, 3 done" in out

    def test_batch_unit_report(self, manifest, tmp_path, capsys):
        """The WAL v2 report breaks work down to shard granularity."""
        journal = tmp_path / "run.wal"
        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100", "--journal", str(journal)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "(generation 1)" in out
        assert "shard(s), 0 scan group(s) checkpointed" in out
        resumed, recomputed = _unit_counts(out)
        # the manifest repeats one job: its twin resumes the first
        # job's shards even inside a single run (keys are pure content
        # hashes), but a fresh journal always computes something live
        assert recomputed > 0

    def test_batch_strict_corrupt_journal_exits_6(
        self, manifest, tmp_path, capsys
    ):
        """A torn journal tail under the strict policy is exit 6, and
        --salvage turns the same journal into a clean resumed run."""
        journal = tmp_path / "run.wal"
        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100", "--journal", str(journal)]
        )
        assert rc == 0
        capsys.readouterr()
        # tear the final record: chop bytes off the end of the WAL
        data = journal.read_bytes()
        journal.write_bytes(data[:-5])

        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100",
             "--journal", str(journal), "--resume"]
        )
        assert rc == 6
        assert "journal corrupt" in capsys.readouterr().err

        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100",
             "--journal", str(journal), "--resume", "--salvage"]
        )
        assert rc == 0
        assert "torn tail byte(s) salvaged" in capsys.readouterr().out


def _unit_counts(out):
    import re

    match = re.search(
        r"work units: (\d+) resumed from journal \((\d+) recomputed\)", out
    )
    assert match, out
    return int(match.group(1)), int(match.group(2))


class TestBuildAlignScan:
    @pytest.fixture
    def seed_sto(self, tmp_path):
        from repro.sequence import StockholmAlignment, write_stockholm

        rng = np.random.default_rng(5)
        truth = sample_hmm(25, rng, name="clifam", conservation=40.0)
        from repro.alphabet import AMINO

        members = [truth.sample_sequence(rng) for _ in range(8)]
        width = max(m.size for m in members)
        rows = [
            "".join(AMINO.symbols[c] for c in m) + "-" * (width - m.size)
            for m in members
        ]
        path = tmp_path / "seed.sto"
        write_stockholm(
            path,
            StockholmAlignment(
                names=[f"m{i}" for i in range(len(rows))],
                rows=rows,
                annotations={"ID": "clifam"},
            ),
        )
        return path, truth

    def test_build_from_stockholm(self, seed_sto, tmp_path, capsys):
        sto, _ = seed_sto
        out = tmp_path / "built.hmm"
        rc = main(["build", str(sto), str(out)])
        assert rc == 0
        assert out.exists()
        assert "clifam" in capsys.readouterr().out
        from repro.hmm import load_hmm

        assert load_hmm(out).name == "clifam"

    def test_align_members(self, seed_sto, tmp_path, capsys):
        sto, truth = seed_sto
        model_path = tmp_path / "m.hmm"
        main(["build", str(sto), str(model_path)])
        rng = np.random.default_rng(6)
        members = [
            DigitalSequence(f"x{i}", truth.sample_sequence(rng))
            for i in range(4)
        ]
        fasta = tmp_path / "members.fasta"
        write_fasta(fasta, members)
        out = tmp_path / "aligned.sto"
        rc = main(["align", str(model_path), str(fasta), str(out)])
        assert rc == 0
        from repro.sequence import read_stockholm

        aln = read_stockholm(out)
        assert len(aln) == 4

    def test_scan_directory(self, seed_sto, tmp_path, capsys):
        sto, truth = seed_sto
        models = tmp_path / "models"
        models.mkdir()
        main(["build", str(sto), str(models / "fam.hmm")])
        from repro.hmm import save_hmm as _save

        _save(models / "other.hmm", sample_hmm(30, np.random.default_rng(9), name="other"))
        rng = np.random.default_rng(7)
        query = tmp_path / "query.fasta"
        write_fasta(query, [DigitalSequence("probe", truth.sample_sequence(rng))])
        rc = main(
            ["scan", str(models), str(query), "--length", "60",
             "--calibration-sample", "100"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "clifam" in out

    def test_scan_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        fasta = tmp_path / "q.fasta"
        write_fasta(fasta, [DigitalSequence("q", np.array([1, 2, 3], dtype=np.uint8))])
        rc = main(["scan", str(empty), str(fasta)])
        assert rc == 1


class TestPressAndLibraryScan:
    @pytest.fixture
    def library_dir(self, tmp_path):
        rng = np.random.default_rng(31)
        truth = sample_hmm(30, rng, name="pressfam", conservation=40.0)
        models = tmp_path / "models"
        models.mkdir()
        save_hmm(models / "pressfam.hmm", truth)
        save_hmm(models / "other.hmm", sample_hmm(25, rng, name="other"))
        query = tmp_path / "query.fasta"
        write_fasta(
            query, [DigitalSequence("probe", truth.sample_sequence(rng))]
        )
        return models, query

    def test_press_then_scan_library(self, library_dir, tmp_path, capsys):
        models, query = library_dir
        store = tmp_path / "press.out"
        rc = main(["press", str(models), str(store),
                   "--length", "60", "--calibration-sample", "80"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pressed 2 model(s)" in out
        assert "calibrated 2" in out
        assert (store / "index.json").exists()

        # re-pressing reuses everything
        rc = main(["press", str(models), str(store),
                   "--length", "60", "--calibration-sample", "80"])
        assert rc == 0
        assert "calibrated 0, reused 2" in capsys.readouterr().out

        # scanning the pressed store finds the planted family
        rc = main(["scan", str(models), str(query), "--library", str(store),
                   "--engine", "gpu"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pressfam" in out
        assert "crossover" in out

    def test_scan_pressed_store_positionally(self, library_dir, tmp_path,
                                             capsys):
        models, query = library_dir
        store = tmp_path / "press.out"
        main(["press", str(models), str(store),
              "--length", "60", "--calibration-sample", "80"])
        capsys.readouterr()
        rc = main(["scan", str(store), str(query)])
        assert rc == 0
        assert "pressfam" in capsys.readouterr().out

    def test_scan_salvage_quarantines_bad_model(self, library_dir, capsys):
        models, query = library_dir
        (models / "broken.hmm").write_text("REPRO-HMM 1.0\ngarbage\n")
        rc = main(["scan", str(models), str(query), "--length", "60",
                   "--calibration-sample", "80", "--salvage"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "models: 2" in out          # the broken file was skipped
        assert "broken" in out             # ...and reported

    def test_scan_strict_rejects_bad_model(self, library_dir, capsys):
        models, query = library_dir
        (models / "broken.hmm").write_text("REPRO-HMM 1.0\ngarbage\n")
        with pytest.raises(Exception):
            main(["scan", str(models), str(query), "--length", "60",
                  "--calibration-sample", "80", "--strict"])

    def test_scan_observability_flags(self, library_dir, tmp_path, capsys):
        models, query = library_dir
        trace = tmp_path / "scan.jsonl"
        bench = tmp_path / "scan-bench.json"
        rc = main(["scan", str(models), str(query), "--length", "60",
                   "--calibration-sample", "80",
                   "--trace", str(trace), "--bench-out", str(bench)])
        assert rc == 0
        assert trace.exists() and bench.exists()
        import json
        payload = json.loads(bench.read_text())
        assert payload["workload"]["command"] == "scan"
        assert "msv" in payload["stages"]

    def test_press_missing_dir_fails(self, tmp_path, capsys):
        rc = main(["press", str(tmp_path / "nope"), str(tmp_path / "out")])
        assert rc == 1


class TestOverloadExitCodes:
    """The overload plane's CLI surface: exit 4 = admission refused,
    exit 5 = deadlines expired, and neither disturbs a clean run."""

    @pytest.fixture
    def manifest(self, tmp_path, model_file, fasta_file):
        import json

        model_path, _ = model_file
        jobs = [
            {"model": str(model_path), "database": str(fasta_file)}
            for _ in range(3)
        ]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": jobs}))
        return path

    def test_search_accepts_deadline_flag(self, model_file, fasta_file,
                                          capsys):
        path, _ = model_file
        rc = main(["search", str(path), str(fasta_file), "--length", "120",
                   "--deadline-ms", "60000"])
        assert rc == 0
        assert "planted" in capsys.readouterr().out

    def test_batch_overload_exits_4(self, manifest, capsys):
        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100", "--max-pending", "1"]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert "admission control rejected" in err
        assert "retry after" in err

    def test_batch_expired_deadline_exits_5(self, manifest, capsys):
        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100",
             "--fault-seed", "11", "--fault-count", "3",
             "--deadline-ms", "0.5"]
        )
        assert rc == 5
        out = capsys.readouterr().out
        assert "deadline failures:" in out

    def test_batch_generous_deadline_stays_clean(self, manifest, capsys):
        rc = main(
            ["batch", str(manifest), "--length", "120",
             "--calibration-sample", "100",
             "--fault-seed", "11", "--fault-count", "3",
             "--deadline-ms", "60000"]
        )
        assert rc == 0
        assert "jobs: 3 total, 3 done" in capsys.readouterr().out

    def test_scan_expired_deadline_exits_5(self, tmp_path, capsys):
        rng = np.random.default_rng(31)
        truth = sample_hmm(30, rng, name="deadfam", conservation=40.0)
        models = tmp_path / "models"
        models.mkdir()
        save_hmm(models / "deadfam.hmm", truth)
        query = tmp_path / "query.fasta"
        write_fasta(
            query, [DigitalSequence("probe", truth.sample_sequence(rng))]
        )
        rc = main(["scan", str(models), str(query), "--length", "60",
                   "--calibration-sample", "80", "--deadline-ms", "0.001"])
        assert rc == 5
        assert "deadline exceeded" in capsys.readouterr().err

class TestDurableScanAndFsck:
    """The durability surface of scan and the fsck subcommand: launch
    groups checkpoint into the WAL and resume exactly-once, and fsck
    turns a damaged store back into one that loads strictly."""

    @pytest.fixture
    def pressed(self, tmp_path):
        rng = np.random.default_rng(47)
        truth = sample_hmm(30, rng, name="walfam", conservation=40.0)
        models = tmp_path / "models"
        models.mkdir()
        save_hmm(models / "walfam.hmm", truth)
        save_hmm(models / "other.hmm", sample_hmm(24, rng, name="other"))
        query = tmp_path / "query.fasta"
        write_fasta(
            query, [DigitalSequence("probe", truth.sample_sequence(rng))]
        )
        store = tmp_path / "library.pressed"
        rc = main(["press", str(models), str(store),
                   "--length", "60", "--calibration-sample", "80"])
        assert rc == 0
        return store, query

    def test_scan_journal_then_resume(self, pressed, tmp_path, capsys):
        store, query = pressed
        journal = tmp_path / "scan.wal"
        capsys.readouterr()
        rc = main(["scan", str(store), str(query),
                   "--journal", str(journal)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scan group(s) checkpointed" in out
        resumed, recomputed = _unit_counts(out)
        assert resumed == 0 and recomputed > 0

        rc = main(["scan", str(store), str(query),
                   "--journal", str(journal), "--resume"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "walfam" in out  # resumed hits render identically
        assert "(generation 2)" in out
        assert _unit_counts(out) == (recomputed, 0)

    def test_scan_resume_requires_journal(self, pressed):
        store, query = pressed
        with pytest.raises(SystemExit, match="requires --journal"):
            main(["scan", str(store), str(query), "--resume"])

    def test_scan_strict_corrupt_journal_exits_6(self, pressed, tmp_path,
                                                 capsys):
        store, query = pressed
        journal = tmp_path / "scan.wal"
        rc = main(["scan", str(store), str(query),
                   "--journal", str(journal)])
        assert rc == 0
        data = journal.read_bytes()
        journal.write_bytes(data[:-3])
        capsys.readouterr()
        rc = main(["scan", str(store), str(query),
                   "--journal", str(journal), "--resume"])
        assert rc == 6
        assert "journal corrupt" in capsys.readouterr().err

    def test_fsck_clean_store(self, pressed, capsys):
        store, _ = pressed
        rc = main(["fsck", str(store)])
        assert rc == 0
        assert "consistent" in capsys.readouterr().out

    def test_fsck_detects_then_repairs(self, pressed, tmp_path, capsys):
        import json

        store, query = pressed
        index = json.loads((store / "index.json").read_text())
        (row,) = [r for r in index["entries"] if r["name"] == "walfam"]
        (store / row["tables_file"]).unlink()

        rc = main(["fsck", str(store)])
        assert rc == 1
        assert "missing-tables" in capsys.readouterr().out

        report_file = tmp_path / "fsck.json"
        rc = main(["fsck", str(store), "--repair",
                   "--json", str(report_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rebuilt" in out or "repaired" in out
        payload = json.loads(report_file.read_text())
        assert payload["repaired"] == 1

        # the repaired store scans again, zero recalibration
        capsys.readouterr()
        rc = main(["scan", str(store), str(query)])
        assert rc == 0
        assert "walfam" in capsys.readouterr().out
