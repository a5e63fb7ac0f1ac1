"""Interval abstract interpreter: certification of the real kernels,
escape detection on injected bugs, ``out=`` stores and the u8
clamp-before-add identities, encode-clip discharge, and the --prove
CLI surface."""

import ast
import json
import os
import textwrap

import pytest

from repro.analysis import lint_file
from repro.analysis.absint import (
    PROVE_TARGETS,
    IntervalProverRule,
    analyze_source,
    certificate_doc,
    certified_clip_lines,
)
from repro.analysis.cli import main as lint_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _real_source(relpath):
    with open(os.path.join(REPO_ROOT, relpath), encoding="utf-8") as fh:
        return fh.read()


class TestRealKernelsCertified:
    """Acceptance pin: every u8/i16 obligation site in the shipped
    kernel and scoring modules is discharged."""

    @pytest.mark.parametrize("relpath", sorted(PROVE_TARGETS))
    def test_zero_unproven(self, relpath):
        proof = analyze_source(relpath, _real_source(relpath))
        assert proof.unproven == [], [s.to_doc() for s in proof.unproven]

    def test_certificate_doc_shape(self):
        doc = certificate_doc(REPO_ROOT)
        assert doc["tool"] == "repro-prove"
        assert doc["proven"] is True
        assert doc["unproven"] == 0
        assert doc["errors"] == []
        assert doc["sites"] > 0
        assert {t["path"] for t in doc["targets"]} == set(PROVE_TARGETS)
        for target in doc["targets"]:
            assert target["unproven"] == 0
            for fn in target["functions"]:
                for site in fn["sites"]:
                    assert site["status"] in {"proven", "by_helper"}

    def test_kernels_have_nontrivial_obligations(self):
        """The proof is not vacuous: the lockstep MSV pass the batched
        kernel and the cpu_sse engine share carries native u8
        arithmetic and store obligations."""
        relpath = "src/repro/cpu/msv_reference.py"
        proof = analyze_source(relpath, _real_source(relpath))
        kinds = {s.kind for fn in proof.functions for s in fn.sites}
        assert {"store", "arith", "helper", "cast"} <= kinds


class TestEscapeDetection:
    """The acceptance-criteria bug: an unguarded a + b on an i16-tagged
    array must be caught with a finding naming the escaping interval."""

    _BUGGY = textwrap.dedent(
        """
        import numpy as np

        def unguarded(n):
            a = np.full(n, 20000, dtype=np.int16)
            b = np.full(n, 32767, dtype=np.int16)
            return a + b
        """
    )

    def test_unguarded_add_is_unproven(self):
        relpath = "src/repro/kernels/viterbi_warp.py"  # any i16 target
        proof = analyze_source(relpath, self._BUGGY)
        bad = proof.unproven
        assert len(bad) == 1
        site = bad[0]
        assert site.kind == "arith"
        assert site.status == "unproven"
        assert (site.lo, site.hi) == (52767, 52767)

    def test_prover_rule_names_interval_and_range(self):
        relpath = "src/repro/kernels/viterbi_warp.py"
        tree = ast.parse(self._BUGGY)
        rule = IntervalProverRule()
        findings = rule.check(tree, self._BUGGY.splitlines(), relpath)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "R003"
        assert f.symbol.startswith("prove:unguarded:arith:")
        assert "[52767, 52767]" in f.message
        assert "[-32768, 32767]" in f.message
        assert "sat_" in f.message  # points at the guardrail helpers

    def test_guarded_version_is_proven(self):
        guarded = self._BUGGY.replace(
            "return a + b",
            "from repro.kernels.saturating import sat_add_i16\n"
            "    return sat_add_i16(a, b)",
        )
        proof = analyze_source("src/repro/kernels/viterbi_warp.py", guarded)
        assert proof.unproven == []


class TestOutStores:
    """``out=`` writes are stores: into a view or a subscript of a
    narrow or i16-tagged array they are obligations on the root."""

    _VIEW = textwrap.dedent(
        """
        import numpy as np
        from repro.constants import VF_WORD_MIN

        def view_out(n, M):
            Mn = np.full((n, M + 1), VF_WORD_MIN, dtype=np.int32)
            Mv = Mn[:, 1:]
            np.add(Mv, 70000, out=Mv)
            return Mn
        """
    )
    _SUBSCRIPT = textwrap.dedent(
        """
        import numpy as np
        from repro.constants import VF_WORD_MIN

        def subscript_out(n, M):
            Mn = np.full((n, M + 1), VF_WORD_MIN, dtype=np.int32)
            np.add(Mn[:, :1], 70000, out=Mn[:, :1])
            return Mn
        """
    )

    @pytest.mark.parametrize("src", [_VIEW, _SUBSCRIPT], ids=["view", "subscript"])
    def test_out_write_into_tagged_carrier_is_unproven(self, src):
        proof = analyze_source("src/repro/cpu/viterbi_reference.py", src)
        bad = proof.unproven
        assert len(bad) == 1
        assert bad[0].kind == "store"
        assert (bad[0].lo, bad[0].hi) == (37232, 37232)

    def test_uninitialised_wide_scratch_is_not_a_carrier(self):
        """A fused wide sum may sit in np.empty int32 scratch."""
        src = textwrap.dedent(
            """
            import numpy as np

            def fused(n, M):
                s = np.empty((n, M), dtype=np.int32)
                np.add(s[:, :1], 70000, out=s[:, :1])
                return s
            """
        )
        proof = analyze_source("src/repro/cpu/viterbi_reference.py", src)
        assert proof.unproven == []

    _CLAMP = textwrap.dedent(
        """
        import numpy as np
        from repro.constants import MSV_BYTE_MAX
        from repro.scoring.msv_profile import MSVByteProfile

        def step(profile: MSVByteProfile):
            R = profile.rbv.astype(np.uint8)
            sv = R[:, 1:]
            rb = profile.rbv.astype(np.uint8)
            bias = profile.bias
            cap = MSV_BYTE_MAX - bias
            np.minimum(sv, cap, out=sv)
            np.add(sv, bias, out=sv)
            np.maximum(sv, rb, out=sv)
            np.subtract(sv, rb, out=sv)
            return R
        """
    )

    def test_clamp_before_add_identities_proven(self):
        proof = analyze_source("src/repro/cpu/msv_reference.py", self._CLAMP)
        assert proof.unproven == []
        arith = [s for fn in proof.functions for s in fn.sites if s.kind == "arith"]
        assert [(s.lo, s.hi) for s in arith] == [(0, 255), (0, 255)]

    @pytest.mark.parametrize("drop", [
        "np.minimum(sv, cap, out=sv)",
        "np.maximum(sv, rb, out=sv)",
        "cap = MSV_BYTE_MAX - bias",
    ])
    def test_clamp_without_its_bound_is_unproven(self, drop):
        src = self._CLAMP.replace(drop, "pass")
        if drop.startswith("cap"):
            src = src.replace("pass", "cap = MSV_BYTE_MAX - 1")
        proof = analyze_source("src/repro/cpu/msv_reference.py", src)
        assert len(proof.unproven) >= 1

    _LANE_CLAMP = textwrap.dedent(
        """
        import numpy as np
        from repro.constants import MSV_BYTE_MAX
        from repro.scoring.msv_profile import MSVByteProfile

        def step(profile: MSVByteProfile, lanes):
            R = profile.rbv.astype(np.uint8)
            sv = R[:, 1:]
            per_lane = np.asarray(profile.bias).astype(np.uint8)[lanes]
            bias = per_lane[:, None]
            np.minimum(sv, MSV_BYTE_MAX - bias, out=sv)
            np.add(sv, bias, out=sv)
            return R
        """
    )

    def test_clamp_against_a_local_name_proven(self):
        """A per-lane bias view has no symbolic origin; it stands for
        itself in the bound, so the identity still closes."""
        proof = analyze_source("src/repro/cpu/msv_reference.py",
                               self._LANE_CLAMP)
        assert proof.unproven == []

    def test_rebinding_the_bound_name_drops_the_fact(self):
        src = self._LANE_CLAMP.replace(
            "np.add(sv, bias, out=sv)",
            "bias = per_lane[1:, None]\n    np.add(sv, bias, out=sv)")
        proof = analyze_source("src/repro/cpu/msv_reference.py", src)
        assert [s.detail for s in proof.unproven] == ["np.add(sv, bias, out=sv)"]

    def test_msv_reference_out_stores_are_proven_sites(self):
        relpath = "src/repro/cpu/msv_reference.py"
        assert relpath in PROVE_TARGETS
        proof = analyze_source(relpath, _real_source(relpath))
        stores = [
            s for fn in proof.functions if fn.name == "msv_lockstep"
            for s in fn.sites if s.kind == "store" and s.detail.startswith("out=")
        ]
        assert {s.detail for s in stores} == {"out=sv", "out=rb"}
        assert all(s.status == "proven" for s in stores)


class TestEncodeClipDischarge:
    """Satellite: the two quantizer encode clips are certified by the
    prover, so R003's np.clip heuristic no longer needs a baseline."""

    @pytest.mark.parametrize(
        "relpath",
        ["src/repro/scoring/msv_profile.py", "src/repro/scoring/vit_profile.py"],
    )
    def test_encode_clip_certified(self, relpath):
        src = _real_source(relpath)
        lines = certified_clip_lines(ast.parse(src), relpath)
        assert lines  # at least the encode clip itself
        findings, _, err = lint_file(relpath, src)
        assert err is None
        assert not [f for f in findings if "np.clip" in f.symbol]

    def test_kernel_clips_not_exempt(self):
        """Only the encode modules get the certified-clip discharge; a
        bare np.clip in a kernel module still trips R003."""
        src = textwrap.dedent(
            """
            import numpy as np

            def lossy(x):
                return np.clip(x, 0, 255).astype(np.uint8)
            """
        )
        findings, _, _ = lint_file("src/repro/kernels/fake.py", src)
        assert [f for f in findings if f.rule == "R003" and "np.clip" in f.symbol]

    def test_stale_r003_baseline_entry_warns(self, tmp_path, capsys):
        """Regression: a baseline still carrying the discharged np.clip
        keys is reported stale but does not fail the run."""
        stale = {
            "version": 1,
            "entries": [
                {
                    "key": "R003::src/repro/scoring/msv_profile.py::np.clip",
                    "justification": "discharged by repro-prove",
                }
            ],
        }
        bl = tmp_path / "stale_baseline.json"
        bl.write_text(json.dumps(stale))
        rc = lint_main(
            [
                "src/repro/scoring",
                "--root",
                REPO_ROOT,
                "--baseline",
                str(bl),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "stale baseline entry" in out
        assert "R003::src/repro/scoring/msv_profile.py::np.clip" in out

    def test_shipped_baseline_has_no_r003_entries(self):
        with open(
            os.path.join(REPO_ROOT, "src/repro/analysis/baseline.json"),
            encoding="utf-8",
        ) as fh:
            doc = json.load(fh)
        keys = [e["key"] for e in doc["entries"]]
        assert len(keys) == 2
        assert all(k.startswith("R005::") for k in keys)


class TestProveCli:
    def test_prove_exits_clean_on_repo(self, capsys):
        rc = lint_main(["src", "--root", REPO_ROOT, "--prove"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro-prove: PROVEN" in out
        assert "0 unproven" in out

    def test_prove_json_carries_certificates(self, tmp_path):
        out_file = tmp_path / "report.json"
        rc = lint_main(
            [
                "src",
                "--root",
                REPO_ROOT,
                "--prove",
                "--format",
                "json",
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["ok"] is True
        certs = doc["certificates"]
        assert certs["tool"] == "repro-prove"
        assert certs["proven"] is True
        assert {t["path"] for t in certs["targets"]} == set(PROVE_TARGETS)

    def test_without_prove_no_certificates(self, tmp_path):
        out_file = tmp_path / "report.json"
        rc = lint_main(
            [
                "src/repro/analysis",
                "--root",
                REPO_ROOT,
                "--format",
                "json",
                "--output",
                str(out_file),
            ]
        )
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert "certificates" not in doc

    def test_list_rules_mentions_prover_and_lock_rules(self, capsys):
        rc = lint_main(["--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "R003 (--prove)" in out
        assert "R006" in out
        assert "R007" in out
