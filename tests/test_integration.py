"""Whole-system integration: every subsystem in one coherent story.

Seed alignment (Stockholm) -> hmmbuild -> model file round-trip ->
hmmsearch on CPU and simulated GPU -> hit alignments -> posterior domain
annotation -> hmmscan of a hit back against a model library.  The
cross-checks assert that independent subsystems agree about the same
biology: the pipeline's hits, the Viterbi traceback's domains and the
posterior decoding's regions all point at the same residues.
"""

import numpy as np
import pytest

import repro
from repro.cpu import domain_regions, posterior_decode
from repro.cpu.hmmalign import align_to_profile
from repro.hmm import SearchProfile
from repro.options import SearchOptions
from repro.scan import PressSettings
from repro.sequence import (
    StockholmAlignment,
    random_sequence_codes,
    write_stockholm,
)


@pytest.fixture(scope="module")
def family():
    """A synthetic family: truth model, seed alignment, members."""
    rng = np.random.default_rng(314)
    truth = repro.sample_hmm(45, rng, name="PFTEST", conservation=35.0)
    members = [truth.sample_sequence(rng) for _ in range(12)]
    width = max(m.size for m in members)
    rows = [
        "".join(repro.AMINO.symbols[c] for c in m) + "-" * (width - m.size)
        for m in members
    ]
    return truth, rows, rng


def test_full_story(family, tmp_path):
    truth, rows, rng = family

    # --- 1. Stockholm round trip feeds hmmbuild ---
    sto_path = tmp_path / "seed.sto"
    write_stockholm(
        sto_path,
        StockholmAlignment(
            names=[f"seed{i}" for i in range(len(rows))],
            rows=rows,
            annotations={"ID": "PFTEST"},
        ),
    )
    from repro.sequence import read_stockholm

    seed = read_stockholm(sto_path)
    model = repro.build_hmm_from_msa(seed.rows, name=seed.annotations["ID"])
    assert model.M > 30

    # --- 2. model file round trip ---
    hmm_path = tmp_path / "model.hmm"
    repro.save_hmm(hmm_path, model)
    model = repro.load_hmm(hmm_path)

    # --- 3. a database with unseen members planted at known positions ---
    targets = []
    spans = {}
    for i in range(4):
        flank_l = random_sequence_codes(40, rng)
        dom = truth.sample_sequence(rng)
        flank_r = random_sequence_codes(30, rng)
        codes = np.concatenate([flank_l, dom, flank_r]).astype(np.uint8)
        name = f"member{i}"
        spans[name] = (40, 40 + dom.size)
        targets.append(repro.DigitalSequence(name, codes, description="homolog"))
    for i, L in enumerate(rng.integers(60, 300, size=150)):
        targets.append(
            repro.DigitalSequence(f"decoy{i}", random_sequence_codes(int(L), rng))
        )
    database = repro.SequenceDatabase(targets, name="integration")

    # --- 4. search: CPU and GPU engines agree; hits carry alignments ---
    pipeline = repro.HmmsearchPipeline(
        model,
        L=int(database.mean_length),
        calibration_filter_sample=150,
        calibration_forward_sample=40,
    )
    cpu = pipeline.search(database, SearchOptions(alignments=True))
    gpu = pipeline.search(database, SearchOptions(engine="gpu_warp"))
    assert cpu.hit_names() == gpu.hit_names()
    found = set(cpu.hit_names())
    assert {f"member{i}" for i in range(4)} <= found
    assert not any(n.startswith("decoy") for n in found)

    # --- 5. alignments, posterior decoding and the planted truth agree ---
    profile = SearchProfile(model, L=int(database.mean_length))
    for hit in cpu.hits:
        if not hit.name.startswith("member"):
            continue
        lo, hi = spans[hit.name]
        assert hit.alignment is not None
        dom = max(
            hit.alignment.domains, key=lambda d: d.seq_end - d.seq_start
        )
        overlap = max(0, min(dom.seq_end, hi) - max(dom.seq_start, lo))
        assert overlap > 0.6 * (hi - lo), "traceback misses the domain"

        seq = database[hit.index]
        decoding = posterior_decode(profile, seq.codes)
        regions = domain_regions(decoding)
        assert regions, "posterior decoding misses the domain"
        p_lo, p_hi = max(regions, key=lambda r: r[1] - r[0])
        overlap = max(0, min(p_hi, hi) - max(p_lo, lo))
        assert overlap > 0.6 * (hi - lo)

        # traceback and posterior point at the same residues
        overlap = max(0, min(p_hi, dom.seq_end) - max(p_lo, dom.seq_start))
        assert overlap > 0.6 * (dom.seq_end - dom.seq_start)

    # --- 6. hmmscan: a hit sequence scanned against a library finds
    #        this family and not others ---
    library = repro.press_library(
        [
            model,
            repro.sample_hmm(30, np.random.default_rng(1), name="otherA"),
            repro.sample_hmm(60, np.random.default_rng(2), name="otherB"),
        ],
        settings=PressSettings(
            L=150, calibration_filter_sample=100,
            calibration_forward_sample=30,
        ),
    )
    query = database[cpu.hits[0].index]
    scan = repro.scan(
        library, repro.SequenceDatabase([query], name=query.name)
    )
    assert scan.hit_models() == ["PFTEST"]


def test_hmmalign_of_recovered_hits(family):
    """Hits aligned back to the model rebuild a model with the same
    consensus - the hmmsearch -> hmmalign -> hmmbuild loop closes."""
    truth, rows, rng = family
    model = repro.build_hmm_from_msa(rows, name="PFTEST")
    profile = SearchProfile(model, L=80)
    members = [truth.sample_sequence(rng) for _ in range(10)]
    msa = align_to_profile(profile, members)
    rebuilt = repro.build_hmm_from_msa(msa, symfrac=0.6)
    matches = sum(
        1 for a, b in zip(rebuilt.consensus, model.consensus) if a == b
    )
    assert matches > 0.6 * min(rebuilt.M, model.M)
