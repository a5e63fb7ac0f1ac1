"""Sensitivity preservation: the filter cascade loses nothing.

The paper claims its acceleration preserves "the sensitivity and
accuracy of HMMER 3.0"; HMMER itself claims its filter cascade loses
essentially nothing relative to running Forward on everything.  We test
both layers: (1) the GPU pipeline's hits equal the CPU pipeline's hits
exactly (asserted throughout the test suite); (2) here, the filtered
pipeline's hits equal the unfiltered Forward-everything ground truth on
databases with planted homologs of every benchmarked size.
"""

import numpy as np

from repro import (
    HmmsearchPipeline,
    SearchOptions,
    homolog_database,
    paper_hmm,
)

from conftest import write_table

SIZES = (48, 200, 800)


def test_filter_cascade_loses_nothing(results_dir, benchmark):
    def study():
        rows = []
        for M in SIZES:
            hmm = paper_hmm(M)
            db = homolog_database(
                250,
                mean_length=250,
                rng=np.random.default_rng(M),
                hmm=hmm,
                homolog_fraction=0.05,
                name=f"sens{M}",
            )
            pipe = HmmsearchPipeline(
                hmm,
                L=250,
                calibration_filter_sample=150,
                calibration_forward_sample=40,
            )
            results = pipe.search(db)
            lost, total = pipe.filter_loss(db, results)
            rows.append((M, total, len(results.hits), lost))
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    write_table(
        results_dir / "sensitivity.txt",
        "Filter sensitivity: pipeline hits vs unfiltered Forward ground "
        "truth (planted homologs, E < 1e-5 significance)",
        ["M", "significant (fwd-all)", "pipeline hits", "lost to filters"],
        [list(r) for r in rows],
    )
    for M, total, hits, lost in rows:
        assert total > 0, f"M={M}: study needs significant sequences"
        assert lost == 0, f"M={M}: the filter cascade lost {lost}/{total}"


def test_gpu_pipeline_same_sensitivity(results_dir):
    """The accelerated engine inherits the zero-loss property verbatim."""
    hmm = paper_hmm(200)
    db = homolog_database(
        200,
        mean_length=220,
        rng=np.random.default_rng(7),
        hmm=hmm,
        homolog_fraction=0.05,
        name="sens-gpu",
    )
    pipe = HmmsearchPipeline(
        hmm, L=220, calibration_filter_sample=150,
        calibration_forward_sample=40,
    )
    gpu_results = pipe.search(db, SearchOptions(engine="gpu_warp"))
    lost, total = pipe.filter_loss(db, gpu_results)
    assert total > 0
    assert lost == 0
