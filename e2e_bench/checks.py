"""Output checks: every operation's results against the scalar references.

For each distinct (query model, target set) pair a workload scores, an
:class:`Expectation` is built once, before the timed phase: a
deterministic sample of targets - every planted homolog of the model
plus evenly spaced others - is scored by the scalar reference scorers
(``msv_score_sequence``, ``viterbi_score_sequence``,
``generic_forward_score``), and the sample's reporting decision is
derived from those scores, the pipeline's calibration and thresholds.

Each operation's results are then compared against it (outside the
timed phase):

(i)   sampled MSV and P7Viterbi scores equal the reference bit for bit,
      Forward within +-1e-6 nats;
(ii)  a sampled target is reported exactly when its reference scores
      pass all three stage thresholds and the E-value cut;
(iii) hits are sorted by E-value and E = P x (number of targets);
(iv)  decoys reported stay within the Poisson bound implied by the
      Forward threshold and the number of decoys searched.

A check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import repro

LOG2 = math.log(2.0)
FORWARD_TOL_NATS = 1e-6
#: Decoys sampled per pair besides the planted homologs.
DECOY_SAMPLE = 8
#: Tail probability beyond which a decoy count is called a failure.
POISSON_ALPHA = 1e-9


def bits(nats: float, null_len: float) -> float:
    """Length-corrected log-odds in bits (HMMER's convention)."""
    return float((np.float64(nats) - null_len) / LOG2)


def poisson_bound(lam: float, alpha: float = POISSON_ALPHA) -> int:
    """Largest count k with P(X > k) > alpha for X ~ Poisson(lam)."""
    k, term = 0, math.exp(-lam)
    cdf = term
    while 1.0 - cdf > alpha:
        k += 1
        term *= lam / k
        cdf += term
    return k


def label_of(seq) -> str:
    return seq.description.split()[0] if seq.description else "decoy"


@dataclass
class Expectation:
    """Reference verdicts for one (model, target set) pair."""

    model: str
    n_targets: int          # E-value multiplier: targets searched
    n_decoys: int           # targets not planted from this model
    f3: float
    sample: dict = field(default_factory=dict)  # index -> reference record
    reported: set = field(default_factory=set)  # sampled indices expected

    @property
    def decoy_bound(self) -> int:
        return poisson_bound(self.n_decoys * self.f3)


def expect(
    pipeline, database, model: str, evalue_targets: int, thresholds=None
) -> Expectation:
    """Score the deterministic sample of ``database`` through the scalar
    references and decide which sampled targets must be reported.

    ``evalue_targets`` is the E-value multiplier: the number of targets
    for hmmsearch, the library size for hmmscan.  ``thresholds``
    overrides the pipeline's own, as ``SearchOptions.thresholds`` does.
    """
    cal = pipeline.calibration
    th = thresholds if thresholds is not None else pipeline.thresholds
    null = cal.null_length_nats
    own = f"homolog:{model}"
    labels = [label_of(s) for s in database]
    n = len(database)
    stride = max(1, n // DECOY_SAMPLE)
    picks = {i for i, lab in enumerate(labels) if lab == own}
    picks.update(range(0, n, stride))
    picks.add(n - 1)
    exp = Expectation(
        model=model,
        n_targets=evalue_targets,
        n_decoys=sum(1 for lab in labels if lab != own),
        f3=th.f3,
    )
    for i in sorted(picks):
        codes = database[i].codes
        rec = {"msv": bits(repro.msv_score_sequence(
            pipeline.byte_profile, codes), null)}
        passes = float(cal.msv.pvalue(rec["msv"])) < th.f1
        if passes:
            rec["vit"] = bits(repro.viterbi_score_sequence(
                pipeline.word_profile, codes), null)
            passes = float(cal.vit.pvalue(rec["vit"])) < th.f2
        if passes:
            nats = repro.generic_forward_score(pipeline.generic_profile, codes)
            rec["fwd"] = bits(nats, null)
            p = float(cal.fwd.pvalue(rec["fwd"]))
            passes = p < th.f3 and p * evalue_targets <= th.report_evalue
            # a Forward score within tolerance of either cut may land on
            # both sides of it; such a target is not held to a verdict
            lo = float(cal.fwd.pvalue(rec["fwd"] + FORWARD_TOL_NATS / LOG2))
            hi = float(cal.fwd.pvalue(rec["fwd"] - FORWARD_TOL_NATS / LOG2))
            rec["borderline"] = (lo < th.f3) != (hi < th.f3) or (
                (lo * evalue_targets <= th.report_evalue)
                != (hi * evalue_targets <= th.report_evalue)
            )
        if passes:
            exp.reported.add(i)
        exp.sample[i] = rec
    return exp


def _close(observed: float, expected: float) -> bool:
    return abs(observed - expected) <= FORWARD_TOL_NATS / LOG2 + 1e-12


def check_search(results, database, exp: Expectation) -> list[str]:
    """Checks (i)-(iv) on one hmmsearch result set."""
    problems: list[str] = []
    names = [s.name for s in database]
    reported = {h.index for h in results.hits}
    for i, rec in exp.sample.items():
        got = float(results.msv_bits[i])
        if got != rec["msv"]:
            problems.append(f"{names[i]}: msv {got!r} != reference {rec['msv']!r}")
        if "vit" in rec and float(results.vit_bits[i]) != rec["vit"]:
            problems.append(
                f"{names[i]}: p7viterbi {float(results.vit_bits[i])!r} "
                f"!= reference {rec['vit']!r}"
            )
        if "fwd" in rec and not _close(float(results.fwd_bits[i]), rec["fwd"]):
            problems.append(
                f"{names[i]}: forward {float(results.fwd_bits[i])!r} "
                f"!= reference {rec['fwd']!r}"
            )
        if (i in reported) != (i in exp.reported) and not rec.get("borderline"):
            problems.append(
                f"{names[i]}: reported={i in reported}, reference says "
                f"{i in exp.reported}"
            )
    problems += _ranking(
        [(h.name, h.evalue, h.fwd_p) for h in results.hits], exp.n_targets
    )
    problems += _decoys(
        [database[h.index] for h in results.hits], exp, exp.model
    )
    return problems


def check_scan(results, database, exps: dict) -> list[str]:
    """Checks (i)-(iv) on one hmmscan result set; ``exps`` maps model
    name to its :class:`Expectation` over this query set."""
    problems: list[str] = []
    by_pair = {(h.model_name, h.sequence_index): h for h in results.hits}
    for model, exp in exps.items():
        for i, rec in exp.sample.items():
            hit = by_pair.get((model, i))
            if (hit is not None) != (i in exp.reported) and not rec.get(
                "borderline"
            ):
                problems.append(
                    f"{database[i].name} ~ {model}: reported="
                    f"{hit is not None}, reference says {i in exp.reported}"
                )
            if hit is None:
                continue
            if hit.msv_bits != rec["msv"] or hit.vit_bits != rec.get("vit"):
                problems.append(
                    f"{database[i].name} ~ {model}: filter scores "
                    f"({hit.msv_bits!r}, {hit.vit_bits!r}) != reference "
                    f"({rec['msv']!r}, {rec.get('vit')!r})"
                )
            if "fwd" not in rec or not _close(hit.fwd_bits, rec["fwd"]):
                problems.append(
                    f"{database[i].name} ~ {model}: forward {hit.fwd_bits!r} "
                    f"!= reference {rec.get('fwd')!r}"
                )
        problems += _decoys(
            [database[h.sequence_index] for h in results.hits
             if h.model_name == model],
            exp, model,
        )
    n_models = results.n_models
    problems += _ranking(
        [(f"{h.sequence_name}~{h.model_name}", h.evalue, h.fwd_p)
         for h in results.hits],
        n_models,
    )
    return problems


def _ranking(hits: list[tuple], n: int) -> list[str]:
    """(iii): ascending E-values, each exactly P x n."""
    problems = []
    evalues = [e for _, e, _ in hits]
    if evalues != sorted(evalues):
        problems.append("hits are not sorted by E-value")
    for name, e, p in hits:
        if e != p * n:
            problems.append(f"{name}: E={e!r} but P x {n} = {p * n!r}")
    return problems


def _decoys(reported_seqs: list, exp: Expectation, model: str) -> list[str]:
    """(iv): decoys reported against the Poisson bound."""
    own = f"homolog:{model}"
    n = sum(1 for s in reported_seqs if label_of(s) != own)
    if n > exp.decoy_bound:
        return [
            f"{model}: {n} decoys reported, Poisson bound {exp.decoy_bound} "
            f"for {exp.n_decoys} decoys at P < {exp.f3:g}"
        ]
    return []
