"""Viterbi traceback: optimal alignments, not just scores.

The filters only need scores, but reported hits need the alignment
itself.  This module runs the full-precision Viterbi pass of
:mod:`repro.cpu.generic` keeping its matrices, then walks backwards
through the winning transitions to recover the optimal state path -
including the flanking N/J/C machinery, so multihit paths decompose
into per-domain alignments.

Invariants enforced by the tests: re-scoring the recovered path
reproduces the Viterbi score; every residue is consumed by exactly one
emitting state; all transitions on the path are legal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..alphabet import AMINO
from ..errors import KernelError
from ..hmm.profile import SearchProfile
from .generic import (
    _MAX_PLUS,
    GenericProfile,
    _check_codes,
    _coerce,
    _forward_pass,
)

__all__ = ["PathStep", "DomainAlignment", "ViterbiAlignment", "viterbi_traceback"]

_NEG = float("-inf")


@dataclass(frozen=True)
class PathStep:
    """One state visit: ``state`` in N/B/M/I/D/E/J/C, 0-based model node
    (-1 for non-core states), and the 0-based residue consumed (-1 when
    the visit emits nothing)."""

    state: str
    node: int
    residue: int


@dataclass(frozen=True)
class DomainAlignment:
    """One aligned domain (a B...E segment of the path)."""

    seq_start: int   # first aligned residue (0-based, inclusive)
    seq_end: int     # past-the-end residue
    model_start: int  # first aligned node (0-based, inclusive)
    model_end: int    # past-the-end node
    steps: tuple[PathStep, ...]

    def render(self, hmm_consensus: str, codes: np.ndarray) -> str:
        """Three-line text rendering: model, match marks, sequence."""
        model_line = []
        marks = []
        seq_line = []
        for step in self.steps:
            if step.state == "M":
                m = hmm_consensus[step.node]
                s = AMINO.symbols[int(codes[step.residue])]
                model_line.append(m)
                seq_line.append(s)
                marks.append("|" if m == s.upper() else "+")
            elif step.state == "I":
                model_line.append(".")
                seq_line.append(AMINO.symbols[int(codes[step.residue])].lower())
                marks.append(" ")
            elif step.state == "D":
                model_line.append(hmm_consensus[step.node])
                seq_line.append("-")
                marks.append(" ")
        return "\n".join(
            ("".join(model_line), "".join(marks), "".join(seq_line))
        )


@dataclass(frozen=True)
class ViterbiAlignment:
    """The optimal path of one sequence against one profile."""

    score: float
    path: tuple[PathStep, ...]
    domains: tuple[DomainAlignment, ...]

    def aligned_residues(self) -> int:
        return sum(1 for s in self.path if s.state in "MI")


def _split_domains(path: list[PathStep]) -> tuple[DomainAlignment, ...]:
    domains = []
    current: list[PathStep] | None = None
    for step in path:
        if step.state == "B":
            current = []
        elif step.state == "E" and current is not None:
            core = [s for s in current if s.state in "MID"]
            if core:
                residues = [s.residue for s in core if s.residue >= 0]
                nodes = [s.node for s in core]
                domains.append(
                    DomainAlignment(
                        seq_start=min(residues),
                        seq_end=max(residues) + 1,
                        model_start=min(nodes),
                        model_end=max(nodes) + 1,
                        steps=tuple(core),
                    )
                )
            current = None
        elif current is not None:
            current.append(step)
    return tuple(domains)


def viterbi_traceback(
    profile: SearchProfile | GenericProfile, codes: np.ndarray
) -> ViterbiAlignment:
    """Optimal alignment of a digital sequence against the profile."""
    gp = _coerce(profile)
    codes = _check_codes(gp, codes)
    L, M = codes.size, gp.M
    score, X, rows = _forward_pass(gp, codes, _MAX_PLUS, keep=True)
    xN, xB, xE, xJ, xC = X.T
    fM, fI, fD = rows.transpose(1, 0, 2)
    if not np.isfinite(score):
        raise KernelError("sequence has no finite alignment to the profile")

    rev: list[PathStep] = []
    state, r, j = "C", L, -1  # r = residues consumed so far

    def best(options):
        """Pick the transition whose recomputed value is maximal."""
        vals = [v for v, _ in options]
        return options[int(np.argmax(vals))][1]

    guard = 0
    while not (state == "N" and r == 0):
        guard += 1
        if guard > 20 * (L + 1) * 3 + 10 * (M + L):
            raise KernelError("traceback failed to terminate")  # pragma: no cover
        if state == "C":
            choice = best(
                [
                    (xC[r - 1] + gp.C_loop if r > 0 else _NEG, "C_loop"),
                    (xE[r] + gp.E_move, "E"),
                ]
            )
            if choice == "C_loop":
                # this C visit was reached by looping: it emitted r-1
                rev.append(PathStep("C", -1, r - 1))
                r -= 1
            else:
                rev.append(PathStep("C", -1, -1))  # first C, from E
                state = "E"
        elif state == "E":
            rev.append(PathStep("E", -1, -1))
            j = int(np.argmax(fM[r - 1]))
            state = "M"
        elif state == "M":
            i = r - 1
            rev.append(PathStep("M", j, i))
            rs = gp.msc[int(codes[i])][j]
            entry = xB[r - 1] + gp.tbm + rs
            if j > 0 and i > 0:
                options = [
                    (entry, "B"),
                    (fM[i - 1][j - 1] + gp.enter_mm[j] + rs, "Mprev"),
                    (fI[i - 1][j - 1] + gp.enter_im[j] + rs, "Iprev"),
                    (fD[i - 1][j - 1] + gp.enter_dm[j] + rs, "Dprev"),
                ]
            else:
                options = [(entry, "B")]
            choice = best(options)
            if choice == "B":
                state, r = "B", r - 1
            else:
                state = {"Mprev": "M", "Iprev": "I", "Dprev": "D"}[choice]
                j -= 1
                r -= 1
        elif state == "I":
            i = r - 1
            rev.append(PathStep("I", j, i))
            state = best(
                [
                    (fM[i - 1][j] + gp.tmi[j] if i > 0 else _NEG, "M"),
                    (fI[i - 1][j] + gp.tii[j] if i > 0 else _NEG, "I"),
                ]
            )
            r -= 1
        elif state == "D":
            i = r - 1
            rev.append(PathStep("D", j, -1))
            state = best(
                [
                    (fM[i][j - 1] + gp.tmd[j - 1] if j > 0 else _NEG, "M"),
                    (fD[i][j - 1] + gp.tdd[j - 1] if j > 0 else _NEG, "D"),
                ]
            )
            j -= 1
        elif state == "B":
            rev.append(PathStep("B", -1, -1))
            state = best(
                [
                    (xN[r] + gp.N_move, "N"),
                    (xJ[r] + gp.J_move, "J"),
                ]
            )
        elif state == "J":
            choice = best(
                [
                    (xJ[r - 1] + gp.J_loop if r > 0 else _NEG, "J_loop"),
                    (xE[r] + gp.E_loop, "E"),
                ]
            )
            if choice == "J_loop":
                rev.append(PathStep("J", -1, r - 1))
                r -= 1
            else:
                rev.append(PathStep("J", -1, -1))  # first J, from E
                state = "E"
        elif state == "N":
            # every N visit at r > 0 arrived by looping and emitted r-1
            rev.append(PathStep("N", -1, r - 1))
            r -= 1
        else:  # pragma: no cover - defensive
            raise KernelError(f"unknown traceback state {state!r}")
    rev.append(PathStep("N", -1, -1))  # the initial, non-emitting N

    path = tuple(reversed(rev))
    return ViterbiAlignment(
        score=score, path=path, domains=_split_domains(list(path))
    )
