"""Seeded corruption corpus + property-based fuzzing of every parser.

The contract under fuzz is *total error handling*: for any corrupted
input, strict mode either parses or raises a :class:`ReproError`
subclass (``FormatError``/``QuarantineError``) - never ``IndexError``,
``ValueError`` or a crash - and salvage mode additionally guarantees
that whatever it returns contains only well-formed surviving records,
with one quarantine entry per skipped record.

The corpus is generated from fixed seeds so failures replay exactly;
the hypothesis tests widen the same properties to arbitrary inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.hardening import SALVAGE, RecordQuarantine
from repro.hmm.hmmfile import dumps_hmm, loads_hmm
from repro.hmm.sampler import sample_hmm
from repro.sequence.fasta import parse_fasta_text
from repro.sequence.stockholm import parse_stockholm_text

pytestmark = pytest.mark.fuzz

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

FUZZ_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------- corpus

def _clean_fasta(rng: np.random.Generator, n: int = 8) -> str:
    alpha = "ACDEFGHIKLMNPQRSTVWY"
    out = []
    for i in range(n):
        length = int(rng.integers(5, 80))
        seq = "".join(alpha[j] for j in rng.integers(0, 20, size=length))
        out.append(f">rec{i} desc {i}\n{seq}\n")
    return "".join(out)


def _clean_stockholm(rng: np.random.Generator, n: int = 5) -> str:
    alpha = "ACDEFGHIKLMNPQRSTVWY-"
    width = int(rng.integers(10, 40))
    rows = "".join(
        f"seq{i} "
        + "".join(alpha[j] for j in rng.integers(0, 21, size=width))
        + "\n"
        for i in range(n)
    )
    return f"# STOCKHOLM 1.0\n#=GF ID fuzz\n{rows}//\n"


def _clean_hmm(rng: np.random.Generator) -> str:
    return dumps_hmm(sample_hmm(int(rng.integers(5, 30)), rng))


def truncate(text: str, rng: np.random.Generator) -> str:
    return text[: int(rng.integers(0, len(text)))]


def flip_bytes(text: str, rng: np.random.Generator, n: int = 4) -> str:
    data = bytearray(text.encode("ascii", "replace"))
    if not data:
        return text
    for pos in rng.integers(0, len(data), size=n):
        data[int(pos)] = int(rng.integers(32, 127))
    return data.decode("ascii", "replace")


def mix_line_endings(text: str, rng: np.random.Generator) -> str:
    lines = text.split("\n")
    endings = ["\n", "\r\n", "\r\n"]
    return "".join(
        line + endings[int(rng.integers(0, len(endings)))]
        for line in lines
    )


def duplicate_records(text: str, rng: np.random.Generator) -> str:
    lines = text.splitlines(keepends=True)
    if len(lines) < 2:
        return text
    start = int(rng.integers(0, len(lines) - 1))
    return text + "".join(lines[start : start + 2])


CORRUPTIONS = [truncate, flip_bytes, mix_line_endings, duplicate_records]


def _assert_total(parse, text: str) -> None:
    """Parsing never escapes the ReproError hierarchy."""
    try:
        parse(text)
    except ReproError:
        pass


class TestCorruptionCorpus:
    """Fixed-seed corpus: every (generator, corruption, seed) cell."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_fasta_strict_total(self, seed, corrupt):
        rng = np.random.default_rng(seed)
        _assert_total(parse_fasta_text, corrupt(_clean_fasta(rng), rng))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_fasta_salvage_survivors_are_clean(self, seed, corrupt):
        rng = np.random.default_rng(seed)
        text = corrupt(_clean_fasta(rng), rng)
        q = RecordQuarantine()
        try:
            db = parse_fasta_text(text, policy=SALVAGE, quarantine=q)
        except ReproError:
            return
        # survivors must re-digitize cleanly and carry unique names
        names = [s.name for s in db]
        assert len(names) == len(set(names))
        for s in db:
            assert len(s) > 0

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_stockholm_total(self, seed, corrupt):
        rng = np.random.default_rng(seed)
        text = corrupt(_clean_stockholm(rng), rng)
        _assert_total(parse_stockholm_text, text)
        q = RecordQuarantine()
        try:
            aln = parse_stockholm_text(text, policy=SALVAGE, quarantine=q)
        except ReproError:
            return
        widths = {len(r) for r in aln.rows}
        assert len(widths) <= 1  # salvage never returns a ragged alignment

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("corrupt", CORRUPTIONS)
    def test_hmm_total(self, seed, corrupt):
        rng = np.random.default_rng(seed)
        text = corrupt(_clean_hmm(rng), rng)
        _assert_total(loads_hmm, text)
        q = RecordQuarantine()
        try:
            hmm = loads_hmm(text, policy=SALVAGE, quarantine=q)
        except ReproError:
            return
        # salvage never half-parses: a model or a quarantine entry
        assert (hmm is not None) or len(q) == 1

    def test_salvage_accounts_for_every_drop(self):
        """survivors + quarantined == records seen, per corpus file."""
        rng = np.random.default_rng(99)
        text = _clean_fasta(rng, n=10)
        # corrupt exactly 2 records in place: bad residue + dup name
        text = text.replace(">rec3 desc 3", ">rec1 desc dup", 1)
        text = text.replace("\n", "\n1", 1)  # digit into rec0's residues
        q = RecordQuarantine()
        db = parse_fasta_text(text, policy=SALVAGE, quarantine=q)
        assert len(db) == 8
        assert len(q) == 2
        assert sorted(q.names()) == ["rec0", "rec1"]


class TestHypothesisFuzz:
    """Arbitrary inputs: the parsers are total functions over str."""

    @FUZZ_SETTINGS
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=2000))
    def test_fasta_never_crashes(self, text):
        _assert_total(parse_fasta_text, text)
        _assert_total(
            lambda t: parse_fasta_text(
                t, policy=SALVAGE, quarantine=RecordQuarantine()
            ),
            text,
        )

    @FUZZ_SETTINGS
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=2000))
    def test_stockholm_never_crashes(self, text):
        _assert_total(parse_stockholm_text, text)
        _assert_total(
            lambda t: parse_stockholm_text(
                t, policy=SALVAGE, quarantine=RecordQuarantine()
            ),
            text,
        )

    @FUZZ_SETTINGS
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=2000))
    def test_hmm_never_crashes(self, text):
        _assert_total(loads_hmm, text)
        _assert_total(
            lambda t: loads_hmm(
                t, policy=SALVAGE, quarantine=RecordQuarantine()
            ),
            text,
        )

    @FUZZ_SETTINGS
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=3),
    )
    def test_corrupted_hmm_roundtrip_is_total(self, seed, which):
        rng = np.random.default_rng(seed)
        text = CORRUPTIONS[which](_clean_hmm(rng), rng)
        _assert_total(loads_hmm, text)
