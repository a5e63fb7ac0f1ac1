"""The shared packed-residue stream helper."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.residue_stream import PackedResidueStream
from repro.sequence.database import PaddedBatch
from repro.sequence import DigitalSequence, SequenceDatabase, random_sequence_codes


@pytest.fixture
def db(rng):
    seqs = [
        DigitalSequence(f"s{i}", random_sequence_codes(L, rng))
        for i, L in enumerate((1, 5, 6, 7, 12, 40))
    ]
    return SequenceDatabase(seqs)


class TestStream:
    def test_decode_matches_codes(self, db):
        batch = db.padded_batch()
        stream = PackedResidueStream(batch, db)
        for i in range(batch.max_len):
            active = batch.lengths > i
            codes = stream.codes_at(i, active)
            expected = np.where(active, batch.codes[:, i], 0)
            assert np.array_equal(codes, expected)

    def test_from_batch_without_database(self, db):
        batch = db.padded_batch()
        a = PackedResidueStream(batch, db)
        b = PackedResidueStream(batch, None)
        assert np.array_equal(a.words, b.words)

    def test_padding_words_are_all_terminators(self, db):
        batch = db.padded_batch()
        stream = PackedResidueStream(batch, db)
        # the shortest sequence (length 1) has one real word; the rest of
        # its row must be the all-ones fill
        row = stream.words[0]
        assert (row[1:] == 0xFFFFFFFF).all()

    def test_terminator_mismatch_detected(self, db):
        """If the caller's length bookkeeping disagrees with the packed
        stream, the decode refuses rather than returning garbage - with
        a KernelError, which ``python -O`` cannot strip like an assert."""
        batch = db.padded_batch()
        stream = PackedResidueStream(batch, db)
        wrong_active = np.ones(len(db), dtype=bool)  # claims all still live
        with pytest.raises(KernelError, match="terminators disagree"):
            stream.codes_at(batch.max_len - 1, wrong_active)


class TestWholeStreamDecode:
    def test_decoded_batch_matches_codes(self, db):
        batch = db.padded_batch()
        decoded = PackedResidueStream(batch, db).decoded()
        assert np.array_equal(decoded.lengths, batch.lengths)
        live = batch.lengths[:, None] > np.arange(batch.max_len)
        assert np.array_equal(decoded.codes[live], batch.codes[live])

    def test_decoded_rows_match_row_decode(self, db):
        batch = db.padded_batch()
        stream = PackedResidueStream(batch, db)
        decoded = stream.decoded()
        for i in range(batch.max_len):
            assert np.array_equal(decoded.codes[:, i],
                                  stream.codes_at(i, batch.lengths > i))

    def test_zero_length_lane_decodes_to_no_rows(self, db):
        batch = db.padded_batch()
        codes = np.vstack([batch.codes, np.full(batch.max_len, 31, np.uint8)])
        lengths = np.append(batch.lengths, 0)
        decoded = PackedResidueStream(PaddedBatch(codes, lengths)).decoded()
        assert decoded.lengths[-1] == 0
        assert np.array_equal(decoded.codes[:-1], PackedResidueStream(
            batch).decoded().codes)
