"""``_pad_bits`` and ``pad_bits_batch`` against the original packer.

``_pad_bits`` packs a bit row into bytes in one ``np.packbits`` call,
which zero-fills the last byte's tail.  The reference below is the
original two-step packer (zero-pad to a byte boundary, then
``bytes_from_bits``), kept here so the rewrite is checked against it for
every length the protocols meet.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.mutual_auth import _pad_bits, pad_bits_batch
from repro.utils.bits import bytes_from_bits


def reference_pad_bits(bits) -> bytes:
    padded = np.concatenate([
        np.asarray(bits, dtype=np.uint8),
        np.zeros((-len(bits)) % 8, dtype=np.uint8),
    ])
    return bytes_from_bits(padded)


bit_rows = st.lists(st.integers(0, 1), min_size=0, max_size=130)


class TestPadBits:
    @settings(max_examples=300, deadline=None)
    @given(bit_rows)
    def test_matches_reference(self, bits):
        assert _pad_bits(bits) == reference_pad_bits(bits)
        assert _pad_bits(np.array(bits, dtype=np.uint8)) == \
            reference_pad_bits(bits)

    @pytest.mark.parametrize("length", range(0, 131))
    def test_every_length_zero_fills_the_tail(self, length):
        ones = np.ones(length, dtype=np.uint8)
        assert _pad_bits(ones) == reference_pad_bits(ones)
        assert len(_pad_bits(ones)) == (length + 7) // 8

    @settings(max_examples=100, deadline=None)
    @given(bit_rows.filter(bool), st.integers(2, 255), st.data())
    def test_value_above_one_raises(self, bits, value, data):
        position = data.draw(st.integers(0, len(bits) - 1))
        bits[position] = value
        with pytest.raises(ValueError):
            reference_pad_bits(bits)
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            _pad_bits(bits)


class TestPadBitsBatch:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(bit_rows, min_size=0, max_size=6))
    def test_rows_match_reference(self, rows):
        # Equal widths pack as one matrix, ragged ones row by row.
        assert pad_bits_batch(rows) == [reference_pad_bits(row) for row in rows]

    @pytest.mark.parametrize("widths", [(16, 16, 16), (16, 9, 32)])
    def test_value_above_one_raises(self, widths):
        rows = [np.zeros(width, dtype=np.uint8) for width in widths]
        rows[1][3] = 2
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            pad_bits_batch(rows)
