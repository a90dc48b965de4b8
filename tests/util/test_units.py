"""Tests for unit conversion helpers."""

import pytest

from repro.util.units import PACKET_SIZE_BYTES, PACKET_SIZE_KBITS, bytes_to_kbits


class TestUnits:
    def test_packet_size_consistency(self):
        assert PACKET_SIZE_KBITS == pytest.approx(PACKET_SIZE_BYTES * 8 / 1000)

    def test_bytes_to_kbits(self):
        # One 1500-byte packet is 12 Kbit.
        assert bytes_to_kbits(PACKET_SIZE_BYTES) == pytest.approx(12.0)
