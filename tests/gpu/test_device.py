"""Unit tests for device specifications."""

import dataclasses

import pytest

from repro.errors import LaunchError
from repro.gpu import FERMI_GTX580, KEPLER_K40


class TestPresets:
    def test_k40_headline_specs(self):
        assert KEPLER_K40.architecture == "kepler"
        assert KEPLER_K40.sm_count == 15
        assert KEPLER_K40.max_warps_per_sm == 64
        assert KEPLER_K40.registers_per_sm == 65536
        assert KEPLER_K40.has_warp_shuffle

    def test_gtx580_headline_specs(self):
        assert FERMI_GTX580.architecture == "fermi"
        assert FERMI_GTX580.sm_count == 16
        assert FERMI_GTX580.registers_per_sm == 32768  # paper Section IV.A
        assert not FERMI_GTX580.has_warp_shuffle

    def test_fermi_has_half_the_registers(self):
        """Paper: 'Fermi is equipped with 32KB of registers per SM as
        opposed to 64KB on the Kepler'."""
        assert FERMI_GTX580.registers_per_sm * 2 == KEPLER_K40.registers_per_sm

    def test_max_threads_per_sm(self):
        assert KEPLER_K40.max_threads_per_sm == 2048
        assert FERMI_GTX580.max_threads_per_sm == 1536

    def test_bytes_per_cycle(self):
        assert KEPLER_K40.peak_bytes_per_cycle == pytest.approx(288.0 / 0.745)


class TestValidation:
    def test_zero_sms_rejected(self):
        with pytest.raises(LaunchError):
            dataclasses.replace(KEPLER_K40, sm_count=0)

    def test_block_smem_cannot_exceed_sm(self):
        with pytest.raises(LaunchError):
            dataclasses.replace(
                KEPLER_K40, shared_mem_per_block=64 * 1024
            )

    def test_custom_device(self):
        dev = dataclasses.replace(KEPLER_K40, name="half-K40", sm_count=8)
        assert dev.sm_count == 8
        assert "half-K40" in repr(dev)
