"""Device registry tests, including Table III cross-checks.

The derived peak rates must reproduce the paper's published Table III
numbers, which validates that SM counts, core counts and clocks were
entered as a consistent set rather than transcribed.
"""

import pytest

from repro.errors import UnknownDeviceError
from repro.gpusim.arch import Generation
from repro.gpusim.device import (
    PAPER_DEVICES,
    DeviceSpec,
    get_device,
    list_devices,
    register_device,
)


class TestRegistry:
    def test_paper_devices_present(self):
        names = list_devices()
        for name in ("gtx580", "gtx680", "c2070", "c2050", "gtx285"):
            assert name in names

    def test_alias_lookup(self):
        assert get_device("GeForce GTX580") is get_device("gtx580")
        assert get_device("Tesla C2070") is get_device("c2070")

    def test_case_and_separator_insensitive(self):
        assert get_device("GTX-580") is get_device("gtx580")
        assert get_device("gtx_680") is get_device("gtx680")

    def test_unknown_device(self):
        with pytest.raises(UnknownDeviceError):
            get_device("gtx9000")

    def test_register_device_roundtrip(self):
        spec = DeviceSpec(
            name="testdev",
            generation=Generation.FERMI,
            sm_count=1,
            cores_per_sm=32,
            shader_clock_mhz=1000.0,
            dp_ratio=0.5,
            pin_bandwidth_gbs=100.0,
            measured_bandwidth_gbs=80.0,
            registers_per_sm=32768,
            smem_per_sm=49152,
            max_threads_per_sm=1536,
            max_warps_per_sm=48,
            max_blocks_per_sm=8,
            max_threads_per_block=1024,
            dram_latency_cycles=600,
            l2_bytes=1,
        )
        assert register_device(spec) is spec
        assert get_device("testdev") is spec


class TestTable3:
    """Table III of the paper."""

    def test_gtx580_peaks(self):
        dev = get_device("gtx580")
        assert dev.peak_sp_gflops == pytest.approx(1581, rel=0.01)
        assert dev.peak_dp_gflops == pytest.approx(198, rel=0.01)
        assert dev.pin_bandwidth_gbs == pytest.approx(192.4)

    def test_gtx680_peaks(self):
        dev = get_device("gtx680")
        assert dev.peak_sp_gflops == pytest.approx(3090, rel=0.01)
        assert dev.peak_dp_gflops == pytest.approx(129, rel=0.01)

    def test_c2070_peaks(self):
        dev = get_device("c2070")
        assert dev.peak_sp_gflops == pytest.approx(1030, rel=0.01)
        assert dev.peak_dp_gflops == pytest.approx(515, rel=0.01)
        assert dev.pin_bandwidth_gbs == pytest.approx(144.0)

    def test_measured_bandwidths_section_iv_a(self):
        """Section IV-A: 161 / 150 / 117.5 GB/s measured."""
        assert get_device("gtx580").measured_bandwidth_gbs == 161.0
        assert get_device("gtx680").measured_bandwidth_gbs == 150.0
        assert get_device("c2070").measured_bandwidth_gbs == 117.5

    def test_measured_is_75_to_85_percent_of_pin(self):
        """Section IV-A: achieved bandwidth typically 75-85% of pin."""
        for dev in PAPER_DEVICES:
            ratio = dev.measured_bandwidth_gbs / dev.pin_bandwidth_gbs
            assert 0.75 <= ratio <= 0.86

    def test_core_counts(self):
        assert get_device("gtx580").cuda_cores == 512
        assert get_device("gtx680").cuda_cores == 1536
        assert get_device("c2070").cuda_cores == 448

    def test_sm_counts(self):
        assert get_device("gtx580").sm_count == 16
        assert get_device("gtx680").sm_count == 8
        assert get_device("c2070").sm_count == 14


class TestDerived:
    def test_bandwidth_per_sm_per_cycle(self, gtx580):
        expected = 161e9 / 16 / (1544e6)
        assert gtx580.bandwidth_per_sm_bytes_per_cycle == pytest.approx(expected)

    def test_c2050_matches_c2070_for_timing(self):
        """Section V-B: C2050 = C2070 except DRAM capacity."""
        a, b = get_device("c2050"), get_device("c2070")
        assert a.sm_count == b.sm_count
        assert a.measured_bandwidth_gbs == b.measured_bandwidth_gbs
        assert a.shader_clock_mhz == b.shader_clock_mhz
