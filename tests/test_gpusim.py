"""Tests for the modelled GPU substrate: devices, memory model, schedule pricing."""

from __future__ import annotations

import pytest

from repro.core import build_schedule
from repro.errors import DeviceCapacityError
from repro.gpusim import (
    TABLE1_DEVICES,
    TimingModel,
    check_block_fits,
    get_device,
    max_degree_for_precision,
    shared_memory_needed,
)


class TestDeviceRegistry:
    def test_table1_presets(self):
        assert set(TABLE1_DEVICES) == {"C2050", "K20C", "P100", "V100", "RTX2080"}
        v100 = TABLE1_DEVICES["V100"]
        assert v100.multiprocessors == 80
        assert v100.cores_per_mp == 64
        assert v100.cores == 5120
        assert v100.clock_ghz == 1.91
        p100 = TABLE1_DEVICES["P100"]
        assert p100.cores == 3584
        c2050 = TABLE1_DEVICES["C2050"]
        assert c2050.cores == 448

    def test_peak_ratio_matches_paper(self):
        """The paper expects the V100 to be about 1.68x faster than the P100."""
        ratio = TABLE1_DEVICES["V100"].peak_double_gflops / TABLE1_DEVICES["P100"].peak_double_gflops
        assert ratio == pytest.approx(1.68, rel=0.03)

    def test_peak_values_close_to_datasheet(self):
        assert TABLE1_DEVICES["P100"].peak_double_gflops == pytest.approx(4700, rel=0.05)
        assert TABLE1_DEVICES["V100"].peak_double_gflops == pytest.approx(7900, rel=0.05)

    def test_lookup_aliases(self):
        assert get_device("v100").name == "Volta V100"
        assert get_device("Tesla C2050").name == "Tesla C2050"
        assert get_device("rtx 2080").name == "GeForce RTX 2080"
        assert get_device(None).name == "Volta V100"
        spec = TABLE1_DEVICES["P100"]
        assert get_device(spec) is spec

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            get_device("A100")
        with pytest.raises(TypeError):
            get_device(123)


class TestSharedMemoryModel:
    def test_bytes_needed(self):
        # 4 * (d+1) numbers of 8*limbs bytes.
        assert shared_memory_needed(152, 10) == 4 * 153 * 80
        assert shared_memory_needed(0, 1) == 32

    def test_paper_degree_ceilings(self):
        """Deca doubles top out at degree 152, octo doubles at 191 (Tables 5-7)."""
        assert max_degree_for_precision(10) == 152
        assert max_degree_for_precision(8) == 191
        assert max_degree_for_precision(5) >= 191
        assert max_degree_for_precision(4) >= 191

    def test_check_block_fits(self):
        check_block_fits(152, 10)
        with pytest.raises(DeviceCapacityError):
            check_block_fits(153, 10)
        with pytest.raises(DeviceCapacityError):
            check_block_fits(192, 8)


class TestSchedulePricing:
    def test_predict_without_execution(self):
        schedule = build_schedule(4, [(0, 1, 2, 3)] * 5, degree=8)
        report = TimingModel("V100", precision=4).predict(schedule)
        assert report.convolution_ms > 0
        assert report.wall_clock_ms > report.sum_ms

    def test_shared_memory_violation_raises(self):
        # Deca doubles fit up to degree 152 (Tables 5-7), so a degree-160
        # schedule cannot be priced at that precision.
        with pytest.raises(DeviceCapacityError):
            TimingModel("V100", precision=10).predict(
                build_schedule(2, [(0, 1)], degree=160)
            )
