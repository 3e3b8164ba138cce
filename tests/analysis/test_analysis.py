"""Tests for the analytic sector model, sweep machinery and report rendering."""

import pytest

from repro.analysis.overhead import (LayoutSweep, SweepConfig,
                                     overhead_percent, quick_sweep_config,
                                     PAPER_LAYOUTS)
from repro.analysis.report import (ascii_table, format_bandwidth_table,
                                   format_overhead_table, to_csv)
from repro.analysis.sectors import SectorAccessModel, theoretical_overhead_table
from repro.errors import ConfigurationError
from repro.util import KIB, MIB
from repro.workload.spec import PAPER_IO_SIZES


class TestSectorModel:
    def test_paper_quoted_data_points(self):
        model = SectorAccessModel()
        assert model.baseline_sectors(4 * KIB) == 1
        assert model.object_end_sectors(4 * KIB) == 2
        assert model.baseline_sectors(32 * KIB) == 8
        assert model.object_end_sectors(32 * KIB) == 9

    def test_overhead_decreases_with_io_size(self):
        model = SectorAccessModel()
        overheads = [model.overhead_percent("object-end", size)
                     for size in PAPER_IO_SIZES]
        assert overheads[0] == 100.0
        assert all(a >= b for a, b in zip(overheads, overheads[1:]))
        assert overheads[-1] < 1.0

    def test_unaligned_never_better_than_object_end(self):
        model = SectorAccessModel()
        for size in PAPER_IO_SIZES:
            assert model.unaligned_sectors(size) >= model.object_end_sectors(size)

    def test_omap_uses_keys_not_extra_sectors(self):
        model = SectorAccessModel()
        assert model.omap_sectors(64 * KIB) == model.baseline_sectors(64 * KIB)
        assert model.omap_keys(64 * KIB) == 16
        assert model.omap_keys(4 * MIB) == 1024

    def test_space_overhead(self):
        model = SectorAccessModel()
        assert model.space_overhead_percent("object-end") == pytest.approx(0.390625)
        assert model.space_overhead_percent("luks-baseline") == 0.0

    def test_dispatch_and_validation(self):
        model = SectorAccessModel()
        assert model.sectors("luks-baseline", 4 * KIB) == 1
        with pytest.raises(ConfigurationError):
            model.sectors("bogus", 4 * KIB)
        with pytest.raises(ConfigurationError):
            model.blocks_for_io(0)
        with pytest.raises(ConfigurationError):
            SectorAccessModel(object_size=5000)

    def test_512_byte_blocks(self):
        model = SectorAccessModel(block_size=512)
        assert model.omap_keys(4 * KIB) == 8
        assert model.space_overhead_percent("object-end") == pytest.approx(3.125)

    def test_table_rows(self):
        rows = theoretical_overhead_table((4 * KIB, 32 * KIB))
        assert len(rows) == 2
        assert rows[0]["object_end_overhead_pct"] == 100.0
        assert rows[1]["baseline_sectors"] == 8


class TestSweepConfig:
    def test_io_count_bounds(self):
        config = SweepConfig(bytes_per_point=8 * MIB, min_ios=8, max_ios=128)
        assert config.io_count_for(4 * KIB) == 128
        assert config.io_count_for(4 * MIB) == 8
        assert config.io_count_for(256 * KIB) == 32

    def test_paper_layouts(self):
        assert PAPER_LAYOUTS == ("luks-baseline", "unaligned", "object-end",
                                 "omap")

    def test_quick_config_smaller(self):
        quick = quick_sweep_config()
        assert quick.image_size < SweepConfig().image_size


class TestSweepAndReports:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        config = SweepConfig(io_sizes=(16 * KIB,),
                             layouts=("luks-baseline", "object-end"),
                             image_size=16 * MIB, bytes_per_point=512 * KIB,
                             max_ios=32)
        return LayoutSweep(config).run("write")

    def test_sweep_structure(self, small_sweep):
        assert small_sweep.kind == "write"
        assert small_sweep.layouts() == ["luks-baseline", "object-end"]
        assert small_sweep.io_sizes() == [16 * KIB]
        assert small_sweep.bandwidth("luks-baseline", 16 * KIB) > 0

    def test_overhead_percent(self, small_sweep):
        overhead = overhead_percent(small_sweep, "object-end", 16 * KIB)
        assert 0.0 <= overhead < 60.0
        series = small_sweep.overhead_series("object-end")
        assert series[0][0] == 16 * KIB

    def test_clone_sweep_on_an_ec_pool(self):
        """The clone fan-out must open its golden image in the sweep's pool
        (it looked in "rbd": ``ImageNotFoundError``)."""
        config = SweepConfig(io_sizes=(16 * KIB,), layouts=("object-end",),
                             image_size=4 * MIB, bytes_per_point=256 * KIB,
                             clone_of="golden", clone_depth=1,
                             pool_ec=(4, 2), osd_count=8)
        sweep = LayoutSweep(config).run("write")
        assert sweep.bandwidth("object-end", 16 * KIB) > 0

    def test_invalid_sweep_kind(self):
        with pytest.raises(ConfigurationError):
            LayoutSweep(quick_sweep_config()).run("bogus")

    def test_bandwidth_table_rendering(self, small_sweep):
        text = format_bandwidth_table(small_sweep)
        assert "Fig. 3b" in text
        assert "16.0KiB" in text
        assert "luks-baseline" in text

    def test_overhead_table_rendering(self, small_sweep):
        text = format_overhead_table(small_sweep)
        assert "object-end %" in text
        assert "luks-baseline %" not in text

    def test_csv_rendering(self, small_sweep):
        csv = to_csv(small_sweep)
        lines = csv.splitlines()
        assert lines[0] == "io_size,layout,bandwidth_mbps,iops,p50_us,p95_us,p99_us"
        assert len(lines) == 1 + 2

    def test_ascii_table_alignment(self):
        table = ascii_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1
