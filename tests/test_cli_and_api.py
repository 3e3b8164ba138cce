"""Tests for the command-line interface and the high-level api module."""

import pytest

from repro import api
from repro.analysis import overhead
from repro.cli import build_parser, main
from repro.errors import ConfigurationError, ImageExistsError
from repro.util import (MIB, ceil_div, constant_time_compare, contiguous_runs,
                        covers_block, format_size, hexdump, is_power_of_two,
                        parse_size, round_down, round_up, split_block_pieces,
                        split_range, xor_bytes)

#: sweep flag combinations that must be refused before anything runs
BAD_SWEEPS = {
    "pwl-readahead": ["--cache-mode", "pwl", "--readahead", "4"],
    "queue-depth-0": ["--queue-depth", "0"],
    "writeback-size-0": ["--cache-mode", "writeback", "--cache-size", "0"],
    "batch-size-unbatched": ["--batch-size", "8"],
    "num-clients-0": ["--num-clients", "0"],
    "cache-size-no-mode": ["--cache-size", "8M"],
    "clone-depth-negative": ["--clone-depth", "-1"],
    "clone-of-depth-0": ["--clone-of", "g", "--clone-depth", "0"],
    "flatten-no-clone": ["--flatten"],
    "ec-too-wide": ["--pool-ec", "4,2", "--osds", "3"],
    "ec-malformed": ["--pool-ec", "4"],
    "arrival-rate-negative": ["--arrival-rate", "-5"],
}

#: malformed arguments that surface as a ReproError once the command runs
BAD_ARGUMENTS = {
    "sweep-sizes": ["sweep", "--sizes", "4Q"],
    "sweep-image-size": ["sweep", "--image-size", "3X"],
    "sweep-layouts": ["sweep", "--sizes", "16K", "--layouts", "bogus"],
    "fleet-io-size": ["fleet", "--io-size", "4Q"],
    "fleet-layout": ["fleet", "--layout", "bogus"],
    "sectors-sizes": ["sectors", "--sizes", "1Q"],
    "sectors-block-size": ["sectors", "--block-size", "0"],
    "demo-layout": ["demo", "--layout", "bogus"],
    "failure-drill-image-size": ["failure-drill", "--image-size", "1Z",
                                 "--fault-seed", "1"],
    "failure-drill-ec-stage": ["failure-drill", "--pool-ec", "4,2",
                               "--fault-stage", "kill-primary-mid-txn",
                               "--fault-seed", "1"],
}


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sectors_command(self, capsys):
        assert main(["sectors", "--sizes", "4K,32K"]) == 0
        out = capsys.readouterr().out
        assert "4.0KiB" in out and "32.0KiB" in out
        assert "+100.0%" in out

    def test_demo_command(self, capsys):
        assert main(["demo", "--layout", "omap"]) == 0
        out = capsys.readouterr().out
        assert "layout=omap" in out
        assert "crypto.blocks" in out

    def test_profile_flag_prints_hotspots(self, capsys):
        assert main(["--profile", "sectors", "--sizes", "4K"]) == 0
        out = capsys.readouterr().out
        assert "profile (top 20 by cumulative time):" in out
        assert "cumtime" in out
        # The profiled command's own output still appears.
        assert "4.0KiB" in out

    def test_sweep_command_small(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--layouts", "luks-baseline,object-end",
                     "--image-size", "16M", "--bytes-per-point", "512K",
                     "--csv"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3b" in out
        assert "object-end" in out
        assert "io_size,layout,bandwidth_mbps,iops,p50_us,p95_us,p99_us" in out
        assert "latency percentiles (analytic model)" in out

    def test_sweep_sim_mode_events(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--layouts", "object-end", "--image-size", "16M",
                     "--bytes-per-point", "512K", "--sim-mode", "events",
                     "--csv"]) == 0
        out = capsys.readouterr().out
        assert "latency percentiles (events model)" in out
        # percentile columns are populated (non-zero) in the CSV
        data_line = [line for line in out.splitlines()
                     if line.startswith("16384,object-end")][0]
        p50, p95, p99 = (float(v) for v in data_line.split(",")[-3:])
        assert 0 < p50 <= p95 <= p99

    def test_sweep_sim_mode_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--sim-mode", "bogus"])

    def test_sweep_num_clients_events(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--layouts", "object-end", "--image-size", "16M",
                     "--bytes-per-point", "256K", "--queue-depth", "4",
                     "--sim-mode", "events", "--num-clients", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3b" in out
        assert "p99 us" in out

    def test_sweep_num_clients_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--sizes", "16K", "--num-clients", "0"])

    def test_sweep_batched_with_batch_size(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--layouts", "object-end", "--image-size", "16M",
                     "--bytes-per-point", "512K", "--batched",
                     "--batch-size", "8", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "object-end" in out
        assert "16384,object-end" in out

    def test_sweep_batch_size_requires_batched(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--sizes", "16K", "--batch-size", "8"])

    def test_sweep_batched_events_combination(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--layouts", "object-end", "--image-size", "16M",
                     "--bytes-per-point", "256K", "--batched",
                     "--sim-mode", "events"]) == 0
        out = capsys.readouterr().out
        assert "latency percentiles (events model)" in out

    def test_sweep_cache_writeback_prints_cache_table(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--layouts", "object-end", "--image-size", "16M",
                     "--bytes-per-point", "512K", "--cache-mode", "writeback",
                     "--cache-size", "16M"]) == 0
        out = capsys.readouterr().out
        assert "Client-side cache behaviour" in out
        assert "write hit%" in out

    def test_sweep_cache_readahead_writethrough(self, capsys):
        assert main(["sweep", "--kind", "read", "--sizes", "16K",
                     "--layouts", "object-end", "--image-size", "16M",
                     "--bytes-per-point", "512K", "--cache-mode",
                     "writethrough", "--readahead", "8",
                     "--cache-policy", "arc"]) == 0
        out = capsys.readouterr().out
        assert "Client-side cache behaviour" in out

    def test_sweep_cache_knobs_require_cache_mode(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--sizes", "16K", "--cache-size", "8M"])
        with pytest.raises(SystemExit):
            main(["sweep", "--sizes", "16K", "--readahead", "4"])

    def test_sweep_rejects_unknown_cache_mode(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--sizes", "16K", "--cache-mode", "writearound"])

    def test_uncached_sweep_prints_no_cache_table(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--layouts", "object-end", "--image-size", "16M",
                     "--bytes-per-point", "256K"]) == 0
        assert "Client-side cache behaviour" not in capsys.readouterr().out

    def test_sweep_clone_of(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--layouts", "object-end", "--image-size", "4M",
                     "--bytes-per-point", "256K", "--queue-depth", "8",
                     "--clone-of", "golden"]) == 0
        assert "MiB/s" in capsys.readouterr().out

    def test_sweep_clone_of_on_an_ec_pool(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--layouts", "object-end", "--image-size", "4M",
                     "--bytes-per-point", "256K", "--clone-of", "golden",
                     "--pool-ec", "4,2", "--osds", "8"]) == 0
        assert "MiB/s" in capsys.readouterr().out

    def test_sweep_clone_depth_with_flatten(self, capsys):
        assert main(["sweep", "--kind", "read", "--sizes", "16K",
                     "--layouts", "object-end", "--image-size", "4M",
                     "--bytes-per-point", "256K", "--queue-depth", "8",
                     "--clone-depth", "2", "--flatten"]) == 0
        assert "MiB/s" in capsys.readouterr().out

    def test_sweep_flatten_requires_clone(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--sizes", "16K", "--flatten"])
        with pytest.raises(SystemExit):
            main(["sweep", "--sizes", "16K", "--clone-depth", "-1"])
        with pytest.raises(SystemExit):
            # --clone-depth 0 silently dropping --clone-of would hand the
            # user control-run numbers labelled as the clone scenario.
            main(["sweep", "--sizes", "16K", "--clone-of", "golden",
                  "--clone-depth", "0"])

    @pytest.mark.parametrize("flags", list(BAD_SWEEPS.values()),
                             ids=list(BAD_SWEEPS))
    def test_sweep_usage_errors_exit_before_any_cluster(self, flags,
                                                        monkeypatch):
        """Every rule is checked where the sweep is built, so a bad flag
        combination is one line on stderr, not a traceback after the first
        cluster and image exist."""
        def no_cluster(*args, **kwargs):
            raise AssertionError("a cluster was built for a bad sweep")

        monkeypatch.setattr(api, "make_cluster", no_cluster)
        monkeypatch.setattr(overhead, "make_cluster", no_cluster)
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--sizes", "16K", *flags])
        message = exit_info.value.code
        assert isinstance(message, str), message
        assert message.startswith("repro sweep: ") and "\n" not in message

    @pytest.mark.parametrize("argv", list(BAD_ARGUMENTS.values()),
                             ids=list(BAD_ARGUMENTS))
    def test_malformed_arguments_exit_with_one_line(self, argv):
        """Each of these ended in a traceback.  A ``SystemExit`` carrying a
        string exits with status 1 and prints that line alone."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        message = exit_info.value.code
        assert isinstance(message, str), message
        assert message.startswith(f"repro {argv[0]}: "), message
        assert "\n" not in message and "Traceback" not in message


class TestApiHelpers:
    def test_make_cluster_shapes(self):
        cluster = api.make_cluster(osd_count=5, replica_count=2)
        assert len(cluster.osds) == 5
        assert cluster.get_pool("rbd").replica_count == 2

    def test_create_encrypted_image_accepts_size_strings(self, cluster):
        image, info = api.create_encrypted_image(
            cluster, "str-size", "8M", b"pw", object_size="1M",
            cipher_suite="blake2-xts-sim")
        assert image.size == 8 * MIB
        assert image.object_size == 1 * MIB
        assert info.layout == "object-end"
        with pytest.raises(ConfigurationError, match="'X'"):
            api.create_encrypted_image(cluster, "bad-size", "3X", b"pw")

    def test_create_plain_image(self, cluster):
        image = api.create_plain_image(cluster, "plain", 8 * MIB)
        image.write(0, b"plaintext")
        assert image.read(0, 9) == b"plaintext"

    def test_duplicate_image_rejected(self, cluster):
        api.create_plain_image(cluster, "dup", 8 * MIB)
        with pytest.raises(ImageExistsError):
            api.create_plain_image(cluster, "dup", 8 * MIB)

    def test_create_encrypted_image_with_cache(self, cluster):
        from repro.cache import CacheConfig, CachedImage
        image, _info = api.create_encrypted_image(
            cluster, "cached-vol", "8M", b"pw",
            cipher_suite="blake2-xts-sim", cache="writeback")
        assert isinstance(image, CachedImage)
        image.write(0, b"via the cache")
        assert image.read(0, 13) == b"via the cache"
        image.flush()
        reopened, _ = api.open_encrypted_image(
            cluster, "cached-vol", b"pw",
            cache=CacheConfig(mode="writethrough", size="2M"))
        assert isinstance(reopened, CachedImage)
        assert reopened.read(0, 13) == b"via the cache"

    def test_clone_and_open_layered(self, cluster):
        parent, _ = api.create_encrypted_image(
            cluster, "api-golden", "4M", b"parent-pw", object_size="1M",
            cipher_suite="blake2-xts-sim", random_seed=b"g")
        parent.write(0, b"golden data")
        parent.create_snapshot("v1")
        child, info = api.clone_encrypted_image(
            cluster, "api-golden", "v1", "api-child", passphrase=b"child-pw",
            parent_passphrase=b"parent-pw", random_seed=b"c")
        assert child.clone_depth == 1
        assert info.layout == "object-end"
        assert child.read(0, 11) == b"golden data"
        child.write(0, b"CHILD")
        reopened, infos = api.open_layered_image(
            cluster, "api-child", [b"child-pw", b"parent-pw"])
        assert reopened.read(0, 11) == b"CHILD" + b"golden data"[5:]
        assert len(infos) == 2

    def test_clone_with_cache_mode(self, cluster):
        from repro.cache import CachedImage
        parent, _ = api.create_encrypted_image(
            cluster, "cg", "2M", b"p", object_size="1M",
            cipher_suite="blake2-xts-sim", random_seed=b"g")
        parent.create_snapshot("v1")
        child, _info = api.clone_encrypted_image(
            cluster, "cg", "v1", "cg-child", passphrase=b"c",
            parent_passphrase=b"p", random_seed=b"c", cache="writethrough")
        assert isinstance(child, CachedImage)
        child.write(0, b"x")
        assert child.read(0, 1) == b"x"

    def test_make_pipeline_with_cache(self, cluster):
        image, _info = api.create_encrypted_image(
            cluster, "piped-vol", "8M", b"pw", cipher_suite="blake2-xts-sim")
        pipeline = api.make_pipeline(image, queue_depth=4, cache="writeback")
        from repro.cache import CachedImage
        assert isinstance(pipeline.image, CachedImage)
        for i in range(8):
            pipeline.write(i * 4096, bytes([i]) * 4096)
        pipeline.drain()
        pipeline.image.flush()
        assert image.read(4096, 4096) == b"\x01" * 4096


class TestUtil:
    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\x0f") == b"\xf0\xff"
        with pytest.raises(ValueError):
            xor_bytes(b"\x00", b"\x00\x00")

    def test_rounding_helpers(self):
        assert ceil_div(10, 4) == 3
        assert round_up(10, 4) == 12
        assert round_down(10, 4) == 8
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_power_of_two(self):
        assert is_power_of_two(4096)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)

    def test_split_range(self):
        pieces = split_range(4090, 20, 4096)
        assert pieces == [(0, 4090, 6), (1, 0, 14)]
        with pytest.raises(ValueError):
            split_range(-1, 10, 4096)

    def test_contiguous_runs(self):
        assert contiguous_runs([]) == []
        assert contiguous_runs([7]) == [(7, 1)]
        assert contiguous_runs([0, 1, 2, 5, 7, 8]) == [(0, 3), (5, 1), (7, 2)]

    def test_split_block_pieces(self):
        first, second = memoryview(bytes(range(20))), memoryview(b"xy")
        pieces = split_block_pieces([(14, first), (3, second)], 8)
        # blocks in first-touch order, pieces in arrival order, no copies
        assert list(pieces) == [1, 2, 3, 4, 0]
        assert [(start, bytes(view)) for start, view in pieces[1]] \
            == [(6, bytes([0, 1]))]
        assert [(start, bytes(view)) for start, view in pieces[2]] \
            == [(0, bytes(range(2, 10)))]
        assert [(start, bytes(view)) for start, view in pieces[4]] \
            == [(0, bytes([18, 19]))]
        assert pieces[0][0][0] == 3 and pieces[0][0][1].obj is second.obj
        both = split_block_pieces([(0, first[:4]), (2, second)], 8)
        assert [(start, bytes(view)) for start, view in both[0]] \
            == [(0, bytes(range(4))), (2, b"xy")]

    def test_covers_block(self):
        block = memoryview(bytes(8))
        assert covers_block([(0, block)], 8)
        assert not covers_block([(0, block[:7])], 8)
        assert not covers_block([(1, block[:7])], 8)
        # the union counts, in any arrival order, overlaps included
        assert covers_block([(4, block[:4]), (0, block[:5])], 8)
        assert not covers_block([(0, block[:3]), (4, block[:4])], 8)
        assert not covers_block([], 8)

    def test_parse_and_format_size(self):
        assert parse_size("4K") == 4096
        assert parse_size("2MiB") == 2 * MIB
        assert parse_size("512") == 512
        for bad in ("12Q", "", "1.2.3K"):
            with pytest.raises(ConfigurationError):
                parse_size(bad)
        assert format_size(4096) == "4.0KiB"
        assert format_size(10) == "10B"

    def test_hexdump_and_constant_time(self):
        dump = hexdump(b"hello world!!!!!" * 2)
        assert "hello world" in dump
        assert constant_time_compare(b"abc", b"abc")
        assert not constant_time_compare(b"abc", b"abd")
        assert not constant_time_compare(b"abc", b"ab")
