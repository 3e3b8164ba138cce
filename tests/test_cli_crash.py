"""CLI coverage for the crash subcommand and pwl cache mode."""

import pytest

from repro.cli import main
from repro.faults import ALL_STAGES


class TestCrashCommand:
    def test_single_stage_exits_zero_and_prints_seed(self, capsys):
        assert main(["crash", "--fault-stage", "post-ack-pre-drain",
                     "--fault-seed", "12345", "--io-count", "12"]) == 0
        out = capsys.readouterr().out
        assert "FAULT_SEED=12345" in out
        assert "rerun: repro crash --fault-seed 12345" in out
        assert "post-ack-pre-drain" in out
        assert "recovered prefix-consistently" in out

    def test_all_stages(self, capsys):
        assert main(["crash", "--fault-seed", "7", "--io-count", "8"]) == 0
        out = capsys.readouterr().out
        for stage in ALL_STAGES:
            assert stage in out

    def test_seed_falls_back_to_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("FAULT_SEED", "424242")
        assert main(["crash", "--fault-stage", "mid-drain",
                     "--io-count", "8"]) == 0
        assert "FAULT_SEED=424242" in capsys.readouterr().out

    def test_random_seed_is_printed_for_rerun(self, capsys, monkeypatch):
        monkeypatch.delenv("FAULT_SEED", raising=False)
        assert main(["crash", "--fault-stage", "pre-log-append",
                     "--io-count", "8"]) == 0
        assert "FAULT_SEED=" in capsys.readouterr().out

    def test_unknown_stage_rejected(self):
        with pytest.raises(SystemExit):
            main(["crash", "--fault-stage", "no-such-stage"])

    def test_io_count_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["crash", "--fault-stage", "mid-drain", "--io-count", "0"])


class TestSweepPwlMode:
    def test_sweep_cache_mode_pwl_prints_pwl_table(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--image-size", "8M", "--bytes-per-point", "512K",
                     "--cache-mode", "pwl", "--cache-size", "1M"]) == 0
        out = capsys.readouterr().out
        assert "Persistent write log" in out
        assert "appends" in out

    def test_sweep_pwl_events_mode(self, capsys):
        assert main(["sweep", "--kind", "write", "--sizes", "16K",
                     "--image-size", "8M", "--bytes-per-point", "512K",
                     "--cache-mode", "pwl", "--cache-size", "1M",
                     "--sim-mode", "events"]) == 0
        out = capsys.readouterr().out
        assert "Persistent write log" in out

    def test_sweep_pwl_rejects_readahead(self):
        with pytest.raises(SystemExit, match="readahead does not apply"):
            main(["sweep", "--sizes", "16K", "--cache-mode", "pwl",
                  "--readahead", "4"])
