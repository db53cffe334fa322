"""Command-line interface."""

import pytest

from repro.cli import (
    _replica_serve_argv,
    _serve_config,
    _serve_keys,
    build_parser,
    main,
)


class TestCli:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "mobilenet_v2" in out and "resnet50" in out

    def test_summary(self, capsys):
        assert main(["summary", "mobilenet_v3_small", "--resolution", "64"]) == 0
        out = capsys.readouterr().out
        assert "MACs" in out and "bneck0" in out

    def test_summary_with_variant(self, capsys):
        assert main([
            "summary", "mobilenet_v1", "--resolution", "64", "--variant", "half",
        ]) == 0
        assert "FuSeConv1D" in capsys.readouterr().out

    def test_latency_all_variants(self, capsys):
        assert main([
            "latency", "mobilenet_v3_small", "--resolution", "96", "--array", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "FuSe-Half" in out and "speedup" in out

    def test_latency_dataflow_option(self, capsys):
        assert main([
            "latency", "mobilenet_v3_small", "--resolution", "96",
            "--array", "16", "--dataflow", "ws", "--variant", "half",
        ]) == 0
        assert "ws" in capsys.readouterr().out

    def test_ria_single(self, capsys):
        assert main(["ria", "matmul"]) == 0
        assert "RIA" in capsys.readouterr().out

    def test_ria_all(self, capsys):
        assert main(["ria"]) == 0
        out = capsys.readouterr().out
        assert "conv2d_direct" in out and "NOT an RIA" in out

    def test_ria_unknown(self, capsys):
        assert main(["ria", "winograd"]) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_overhead(self, capsys):
        assert main(["overhead", "--size", "16"]) == 0
        assert "area overhead" in capsys.readouterr().out

    def test_nos(self, capsys):
        assert main([
            "nos", "mobilenet_v3_small", "--resolution", "96",
            "--budget", "400000",
        ]) == 0
        out = capsys.readouterr().out
        assert "whole-network speedup" in out

    def test_unknown_model_is_reported(self, capsys):
        assert main(["summary", "lenet"]) == 2
        assert "error" in capsys.readouterr().err

    def test_summary_dot_output(self, capsys, tmp_path):
        path = tmp_path / "net.dot"
        assert main([
            "summary", "mobilenet_v3_small", "--resolution", "64",
            "--dot", str(path),
        ]) == 0
        assert path.read_text().startswith("digraph")

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "mobilenet_v3_large" in out and "FuSe-Half" in out

    def test_timeline(self, capsys):
        assert main([
            "timeline", "mobilenet_v3_small", "--resolution", "96",
            "--array", "32", "--variant", "half", "--top", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "%" in out

    def test_traffic(self, capsys):
        assert main([
            "traffic", "mobilenet_v3_small", "--resolution", "96", "--array", "32",
        ]) == 0
        out = capsys.readouterr().out
        assert "SRAM reads" in out and "read amplification" in out

    def test_buffers(self, capsys):
        assert main([
            "buffers", "mobilenet_v3_small", "--resolution", "96", "--array", "32",
        ]) == 0
        assert "KiB" in capsys.readouterr().out

    def test_energy_with_variant(self, capsys):
        assert main([
            "energy", "mobilenet_v3_small", "--resolution", "96",
            "--array", "32", "--variant", "half",
        ]) == 0
        out = capsys.readouterr().out
        assert "uJ / inference" in out

    def test_pipelined_flag(self, capsys):
        assert main([
            "latency", "mobilenet_v3_small", "--resolution", "96",
            "--array", "32", "--pipelined", "--variant", "half",
        ]) == 0
        assert "pipelined" in capsys.readouterr().out


class TestCompileStats:
    @pytest.mark.parametrize("flags, mode", [
        ([], "compiled folded plan"),
        (["--exact"], "compiled exact (bit-identical) plan"),
        (["--int8"], "compiled int8 (quantized) plan"),
        (["--sparsity", "0.75"], "compiled sparse (folded, target 75%, γ=8)"),
        (["--sparsity", "0.75", "--int8"],
         "compiled sparse (int8 (quantized), target 75%, γ=8)"),
    ])
    def test_mode_line(self, capsys, flags, mode):
        assert main(["compile-stats", "mobilenet_v3_small", *flags]) == 0
        out = capsys.readouterr().out
        assert mode in out and "arena" in out

    def test_int8_passes_report_calibration(self, capsys):
        assert main(["compile-stats", "mobilenet_v3_small", "--int8",
                     "--passes"]) == 0
        out = capsys.readouterr().out
        assert "quantize_int8" in out
        assert "calibration_images=16" in out

    @pytest.mark.parametrize("flags", [
        ["--exact", "--int8"],
        ["--exact", "--sparsity", "0.5"],
    ])
    def test_exact_excludes_other_presets(self, capsys, flags):
        assert main(["compile-stats", "mobilenet_v3_small", *flags]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestServeDefaults:
    def test_cli_defaults_are_serve_config_defaults(self):
        from dataclasses import replace

        from repro.serve import ServeConfig

        args = build_parser().parse_args(["serve"])
        # The CLI always names its array; ServeConfig leaves it to default.
        assert replace(_serve_config(args, []), array=None) == ServeConfig()


class TestFleetReplicaArgv:
    """A process replica's ``repro serve`` argv rebuilds the fleet's config."""

    @staticmethod
    def _config(argv):
        args = build_parser().parse_args(argv)
        return args, _serve_config(args, _serve_keys(args))

    @pytest.mark.parametrize("flags", [
        [],
        ["mobilenet_v1:half", "--resolution", "32", "--seed", "3",
         "--engine", "analytical", "--workers", "3", "--max-batch", "4",
         "--max-queue", "16", "--slo-ms", "250", "--batch-timeout-ms", "1.5",
         "--array", "32", "--dataflow", "ws", "--pipelined",
         "--datawidth", "8", "--jobs", "2", "--cache-dir", "memo",
         "--no-telemetry", "--snapshot-interval", "0.25", "--int8",
         "--no-compile", "--no-bitexact", "--no-resilience",
         "--plan-cache-cap", "5", "--sparsity", "0.5", "--pack-gamma", "4"],
    ], ids=["defaults", "every-knob"])
    def test_replica_config_equals_fleet_config(self, flags):
        args, config = self._config(["fleet", *flags])
        _, replica = self._config(["serve", *_replica_serve_argv(args)])
        assert replica == config

    def test_metrics_port_and_warmup_stay_per_replica(self):
        args, _ = self._config(["fleet", "--metrics-port", "9100",
                                "--require-warmup"])
        argv = _replica_serve_argv(args)
        assert "--metrics-port" not in argv
        assert "--require-warmup" not in argv
