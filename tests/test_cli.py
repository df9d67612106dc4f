"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_benchmark(self, capsys):
        # Not a benchmark, not a config spec: a runtime error (with a
        # suggestion), no longer an argparse choices SystemExit.
        assert main(["run", "quake3"]) == 2
        assert "neither a benchmark id nor a config spec" in \
            capsys.readouterr().err

    def test_scale_defaults(self):
        args = build_parser().parse_args(["run", "gzip"])
        assert args.instructions is None
        assert args.warmup is None
        assert args.scale is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gzip" in out and "mesa.o" in out
        assert out.count("\n") > 47

    def test_run(self, capsys):
        assert main(["run", "applu", "-n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "sq-storesets" in out
        assert "nosq-delay" in out
        assert "mispred/10k" in out

    def test_compare(self, capsys):
        # `repro run <configs> <benchmarks>` is the NoSQ-vs-SQ comparison.
        assert main(["run", "conventional", "nosq", "applu", "adpcm.d",
                     "-n", "3000"]) == 0
        out = capsys.readouterr().out
        assert "adpcm.d" in out and "applu" in out
        assert "sq-storesets" in out and "nosq-delay" in out

    def _campaign_report(self, tmp_path, *configs):
        store = str(tmp_path / "store.jsonl")
        assert main(["campaign", "run", "applu", "-n", "3000", "--quiet",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--store", store, *configs]) == 0
        assert main(["campaign", "report", "--store", store]) == 0

    def test_table5_subset(self, capsys, tmp_path):
        self._campaign_report(tmp_path, "--configs", "table5")
        out = capsys.readouterr().out
        assert "applu" in out and "comm%" in out

    def test_figure2_subset(self, capsys, tmp_path):
        self._campaign_report(tmp_path)
        out = capsys.readouterr().out
        assert "nosq-delay (rel)" in out

    def test_program(self, capsys):
        assert main(["program", "memcpy"]) == 0
        out = capsys.readouterr().out
        assert "byte-wise copy" in out

    def test_program_unknown(self, capsys):
        assert main(["program", "doom"]) == 1
        assert "unknown program" in capsys.readouterr().err

    def test_explicit_warmup(self, capsys):
        assert main(["run", "applu", "-n", "3000", "-w", "1000"]) == 0
        assert "(1000 warmup" in capsys.readouterr().out

    def test_run_config_spec(self, capsys):
        assert main([
            "run", "nosq?backend.rob_size=256", "applu", "-n", "3000",
        ]) == 0
        out = capsys.readouterr().out
        assert "nosq-delay?rob_size=256" in out
        assert "sq-perfect" not in out     # explicit configs, no default set

    def test_run_accepts_sets_and_globs(self, capsys):
        assert main(["run", "table5", "applu", "-n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "nosq-nodelay" in out and "nosq-delay" in out
        assert main(["run", "nosq*", "applu", "-n", "2000"]) == 0
        assert "nosq-perfect" in capsys.readouterr().out

    def test_run_named_scale(self, capsys):
        assert main(["run", "nosq", "applu", "--scale", "smoke"]) == 0
        assert "8000 instructions (3000 warmup" in capsys.readouterr().out

    def test_run_bad_override_suggests(self, capsys):
        assert main(["run", "nosq?rob_sz=64", "applu", "-n", "2000"]) == 2
        assert "did you mean 'rob_size'" in capsys.readouterr().err

    def test_run_out_of_range_size_exits_2(self, capsys):
        # A window size (check_window) and a structure geometry (the BTB
        # constructor's own rule) fail the same way.
        for spec, fragment in [
            ("nosq?backend.rob_size=0", "rob_size must be at least 1"),
            ("nosq?btb_assoc=0", "BTB entries (2048) must be a positive"),
        ]:
            assert main(["run", spec, "gzip", "-n", "2000"]) == 2
            err = capsys.readouterr().err
            assert fragment in err
            assert "Traceback" not in err
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("length", ["0", "-5"])
    def test_run_nonpositive_length_exits_2(self, capsys, length):
        assert main(["run", "gzip", "-n", length]) == 2
        err = capsys.readouterr().err
        assert "nothing would be measured" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_run_trace_file_clamps_default_warmup(self, capsys, tmp_path):
        # File sources keep their intrinsic length; the default warmup
        # (15000) must not swallow a short recorded trace.
        from repro.isa.tracefile import save_trace
        from repro.workloads import generate_trace

        path = tmp_path / "short.bt"
        save_trace(generate_trace("gzip", 2_000, seed=17), path)
        assert main(["run", f"trace:{path}"]) == 0
        out = capsys.readouterr().out
        assert "(1000 warmup" in out

    def test_run_corrupt_trace_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.bt"
        bad.write_text("not a trace")
        assert main(["run", f"trace:{bad}", "-n", "2000"]) == 2
        assert "not a repro trace file" in capsys.readouterr().err

    def test_run_source_id_gets_registry_suggestions(self, capsys):
        # source:-shaped ids can never be config specs; the trace
        # registry's message (with its suggestions) must survive.
        assert main(["run", "source:pchse", "gzip", "-n", "2000"]) == 2
        err = capsys.readouterr().err
        assert "no registered trace source 'pchse'" in err
        assert "config" not in err

    def test_run_duplicate_config_names_collapse(self, capsys):
        # nosq-delay is an alias of nosq: one row, simulated once.
        assert main(["run", "nosq", "nosq-delay", "applu",
                     "-n", "2000"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if line.strip().startswith("nosq-delay")]
        assert len(rows) == 1

    def test_run_requires_benchmark(self, capsys):
        assert main(["run", "nosq", "-n", "2000"]) == 2
        assert "no benchmark among the arguments" in \
            capsys.readouterr().err

    def test_list_shows_presets_and_components(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "conventional-perfect" in out
        assert "nosq-nodelay" in out
        assert "config set" in out


class TestValidateCLI:
    def test_run_clean(self, capsys):
        assert main(["validate", "run", "nosq", "zoo.pchase",
                     "-n", "2000"]) == 0
        out = capsys.readouterr().out
        assert "nosq-delay" in out and "all invariants hold" in out

    def test_run_defaults_to_standard_set(self, capsys):
        assert main(["validate", "run", "zoo.pchase", "-n", "1500"]) == 0
        out = capsys.readouterr().out
        for name in ("sq-perfect", "sq-storesets", "nosq-nodelay",
                     "nosq-delay", "nosq-perfect"):
            assert name in out

    def test_run_requires_benchmark(self, capsys):
        assert main(["validate", "run", "nosq"]) == 2
        assert "no benchmark among the arguments" in \
            capsys.readouterr().err

    def test_run_corrupt_trace_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.bt"
        bad.write_text("not a trace")
        assert main(["validate", "run", "nosq", f"trace:{bad}"]) == 2
        assert "not a repro trace file" in capsys.readouterr().err

    def test_run_missing_trace_exits_2(self, capsys, tmp_path):
        assert main(["validate", "run", "nosq",
                     f"trace:{tmp_path}/nope.bt"]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_fuzz_clean(self, capsys):
        assert main(["validate", "fuzz", "--budget", "5", "--seed", "0",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "5 adversarial traces" in out
        assert "no invariant violations" in out

    def test_fuzz_bad_budget_exits_2(self, capsys):
        assert main(["validate", "fuzz", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_fuzz_bad_length_exits_2(self, capsys):
        # length 0 would vacuously fuzz empty traces and report success.
        assert main(["validate", "fuzz", "--budget", "5",
                     "--length", "0"]) == 2
        assert "--length" in capsys.readouterr().err

    def test_fuzz_bad_config_exits_2(self, capsys):
        assert main(["validate", "fuzz", "--configs", "nosqq"]) == 2
        assert "nosq" in capsys.readouterr().err

    def test_shrink_corrupt_trace_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.bt"
        bad.write_text("garbage")
        assert main(["validate", "shrink", str(bad),
                     "--config", "nosq"]) == 2
        assert "not a repro trace file" in capsys.readouterr().err

    def test_shrink_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["validate", "shrink", f"{tmp_path}/nope.bt"]) == 2
        err = capsys.readouterr().err
        assert "nope.bt" in err

    def test_shrink_malformed_sidecar_exits_2(self, capsys, tmp_path):
        # A *corrupt* sidecar must be reported as such, not silently
        # treated as a bare trace.
        import shutil

        shutil.copy("tests/data/repro_svw_miss.bt", tmp_path / "c.bt")
        (tmp_path / "c.bt.json").write_text("{truncated")
        assert main(["validate", "shrink", str(tmp_path / "c.bt"),
                     "--config", "nosq"]) == 2
        assert "malformed sidecar" in capsys.readouterr().err

    def test_shrink_bare_trace_needs_config(self, capsys, tmp_path):
        from repro.isa.tracefile import save_trace
        from repro.workloads import generate_trace

        path = tmp_path / "bare.bt"
        save_trace(generate_trace("gzip", 500, seed=17), path, version=2)
        assert main(["validate", "shrink", str(path)]) == 2
        assert "pass --config" in capsys.readouterr().err

    def test_shrink_unwritable_output_exits_2(self, capsys, tmp_path, monkeypatch):
        # A real failing case (the committed fixture under a mutated
        # simulator) whose minimal repro cannot be written: the diagnosis
        # must still be printed, with a one-line exit-2 error.
        from repro.pipeline.processor import Processor

        monkeypatch.setattr(
            Processor, "_load_value_ok", lambda self, entry: True
        )
        trace_file = tmp_path / "plain.txt"
        trace_file.write_text("in the way")
        assert main([
            "validate", "shrink", "tests/data/repro_svw_miss.bt",
            "-o", str(trace_file / "nested" / "x.bt"),  # file as a dir
        ]) == 2
        err = capsys.readouterr().err
        assert "svw-completeness" in err
        assert "cannot write" in err

    def test_shrink_clean_case_exits_1(self, capsys):
        # The committed fixture replays clean on the real simulator.
        assert main(["validate", "shrink",
                     "tests/data/repro_svw_miss.bt"]) == 1
        assert "nothing to shrink" in capsys.readouterr().out

    def test_list_shows_invariants(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "svw-completeness" in out
        assert "forwarding-correctness" in out

