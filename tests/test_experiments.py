"""Tests for the campaign engine (spec, cache, scheduler, store, CLI).

The contract under test: campaigns are *bit-identical* to a plain serial
``Processor(config).run(trace)`` loop for any jobs/cache combination, cache
hits run zero simulations, changed inputs miss, and interrupted campaigns
resume.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments import (
    CampaignSpec,
    Job,
    ResultCache,
    ResultStore,
    collect_results,
    job_key,
    plan_campaign,
    run_campaign,
)
from repro.api import simulate, sweep
from repro.harness.runner import BenchmarkResult, ExperimentScale
from repro.isa.trace import communication_stats
from repro.pipeline.config import MachineConfig
from repro.pipeline.processor import Processor
from repro.traces import resolve_source

TINY = ExperimentScale("tiny", num_instructions=2_500, warmup=1_000)
BENCHMARKS = ["gzip", "applu"]


def tiny_configs() -> list[MachineConfig]:
    return [MachineConfig.conventional(), MachineConfig.nosq()]


def tiny_spec(**overrides) -> CampaignSpec:
    fields = dict(
        benchmarks=BENCHMARKS, configs=tiny_configs(), scale=TINY,
        seeds=(17,),
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


@pytest.fixture
def run_counter(monkeypatch):
    """Count (and optionally sabotage) Processor.run invocations."""
    calls = []
    original = Processor.run

    def counted(self, trace, warmup=0):
        calls.append(self.config.name)
        return original(self, trace, warmup=warmup)

    monkeypatch.setattr(Processor, "run", counted)
    return calls


def serial_reference() -> dict[str, BenchmarkResult]:
    """The serial reference every campaign must match bit for bit: one
    trace per benchmark, one ``Processor.run`` per config."""
    reference = {}
    for name in BENCHMARKS:
        trace = resolve_source(name).trace(TINY, 17)
        result = BenchmarkResult(
            name=name, scale=TINY, trace_stats=communication_stats(trace)
        )
        for config in tiny_configs():
            result.runs[config.name] = Processor(config).run(
                trace, warmup=TINY.warmup
            )
        reference[name] = result
    return reference


class TestJobKey:
    def job(self, **overrides) -> Job:
        fields = dict(
            benchmark="gzip", config=MachineConfig.nosq(), scale=TINY,
            seed=17,
        )
        fields.update(overrides)
        return Job(**fields)

    def test_stable(self):
        assert job_key(self.job()) == job_key(self.job())

    def test_seed_changes_key(self):
        assert job_key(self.job()) != job_key(self.job(seed=18))

    def test_benchmark_changes_key(self):
        assert job_key(self.job()) != job_key(self.job(benchmark="mcf"))

    def test_any_config_field_changes_key(self):
        deep = MachineConfig.nosq(
            predictor=replace(
                MachineConfig.nosq().bypass_predictor, history_bits=10
            )
        )
        assert job_key(self.job()) != job_key(self.job(config=deep))
        shallow = replace(MachineConfig.nosq(), tssbf_entries=64)
        assert job_key(self.job()) != job_key(self.job(config=shallow))

    def test_scale_numbers_not_label(self):
        renamed = ExperimentScale("other-name", 2_500, 1_000)
        assert job_key(self.job()) == job_key(self.job(scale=renamed))
        longer = ExperimentScale("tiny", 3_000, 1_000)
        assert job_key(self.job()) != job_key(self.job(scale=longer))


class TestParallelEqualsSerial:
    def test_two_workers_bit_identical(self, tmp_path):
        reference = serial_reference()
        result = run_campaign(
            tiny_spec(), jobs=2, cache=str(tmp_path / "cache")
        )
        suite = result.suite_results()
        for name in BENCHMARKS:
            assert suite[name].trace_stats == reference[name].trace_stats
            assert suite[name].runs == reference[name].runs

    def test_inline_equals_pool(self, tmp_path):
        inline = run_campaign(tiny_spec(), jobs=1).suite_results()
        pooled = run_campaign(tiny_spec(), jobs=2).suite_results()
        assert {n: r.runs for n, r in inline.items()} == {
            n: r.runs for n, r in pooled.items()
        }

    def test_run_suite_matches_cached_rerun(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = sweep(tiny_configs(), BENCHMARKS, TINY, cache=cache).results()
        second = sweep(tiny_configs(), BENCHMARKS, TINY, cache=cache).results()
        assert {n: r.runs for n, r in first.items()} == {
            n: r.runs for n, r in second.items()
        }
        assert cache.hits == len(BENCHMARKS) * len(tiny_configs())


class TestCache:
    def test_second_run_is_pure_cache(self, tmp_path, run_counter):
        cache = ResultCache(tmp_path / "cache")
        first = run_campaign(tiny_spec(), cache=cache)
        assert first.executed == 4 and first.hits == 0
        assert len(run_counter) == 4

        run_counter.clear()
        second = run_campaign(tiny_spec(), cache=cache)
        assert second.executed == 0 and second.hits == 4
        assert run_counter == []   # zero Processor.run calls
        assert {n: r.runs for n, r in second.suite_results().items()} == {
            n: r.runs for n, r in first.suite_results().items()
        }

    def test_changed_seed_misses(self, tmp_path, run_counter):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(tiny_spec(), cache=cache)
        run_counter.clear()
        rerun = run_campaign(tiny_spec(seeds=(18,)), cache=cache)
        assert rerun.hits == 0 and len(run_counter) == 4

    def test_changed_config_misses(self, tmp_path, run_counter):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(tiny_spec(), cache=cache)
        run_counter.clear()
        tweaked = [
            MachineConfig.conventional(),
            replace(MachineConfig.nosq(), drain_penalty=32),
        ]
        rerun = run_campaign(tiny_spec(configs=tweaked), cache=cache)
        # The untouched config hits; the tweaked one re-runs.
        assert rerun.hits == 2 and rerun.executed == 2
        assert run_counter == ["nosq-delay", "nosq-delay"]

    def test_force_reexecutes_but_refreshes(self, tmp_path, run_counter):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(tiny_spec(), cache=cache)
        run_counter.clear()
        forced = run_campaign(tiny_spec(), cache=cache, force=True)
        assert forced.executed == 4 and len(run_counter) == 4

    def test_corrupt_entry_is_a_miss(self, tmp_path, run_counter):
        cache = ResultCache(tmp_path / "cache")
        run_campaign(tiny_spec(), cache=cache)
        victim = next(iter(tiny_spec().jobs()))
        cache.path(job_key(victim)).write_text("{not json")
        run_counter.clear()
        rerun = run_campaign(tiny_spec(), cache=cache)
        assert rerun.hits == 3 and rerun.executed == 1


class TestResume:
    def test_interrupted_campaign_resumes_from_cache(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        calls = []
        original = Processor.run

        def bombed(self, trace, warmup=0):
            if len(calls) == 3:
                raise KeyboardInterrupt("simulated interruption")
            calls.append(self.config.name)
            return original(self, trace, warmup=warmup)

        monkeypatch.setattr(Processor, "run", bombed)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(tiny_spec(), cache=cache)
        assert len(calls) == 3   # three jobs completed and were cached

        monkeypatch.setattr(Processor, "run", original)
        resumed = run_campaign(tiny_spec(), cache=cache)
        assert resumed.hits == 3 and resumed.executed == 1

        reference = serial_reference()
        suite = resumed.suite_results()
        for name in BENCHMARKS:
            assert suite[name].runs == reference[name].runs


class TestStore:
    def test_jsonl_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        run_campaign(tiny_spec(), store=store)
        records = store.load()
        assert len(records) == 4
        results = collect_results(records)
        assert set(results) == set(BENCHMARKS)
        reference = serial_reference()
        for name in BENCHMARKS:
            assert results[name].runs == reference[name].runs

    def test_bad_lines_skipped_and_newest_wins(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        run_campaign(tiny_spec(), store=store)
        with store.path.open("a") as handle:
            handle.write("garbage line\n")
        run_campaign(tiny_spec(), store=store)   # duplicates every record
        records = store.load()
        assert len(records) == 8
        assert store.skipped == 1
        results = collect_results(records)
        assert set(results) == set(BENCHMARKS)

    def test_multi_seed_requires_selection(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        run_campaign(tiny_spec(seeds=(17, 18)), store=store)
        records = store.load()
        with pytest.raises(ValueError, match="seed"):
            collect_results(records)
        per_seed = collect_results(records, seed=18)
        assert set(per_seed) == set(BENCHMARKS)

    def test_mixed_scales_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        run_campaign(tiny_spec(), store=store)
        other = ExperimentScale("tiny2", num_instructions=3_000, warmup=1_000)
        run_campaign(tiny_spec(scale=other), store=store)
        with pytest.raises(ValueError, match="scales"):
            collect_results(store.load())


class TestPlan:
    def test_groups_share_one_trace_per_benchmark(self):
        hits, groups = plan_campaign(tiny_spec(), cache=None)
        assert hits == []
        assert sorted(g.benchmark for g in groups) == sorted(BENCHMARKS)
        for group in groups:
            assert len(group.configs) == 2

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown benchmarks"):
            tiny_spec(benchmarks=["quake3"])

    def test_rejects_duplicate_config_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            tiny_spec(configs=[MachineConfig.nosq(), MachineConfig.nosq()])

    def test_rejects_duplicate_benchmarks_and_seeds(self):
        with pytest.raises(ValueError, match="duplicate benchmarks"):
            tiny_spec(benchmarks=["gzip", "gzip"])
        with pytest.raises(ValueError, match="duplicate seeds"):
            tiny_spec(seeds=(17, 17))

    def test_rejects_all_warmup_scale(self):
        with pytest.raises(ValueError, match="warmup"):
            drained = ExperimentScale("bad", num_instructions=1_000,
                                      warmup=1_000)
            tiny_spec(scale=drained)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(tiny_spec(), jobs=0)


class TestCampaignCli:
    @pytest.fixture(autouse=True)
    def in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    def run_args(self, *extra):
        # The figure4 set (sq-storesets + nosq-delay) keeps this fast: 4 jobs.
        return [
            "campaign", "run", "gzip", "applu", "-n", "2500", "-w", "1000",
            "--jobs", "2", "--configs", "figure4", *extra,
        ]

    def test_run_then_cached_rerun(self, capsys):
        assert main(self.run_args()) == 0
        out = capsys.readouterr().out
        assert "0 cached, 4 executed" in out

        assert main(self.run_args()) == 0
        out = capsys.readouterr().out
        assert "4 cached, 0 executed" in out

    def test_status_and_report(self, capsys):
        assert main(self.run_args("--quiet")) == 0
        capsys.readouterr()

        assert main([
            "campaign", "status", "gzip", "applu", "-n", "2500", "-w", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "4/10 jobs cached" in out   # 5 standard configs per benchmark

        assert main(["campaign", "report"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "gzip" in out

    def test_report_notes_skipped_lines(self, capsys, tmp_path):
        assert main(self.run_args("--quiet")) == 0
        capsys.readouterr()
        assert main(["campaign", "report"]) == 0
        clean = capsys.readouterr()
        assert clean.err == ""

        path = "results/campaign.jsonl"
        with open(path, "a") as handle:
            handle.write('{"benchmark": "gzip", "trunc\n')
        assert main(["campaign", "report"]) == 0
        noted = capsys.readouterr()
        assert noted.out == clean.out
        assert noted.err == (
            f"note: skipped 1 unreadable line(s) in {path}\n"
        )

    def test_report_without_store(self, capsys):
        assert main(["campaign", "report"]) == 1

    def test_rejects_unknown_benchmark(self, capsys):
        assert main(["campaign", "run", "quake3"]) == 2
        assert "unknown benchmarks" in capsys.readouterr().err

    def test_rejects_unbuildable_config(self, capsys):
        assert main(["campaign", "run", "gzip", "-n", "2000",
                     "--configs", "nosq?hierarchy.l1_assoc=0"]) == 2
        err = capsys.readouterr().err
        assert "L1D size (65536) must be a positive" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_rejects_zero_jobs(self, capsys):
        assert main(["campaign", "run", "gzip", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_rejects_warmup_without_instructions(self, capsys):
        assert main(["campaign", "run", "gzip", "-w", "500"]) == 2
        assert "--instructions" in capsys.readouterr().err

    def test_report_missing_seed_errors(self, capsys):
        assert main(self.run_args("--quiet")) == 0
        capsys.readouterr()
        assert main(["campaign", "report", "--seed", "99"]) == 1
        assert "no records for seed 99" in capsys.readouterr().err

    def test_report_mixed_config_sets(self, capsys):
        # standard (5 configs) for gzip, figure4 (2 configs) for mcf, in
        # one store: each renderer covers only the benchmarks that
        # support it.
        assert main([
            "campaign", "run", "gzip", "-n", "2500", "-w", "1000",
            "--quiet",
        ]) == 0
        assert main([
            "campaign", "run", "mcf", "-n", "2500", "-w", "1000",
            "--configs", "figure4", "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "report"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "mcf" not in out.split("Figure 4")[0]
        figure4_section = out.split("Figure 4")[1]
        assert "gzip" in figure4_section and "mcf" in figure4_section

    def test_report_uses_newest_scale(self, capsys):
        assert main(self.run_args("--quiet")) == 0
        assert main([
            "campaign", "run", "gzip", "applu", "-n", "3000",
            "--configs", "figure4", "--jobs", "1", "--quiet",
        ]) == 0
        capsys.readouterr()
        assert main(["campaign", "report"]) == 0
        out = capsys.readouterr().out
        assert "reporting the newest scale (3000 instructions" in out


class TestCodec:
    def test_config_roundtrip(self):
        from repro.experiments.codec import config_from_dict, config_to_dict

        for config in [
            MachineConfig.conventional(),
            MachineConfig.conventional(perfect_scheduling=True),
            MachineConfig.nosq(),
            MachineConfig.nosq(window=256, perfect=True),
        ]:
            assert config_from_dict(config_to_dict(config)) == config

    def test_config_roundtrip_survives_json(self):
        from repro.experiments.codec import config_from_dict, config_to_dict

        config = MachineConfig.nosq(delay=False)
        rebuilt = config_from_dict(
            json.loads(json.dumps(config_to_dict(config)))
        )
        assert rebuilt == config


class TestDeterminism:
    def test_run_benchmark_reuses_supplied_trace(self):
        trace = resolve_source("gzip").trace(TINY, 17)
        for config in tiny_configs():
            direct = simulate(config, trace, TINY)
            regenerated = simulate(config, "gzip", TINY, seed=17)
            assert direct.stats == regenerated.stats

    def test_seed_flows_through_campaign(self):
        a = run_campaign(tiny_spec(seeds=(3,))).records
        b = run_campaign(tiny_spec(seeds=(3,))).records
        assert [r["run_stats"] for r in a] == [r["run_stats"] for r in b]
        c = run_campaign(tiny_spec(seeds=(4,))).records
        assert [r["run_stats"] for r in a] != [r["run_stats"] for r in c]
