"""Tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from checks import Checker, combined_digest, output_digests  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from suite import (  # noqa: E402
    WORKLOADS, CampaignSmoke, Op, ReplaySQ, ValidateFuzz,
)
from tracing import Phase, Tracer, wrapped_attributes  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        base.rmdir()
    except OSError:
        pass


def _fuzz_ops(count: int = 3):
    """A few small simulations with their RunStats."""
    from repro.api import resolve_configs
    from repro.pipeline.processor import Processor
    from repro.validate.fuzz import generate_ops, ops_to_trace

    ops = []
    for index in range(count):
        trace = ops_to_trace(generate_ops(index, 60))
        for config in resolve_configs("nosq,conventional"):
            stats = Processor(config).run(trace, warmup=0)
            ops.append(Op(f"{index}/{config.name}", stats))
    return ops


# -- metric names and the contract file ---------------------------------- #

def test_metric_names_are_well_formed_and_unique():
    names = [name for name, _u, _b in END_TO_END + PER_LAYER]
    names += [w["name"] for w in CONTRACT["workloads"]]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(names) == len(set(names))
    for _name, unit, better in END_TO_END + PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
        assert better in ("lower", "higher")


def test_contract_lists_the_metrics_the_benchmark_prints():
    assert [
        (m["name"], m["unit"], m["better"]) for m in CONTRACT["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]
    ] == list(PER_LAYER)
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


# -- output checks ------------------------------------------------------- #

def test_matching_outputs_pass_every_kind_of_reference():
    ops = _fuzz_ops()
    digests = output_digests(ops, {})
    for reference in ({"ops": digests},
                      {"combined": combined_digest(digests)}, None):
        checker = Checker(reference)
        checker.check(ops)
        assert (checker.attempted, checker.failed) == (len(ops), 0)
        assert checker.clean


def test_a_perturbed_counter_fails_its_op():
    ops = _fuzz_ops()
    reference = {"ops": output_digests(ops, {})}
    bad = copy.deepcopy(ops)
    bad[1].stats.reexecuted_loads += 1
    checker = Checker(reference)
    checker.check(bad)
    assert checker.failed == 1
    assert checker.failed / checker.attempted > 0
    assert not checker.clean

    # Against a combined digest every op of the batch fails.
    checker = Checker({"combined": combined_digest(output_digests(ops, {}))})
    checker.check(bad)
    assert checker.failed == len(ops)


def test_a_differing_output_or_structural_problem_fails():
    ops = _fuzz_ops(1)
    checker = Checker({"ops": output_digests(ops, {"report": "abc"})})
    checker.check(ops, outputs={"report": "abd"})
    assert checker.failed == len(ops)

    broken = copy.deepcopy(ops)
    broken[0].problems.append("raised")
    checker = Checker(None)
    checker.check(broken)
    assert checker.failed == 1


# -- tracing ------------------------------------------------------------- #

def _originals():
    return {
        (id(owner), attr): vars(owner)[attr]
        for owner, attr, _name in tracing._targets()
    }


def test_traced_run_attributes_every_second_and_restores_wrappers():
    from repro import validate
    from repro.api import resolve_configs

    before = _originals()
    tracer = Tracer()
    phase = Phase()
    configs = resolve_configs("nosq,conventional")
    # Called through the module, as the workloads do, so the module-level
    # wrapper applies.
    with tracer.installed(), tracer.recording(phase):
        result = validate.run_fuzz(configs, budget=3, seed=5, length=60)
    assert result.ok
    assert wrapped_attributes() == []
    assert _originals() == before
    # Self times plus the unattributed remainder add up to the wall time.
    total = sum(s.self_s for s in phase.spans.values())
    assert total + phase.unattributed_s() == pytest.approx(phase.wall_s)
    assert 0 <= phase.unattributed_s() < phase.wall_s
    assert phase.spans["pipeline.run"].calls == 6
    assert phase.spans["validate.run_fuzz"].calls == 1
    assert phase.sim["instructions"] == 6 * 60
    metrics = layer_metrics(Phase(), phase, phase.wall_s, {})
    assert list(metrics) == [name for name, _u, _b in PER_LAYER]
    assert metrics["traces.load_s"] == 0
    assert metrics["validate.oracle_s"] > 0


def test_untraced_calls_bypass_a_wrapper_with_no_phase():
    from repro.api import resolve_configs
    from repro.validate import run_fuzz

    tracer = Tracer()
    with tracer.installed():
        run_fuzz(resolve_configs("nosq"), budget=1, seed=1, length=30)
    assert tracer.phase is None
    assert wrapped_attributes() == []


# -- seeds --------------------------------------------------------------- #

def test_seed_changes_replay_traces(workdir):
    expected = []
    for seed in (1, 2):
        workload = ReplaySQ(seed, workdir / str(seed))
        workdir.joinpath(str(seed)).mkdir()
        workload.setup()
        expected.append(workload.expected)
    differ = [b for b in expected[0] if expected[0][b] != expected[1][b]]
    # zoo.overlap is a fixed pattern that ignores its seed by design.
    assert len(differ) >= 3


def test_seed_changes_fuzz_traces():
    from repro.validate.fuzz import generate_ops

    first, second = ValidateFuzz(1, Path()), ValidateFuzz(2, Path())
    for workload in (first, second):
        workload.setup()
    assert generate_ops(first.start) != generate_ops(second.start)
    # Consecutive seeds fuzz disjoint trace ranges.
    assert first.start + 600 <= second.start


def test_seed_changes_campaign_results(workdir):
    digests = []
    for seed in (1, 2):
        workload = CampaignSmoke(seed, workdir)
        workload.setup()
        workload.benchmarks = ["gzip"]
        tracer = Tracer()
        with tracer.recording(Phase()):
            result = workload.run_pass(tracer, inline=True)
        assert not result.problems
        digests.append(output_digests(result.ops, {}))
    assert digests[0] != digests[1]


# -- run.py -------------------------------------------------------------- #

def test_run_fails_without_the_repository_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-sq",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
