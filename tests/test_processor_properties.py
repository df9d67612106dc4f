"""Property-based tests of the timing model.

The central safety property: *no silent wrong commit*.  The processor
internally raises :class:`SimulationError` if the SVW filter ever exempts a
load with a stale/wrong value from re-execution, so simply running randomized
traces to completion -- with tiny filter/predictor structures to maximize
aliasing and eviction stress -- proves the verification logic sound over the
explored space.

The traces come from the differential fuzzer's Hypothesis strategies
(:func:`repro.validate.fuzz.ops_strategy`): the same adversarial
distribution -- misaligned sub-word collisions, predictor-training
bursts, SVW-window-straddling reuse -- that ``repro validate fuzz``
draws from its seeded RNG.  The ``ci`` profile (tests/conftest.py)
derandomizes example generation, so CI explores a fixed corpus.

The differential properties go further than "runs to completion": every
explored trace is also cross-checked invariant-by-invariant against the
in-order oracle (:mod:`repro.validate`).
"""

import dataclasses

from hypothesis import given, settings

from repro.core.bypass_predictor import BypassPredictorConfig
from repro.pipeline import MachineConfig, Processor
from repro.validate import ops_strategy, ops_to_trace, run_diff

OPS = ops_strategy(min_size=1, max_size=120)
SMALL_OPS = ops_strategy(min_size=1, max_size=80)


def stressed(config: MachineConfig) -> MachineConfig:
    """Shrink verification structures to maximize aliasing stress."""
    return dataclasses.replace(
        config,
        tssbf_entries=8,
        tssbf_assoc=2,
        bypass_predictor=BypassPredictorConfig(entries_per_table=16, assoc=2),
    )


class TestNoSilentWrongCommit:
    """Running to completion implies every stale value was caught."""

    @given(OPS)
    @settings(max_examples=80, deadline=None)
    def test_nosq_with_delay(self, ops):
        trace = ops_to_trace(ops)
        stats = Processor(stressed(MachineConfig.nosq(delay=True))).run(trace)
        assert stats.instructions == len(trace)

    @given(OPS)
    @settings(max_examples=80, deadline=None)
    def test_nosq_without_delay(self, ops):
        trace = ops_to_trace(ops)
        stats = Processor(stressed(MachineConfig.nosq(delay=False))).run(trace)
        assert stats.instructions == len(trace)

    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_conventional(self, ops):
        trace = ops_to_trace(ops)
        stats = Processor(stressed(MachineConfig.conventional())).run(trace)
        assert stats.instructions == len(trace)

    @given(ops_strategy(min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_tiny_ssn_space_with_drains(self, ops):
        config = stressed(MachineConfig.nosq())
        config = dataclasses.replace(config, ssn_bits=4)
        trace = ops_to_trace(ops)
        stats = Processor(config).run(trace)
        assert stats.instructions == len(trace)


class TestDifferentialProperties:
    """Every explored trace holds every oracle invariant, not just
    "no internal assertion fired"."""

    @given(SMALL_OPS)
    @settings(max_examples=30, deadline=None)
    def test_nosq_diffs_clean(self, ops):
        report = run_diff(MachineConfig.nosq(), ops_to_trace(ops))
        assert report.ok, report.describe()

    @given(SMALL_OPS)
    @settings(max_examples=25, deadline=None)
    def test_stressed_nosq_diffs_clean(self, ops):
        report = run_diff(
            stressed(MachineConfig.nosq()), ops_to_trace(ops)
        )
        assert report.ok, report.describe()

    @given(SMALL_OPS)
    @settings(max_examples=25, deadline=None)
    def test_conventional_diffs_clean(self, ops):
        report = run_diff(MachineConfig.conventional(), ops_to_trace(ops))
        assert report.ok, report.describe()


class TestOracleConfigurations:
    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_perfect_smb_never_flushes(self, ops):
        trace = ops_to_trace(ops)
        stats = Processor(MachineConfig.nosq(perfect=True)).run(trace)
        assert stats.flushes == 0
        assert stats.instructions == len(trace)

    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_perfect_scheduling_never_flushes(self, ops):
        trace = ops_to_trace(ops)
        stats = Processor(
            MachineConfig.conventional(perfect_scheduling=True)
        ).run(trace)
        assert stats.flushes == 0
        assert stats.instructions == len(trace)


class TestInvariants:
    @given(ops_strategy(min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_load_classification_partitions(self, ops):
        trace = ops_to_trace(ops)
        stats = Processor(MachineConfig.nosq()).run(trace)
        assert (
            stats.bypassed_loads + stats.delayed_loads + stats.nonbypassed_loads
            == stats.loads
        )
        assert stats.bypass_identity + stats.bypass_injected == stats.bypassed_loads

    @given(ops_strategy(min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_composition_matches_trace(self, ops):
        trace = ops_to_trace(ops)
        stats = Processor(MachineConfig.nosq()).run(trace)
        assert stats.loads == sum(i.is_load for i in trace)
        assert stats.stores == sum(i.is_store for i in trace)
        assert stats.branches == sum(i.is_branch for i in trace)

    @given(SMALL_OPS)
    @settings(max_examples=30, deadline=None)
    def test_determinism(self, ops):
        trace = ops_to_trace(ops)
        first = Processor(MachineConfig.nosq()).run(trace)
        second = Processor(MachineConfig.nosq()).run(trace)
        assert first.cycles == second.cycles
        assert first.flushes == second.flushes
        assert first.bypassed_loads == second.bypassed_loads

    @given(SMALL_OPS)
    @settings(max_examples=30, deadline=None)
    def test_cycles_bounded(self, ops):
        """IPC cannot exceed the machine width; cycles stay finite."""
        trace = ops_to_trace(ops)
        stats = Processor(MachineConfig.nosq()).run(trace)
        assert stats.cycles >= len(trace) / 4
