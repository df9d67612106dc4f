"""Tests for the `repro.api` façade.

Pins the PR's compatibility contract — the five standard presets resolved
through the registry are bit-identical (fields, names, campaign cache
keys) to the historical factories — and covers the override grammar,
serialization round trips, stable hashing, the component registry, and
the typed `simulate`/`sweep` entry points.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    ComponentError,
    ConfigSpecError,
    component_names,
    config_from_dict,
    config_from_json,
    config_from_toml,
    config_hash,
    config_set,
    config_to_dict,
    config_to_json,
    config_to_toml,
    list_components,
    list_config_sets,
    list_configs,
    register_bypass_predictor,
    register_config,
    register_memory_hierarchy,
    resolve_config,
    resolve_configs,
    resolve_scale,
    simulate,
    sweep,
    unregister_component,
    unregister_config,
)
from repro.api.configs import split_spec_list
from repro.core.bypass_predictor import BypassingPredictor
from repro.experiments.cache import job_key
from repro.experiments.spec import CampaignSpec, Job
from repro.harness.runner import SMOKE, ExperimentScale
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import MachineConfig, SchedulerKind
from repro.pipeline.processor import Processor
from repro.workloads import generate_trace

TINY = ExperimentScale("tiny", num_instructions=2_000, warmup=500)


# --------------------------------------------------------------------- #
# Preset identity: the registry reproduces the seed factories exactly.
# --------------------------------------------------------------------- #

FACTORY_PAIRS = [
    ("conventional", MachineConfig.conventional()),
    ("conventional-perfect",
     MachineConfig.conventional(perfect_scheduling=True)),
    ("conventional-smb", MachineConfig.conventional_smb()),
    ("nosq", MachineConfig.nosq()),
    ("nosq-nodelay", MachineConfig.nosq(delay=False)),
    ("nosq-perfect", MachineConfig.nosq(perfect=True)),
    ("conventional@256", MachineConfig.conventional(window=256)),
    ("nosq@256", MachineConfig.nosq(window=256)),
    ("nosq-perfect@256", MachineConfig.nosq(window=256, perfect=True)),
    # Historical config names answer as aliases.
    ("sq-storesets", MachineConfig.conventional()),
    ("sq-perfect", MachineConfig.conventional(perfect_scheduling=True)),
    ("nosq-delay", MachineConfig.nosq()),
]


class TestPresetIdentity:
    @pytest.mark.parametrize("spec,factory", FACTORY_PAIRS,
                             ids=[s for s, _ in FACTORY_PAIRS])
    def test_registry_matches_factory(self, spec, factory):
        resolved = resolve_config(spec)
        assert resolved == factory
        assert resolved.name == factory.name

    @pytest.mark.parametrize("spec,factory", FACTORY_PAIRS,
                             ids=[s for s, _ in FACTORY_PAIRS])
    def test_campaign_cache_keys_identical(self, spec, factory):
        """The acceptance-criteria pin: registry-resolved presets address
        exactly the seed factories' cache entries."""
        via_registry = Job("gzip", resolve_config(spec), SMOKE, 17)
        via_factory = Job("gzip", factory, SMOKE, 17)
        assert job_key(via_registry) == job_key(via_factory)

    def test_component_selectors_absent_from_serialized_form(self):
        """Default-valued impl selectors must not appear in the codec
        output, or every historical cache key would change."""
        data = config_to_dict(MachineConfig.nosq())
        assert "bypass_predictor_impl" not in data
        assert "scheduler_impl" not in data
        assert "hierarchy_impl" not in data

    def test_standard_configs_shim(self):
        configs = config_set("standard")
        assert [c.name for c in configs] == [
            "sq-perfect", "sq-storesets", "nosq-nodelay", "nosq-delay",
            "nosq-perfect",
        ]
        assert [c.name for c in config_set("standard", window=256)] == [
            f"{c.name}-w256" for c in configs
        ]

    def test_harness_config_sets(self):
        assert [c.name for c in config_set("table5")] == \
            ["nosq-nodelay", "nosq-delay"]
        assert [c.name for c in config_set("figure4")] == \
            ["sq-storesets", "nosq-delay"]


# --------------------------------------------------------------------- #
# Override grammar
# --------------------------------------------------------------------- #

class TestOverrides:
    def test_top_level_field(self):
        config = resolve_config("nosq?rob_size=256")
        assert config.rob_size == 256
        assert config.name == "nosq-delay?rob_size=256"
        # Everything else untouched.
        assert dataclasses.replace(
            config, name="nosq-delay", rob_size=128
        ) == MachineConfig.nosq()

    def test_backend_namespace_covers_window_resources(self):
        assert resolve_config("nosq?backend.rob_size=256").rob_size == 256
        assert resolve_config("nosq?backend.depth=9").backend.depth == 9

    def test_section_aliases(self):
        config = resolve_config(
            "nosq?bypass.history_bits=10,memory.l1_size=32768"
        )
        assert config.bypass_predictor.history_bits == 10
        assert config.hierarchy.l1_size == 32768

    def test_canonical_name_sorts_and_normalizes(self):
        a = resolve_config("nosq?iq_size=30,backend.rob_size=96")
        b = resolve_config("nosq?rob_size=96,iq_size=30")
        assert a == b
        assert a.name == "nosq-delay?iq_size=30,rob_size=96"
        assert config_hash(a) == config_hash(b)

    def test_typed_coercion(self):
        assert resolve_config("nosq?svw_enabled=false").svw_enabled is False
        assert resolve_config("nosq?lq_size=none").lq_size is None
        assert resolve_config("conventional?lq_size=none").lq_size is None
        assert resolve_config("nosq?rob_size=0x80").rob_size == 128
        config = resolve_config("conventional?scheduler=perfect")
        assert config.scheduler is SchedulerKind.PERFECT

    def test_window_plus_overrides(self):
        config = resolve_config("nosq@256?tssbf_entries=256")
        assert config.rob_size == 256          # window scaling first
        assert config.tssbf_entries == 256     # then the override
        assert config.name == "nosq-delay-w256?tssbf_entries=256"

    def test_override_derived_config_simulates(self):
        trace = generate_trace("gzip", TINY.num_instructions, seed=17)
        config = resolve_config("nosq?backend.rob_size=256")
        stats = Processor(config).run(trace, warmup=TINY.warmup)
        assert stats.instructions > 0
        assert stats.config_name == "nosq-delay?rob_size=256"


class TestValidationErrors:
    @pytest.mark.parametrize("spec,fragment", [
        ("convntional", "did you mean 'conventional'"),
        ("nosq?rob_sz=12", "did you mean 'rob_size'"),
        ("nosq?backend.rob_siz=1", "did you mean 'rob_size'"),
        ("nosq?bypas.history_bits=1", "unknown config section"),
        ("nosq?rob_size=big", "expected an integer"),
        ("nosq?svw_enabled=maybe", "expected a boolean"),
        ("nosq?scheduler=magic", "not one of"),
        ("nosq?name=x", "not overridable"),
        ("nosq?backend.name=x", "unknown key 'name'"),
        ("nosq?backend=x", "is a config section"),
        ("nosq@300", "supported window sizes"),
        ("nosq@big", "window must be an integer"),
        ("nosq?", "empty override list"),
        ("nosq?x", "expected key=value"),
        ("nosq?rob_size=1,rob_size=2", "duplicate override"),
        ("nosq?a.b.c=1", "nest at most one level"),
        ("standard", "is a config *set*"),
        ("nosq?bypass.impl=nope", "no registered bypass_predictor"),
        ("nosq?backend.rob_size=0", "rob_size must be at least 1"),
        ("nosq?backend.iq_size=0", "iq_size must be at least 1"),
        ("nosq?backend.phys_regs=10", "phys_regs must be at least 65"),
        ("nosq?backend.ssn_bits=2", "ssn_bits must be at least 4"),
        ("conventional?backend.sq_size=0", "sq_size must be at least 1"),
        ("nosq?backend.sq_size=24", "sq_size must be 0 on NoSQ"),
        ("nosq?backend.lq_size=0", "lq_size must be at least 1"),
        ("conventional?lq_size=0", "lq_size must be at least 1"),
        ("nosq?width=0", "width must be at least 1"),
    ])
    def test_error_messages(self, spec, fragment):
        with pytest.raises(ConfigSpecError) as excinfo:
            resolve_config(spec)
        assert fragment in str(excinfo.value)

    def test_unknown_set_suggestion(self):
        with pytest.raises(ConfigSpecError, match="unknown config set"):
            config_set("standrd")

    def test_campaign_spec_rejects_bad_config_string(self):
        with pytest.raises(ValueError, match="unknown config preset"):
            CampaignSpec(benchmarks=["gzip"], configs=["nosqq"], scale=TINY)


# --------------------------------------------------------------------- #
# Globs, sets and list splitting
# --------------------------------------------------------------------- #

class TestSpecLists:
    def test_split_keeps_overrides_attached(self):
        assert split_spec_list("nosq?a=1,b=2,conventional") == \
            ["nosq?a=1,b=2", "conventional"]
        assert split_spec_list("conventional,nosq?a=1") == \
            ["conventional", "nosq?a=1"]

    def test_split_opens_override_list_when_missing(self):
        # An '=' fragment after a spec with no '?' starts its override
        # list instead of producing a malformed spec.
        assert split_spec_list("nosq@256,rob_size=96") == \
            ["nosq@256?rob_size=96"]
        assert [c.name for c in resolve_configs("nosq@256,rob_size=96")] \
            == ["nosq-delay-w256?rob_size=96"]

    def test_glob_expansion(self):
        assert [c.name for c in resolve_configs("nosq*")] == \
            ["nosq-delay", "nosq-nodelay", "nosq-perfect"]

    def test_glob_with_suffix(self):
        names = [c.name for c in resolve_configs("nosq-n*@256")]
        assert names == ["nosq-nodelay-w256"]

    def test_set_expansion_with_window(self):
        assert resolve_configs("standard", window=256) == \
            config_set("standard", window=256)

    def test_set_with_window_suffix(self):
        assert resolve_configs("standard@256") == \
            config_set("standard", window=256)
        assert [c.name for c in resolve_configs("table5?rob_size=96")] == [
            "nosq-nodelay?rob_size=96", "nosq-delay?rob_size=96",
        ]

    def test_mixed_list(self):
        configs = resolve_configs("table5,conventional?rob_size=96")
        assert [c.name for c in configs] == [
            "nosq-nodelay", "nosq-delay", "sq-storesets?rob_size=96",
        ]

    def test_overlapping_lists_dedup(self):
        # Globs, sets and aliases may resolve the same machine twice;
        # the union sweeps once per name.
        assert [c.name for c in resolve_configs("nosq,nosq-delay")] == \
            ["nosq-delay"]
        union = resolve_configs("nosq*,standard")
        assert [c.name for c in union] == [
            "nosq-delay", "nosq-nodelay", "nosq-perfect",
            "sq-perfect", "sq-storesets",
        ]

    def test_same_name_different_config_conflicts(self):
        register_config(
            "imposter",
            lambda window: dataclasses.replace(
                MachineConfig.nosq(window), rob_size=64
            ),
        )
        try:
            with pytest.raises(ConfigSpecError, match="conflicting"):
                resolve_configs("nosq,imposter")
        finally:
            unregister_config("imposter")

    def test_no_match_glob(self):
        with pytest.raises(ConfigSpecError, match="matches no preset"):
            resolve_configs("xyz*")

    def test_user_registered_preset(self):
        register_config(
            "nosq-tiny-rob",
            dataclasses.replace(MachineConfig.nosq(), name="nosq-tiny-rob",
                                rob_size=32),
            description="test preset",
        )
        try:
            assert resolve_config("nosq-tiny-rob").rob_size == 32
            # Instance-registered presets are fixed machines: re-applying
            # the paper's window scaling to an arbitrary base would
            # compound resources, so @window is an explicit error.
            with pytest.raises(ConfigSpecError,
                               match="does not support @window"):
                resolve_config("nosq-tiny-rob@256")
            assert "nosq-tiny-rob" in list_configs()
        finally:
            unregister_config("nosq-tiny-rob")
        with pytest.raises(ConfigSpecError):
            resolve_config("nosq-tiny-rob")

    def test_config_sets_listed(self):
        assert set(list_config_sets()) >= {"standard", "table5", "figure4"}

    def test_replace_cannot_hijack_other_names(self):
        # replace=True only exempts the preset being replaced: an alias
        # must not silently shadow another preset's canonical name or a
        # set name.
        factory = MachineConfig.nosq
        with pytest.raises(ConfigSpecError, match="already registered"):
            register_config("hijacker", lambda window: factory(window),
                            aliases=("conventional",), replace=True)
        with pytest.raises(ConfigSpecError, match="already registered"):
            register_config("standard", lambda window: factory(window),
                            replace=True)
        assert resolve_config("conventional").name == "sq-storesets"

    def test_replace_rebinds_own_aliases(self):
        register_config("replaceme", lambda window: MachineConfig.nosq(window),
                        aliases=("replaceme-alias",))
        try:
            register_config(
                "replaceme",
                lambda window: MachineConfig.nosq(window, delay=False),
                aliases=("replaceme-alias2",), replace=True,
            )
            assert resolve_config("replaceme").name == "nosq-nodelay"
            assert resolve_config("replaceme-alias2").name == "nosq-nodelay"
            with pytest.raises(ConfigSpecError):
                resolve_config("replaceme-alias")   # stale alias dropped
        finally:
            unregister_config("replaceme")


# --------------------------------------------------------------------- #
# Serialization round trips and stable hashing
# --------------------------------------------------------------------- #

ROUND_TRIP_SPECS = [
    "conventional",
    "nosq",                       # lq_size=None exercises the null path
    "nosq?backend.rob_size=256",
    "nosq@256?bypass.history_bits=10",
    "conventional?scheduler=perfect,svw_enabled=false",
]


class TestSerialization:
    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
    def test_dict_json_toml_round_trips(self, spec):
        config = resolve_config(spec)
        assert config_from_dict(config_to_dict(config)) == config
        assert config_from_json(config_to_json(config)) == config
        assert config_from_toml(config_to_toml(config)) == config

    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
    def test_hash_stable_across_round_trips(self, spec):
        config = resolve_config(spec)
        digest = config_hash(config)
        assert config_hash(config_from_json(config_to_json(config))) == digest
        assert config_hash(config_from_toml(config_to_toml(config))) == digest

    def test_hash_tracks_every_field(self):
        base = config_hash(resolve_config("nosq"))
        assert config_hash(resolve_config("nosq?rob_size=256")) != base
        assert config_hash(
            resolve_config("nosq?bypass.history_bits=9")
        ) != base

    def test_toml_is_parseable_and_sectioned(self):
        text = config_to_toml(resolve_config("nosq"))
        assert "[backend]" in text
        assert "[bypass_predictor]" in text
        assert "[hierarchy]" in text
        assert 'lq_size = "none"' in text

    def test_bad_toml_raises(self):
        with pytest.raises(ConfigSpecError, match="invalid config TOML"):
            config_from_toml("not [valid")

    def test_toml_none_sentinel_only_for_optional_fields(self):
        # A *string* field legitimately holding "none" (a component
        # registered under that name) must survive the round trip; only
        # Optional fields map "none" back to null.
        register_bypass_predictor(
            "none", lambda config: BypassingPredictor(
                config.bypass_predictor
            ),
        )
        try:
            config = resolve_config("nosq?bypass.impl=none")
            assert config.bypass_predictor_impl == "none"
            restored = config_from_toml(config_to_toml(config))
            assert restored == config
            assert restored.bypass_predictor_impl == "none"
            assert restored.lq_size is None
        finally:
            unregister_component("bypass_predictor", "none")


# --------------------------------------------------------------------- #
# Component registry
# --------------------------------------------------------------------- #

@pytest.fixture
def sticky_predictor():
    register_bypass_predictor(
        "sticky-test",
        lambda config: BypassingPredictor(
            dataclasses.replace(config.bypass_predictor, conf_dec=127)
        ),
        description="full confidence reset on misprediction",
    )
    yield "sticky-test"
    unregister_component("bypass_predictor", "sticky-test")


@pytest.fixture
def passthrough_hierarchy():
    register_memory_hierarchy(
        "passthrough-test",
        lambda config: MemoryHierarchy(config.hierarchy),
    )
    yield "passthrough-test"
    unregister_component("hierarchy", "passthrough-test")


class TestComponents:
    def test_registered_component_is_listed(self, sticky_predictor):
        assert sticky_predictor in component_names("bypass_predictor")
        listing = list_components()
        assert "default" in listing["bypass_predictor"]
        assert sticky_predictor in listing["bypass_predictor"]

    def test_selected_through_override_string(self, sticky_predictor):
        trace = generate_trace("vortex", TINY.num_instructions, seed=17)
        default = Processor(resolve_config("nosq")).run(
            trace, warmup=TINY.warmup
        )
        sticky = Processor(
            resolve_config(f"nosq?bypass.impl={sticky_predictor}")
        ).run(trace, warmup=TINY.warmup)
        assert sticky.instructions == default.instructions
        # The sticky policy delays more aggressively after mispredictions.
        assert sticky.delayed_loads >= default.delayed_loads

    def test_selector_changes_cache_key(self, sticky_predictor):
        plain = resolve_config("nosq")
        custom = resolve_config(f"nosq?bypass.impl={sticky_predictor}")
        assert config_hash(custom) != config_hash(plain)
        data = config_to_dict(custom)
        assert data["bypass_predictor_impl"] == sticky_predictor
        assert config_from_dict(data) == custom

    def test_component_version_changes_cache_key(self, sticky_predictor):
        """Re-registering a component with a bumped version invalidates
        its cached campaign results (mirrors trace-source content ids);
        default-only configs never gain a components key."""
        custom = resolve_config(f"nosq?bypass.impl={sticky_predictor}")
        job = Job("gzip", custom, SMOKE, 17)
        key_v0 = job_key(job)
        register_bypass_predictor(
            sticky_predictor,
            lambda config: BypassingPredictor(config.bypass_predictor),
            replace=True, version=1,
        )
        assert job_key(job) != key_v0
        # The plain preset's key is untouched by registrations.
        plain_job = Job("gzip", resolve_config("nosq"), SMOKE, 17)
        key_plain = job_key(plain_job)
        assert key_plain == job_key(plain_job)

    def test_identical_reimplementation_is_bit_identical(
        self, passthrough_hierarchy
    ):
        trace = generate_trace("gzip", TINY.num_instructions, seed=17)
        default = Processor(resolve_config("nosq")).run(
            trace, warmup=TINY.warmup
        )
        swapped = Processor(
            resolve_config(f"nosq?hierarchy.impl={passthrough_hierarchy}")
        ).run(trace, warmup=TINY.warmup)
        assert dataclasses.replace(swapped, config_name="") == \
            dataclasses.replace(default, config_name="")

    def test_component_sweep_with_worker_pool(self, sticky_predictor):
        """Jobs whose configs select registered components run inline
        (the per-process registry can't ship to spawn-started workers);
        mixed groups are split so the default-impl configs still pool.
        jobs=2 must complete and match a serial run bit-for-bit."""
        spec = f"nosq,nosq?bypass.impl={sticky_predictor},conventional"
        serial = sweep(spec, ["gzip", "mcf"], scale=TINY, jobs=1)
        pooled = sweep(spec, ["gzip", "mcf"], scale=TINY, jobs=2)
        for bench in ("gzip", "mcf"):
            for name in serial.config_names:
                assert serial.stats(bench, name) == pooled.stats(bench, name)

    def test_unknown_component_suggests(self, sticky_predictor):
        with pytest.raises(ConfigSpecError, match="did you mean"):
            resolve_config("nosq?bypass.impl=sticky-tst")

    def test_reserved_name_rejected(self):
        with pytest.raises(ComponentError):
            register_bypass_predictor("default", lambda config: None)

    def test_ineffective_selector_fails_loudly(self, sticky_predictor):
        """A selector on a config that never instantiates the component
        must raise, not silently run the stock machine under a
        component-tagged cache key."""
        # At spec-resolution time (before any cache key is planned)...
        with pytest.raises(ConfigSpecError, match="has no effect"):
            resolve_config(f"nosq-perfect?bypass.impl={sticky_predictor}")
        # ...and at processor construction for programmatic configs.
        with pytest.raises(ValueError, match="has no effect"):
            Processor(dataclasses.replace(
                MachineConfig.nosq(perfect=True),
                bypass_predictor_impl=sticky_predictor,
            ))
        # Scheduler components only exist on conventional+storesets.
        from repro.api import register_scheduler

        register_scheduler("probe-test", lambda config: None)
        try:
            with pytest.raises(ConfigSpecError, match="has no effect"):
                resolve_config("nosq?scheduler.impl=probe-test")
        finally:
            unregister_component("scheduler", "probe-test")


# --------------------------------------------------------------------- #
# Typed entry points
# --------------------------------------------------------------------- #

class TestSimulate:
    def test_matches_direct_processor_run(self):
        trace = generate_trace("gzip", TINY.num_instructions, seed=17)
        direct = Processor(MachineConfig.nosq()).run(
            trace, warmup=TINY.warmup
        )
        result = simulate("nosq", "gzip", scale=TINY)
        assert result.stats == direct
        assert result.benchmark == "gzip"
        assert result.config_name == "nosq-delay"
        assert result.ipc == direct.ipc
        assert result.trace_stats.loads > 0

    def test_accepts_trace_and_config_objects(self):
        trace = generate_trace("gzip", TINY.num_instructions, seed=17)
        result = simulate(MachineConfig.nosq(), trace, scale=TINY)
        assert result.benchmark == "<trace>"
        assert result.stats.instructions > 0

    def test_named_scale_and_warmup_override(self):
        result = simulate("nosq", "gzip", scale=2_000, warmup=0)
        # warmup=0 measures the whole trace (the generator may append a
        # final halt, so compare against the actual trace length).
        trace = generate_trace("gzip", 2_000, seed=17)
        assert result.stats.instructions == len(trace)
        assert result.scale.num_instructions == 2_000

    def test_unknown_scale(self):
        with pytest.raises(ConfigSpecError, match="unknown scale"):
            resolve_scale("smokey")

    @pytest.mark.parametrize("length", [0, -5])
    def test_rejects_nonpositive_scale(self, length):
        # The same check, and message, as sweep() and campaign run.
        with pytest.raises(ValueError, match="nothing would be measured"):
            simulate("nosq", "gzip", length)
        with pytest.raises(ValueError, match="nothing would be measured"):
            sweep("nosq", "gzip", length)

    def test_rejects_unusable_source(self):
        with pytest.raises(TypeError, match="cannot produce a trace"):
            simulate("nosq", object(), scale=TINY)

    def test_short_file_trace_clamps_default_warmup(self, tmp_path):
        from repro.isa.tracefile import save_trace

        path = tmp_path / "short.bt"
        save_trace(generate_trace("gzip", 2_000, seed=17), path)
        # DEFAULT scale's warmup (12000) exceeds the file length; the
        # defaulted warmup clamps so statistics stay meaningful.
        result = simulate("nosq", f"trace:{path}")
        assert result.stats.instructions > 500
        # An explicit warmup is honored as given.
        explicit = simulate("nosq", f"trace:{path}", warmup=100)
        assert explicit.stats.instructions > result.stats.instructions
        # The campaign path applies the same clamp, so both façade
        # entry points report identical statistics.
        swept = sweep("nosq", [f"trace:{path}"])
        assert swept.stats(f"trace:{path}", "nosq") == result.stats


class TestSweep:
    def test_cached_rerun_executes_nothing(self, tmp_path):
        kwargs = dict(scale=TINY, cache=str(tmp_path / "cache"))
        first = sweep("nosq*,conventional?rob_size=96",
                      ["gzip", "zoo.pchase"], **kwargs)
        assert first.executed == 8 and first.hits == 0
        second = sweep("nosq*,conventional?rob_size=96",
                       ["gzip", "zoo.pchase"], **kwargs)
        assert second.executed == 0 and second.hits == 8
        assert second.stats("gzip", "nosq") == first.stats("gzip", "nosq")
        # Spec strings, config names and configs all address the runs.
        runs = second.results()["gzip"].runs
        assert "sq-storesets?rob_size=96" in runs
        assert second.stats("gzip", "nosq-delay").ipc == \
            second.stats("gzip", MachineConfig.nosq()).ipc

    def test_inline_component_jobs_emit_note(self, sticky_predictor):
        events = []
        sweep(f"nosq?bypass.impl={sticky_predictor},conventional",
              ["gzip"], scale=TINY, jobs=2, progress=events.append)
        notes = [e for e in events if e.kind == "note"]
        assert notes, "expected a note about inline component jobs"
        assert "registered components" in notes[0].benchmark
        assert notes[0].describe().startswith("note:")

    def test_campaign_spec_accepts_spec_strings(self):
        spec = CampaignSpec(
            benchmarks=["gzip"],
            configs=["nosq?backend.rob_size=256", MachineConfig.nosq()],
            scale=TINY,
        )
        assert [c.name for c in spec.configs] == [
            "nosq-delay?rob_size=256", "nosq-delay",
        ]
        assert all(isinstance(c, MachineConfig) for c in spec.configs)
