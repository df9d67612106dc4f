"""Tests for the `repro.api` façade.

Pins the compatibility contract — the five standard presets resolve to
configs bit-identical (fields, names, campaign cache keys) to the
historical factories — and covers the override grammar, serialization
round trips, stable hashing, and the typed `simulate`/`sweep` entry
points.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import (
    ConfigSpecError,
    config_hash,
    config_set,
    list_config_sets,
    resolve_config,
    resolve_configs,
    resolve_scale,
    simulate,
    sweep,
)
from repro.api.configs import split_spec_list
from repro.experiments.cache import job_key
from repro.experiments.codec import config_from_dict, config_to_dict
from repro.experiments.spec import CampaignSpec, Job
from repro.harness.runner import SMOKE, ExperimentScale
from repro.pipeline.config import MachineConfig, SchedulerKind
from repro.pipeline.processor import Processor
from repro.workloads import generate_trace

TINY = ExperimentScale("tiny", num_instructions=2_000, warmup=500)


# --------------------------------------------------------------------- #
# Preset identity: the presets reproduce the seed factories exactly.
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
        """The acceptance-criteria pin: spec-resolved presets address
        exactly the seed factories' cache entries."""
        via_spec = Job("gzip", resolve_config(spec), SMOKE, 17)
        via_factory = Job("gzip", factory, SMOKE, 17)
        assert job_key(via_spec) == job_key(via_factory)

    @pytest.mark.parametrize("window,spec,digest", [
        (128, "conventional-perfect",
         "ea2a2bab15213e7144aaf0f465d4679a2604a8e25b2ddbf6948e460ded1672ae"),
        (128, "conventional",
         "464032cf43cee83fc214a5b22cc739a96f7fa3967811179c6ddd2e3fdac70326"),
        (128, "nosq-nodelay",
         "df4bba2cb3dc2640fe06b0c6e42eb279f0464c7adc528392e3b4eb3ade10e744"),
        (128, "nosq",
         "25dc8095fa38eb6b50d7d2bae3c9c84fe6ca7ed3126988d8a10f41da690db61a"),
        (128, "nosq-perfect",
         "a64506aec20b8de1fb8dcbca39e31b13f855501936e5e624f15ac16a0f130873"),
        (256, "conventional-perfect",
         "12ec350bd0e47876cc9b647e496055fb6ecb2548690ea693eb72a1a58e008a68"),
        (256, "conventional",
         "aef4241de6383cc401f4b341aac60c711eefce78833b4ede1e9c2be2ddf0b4f6"),
        (256, "nosq-nodelay",
         "4fdfdb963918ee62a704a4a649900057efe1c571c49e5d83803fa7a3b6077596"),
        (256, "nosq",
         "12a8d9ee0677f7c5283d30770630b49bd95e65dd1bb6d96eddf0c4c28239f1f9"),
        (256, "nosq-perfect",
         "220c8b9d9d87179bfdfb2e07adb7703b4f8457838ab407befa933cc8d2f7f396"),
    ])
    def test_config_hash_pinned(self, window, spec, digest):
        """The standard presets' share of every campaign cache key, as
        literal digests: a field added to, removed from or renamed in
        the serialized config changes them and orphans existing caches."""
        assert config_hash(resolve_config(spec, window)) == digest

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
        # The retired component-selector key is an unknown key.
        ("nosq?bypass.impl = nope", "unknown key 'impl'"),
        ("nosq?backend.rob_size=0", "rob_size must be at least 1"),
        ("nosq?backend.iq_size=0", "iq_size must be at least 1"),
        ("nosq?backend.phys_regs=10", "phys_regs must be at least 65"),
        ("nosq?backend.ssn_bits=2", "ssn_bits must be at least 4"),
        ("conventional?backend.sq_size=0", "sq_size must be at least 1"),
        ("nosq?backend.sq_size=24", "sq_size must be 0 on NoSQ"),
        ("nosq?backend.lq_size=0", "lq_size must be at least 1"),
        ("conventional?lq_size=0", "lq_size must be at least 1"),
        ("nosq?width=0", "width must be at least 1"),
        ("nosq?exec_delay=-5", "exec_delay must be at least 0"),
        ("nosq?btb_assoc=0", "BTB entries (2048) must be a positive"),
        ("nosq?btb_entries=24", "BTB set count (6) must be a power of two"),
        ("conventional?ras_depth=0", "RAS depth must be at least 1"),
        ("nosq?tlb_entries=0", "TLB entries (0) must be a positive"),
        ("nosq?tlb_assoc=0", "TLB entries (128) must be a positive"),
        ("nosq?hierarchy.l1_assoc=0", "L1D size (65536) must be a positive"),
        ("nosq?hierarchy.l1_size=3", "L1D size (3) must be a positive"),
        ("nosq?hierarchy.l2_size=0", "L2 size (0) must be a positive"),
        ("nosq?hierarchy.line_bytes=0", "line size must be a power of two"),
        ("nosq?tssbf_entries=3", "T-SSBF entries (3) must be a positive"),
        ("nosq?tssbf_assoc=0", "T-SSBF entries (128) must be a positive"),
        ("nosq?bp_table_entries=3", "table size must be a power of two"),
        ("nosq?bp_table_entries=0", "table size must be a power of two"),
        ("nosq?bp_history_bits=-1", "history bits must be at least 0"),
        ("nosq?bypass.history_bits=-1", "history_bits must be at least 0"),
        ("nosq?bypass.assoc=0", "entries_per_table (1024) must be a"),
        ("conventional-smb?bypass.tag_bits=-1", "tag_bits must be at least 0"),
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
        imposter = dataclasses.replace(MachineConfig.nosq(), rob_size=64)
        with pytest.raises(ConfigSpecError, match="conflicting"):
            resolve_configs(["nosq", imposter])

    def test_no_match_glob(self):
        with pytest.raises(ConfigSpecError, match="matches no preset"):
            resolve_configs("xyz*")

    def test_config_sets_listed(self):
        assert set(list_config_sets()) >= {"standard", "table5", "figure4"}


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
        assert config_from_dict(
            json.loads(json.dumps(config_to_dict(config)))
        ) == config

    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS)
    def test_hash_stable_across_round_trips(self, spec):
        config = resolve_config(spec)
        digest = config_hash(config)
        assert config_hash(config_from_dict(config_to_dict(config))) == digest
        assert config_hash(config_from_dict(
            json.loads(json.dumps(config_to_dict(config)))
        )) == digest

    def test_hash_tracks_every_field(self):
        base = config_hash(resolve_config("nosq"))
        assert config_hash(resolve_config("nosq?rob_size=256")) != base
        assert config_hash(
            resolve_config("nosq?bypass.history_bits=9")
        ) != base


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
        from repro.traces import write_trace

        path = tmp_path / "short.bt"
        write_trace(generate_trace("gzip", 2_000, seed=17), path)
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
