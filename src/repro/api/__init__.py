"""`repro.api` — the stable public façade.

One import surface for everything above the cycle loop, symmetric with
the trace-source registry of :mod:`repro.traces`:

* **Configs** (:mod:`repro.api.configs`) — every machine variant is
  addressable by a *config spec* string
  (``preset[@window][?key=value,...]``): named presets
  (``conventional``, ``conventional-perfect``, ``nosq``,
  ``nosq-nodelay``, ``nosq-perfect``), dotted-path overrides with typed
  coercion and did-you-mean errors, glob/set expansion, JSON/TOML round
  trips, and stable hashing into campaign cache keys.
* **Components** (:mod:`repro.api.components`) — register swappable
  predictor/scheduler/memory implementations
  (``register_bypass_predictor(...)`` etc.) and select them per machine
  with ``...?bypass.impl=<name>`` overrides, so ablations are config
  strings rather than code edits.
* **Entry points** (:mod:`repro.api.facade`) — typed
  ``simulate(config, source, scale) -> SimResult`` and
  ``sweep(configs, benchmarks, ...) -> SweepResult`` built on the
  campaign engine, plus ``validate(configs, source, scale)`` which
  diffs configurations against the in-order oracle
  (:mod:`repro.validate`), and the ``repro run`` CLI command.

Quick start::

    from repro.api import simulate, sweep, resolve_config

    result = simulate("nosq?backend.rob_size=256", "zoo.pchase",
                      scale="smoke")
    swept = sweep("nosq*", ["gzip", "mcf"], scale="smoke", jobs=4,
                  cache="results/cache")

``simulate`` and ``sweep`` are the one public way to run the simulator.
The named config sets (``config_set("standard", window)``, ``table5``,
``figure4``) are what the table/figure builders sweep, and the five
standard presets resolve to configs bit-identical to the
``MachineConfig.conventional()``/``nosq()`` factories, so existing
campaign caches stay valid.
"""

from repro.api.components import (
    Component,
    ComponentError,
    component_names,
    create_component,
    list_components,
    register_bypass_predictor,
    register_component,
    register_memory_hierarchy,
    register_scheduler,
    unregister_component,
)
from repro.api.configs import (
    REGISTRY,
    ConfigPreset,
    ConfigRegistry,
    ConfigSpecError,
    config_from_dict,
    config_from_json,
    config_from_toml,
    config_hash,
    config_set,
    config_to_dict,
    config_to_json,
    config_to_toml,
    list_config_sets,
    list_configs,
    register_config,
    resolve_config,
    resolve_configs,
    unregister_config,
)
from repro.api.facade import (
    NAMED_SCALES,
    SimResult,
    SweepResult,
    effective_warmup,
    resolve_scale,
    simulate,
    sweep,
    validate,
)

__all__ = [
    "Component",
    "ComponentError",
    "ConfigPreset",
    "ConfigRegistry",
    "ConfigSpecError",
    "NAMED_SCALES",
    "REGISTRY",
    "SimResult",
    "SweepResult",
    "component_names",
    "config_from_dict",
    "config_from_json",
    "config_from_toml",
    "config_hash",
    "config_set",
    "config_to_dict",
    "config_to_json",
    "config_to_toml",
    "create_component",
    "effective_warmup",
    "list_components",
    "list_config_sets",
    "list_configs",
    "register_bypass_predictor",
    "register_component",
    "register_config",
    "register_memory_hierarchy",
    "register_scheduler",
    "resolve_config",
    "resolve_configs",
    "resolve_scale",
    "simulate",
    "sweep",
    "unregister_component",
    "unregister_config",
    "validate",
]
