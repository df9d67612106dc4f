"""`repro.api` — the stable public façade.

One import surface for everything above the cycle loop, symmetric with
the trace-source registry of :mod:`repro.traces`:

* **Configs** (:mod:`repro.api.configs`) — every machine variant is
  addressable by a *config spec* string
  (``preset[@window][?key=value,...]``): named presets
  (``conventional``, ``conventional-perfect``, ``nosq``,
  ``nosq-nodelay``, ``nosq-perfect``), dotted-path overrides with typed
  coercion and did-you-mean errors, glob/set expansion, and stable
  hashing into campaign cache keys.  Ablations are override strings
  (``nosq?bypass.conf_dec=127``) rather than code edits; any other
  machine is a :class:`~repro.pipeline.config.MachineConfig` passed in
  directly.
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

from repro.api.configs import (
    ConfigPreset,
    ConfigSpecError,
    config_hash,
    config_set,
    list_config_sets,
    list_configs,
    resolve_config,
    resolve_configs,
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
    "ConfigPreset",
    "ConfigSpecError",
    "NAMED_SCALES",
    "SimResult",
    "SweepResult",
    "config_hash",
    "config_set",
    "effective_warmup",
    "list_config_sets",
    "list_configs",
    "resolve_config",
    "resolve_configs",
    "resolve_scale",
    "simulate",
    "sweep",
    "validate",
]
