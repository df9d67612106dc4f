"""NoSQ: Store-Load Communication without a Store Queue -- reproduction.

A cycle-level Python reproduction of Sha, Martin & Roth, MICRO-39 (2006).

Quick start (the public façade, :mod:`repro.api`)::

    from repro.api import simulate, sweep

    result = simulate("nosq", "gzip", scale="smoke")
    custom = simulate("nosq?backend.rob_size=256", "zoo.pchase",
                      scale="smoke")
    print(result.ipc, custom.ipc)

``repro.api.simulate`` and ``repro.api.sweep`` are the one public way to
run the simulator.  Underneath them, one
:class:`~repro.pipeline.processor.Processor` runs one configuration over
one annotated trace::

    from repro import MachineConfig, Processor, generate_trace

    trace = generate_trace("gzip", num_instructions=20_000)
    stats = Processor(MachineConfig.nosq()).run(trace, warmup=10_000)

Package map:

* :mod:`repro.isa` -- mini-ISA, assembler, functional executor, traces
* :mod:`repro.memory` -- caches, memory, TLB
* :mod:`repro.frontend` -- branch prediction, path history
* :mod:`repro.ooo` -- the in-flight instruction record and the reference
  associative store-queue search (the window state itself is plain data
  on :class:`~repro.pipeline.processor.Processor`)
* :mod:`repro.predictors` -- StoreSets
* :mod:`repro.core` -- the NoSQ mechanisms (the paper's contribution)
* :mod:`repro.pipeline` -- machine configs and the cycle-level processor
* :mod:`repro.workloads` -- benchmark profiles, generator, programs
* :mod:`repro.harness` -- Table 5 / Figures 2-5 regeneration
* :mod:`repro.experiments` -- sharded, cached, resumable campaign engine
* :mod:`repro.traces` -- pluggable trace sources (benchmark-id registry)
* :mod:`repro.api` -- the public façade: string-addressable configs
  (built-in presets plus overrides), typed ``simulate``/``sweep`` entry
  points
"""

from repro.pipeline import MachineConfig, Processor, RunStats
from repro.workloads import generate_trace, profile, PROFILES

__version__ = "1.0.0"

__all__ = [
    "MachineConfig",
    "Processor",
    "RunStats",
    "generate_trace",
    "profile",
    "PROFILES",
    "__version__",
]
