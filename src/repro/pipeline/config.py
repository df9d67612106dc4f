"""Machine configurations (Section 4.1).

The default machine is the paper's: a 4-way superscalar with a 128-entry
reorder buffer, 40-entry issue queue, 160 physical registers, 48-entry
non-associative load queue, 64KB 2-way L1 caches, 1MB 8-way 10-cycle L2,
150-cycle memory, an 11-stage front/execute pipeline, and SVW-filtered load
re-execution with a 128-entry 4-way T-SSBF and 20-bit SSNs.

Factories build the five evaluated configurations:

=======================  ====================================================
``conventional()``        associative SQ + StoreSets scheduling (Fig. 2 bar 1)
``conventional(perfect_scheduling=True)``  the normalization baseline
``nosq(delay=False)``     NoSQ without delay (bar 2)
``nosq()``                NoSQ with delay (bar 3)
``nosq(perfect=True)``    perfect SMB (bar 4)
=======================  ====================================================

``window=256`` doubles all window resources, quadruples the branch predictor,
and leaves the bypassing predictor unchanged, exactly as in Section 4.4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.core.bypass_predictor import BypassPredictorConfig
from repro.core.commit_pipeline import BackendConfig
from repro.isa.instructions import NUM_ARCH_REGS
from repro.memory.hierarchy import HierarchyConfig


class Mode(enum.Enum):
    CONVENTIONAL = "conventional"
    NOSQ = "nosq"


class SchedulerKind(enum.Enum):
    """Load scheduling in the conventional baseline."""

    STORESETS = "storesets"
    PERFECT = "perfect"


class BypassKind(enum.Enum):
    """Bypassing prediction in NoSQ."""

    REAL = "real"
    PERFECT = "perfect"


@dataclass
class MachineConfig:
    """Full description of one simulated machine."""

    name: str
    mode: Mode
    scheduler: SchedulerKind = SchedulerKind.STORESETS
    bypass: BypassKind = BypassKind.REAL
    delay_enabled: bool = True
    #: Opportunistic SMB on the conventional machine (the Table 1 background
    #: design): high-confidence loads short-circuit their consumers through
    #: rename but still execute out-of-order for verification; the store
    #: queue remains the forwarding mechanism of record.
    smb_opportunistic: bool = False

    # Widths and window resources.
    width: int = 4
    commit_width: int = 4
    rob_size: int = 128
    iq_size: int = 40
    phys_regs: int = 160
    lq_size: int | None = 48
    sq_size: int = 24

    # Pipeline shape.
    #: Stages between rename and execution (schedule + 2 register read):
    #: an instruction cannot issue earlier than dispatch + 1 + exec_delay.
    exec_delay: int = 3
    # Front end.
    frontend_depth: int = 7       # redirect penalty (refetch through rename)
    btb_bubble: int = 2           # taken-branch BTB-miss fetch bubble
    max_branches_per_group: int = 2
    max_taken_per_group: int = 2  # "fetch past one taken branch"
    bp_table_entries: int = 4096  # per component table of the hybrid
    bp_history_bits: int = 12
    btb_entries: int = 2048
    btb_assoc: int = 4
    ras_depth: int = 32

    # SSN / SVW.
    #: Disable SVW filtering: every speculative load re-executes (the
    #: unfiltered baseline of Section 2.2, used to show the filter's value).
    svw_enabled: bool = True
    ssn_bits: int = 20
    drain_penalty: int = 64
    tssbf_entries: int = 128
    tssbf_assoc: int = 4

    # Back end.
    backend: BackendConfig = field(default_factory=BackendConfig.conventional)

    # NoSQ bypassing predictor.
    bypass_predictor: BypassPredictorConfig = field(
        default_factory=BypassPredictorConfig
    )

    # Memory.
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    tlb_entries: int = 128
    tlb_assoc: int = 4
    tlb_miss_penalty: int = 30

    # Safety valve for the cycle loop.
    max_cycles_per_inst: int = 400

    # ------------------------------------------------------------------ #

    @staticmethod
    def conventional(
        window: int = 128, perfect_scheduling: bool = False
    ) -> "MachineConfig":
        """The associative-store-queue baseline."""
        config = MachineConfig(
            name="sq-perfect" if perfect_scheduling else "sq-storesets",
            mode=Mode.CONVENTIONAL,
            scheduler=(
                SchedulerKind.PERFECT if perfect_scheduling
                else SchedulerKind.STORESETS
            ),
            backend=BackendConfig.conventional(),
        )
        return scale_window(config, window)

    @staticmethod
    def conventional_smb(window: int = 128) -> "MachineConfig":
        """The Table 1 background design: associative SQ + StoreSets with
        *opportunistic* SMB verified by out-of-order load execution."""
        config = MachineConfig.conventional(window=window)
        config = replace(config, name="sq-smb", smb_opportunistic=True)
        if window != 128:
            config = replace(config, name="sq-smb-w256")
        return config

    @staticmethod
    def nosq(
        window: int = 128,
        delay: bool = True,
        perfect: bool = False,
        predictor: BypassPredictorConfig | None = None,
    ) -> "MachineConfig":
        """NoSQ: no store queue, no load queue, SMB for all communication."""
        if perfect:
            name = "nosq-perfect"
        else:
            name = "nosq-delay" if delay else "nosq-nodelay"
        config = MachineConfig(
            name=name,
            mode=Mode.NOSQ,
            bypass=BypassKind.PERFECT if perfect else BypassKind.REAL,
            delay_enabled=delay,
            lq_size=None,   # the load-queue-free design point (Figure 1)
            sq_size=0,
            backend=BackendConfig.nosq(),
            bypass_predictor=predictor or BypassPredictorConfig(),
        )
        return scale_window(config, window)


#: Smallest value each window size may take: below it the pipeline can
#: never dispatch or commit (or, for ``ssn_bits``, drains on every store;
#: a negative ``exec_delay`` issues before dispatch and livelocks).
_SIZE_FLOORS = {
    "exec_delay": 0,
    "width": 1,
    "commit_width": 1,
    "max_branches_per_group": 1,
    "rob_size": 1,
    "iq_size": 1,
    "phys_regs": NUM_ARCH_REGS + 1,
    "ssn_bits": 4,
}


def check_window(config: MachineConfig) -> None:
    """Raise ValueError naming the first window size *config* cannot run.

    The one range check on the window sizes ``Processor`` reads;
    ``Processor.__init__`` calls it, and each structure's constructor
    checks its own geometry.  Spec resolution
    (:func:`repro.api.configs.apply_overrides`) builds a ``Processor`` so
    a bad override fails before a run starts.
    """
    for name, floor in _SIZE_FLOORS.items():
        value = getattr(config, name)
        if value < floor:
            raise ValueError(f"{name} must be at least {floor}, got {value}")
    if config.lq_size is not None and config.lq_size < 1:
        raise ValueError(
            f"lq_size must be at least 1 (or none: no load queue), "
            f"got {config.lq_size}"
        )
    if config.mode is Mode.CONVENTIONAL:
        if config.sq_size < 1:
            raise ValueError(
                f"sq_size must be at least 1 on a store-queue machine, "
                f"got {config.sq_size}"
            )
    elif config.sq_size != 0:
        raise ValueError(
            f"sq_size must be 0 on NoSQ, which has no store queue, "
            f"got {config.sq_size}"
        )


def scale_window(config: MachineConfig, window: int) -> MachineConfig:
    """Scale window resources for the 256-entry machine of Section 4.4.

    "All window resources are doubled and the branch predictor size is
    quadrupled; however, NoSQ's bypassing predictor is not enlarged."
    """
    if window == 128:
        return config
    if window != 256:
        raise ValueError("supported window sizes: 128, 256")
    scaled = replace(
        config,
        name=f"{config.name}-w256",
        rob_size=256,
        iq_size=80,
        phys_regs=320,
        lq_size=None if config.lq_size is None else config.lq_size * 2,
        sq_size=config.sq_size * 2,
        bp_table_entries=config.bp_table_entries * 4,
        bp_history_bits=config.bp_history_bits + 2,
        btb_entries=config.btb_entries * 4,
    )
    # Distances beyond 64 stores become representable needs; the predictor's
    # distance field is deliberately NOT widened (the paper keeps the
    # bypassing predictor fixed to show its capacity sensitivity).
    return scaled
