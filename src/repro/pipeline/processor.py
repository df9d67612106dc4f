"""The cycle-level timing model.

One :class:`Processor` simulates one machine configuration over one
annotated correct-path trace.  The model is trace-driven: control flow and
memory addresses come from the trace; the configuration's predictors,
structures, and verification machinery decide timing, speculation, and
recovery.

Modelling approach (see DESIGN.md for the full rationale):

* **In-order dispatch / greedy scheduling.**  Instructions dispatch in
  program order (bounded by width, fetch-group rules, and structure
  occupancy).  Issue and completion cycles are computed greedily when an
  instruction's producers are all scheduled, using a per-class issue-port
  schedule; instructions gated by future *events* (a NoSQ delayed load
  waiting on a store commit, a partial-overlap load waiting for stores to
  drain) are scheduled when the event fires.
* **Commit** proceeds in order, bounded by commit width and by the single
  back-end data-cache port shared between store commits and load
  re-executions.
* **Verification** is performed with the real SVW/T-SSBF logic; whether a
  re-executed load's value actually mismatches is decided from the trace's
  ground-truth store-load annotations and the store-visibility timeline.
  A load the filter exempts from re-execution must have a correct value --
  the model asserts this invariant on every commit.
* **Flushes** (verification mismatches) squash all younger in-flight work
  and restart dispatch from the trace with the back-end + front-end redirect
  penalty; branch mispredictions stall dispatch until the branch resolves.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from collections import deque
from heapq import heapify, heappop, heappush

from repro.core.bypass_predictor import NO_BYPASS, BypassingPredictor
from repro.core.commit_pipeline import CommitPipeline
from repro.core.partial_word import transform_for
from repro.core.srq import SRQEntry, StoreRegisterQueue
from repro.core.ssbf import TaggedSSBF
from repro.core.svw import BypassVerdict, SVWFilter
from repro.frontend.branch_predictor import BTB, HybridBranchPredictor, ReturnAddressStack
from repro.frontend.path_history import fill_path_history
from repro.isa.instructions import NUM_ARCH_REGS, REG_ZERO
from repro.isa.opcodes import OpClass
from repro.isa.trace import DynInst, MEMORY_SOURCE
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.tlb import TLB
from repro.ooo.rob import InFlightInst
from repro.pipeline.config import (
    BypassKind,
    MachineConfig,
    Mode,
    SchedulerKind,
    check_window,
)
from repro.pipeline.stats import RunStats
from repro.predictors.store_sets import StoreSets


class SimulationError(RuntimeError):
    """Raised when the cycle loop detects an inconsistency or livelock."""


#: Commits between batched register-alias-table pruning passes.  Pruning a
#: committed writer is timing-neutral (its completion cycle is below every
#: later consumer's readiness floor), so the per-register walk only needs to
#: run often enough to bound mapper memory.
_RETIRE_BATCH = 64

#: Load/store issue-port indices (hot path: avoids per-dispatch enum
#: lookups).
_LOAD_PORT = int(OpClass.LOAD)
_STORE_PORT = int(OpClass.STORE)

#: Issue slots per cycle for each ``OpClass`` (ALU, COMPLEX, BRANCH, LOAD,
#: STORE, NOP), and in total.  Section 4.1: "The scheduler can issue up to
#: 4 instructions per cycle: 4 simple integer, 2 complex integer/FP, 1
#: branch, 1 load and 1 store."
_PORT_LIMITS = (4, 2, 1, 1, 1, 4)
_ISSUE_WIDTH = 4


class Processor:
    """Cycle-level simulator for one machine configuration."""

    def __init__(self, config: MachineConfig) -> None:
        check_window(config)
        self.config = config
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.tlb = TLB(
            entries=config.tlb_entries,
            assoc=config.tlb_assoc,
            miss_penalty=config.tlb_miss_penalty,
        )
        self.branch_predictor = HybridBranchPredictor(
            table_entries=config.bp_table_entries,
            history_bits=config.bp_history_bits,
        )
        self.btb = BTB(entries=config.btb_entries, assoc=config.btb_assoc)
        self.ras = ReturnAddressStack(depth=config.ras_depth)
        self.ssbf = TaggedSSBF(
            entries=config.tssbf_entries, assoc=config.tssbf_assoc
        )
        self.svw = SVWFilter(self.ssbf)
        self.commit_pipeline = CommitPipeline(
            config.backend,
            self.hierarchy,
            self.tlb,
            translate_stores=(config.mode is Mode.NOSQ),
        )
        # The out-of-order window, as plain state (DESIGN.md, "Window
        # state"); check_window bounds every size read here.
        #: Reorder buffer: in-flight instructions in program order, at
        #: most ``config.rob_size``.
        self.rob: deque[InFlightInst] = deque()
        #: Rename map: per architectural register, the stack of its
        #: in-flight writers as ``(seq, producer)`` -- the producer is the
        #: DEF for a short-circuited load.  An empty stack means the value
        #: is committed.  A flush pops writers younger than the victim;
        #: :meth:`_prune_rename_map` drops shadowed committed ones.
        self.rename_map: list[list[tuple[int, InFlightInst]]] = [
            [] for _ in range(NUM_ARCH_REGS)
        ]
        #: Physical registers: free count, and the reference count of each
        #: allocated register keyed by the allocating seq (an SMB-bypassed
        #: load shares its DEF's register, Section 3.4).
        self.free_pregs = config.phys_regs - NUM_ARCH_REGS
        self.preg_refs: dict[int, int] = {}
        #: Issue queue: a min-heap of booked issue cycles (an entry leaves
        #: at its issue cycle) plus the entries still waiting for one.
        self.iq_heap: list[int] = []
        self.iq_unscheduled = 0
        #: Issue ports: cycle -> [slots booked per OpClass..., total].
        self.port_slots: dict[int, list[int]] = {}
        #: Load-queue occupancy (``config.lq_size`` None = no load queue).
        self.lq_occupancy = 0
        #: Store queue (conventional only): seqs of the in-flight stores,
        #: oldest first.
        self.sq: deque[int] = deque()
        #: SSNrename / SSNcommit (Section 2).  SSN 0 means "before every
        #: traced store"; renaming SSN ``ssn_limit`` forces a drain.
        self.ssn_rename = 0
        self.ssn_commit = 0
        self.ssn_limit = 1 << config.ssn_bits
        # SRQ entries stay live until the store's cache write is visible
        # (SSNcommit advances in the final back-end stage), so the live SSN
        # span can exceed the ROB by the back-end drain backlog.
        self.srq = StoreRegisterQueue(capacity=2 * max(config.rob_size, 64))
        #: StoreSets schedules loads only on the conventional machine; the
        #: bypassing predictor runs on NoSQ with real bypassing prediction
        #: and under opportunistic SMB.
        self.store_sets = (
            StoreSets()
            if config.mode is Mode.CONVENTIONAL
            and config.scheduler is SchedulerKind.STORESETS
            else None
        )
        self.bypass_predictor = (
            BypassingPredictor(config.bypass_predictor)
            if (config.mode is Mode.NOSQ and config.bypass is BypassKind.REAL)
            or config.smb_opportunistic
            else None
        )
        self.stats = RunStats(config_name=config.name)

        # Per-run state (initialized in run()).
        self._trace: list[DynInst] = []
        self._store_insts: list[DynInst] = []
        self._pos = 0
        self._dispatch_barrier = 0
        self._visible_cycles: list[int] = []
        self._epoch_store_base = 0
        self._drain_pending = False
        self._inflight_stores: dict[int, InFlightInst] = {}  # store_seq -> entry
        self._store_exec_cycles: dict[int, int] = {}  # store_seq -> exec done
        #: stores that left the ROB but whose D$ write is not yet visible:
        #: (visible_cycle, ssn, store_seq).  SSNcommit advances only when the
        #: write completes -- the paper's commit stage is the *last* back-end
        #: stage, after the data-cache write.
        self._pending_commits: deque[tuple[int, int, int]] = deque()
        self._store_entry_cycles: list[int] = []  # commit-entry per store_seq
        self._sched_waiters: dict[int, list[InFlightInst]] = {}  # producer seq
        self._commit_waiters: dict[int, list[InFlightInst]] = {}  # store_seq
        self._ran = False
        self._warmup = 0
        self._committed_total = 0
        self._measure_start_cycle = 0
        #: Commits since the last batched rename-map pruning pass (see
        #: :meth:`_prune_rename_map`).
        self._retire_backlog = 0
        #: Stall bookkeeping for _fast_forward: whether the current cycle's
        #: dispatch counted a stall, and which condition it broke on.
        self._stall_counted = False
        self._stall_on_iq = False
        self._stall_on_sq = False
        # Hot-loop scalars hoisted out of the (frozen) config object.
        #: NoSQ trains its bypassing predictor on every committed load; the
        #: store-queue machines train in :meth:`_train_on_commit`.
        self._nosq_training = (
            self.bypass_predictor is not None
            and not config.smb_opportunistic
        )
        self._is_conventional = config.mode is Mode.CONVENTIONAL
        self._exec_delay = config.exec_delay
        self._frontend_depth = config.frontend_depth
        self._l1_latency = config.hierarchy.l1_latency
        # Loop-invariant stage contexts, populated by run().
        self._dispatch_ctx: tuple = ()
        self._commit_ctx: tuple = ()

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #

    def run(self, trace: list[DynInst], warmup: int = 0) -> RunStats:
        """Simulate *trace* to completion and return the run statistics.

        ``warmup`` excludes the first N committed instructions from the
        statistics (predictors, caches, and the T-SSBF stay warm), mirroring
        the paper's warmed sampling methodology.

        A :class:`Processor` is single-use: predictors and caches carry
        state, so use a fresh instance (or :func:`simulate`) per run.
        """
        if self._ran:
            raise SimulationError("Processor instances are single-use")
        self._ran = True
        self._warmup = min(warmup, max(0, len(trace) - 1))
        self._committed_total = 0
        self._measure_start_cycle = 0
        self._trace = trace
        if trace and trace[0].path_hist < 0:
            # Un-annotated trace (annotate_trace precomputes this once per
            # trace; mutation is idempotent and shared by later runs).
            fill_path_history(trace)
        self._store_insts = [i for i in trace if i.is_store]
        self._pos = 0
        self._dispatch_barrier = 0
        self._visible_cycles = []
        self._epoch_store_base = 0
        self._drain_pending = False
        self._inflight_stores = {}
        self._store_exec_cycles = {}
        self._pending_commits = deque()
        self._store_entry_cycles = []
        self._sched_waiters = {}
        self._commit_waiters = {}
        self._retire_backlog = 0
        n = len(trace)
        if n == 0:
            return self.stats
        max_cycles = n * self.config.max_cycles_per_inst + 100_000

        # Loop-invariant context tuples for the two stages: one attribute
        # read + tuple unpack per stage call instead of a dozen attribute
        # lookups (both stages run up to once per simulated cycle).
        config = self.config
        self._dispatch_ctx = (
            trace, self.rob, config.rob_size, config.iq_size,
            config.lq_size, config.sq_size, config.width,
            config.max_branches_per_group, config.max_taken_per_group,
            self.rename_map, self._sched_waiters, self._exec_delay,
            self.port_slots, self.iq_heap, n,
        )
        self._commit_ctx = (
            self.rob, config.commit_width, self.preg_refs,
            self._sched_waiters,
        )

        # The main loop binds its per-cycle work to locals: attribute and
        # method lookups here run once per simulated cycle and showed up
        # prominently in profiles.  The cheap prechecks mirror each stage's
        # own early-exit conditions exactly, so skipping the call is
        # behaviour- and statistics-identical.
        rob = self.rob
        pending = self._pending_commits
        advance_ssn = self._advance_ssn_commit
        commit_stage = self._commit_stage
        dispatch_stage = self._dispatch_stage
        port_slots = self.port_slots
        # The cycle loop allocates heavily (one InFlightInst + producer
        # tuples per dispatch) but creates almost no reference cycles, so
        # generational GC scans are nearly pure overhead (~6% of the loop).
        # Suspend collection for the duration and restore the caller's
        # setting afterwards; the rare true cycles (_BarrierRaiser back
        # references) are collected after re-enabling.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            cycle = 0
            while self._pos < n or rob or pending:
                if pending and pending[0][0] <= cycle:
                    advance_ssn(cycle)
                head = rob[0] if rob else None
                if head is not None and 0 <= head.complete_cycle <= cycle:
                    progressed = commit_stage(cycle)
                else:
                    progressed = False
                if self._pos < n and cycle >= self._dispatch_barrier:
                    if dispatch_stage(cycle):
                        progressed = True
                elif not progressed:
                    self._stall_counted = False
                if progressed:
                    cycle += 1
                else:
                    cycle = self._fast_forward(cycle)
                if len(port_slots) >= 4096:
                    # Drop the bookings of cycles long past.
                    floor = cycle - 8
                    for stale in [c for c in port_slots if c < floor]:
                        del port_slots[stale]
                if cycle > max_cycles:
                    raise SimulationError(
                        f"livelock: {cycle} cycles for {n} instructions "
                        f"(pos={self._pos}, rob={len(rob)})"
                    )
        finally:
            if gc_was_enabled:
                gc.enable()
        self.stats.cycles = cycle - self._measure_start_cycle
        self.stats.instructions = n - self._warmup
        return self.stats

    def _fast_forward(self, cycle: int) -> int:
        """Skip a provably idle stretch of cycles after a no-progress cycle.

        Between *cycle* and the earliest upcoming event -- the ROB head's
        completion, the next pending store visibility, the dispatch barrier,
        or (for an issue-queue-full stall) the next issue-queue drain --
        nothing in the model can change state: commits are gated on the
        head, SSNcommit on visibility, and a structurally stalled dispatch
        stays stalled because every condition it broke on is frozen until
        one of those events fires.  The skipped cycles' only observable
        effect is their per-cycle stall statistics, which are bulk-added
        here, making the jump bit-identical to stepping (see DESIGN.md,
        "hot-path invariants").
        """
        nxt = -1
        rob = self.rob
        if rob:
            complete = rob[0].complete_cycle
            if complete < 0:
                # An unscheduled head cannot be time-bounded; step.
                return cycle + 1
            nxt = complete  # > cycle, else the commit stage would have run
        pending = self._pending_commits
        if pending:
            visible = pending[0][0]  # > cycle, else _advance_ssn_commit ran
            if nxt < 0 or visible < nxt:
                nxt = visible
        dispatch_live = self._pos < len(self._trace)
        if dispatch_live and self._dispatch_barrier > cycle:
            barrier = self._dispatch_barrier
            if nxt < 0 or barrier < nxt:
                nxt = barrier
        stalled = self._stall_counted
        if stalled and self._stall_on_iq:
            # Issue-queue-full stalls clear as booked issue cycles pass.
            heap = self.iq_heap
            if heap and (nxt < 0 or heap[0] < nxt):
                nxt = heap[0]
        if nxt <= cycle + 1:
            return cycle + 1
        if stalled:
            # Each skipped cycle would have re-run dispatch and stalled on
            # the same (frozen) condition; account its statistics in bulk.
            skipped = nxt - cycle - 1
            stats = self.stats
            stats.dispatch_stall_cycles += skipped
            if self._stall_on_sq:
                stats.sq_full_stalls += skipped
        return nxt

    def _advance_ssn_commit(self, cycle: int) -> None:
        """Advance SSNcommit for stores whose cache write became visible.

        Until then the store remains bypassable: its SRQ entry stays live
        and rename-time ``SSNbyp > SSNcommit`` checks treat it as in flight,
        exactly as the paper's pipeline (SSNcommit increments in the final
        commit stage, after the data-cache write stage).
        """
        pending = self._pending_commits
        while pending and pending[0][0] <= cycle:
            _, ssn, _store_seq = pending.popleft()
            if self.ssn_commit >= self.ssn_rename:
                raise SimulationError("SSNcommit would pass SSNrename")
            self.ssn_commit += 1
            if self.ssn_commit != ssn:
                raise SimulationError(
                    f"store commit SSN mismatch: {self.ssn_commit} != {ssn}"
                )
            self.srq.retire(ssn)

    # ------------------------------------------------------------------ #
    # Dispatch (fetch / decode / rename)
    # ------------------------------------------------------------------ #

    def _dispatch_stage(self, cycle: int) -> bool:
        # Reset the stall flag before ANY early return: a stale True (e.g.
        # across a drain-wait cycle) would make _fast_forward bulk-add
        # stall statistics the stepping loop never counted.
        self._stall_counted = False
        (
            trace, rob, rob_size, iq_size, lq_size, sq_size, width,
            max_branches, max_taken, rename_map, waiters, exec_delay,
            port_slots, iq_heap, n,
        ) = self._dispatch_ctx
        if cycle < self._dispatch_barrier or self._pos >= n:
            return False
        if self._drain_pending:
            if rob or self._pending_commits:
                return False
            self._perform_drain(cycle)
            return False

        is_conventional = self._is_conventional
        stats = self.stats
        nop = OpClass.NOP
        preg_refs = self.preg_refs
        port_limits = _PORT_LIMITS
        issue_width = _ISSUE_WIDTH
        pos = self._pos
        dispatched = 0
        group_branches = 0
        group_taken = 0
        iq_dispatches = 0
        stall_iq = False
        stall_sq = False
        # ROB and issue-queue occupancy are tracked locally across the
        # fetch group: within one dispatch call nothing else mutates the
        # ROB, and every issue-queue insertion books a cycle strictly after
        # *cycle* (so no lazily-popped entries can appear mid-group either).
        # Occupancy is computed lazily (first iq-needing instruction).
        rob_len = len(rob)
        iq_occ = -1
        while dispatched < width and pos < n:
            inst = trace[pos]
            if rob_len >= rob_size or self.free_pregs < 1:
                break
            is_store = inst.is_store
            if inst.is_load:
                if lq_size is not None and self.lq_occupancy >= lq_size:
                    break
            elif is_store:
                if is_conventional and len(self.sq) >= sq_size:
                    stats.sq_full_stalls += 1
                    stall_sq = True
                    break
                if self.ssn_rename + 1 >= self.ssn_limit:
                    self._drain_pending = True
                    break
            elif inst.is_branch:
                group_branches += 1
                if group_branches > max_branches:
                    break
            op = inst.op
            # NoSQ stores never enter the out-of-order engine.
            needs_iq = op is not nop and (
                is_conventional or not is_store
            )
            if needs_iq:
                if iq_occ < 0:
                    # Entries leave the issue queue at their issue cycle
                    # (popped lazily, once per fetch group).
                    while iq_heap and iq_heap[0] <= cycle:
                        heappop(iq_heap)
                    iq_occ = len(iq_heap) + self.iq_unscheduled
                if iq_occ >= iq_size:
                    stall_iq = True
                    break

            entry = InFlightInst(inst, cycle)
            if is_store:
                # ssn_rename_at_dispatch is only consulted for memory
                # instructions (bypass distances, flush rollback targets).
                entry.ssn_rename_at_dispatch = self.ssn_rename
                self._dispatch_store(entry, cycle)
                if entry.in_iq:
                    iq_occ += 1
            elif inst.is_load:
                entry.ssn_rename_at_dispatch = self.ssn_rename
                self.lq_occupancy += 1
                if is_conventional:
                    self._dispatch_load_conventional(entry, cycle)
                else:
                    self._dispatch_load_nosq(entry, cycle)
                dst = inst.dst
                if dst is not None and not entry.bypassed:
                    seq = entry.seq
                    self.free_pregs -= 1
                    preg_refs[seq] = 1
                    entry.allocated_preg = True
                    if dst != REG_ZERO:
                        rename_map[dst].append((seq, entry))
                if entry.in_iq:
                    iq_occ += 1
            elif op is nop:
                entry.sched_kind = "none"
                entry.complete_cycle = cycle + 1
                dst = inst.dst
                if dst is not None:
                    seq = entry.seq
                    self.free_pregs -= 1
                    preg_refs[seq] = 1
                    entry.allocated_preg = True
                    if dst != REG_ZERO:
                        rename_map[dst].append((seq, entry))
            else:
                # The hottest dispatch path (every ALU/branch/complex op),
                # with _try_schedule's immediate-success case written out.
                # A freshly dispatched entry can have no scheduling waiters
                # (waiters key on in-flight producer seqs and are popped at
                # squash/commit), so the generic wakeup machinery is only
                # needed when a producer is still unscheduled -- and
                # entry.producers only needs materializing on that slow
                # path (nothing reads it after an entry is scheduled).
                entry.sched_kind = "exec"
                port = inst.port
                entry.port_class = port
                ready = cycle + 1 + exec_delay
                blocked_on = None
                for reg in inst.srcs:
                    stack = rename_map[reg]
                    if stack:
                        producer = stack[-1][1]
                        complete = producer.complete_cycle
                        if complete < 0:
                            blocked_on = producer
                            break
                        if complete > ready:
                            ready = complete
                entry.in_iq = True
                iq_occ += 1
                iq_dispatches += 1
                if blocked_on is not None:
                    entry.producers = tuple(
                        stack[-1][1]
                        for reg in inst.srcs
                        if (stack := rename_map[reg])
                    )
                    waiters.setdefault(blocked_on.seq, []).append(entry)
                    self.iq_unscheduled += 1
                else:
                    # _reserve_port's first probe; contended cycles fall
                    # back to the full probe loop.
                    used = port_slots.get(ready)
                    if used is None:
                        used = [0] * (len(port_limits) + 1)
                        used[port] = 1
                        used[-1] = 1
                        port_slots[ready] = used
                        issue = ready
                    elif used[-1] < issue_width and used[port] < port_limits[port]:
                        used[port] += 1
                        used[-1] += 1
                        issue = ready
                    else:
                        issue = self._reserve_port(port, ready + 1)
                    entry.issue_cycle = issue
                    entry.complete_cycle = issue + inst.lat
                    heappush(iq_heap, issue)
                dst = inst.dst
                if dst is not None:
                    seq = entry.seq
                    self.free_pregs -= 1
                    preg_refs[seq] = 1
                    entry.allocated_preg = True
                    # Writes to the zero register are discarded.
                    if dst != REG_ZERO:
                        rename_map[dst].append((seq, entry))
            rob.append(entry)
            rob_len += 1
            pos += 1
            self._pos = pos
            dispatched += 1

            if inst.is_branch:
                stop = self._handle_branch(entry, cycle)
                if inst.taken:
                    group_taken += 1
                if stop or group_taken >= max_taken:
                    break
        if iq_dispatches:
            stats.iq_dispatches += iq_dispatches
        if dispatched == 0:
            stats.dispatch_stall_cycles += 1
            self._stall_counted = True
            self._stall_on_iq = stall_iq
            self._stall_on_sq = stall_sq
        return dispatched > 0

    def _enter_issue_queue(self, entry: InFlightInst) -> None:
        entry.in_iq = True
        self.iq_unscheduled += 1
        self.stats.iq_dispatches += 1

    def _reserve_port(self, port: int, earliest: int) -> int:
        """Book an issue slot of class *port* at the first cycle at or
        after *earliest* with both a free class slot and free width."""
        port_slots = self.port_slots
        limit = _PORT_LIMITS[port]
        cycle = earliest
        while True:
            used = port_slots.get(cycle)
            if used is None:
                used = [0] * (len(_PORT_LIMITS) + 1)
                used[port] = 1
                used[-1] = 1
                port_slots[cycle] = used
                return cycle
            if used[-1] < _ISSUE_WIDTH and used[port] < limit:
                used[port] += 1
                used[-1] += 1
                return cycle
            cycle += 1

    def _producers_for(self, srcs: tuple[int, ...]) -> tuple:
        rename_map = self.rename_map
        return tuple(
            stack[-1][1] for reg in srcs if (stack := rename_map[reg])
        )

    # -- stores --------------------------------------------------------- #

    def _dispatch_store(self, entry: InFlightInst, cycle: int) -> None:
        inst = entry.inst
        # The dispatch loop drains before SSNrename can reach the limit.
        ssn = self.ssn_rename + 1
        self.ssn_rename = ssn
        entry.ssn = ssn
        self._inflight_stores[inst.store_seq] = entry

        rename_map = self.rename_map
        data_stack = rename_map[inst.srcs[1]] if len(inst.srcs) > 1 else None
        self.srq.insert(
            SRQEntry(
                ssn=ssn,
                def_producer=data_stack[-1][1] if data_stack else None,
                store_seq=inst.store_seq,
                size=inst.size,
                fp_convert=inst.fp_convert,
                debug_addr=inst.addr,
            )
        )

        if self._is_conventional:
            # Execute out-of-order: address generation + data capture.
            # Same inlined dispatch-time scheduler as the simple-op fast
            # path (fresh entry, so no waiters; producers only materialize
            # when a producer is still unscheduled).
            entry.sched_kind = "exec"
            entry.port_class = _STORE_PORT
            ready = cycle + 1 + self._exec_delay
            blocked_on = None
            for reg in inst.srcs:
                stack = rename_map[reg]
                if stack:
                    producer = stack[-1][1]
                    complete = producer.complete_cycle
                    if complete < 0:
                        blocked_on = producer
                        break
                    if complete > ready:
                        ready = complete
            entry.in_iq = True
            self.stats.iq_dispatches += 1
            if blocked_on is not None:
                entry.producers = tuple(
                    stack[-1][1]
                    for reg in inst.srcs
                    if (stack := rename_map[reg])
                )
                self._sched_waiters.setdefault(
                    blocked_on.seq, []
                ).append(entry)
                self.iq_unscheduled += 1
            else:
                issue = self._reserve_port(_STORE_PORT, ready)
                entry.issue_cycle = issue
                entry.complete_cycle = issue + inst.lat
                heappush(self.iq_heap, issue)
            self.sq.append(inst.seq)
            if self.store_sets is not None:
                self.store_sets.store_renamed(inst.pc, entry)
        else:
            # NoSQ: the store skips the out-of-order engine entirely and is
            # marked complete at rename; it executes in the back end.
            entry.sched_kind = "none"
            entry.complete_cycle = cycle + 1

    # -- loads ---------------------------------------------------------- #

    def _classify_against_sq(self, inst: DynInst) -> tuple[str, int]:
        """Classification an associative SQ search would produce.

        Returns ``(kind, store_seq)`` where kind is "none", "full", or
        "partial".  Per-byte youngest-writer reasoning makes this exactly
        equivalent to :func:`repro.ooo.search_store_queue` restricted to
        in-flight stores (a property verified by tests).
        """
        inflight = self._inflight_stores
        inflight_sources = [
            s for s in inst.unique_stores if s in inflight
        ]
        if not inflight_sources:
            return "none", -1
        # containing_store is set iff exactly one store covers every byte,
        # so "is it in flight" is the whole full-coverage test.
        if inst.containing_store in inflight:
            return "full", inst.containing_store
        return "partial", max(inflight_sources)

    def _dispatch_load_conventional(self, entry: InFlightInst, cycle: int) -> None:
        inst = entry.inst
        kind, source_seq = self._classify_against_sq(inst)
        if kind == "partial":
            # The store queue cannot assemble the value from multiple
            # stores; the load waits for the involved stores to drain.
            entry.sched_kind = "load"
            entry.producers = self._producers_for(inst.srcs)
            self._enter_issue_queue(entry)
            self._commit_waiters.setdefault(source_seq, []).append(entry)
            return
        if kind == "full":
            entry.sq_forwarded = True
            entry.predicted_store_seq = source_seq

        if self.config.scheduler is SchedulerKind.PERFECT:
            entry.sched_kind = "load"
            entry.producers = self._producers_for(inst.srcs)
            self._enter_issue_queue(entry)
            inflight = self._inflight_stores
            blockers = [
                inflight[s] for s in inst.unique_stores if s in inflight
            ]
            entry.producers = entry.producers + tuple(blockers)
            visible_floor = 0
            visible_cycles = self._visible_cycles
            num_visible = len(visible_cycles)
            for s in inst.unique_stores:
                if s in inflight:
                    continue
                if s < num_visible:
                    visible_floor = max(visible_floor, visible_cycles[s])
            entry.min_ready = visible_floor
            self._try_schedule(entry)
        else:
            handle = None
            if self.store_sets is not None:
                handle = self.store_sets.load_dependence(inst.pc)
                if not (
                    isinstance(handle, InFlightInst)
                    and not handle.squashed
                    and handle.seq < inst.seq
                ):
                    handle = None
            if handle is not None:
                entry.sched_kind = "load"
                entry.producers = self._producers_for(inst.srcs) + (handle,)
                self._enter_issue_queue(entry)
                self._try_schedule(entry)
            else:
                # Common case (no store-set dependence): the fast
                # dispatch-time scheduler (handles sq_forwarded loads too).
                self._setup_nonbypassing_load(entry)
        if self.config.smb_opportunistic:
            self._apply_opportunistic_smb(entry)

    def _apply_opportunistic_smb(self, entry: InFlightInst) -> None:
        """The Table 1 background design: a high-confidence prediction
        short-circuits the load's consumers to the store's data producer
        while the load itself still executes out-of-order and verifies the
        bypass by comparing values.

        A wrong bypass is detected when the load completes; the model stalls
        dispatch until then (like a branch misprediction), which is when the
        squash/refetch would begin.
        """
        inst = entry.inst
        pred = self.bypass_predictor.predict(
            inst.pc, inst.path_hist
        )
        entry.pred_hit = pred.hit
        if not (pred.predicts_bypass and pred.confident):
            return
        ssn_byp = entry.ssn_rename_at_dispatch + 1 - pred.dist
        if ssn_byp <= self.ssn_commit or ssn_byp > self.ssn_rename:
            return
        srq_entry = self.srq.lookup(ssn_byp)
        if srq_entry is None:
            return
        transform = transform_for(
            store_size=srq_entry.size,
            store_fp_convert=srq_entry.fp_convert,
            load_size=inst.size,
            load_signed=inst.signed,
            load_fp_convert=inst.fp_convert,
            shift=pred.shift,
        )
        if transform is None:
            return
        entry.smb_applied = True
        entry.predicted_ssn = ssn_byp
        entry.predicted_store_seq = srq_entry.store_seq
        entry.predicted_shift = pred.shift
        correct = (
            inst.containing_store == srq_entry.store_seq
            and inst.addr - self._store_insts[srq_entry.store_seq].addr
            == pred.shift
        )
        if correct and inst.dst is not None:
            # Short-circuit consumers to the DEF (or the store's committed
            # value): they wake on the DEF's completion, not the load's.
            def_producer = srq_entry.def_producer
            if (
                isinstance(def_producer, InFlightInst)
                and not def_producer.squashed
                and def_producer.complete_cycle >= 0
                and inst.dst != REG_ZERO
            ):
                self.rename_map[inst.dst].append((inst.seq, def_producer))
        elif not correct:
            # Verification at load execution detects the mismatch; younger
            # fetch restarts after the load completes.
            self.stats.flush_wrong_store += 1
            self.stats.flushes += 1
            resolve = entry.complete_cycle
            if resolve < 0:
                resolve = entry.dispatch_cycle + 1
                self._sched_waiters.setdefault(entry.seq, []).append(
                    _BarrierRaiser(self, entry)
                )
            self._dispatch_barrier = max(
                self._dispatch_barrier,
                resolve + self._frontend_depth,
            )

    def _dispatch_load_nosq(self, entry: InFlightInst, cycle: int) -> None:
        inst = entry.inst
        if self.config.bypass is BypassKind.PERFECT:
            self._dispatch_load_nosq_perfect(entry, cycle)
            return

        pred = self.bypass_predictor.predict(inst.pc, inst.path_hist)
        stats = self.stats
        stats.predictor_lookups += 1
        if pred.path_sensitive:
            stats.predictor_path_hits += 1
        entry.pred_hit = pred.hit

        ssn_byp = -1
        # pred.predicts_bypass inlined (property call per predicted load).
        if pred.hit and pred.dist != NO_BYPASS:
            ssn_byp = entry.ssn_rename_at_dispatch + 1 - pred.dist
        if ssn_byp <= self.ssn_commit or ssn_byp > self.ssn_rename:
            # Predictor miss, non-bypass prediction, or the predicted store
            # already committed: plain (unscheduled) cache access.
            self._setup_nonbypassing_load(entry)
            return

        srq_entry = self.srq.lookup(ssn_byp)
        if srq_entry is None:
            raise SimulationError(f"in-flight SSN {ssn_byp} missing from SRQ")

        if self.config.delay_enabled and not pred.confident:
            # Delay: wait for the predicted store to commit, then read the
            # cache safely.
            entry.delayed = True
            entry.predicted_store_seq = srq_entry.store_seq
            entry.sched_kind = "load"
            entry.producers = self._producers_for(inst.srcs)
            self._enter_issue_queue(entry)
            if srq_entry.store_seq < len(self._visible_cycles):
                # The store already left the ROB and is draining through
                # the back end; its visibility cycle is known.
                visible = self._visible_cycles[srq_entry.store_seq]
                entry.min_ready = max(
                    0, visible - self._l1_latency + 1
                )
                self._try_schedule(entry)
            else:
                self._commit_waiters.setdefault(
                    srq_entry.store_seq, []
                ).append(entry)
            return

        transform = transform_for(
            store_size=srq_entry.size,
            store_fp_convert=srq_entry.fp_convert,
            load_size=inst.size,
            load_signed=inst.signed,
            load_fp_convert=inst.fp_convert,
            shift=pred.shift,
        )
        if transform is None:
            # The predicted pairing cannot be realized by a shift & mask
            # (e.g. narrow store feeding a wider load).  The load falls back
            # to a plain cache access -- and will mispredict if the store
            # really does feed it.
            self._setup_nonbypassing_load(entry)
            return
        self._setup_bypassing_load(entry, cycle, ssn_byp, srq_entry, transform)

    def _dispatch_load_nosq_perfect(self, entry: InFlightInst, cycle: int) -> None:
        """Oracle bypassing with idealized partial-word support."""
        inst = entry.inst
        source = inst.containing_store
        if source != MEMORY_SOURCE and source in self._inflight_stores:
            srq_entry = self.srq.lookup(
                self._arch_ssn(source)
            )
            if srq_entry is None:
                raise SimulationError("oracle bypass target missing from SRQ")
            shift = inst.addr - self._store_insts[source].addr
            transform = transform_for(
                srq_entry.size, srq_entry.fp_convert,
                inst.size, inst.signed, inst.fp_convert, shift,
            )
            if transform is None:
                raise SimulationError("oracle bypass with impossible transform")
            self._setup_bypassing_load(
                entry, cycle, self._arch_ssn(source), srq_entry, transform
            )
            return
        inflight_sources = [
            s for s in inst.unique_stores if s in self._inflight_stores
        ]
        if inflight_sources:
            # Multi-source partial-store case: idealized delay.
            youngest = max(inflight_sources)
            entry.delayed = True
            entry.predicted_store_seq = youngest
            entry.sched_kind = "load"
            entry.producers = self._producers_for(inst.srcs)
            self._enter_issue_queue(entry)
            self._commit_waiters.setdefault(youngest, []).append(entry)
            return
        # Sources (if any) committed: make sure the cache read sees them.
        visible_floor = 0
        for s in inst.unique_stores:
            if s < len(self._visible_cycles):
                visible_floor = max(visible_floor, self._visible_cycles[s])
        self._setup_nonbypassing_load(entry, min_ready=visible_floor)

    def _setup_nonbypassing_load(
        self, entry: InFlightInst, min_ready: int = 0
    ) -> None:
        """Dispatch-time setup + scheduling of a plain cache-reading load.

        The second-hottest dispatch path (every non-bypassed load), with
        _enter_issue_queue and _try_schedule's immediate-success case
        written out, mirroring the simple-op fast path in _dispatch_stage
        (same fresh-entry/no-waiters argument; entry.producers only
        materializes when a producer is still unscheduled).
        """
        inst = entry.inst
        entry.sched_kind = "load"
        entry.min_ready = min_ready
        entry.in_iq = True
        self.stats.iq_dispatches += 1
        rename_map = self.rename_map
        ready = entry.dispatch_cycle + 1 + self._exec_delay
        if min_ready > ready:
            ready = min_ready
        blocked_on = None
        for reg in inst.srcs:
            stack = rename_map[reg]
            if stack:
                producer = stack[-1][1]
                complete = producer.complete_cycle
                if complete < 0:
                    blocked_on = producer
                    break
                if complete > ready:
                    ready = complete
        if blocked_on is not None:
            entry.producers = tuple(
                stack[-1][1] for reg in inst.srcs
                if (stack := rename_map[reg])
            )
            self._sched_waiters.setdefault(blocked_on.seq, []).append(entry)
            self.iq_unscheduled += 1
            return
        # _reserve_port's first probe; contended cycles fall back to the
        # full probe loop.
        port_slots = self.port_slots
        used = port_slots.get(ready)
        if used is None:
            used = [0] * (len(_PORT_LIMITS) + 1)
            used[_LOAD_PORT] = 1
            used[-1] = 1
            port_slots[ready] = used
            issue = ready
        elif used[-1] < _ISSUE_WIDTH and (
            used[_LOAD_PORT] < _PORT_LIMITS[_LOAD_PORT]
        ):
            used[_LOAD_PORT] += 1
            used[-1] += 1
            issue = ready
        else:
            issue = self._reserve_port(_LOAD_PORT, ready + 1)
        entry.issue_cycle = issue
        latency = self.hierarchy.read(inst.addr)
        if entry.sq_forwarded:
            # The value comes from the store queue at forwarding latency;
            # the parallel cache probe still happens (and may fetch the
            # line) but its miss is not on the value path.
            latency = self._l1_latency
        latency += self.tlb.access(inst.addr)
        entry.dcache_read_cycle = issue + self._l1_latency
        entry.complete_cycle = issue + latency
        self.stats.ooo_dcache_reads += 1
        heappush(self.iq_heap, issue)

    def _setup_bypassing_load(
        self,
        entry: InFlightInst,
        cycle: int,
        ssn_byp: int,
        srq_entry: SRQEntry,
        transform,
    ) -> None:
        inst = entry.inst
        entry.bypassed = True
        entry.predicted_ssn = ssn_byp
        entry.predicted_store_seq = srq_entry.store_seq
        entry.predicted_shift = transform.shift

        def_producer = srq_entry.def_producer
        live_def = (
            def_producer
            if isinstance(def_producer, InFlightInst) and not def_producer.squashed
            else None
        )
        if transform.is_identity:
            # Pure rename short-circuit: the load's output register IS the
            # DEF's output register (reference-counted sharing).
            entry.sched_kind = "bypass"
            entry.producers = (live_def,) if live_def is not None else ()
            if live_def is not None and live_def.allocated_preg:
                # Take a reference on the DEF's register (a no-op once the
                # DEF has committed and released it).
                refs = self.preg_refs
                if live_def.seq in refs:
                    refs[live_def.seq] += 1
                entry.shared_with_seq = live_def.seq
        else:
            # Injected shift & mask operation in place of the load.
            entry.sched_kind = "exec"
            entry.port_class = int(OpClass.ALU)
            entry.injected_op = True
            entry.producers = (live_def,) if live_def is not None else ()
            self._enter_issue_queue(entry)
            # Dispatch checked that a register is free.
            self.free_pregs -= 1
            self.preg_refs[entry.seq] = 1
            entry.allocated_preg = True
        if inst.dst is not None and inst.dst != REG_ZERO:
            self.rename_map[inst.dst].append((entry.seq, entry))
        self._try_schedule(entry)

    # -- branches -------------------------------------------------------- #

    def _handle_branch(self, entry: InFlightInst, cycle: int) -> bool:
        """Run the front-end predictors for a dispatched branch.

        Returns True if dispatch must stop (misprediction or fetch bubble).
        """
        inst = entry.inst
        config = self.config
        mispredicted = False
        bubble = False
        if inst.is_call:
            self.ras.push(inst.pc + 4)
            if not self.btb.lookup_and_update(inst.pc, inst.target):
                bubble = True
        elif inst.is_return:
            if not self.ras.predict_return(inst.target):
                mispredicted = True
        else:
            prediction = self.branch_predictor.predict_and_train(
                inst.pc, inst.taken
            )
            if prediction != inst.taken:
                mispredicted = True
            elif inst.taken and not self.btb.lookup_and_update(inst.pc, inst.target):
                bubble = True

        if mispredicted:
            self.stats.branch_mispredicts += 1
            resolve = entry.complete_cycle
            if resolve < 0:
                # The branch is gated by an unscheduled producer; use a
                # pessimistic resolve bound and let the barrier be raised
                # again when it schedules (rare: branch fed by delayed load).
                resolve = cycle + 1
                self._sched_waiters.setdefault(entry.seq, []).append(
                    _BarrierRaiser(self, entry)
                )
            self._dispatch_barrier = max(
                self._dispatch_barrier, resolve + config.frontend_depth
            )
            return True
        if bubble:
            self.stats.btb_bubbles += 1
            self._dispatch_barrier = max(
                self._dispatch_barrier, cycle + 1 + config.btb_bubble
            )
            return True
        return False

    # ------------------------------------------------------------------ #
    # Greedy scheduling
    # ------------------------------------------------------------------ #

    def _try_schedule(self, entry: InFlightInst) -> bool:
        """Compute issue/complete cycles once all producers are scheduled."""
        kind = entry.sched_kind
        if kind == "bypass":
            # Rename-stage short-circuit: no execution; the value is ready
            # when the DEF completes.
            floor = entry.dispatch_cycle + 1
        else:
            # Schedule + register-read stages separate rename from execute.
            floor = entry.dispatch_cycle + 1 + self._exec_delay
        ready = entry.min_ready
        if floor > ready:
            ready = floor
        for producer in entry.producers:
            if producer is None:
                continue
            complete = producer.complete_cycle
            if complete < 0:
                self._sched_waiters.setdefault(producer.seq, []).append(entry)
                return False
            if complete > ready:
                ready = complete

        if kind == "bypass":
            entry.complete_cycle = ready
        elif kind == "exec":
            entry.issue_cycle = self._reserve_port(entry.port_class, ready)
            entry.complete_cycle = entry.issue_cycle + entry.inst.lat
            if entry.in_iq:
                self.iq_unscheduled -= 1
                heappush(self.iq_heap, entry.issue_cycle)
        elif kind == "load":
            issue = self._reserve_port(_LOAD_PORT, ready)
            entry.issue_cycle = issue
            latency = self.hierarchy.read(entry.inst.addr)
            if entry.sq_forwarded:
                # The value comes from the store queue at forwarding
                # latency; the parallel cache probe still happens (and may
                # fetch the line) but its miss is not on the value path.
                latency = self._l1_latency
            latency += self.tlb.access(entry.inst.addr)
            # The cache is read at the end of the L1 access pipeline; a
            # store whose back-end write drains by then is observed.
            entry.dcache_read_cycle = issue + self._l1_latency
            entry.complete_cycle = issue + latency
            self.stats.ooo_dcache_reads += 1
            if entry.in_iq:
                self.iq_unscheduled -= 1
                heappush(self.iq_heap, issue)
        else:  # "none"
            if entry.complete_cycle < 0:
                entry.complete_cycle = entry.dispatch_cycle + 1
        if entry.seq in self._sched_waiters:
            self._wake_sched_waiters(entry)
        return True

    def _wake_sched_waiters(self, producer: InFlightInst) -> None:
        waiters = self._sched_waiters.pop(producer.seq, None)
        if not waiters:
            return
        for waiter in waiters:
            if isinstance(waiter, _BarrierRaiser):
                waiter.fire()
            elif not waiter.squashed and waiter.complete_cycle < 0:
                self._try_schedule(waiter)

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #

    def _commit_stage(self, cycle: int) -> bool:
        rob, commit_width, preg_refs, waiters = self._commit_ctx
        committed = 0
        stores_committed = 0
        stats = self.stats
        retire_backlog = self._retire_backlog
        committed_total = self._committed_total
        warmup_target = self._warmup
        while committed < commit_width:
            if not rob:
                break
            entry = rob[0]
            complete = entry.complete_cycle
            if complete < 0 or complete > cycle:
                break
            inst = entry.inst
            if inst.is_store and stores_committed:
                # The back end drains one store per cycle into the shared
                # data-cache write port.  (Re-executing loads contend for
                # the same port; that contention is serialized inside
                # CommitPipeline's port booking.)
                break
            flushed = False
            if inst.is_store:
                stats.stores += 1
                self._commit_store(entry, cycle)
                stores_committed += 1
            elif inst.is_load:
                stats.loads += 1
                self.lq_occupancy -= 1
                flushed = self._commit_load(entry, cycle)
            elif inst.is_branch:
                stats.branches += 1
            seq = entry.seq
            if entry.allocated_preg:
                # _release_preg written out (once per committed inst).
                count = preg_refs.get(seq)
                if count is not None:
                    if count <= 1:
                        del preg_refs[seq]
                        self.free_pregs += 1
                    else:
                        preg_refs[seq] = count - 1
            if entry.shared_with_seq >= 0:
                self._release_preg(entry.shared_with_seq)
            retire_backlog += 1
            if retire_backlog >= _RETIRE_BATCH:
                retire_backlog = 0
                self._prune_rename_map(seq)
            if seq in waiters:
                del waiters[seq]
            rob.popleft()
            committed += 1
            committed_total += 1
            if committed_total == warmup_target:
                # End of the warmup window: statistics restart here with
                # all microarchitectural state (predictors, caches, filter)
                # left warm.
                self.stats = RunStats(config_name=self.config.name)
                self._measure_start_cycle = cycle
                stats = self.stats
            if flushed:
                break
        self._retire_backlog = retire_backlog
        self._committed_total = committed_total
        return committed > 0

    # -- stores ----------------------------------------------------------- #

    def _commit_store(self, entry: InFlightInst, cycle: int) -> None:
        inst = entry.inst
        visible = self.commit_pipeline.store_commit(cycle, inst.addr, inst.size)
        self.svw.store_commit(inst.addr, inst.size, entry.ssn)
        if len(self._visible_cycles) != inst.store_seq:
            raise SimulationError("store visibility timeline out of order")
        self._visible_cycles.append(visible)
        self._store_entry_cycles.append(cycle)
        self._pending_commits.append((visible, entry.ssn, inst.store_seq))
        self._inflight_stores.pop(inst.store_seq, None)
        if self._is_conventional:
            self._store_exec_cycles[inst.store_seq] = entry.complete_cycle
        if self._is_conventional and self.sq.popleft() != inst.seq:
            raise SimulationError("store queue head mismatch at commit")
        if self.store_sets is not None:
            self.store_sets.store_retired(inst.pc, entry)
        # Wake loads waiting for this store to drain (NoSQ delay, partial
        # overlap): their cache read must see the store's data.
        waiters = self._commit_waiters.pop(inst.store_seq, None)
        if waiters:
            wake = max(0, visible - self._l1_latency + 1)
            for waiter in waiters:
                if waiter.squashed:
                    continue
                # Issue early enough that the cache read pipeline completes
                # right as the store's write becomes visible.
                waiter.min_ready = max(waiter.min_ready, wake)
                self._try_schedule(waiter)

    # -- loads ------------------------------------------------------------ #

    def _arch_ssn(self, store_seq: int) -> int:
        return store_seq + 1 - self._epoch_store_base

    def _load_value_ok(self, entry: InFlightInst) -> bool:
        """Ground truth: did the load obtain the architecturally correct
        value through whichever path it took?"""
        inst = entry.inst
        if entry.bypassed:
            if inst.containing_store != entry.predicted_store_seq:
                return False
            actual_shift = inst.addr - self._store_insts[inst.containing_store].addr
            return actual_shift == entry.predicted_shift
        if entry.sq_forwarded:
            forward = entry.predicted_store_seq
            store_entry = self._inflight_stores.get(forward)
            if store_entry is not None and not store_entry.squashed:
                # Still in flight at our commit?  Impossible (older store).
                raise SimulationError("forwarding store outlived the load")
            # Forwarded if the store had executed by the load's issue;
            # otherwise the load effectively read the cache.
            executed_by = self._store_exec_cycles.get(forward)
            if executed_by is not None and executed_by <= entry.issue_cycle:
                return True
        # Cache path: every source store must be observable by the read.
        # The conventional baseline forwards from the post-commit store
        # buffer, so a store is observable once it enters the back end;
        # NoSQ has no such datapath and needs the write to be visible in
        # the cache itself.
        if self._is_conventional:
            timeline = self._store_entry_cycles
        else:
            timeline = self._visible_cycles
        num_known = len(timeline)
        read_cycle = entry.dcache_read_cycle
        for source in inst.unique_stores:
            if source >= num_known or timeline[source] > read_cycle:
                return False
        return True

    def _release_preg(self, seq: int) -> None:
        """Drop one reference on the register allocated by *seq*; free
        it when the count reaches zero."""
        refs = self.preg_refs
        count = refs.get(seq)
        if count is None:
            return
        if count <= 1:
            del refs[seq]
            self.free_pregs += 1
        else:
            refs[seq] = count - 1

    def _prune_rename_map(self, seq: int) -> None:
        """Drop rename-map writers at or before *seq* that are shadowed.

        The bottom of each stack only needs the youngest committed writer
        (flush rollback may expose it); pruning the rest bounds memory on
        long traces and is timing-neutral.  One scan + one bulk delete per
        stack: commit calls this once per ``_RETIRE_BATCH`` commits, so
        stacks carry a long committed prefix and repeated ``del stack[0]``
        would be quadratic.
        """
        for stack in self.rename_map:
            if not stack or stack[0][0] > seq:
                continue
            length = len(stack)
            keep = 1
            while keep < length and stack[keep][0] <= seq:
                keep += 1
            if keep == length:
                # Every writer committed; the value is architectural.
                stack.clear()
            elif keep > 1:
                # Shadowed committed prefix; keep the youngest committed.
                del stack[:keep - 1]

    def _commit_load(self, entry: InFlightInst, cycle: int) -> bool:
        """Verify and commit the load at the ROB head; True if it flushed."""
        inst = entry.inst
        stats = self.stats
        # Classification statistics, counted once per *committed* load so
        # flush replays do not inflate them.
        if entry.bypassed:
            stats.bypassed_loads += 1
            if entry.injected_op:
                stats.bypass_injected += 1
            else:
                stats.bypass_identity += 1
        elif entry.smb_applied:
            # Opportunistic SMB: the load still executed, but its consumers
            # were short-circuited through rename.
            stats.bypassed_loads += 1
            stats.bypass_identity += 1
            stats.nonbypassed_loads += 1
        elif entry.delayed:
            stats.delayed_loads += 1
        else:
            stats.nonbypassed_loads += 1
        # A plain load with no in-trace sources is trivially correct
        # (_load_value_ok would walk an empty source set).
        if entry.bypassed or entry.sq_forwarded or inst.unique_stores:
            value_ok = self._load_value_ok(entry)
        else:
            value_ok = True
        flush = False

        if entry.bypassed:
            verdict = self.svw.test_bypassing(
                inst.addr, inst.size, entry.predicted_ssn, entry.predicted_shift
            )
            if not self.config.svw_enabled and verdict is BypassVerdict.SKIP:
                # Unfiltered re-execution: verify every bypassed load with
                # a cache access (Section 2.2's strawman).
                verdict = BypassVerdict.REEXEC
            if verdict is BypassVerdict.SKIP:
                if not value_ok:
                    raise SimulationError(
                        f"SVW passed a wrong bypassed value at seq {inst.seq}"
                    )
            elif verdict is BypassVerdict.TRANSFORM_MISMATCH:
                if value_ok:
                    raise SimulationError(
                        "transform mismatch reported for a correct bypass"
                    )
                flush = True
            else:  # REEXEC
                self.stats.reexecuted_loads += 1
                self.stats.backend_dcache_reads += 1
                self.commit_pipeline.load_reexec(cycle, inst.addr, translate=True)
                flush = not value_ok
        else:
            forwarded_effective = False
            if entry.sq_forwarded:
                exec_cycle = self._store_exec_cycles.get(entry.predicted_store_seq)
                forwarded_effective = (
                    exec_cycle is not None and exec_cycle <= entry.issue_cycle
                )
            if forwarded_effective:
                # "if the load forwards, SSNnvul is the SSN of the
                # forwarding store" (Section 2.2).
                ssn_nvul = self._arch_ssn(entry.predicted_store_seq)
            else:
                # The architectural SSN of the youngest store visible by
                # the load's cache read.
                ssn_nvul = (
                    bisect_right(
                        self._visible_cycles, entry.dcache_read_cycle
                    )
                    - self._epoch_store_base
                )
                if ssn_nvul < 0:
                    ssn_nvul = 0
            needs_reexec = self.svw.test_nonbypassing(
                inst.addr, inst.size, ssn_nvul
            )
            if not self.config.svw_enabled:
                # Unfiltered: any load that executed with older stores in
                # flight is speculative and must re-execute.
                needs_reexec = needs_reexec or ssn_nvul < entry.ssn_rename_at_dispatch
            if needs_reexec:
                self.stats.reexecuted_loads += 1
                self.stats.backend_dcache_reads += 1
                self.commit_pipeline.load_reexec(cycle, inst.addr, translate=False)
                flush = not value_ok
            elif not value_ok:
                raise SimulationError(
                    f"SVW filtered a stale load at seq {inst.seq}"
                )

        if self._nosq_training:
            self._train_bypass_predictor(entry, flush)
        else:
            self._train_on_commit(entry, mispredicted=flush)
        if flush:
            self._record_flush_cause(entry)
            self._flush_after(entry, cycle)
        return flush

    def _train_on_commit(self, entry: InFlightInst, mispredicted: bool) -> None:
        """Commit-time training on the store-queue machines."""
        inst = entry.inst
        if self.config.smb_opportunistic and inst.is_load:
            # Opportunistic SMB verifies at execute; commit-time training
            # uses the ground-truth outcome of the applied short-circuit.
            if entry.smb_applied:
                train_event = (
                    inst.containing_store != entry.predicted_store_seq
                )
            else:
                # A missed short-circuit opportunity: the load forwarded
                # from a nearby store but no prediction was available.
                sources = inst.unique_stores
                train_event = bool(sources) and not entry.pred_hit and (
                    entry.ssn_rename_at_dispatch + 1
                    - self._arch_ssn(max(sources))
                    <= self.config.bypass_predictor.max_distance
                )
            self._train_bypass_predictor(entry, train_event)
        if mispredicted and self.store_sets is not None:
            # Conventional violation: put the load and the youngest
            # in-window source store in a common store set.
            sources = inst.unique_stores
            if sources:
                store_pc = self._store_insts[max(sources)].pc
                self.store_sets.train_violation(inst.pc, store_pc)

    def _train_bypass_predictor(
        self, entry: InFlightInst, mispredicted: bool
    ) -> None:
        inst = entry.inst
        actual_dist = NO_BYPASS
        actual_shift = 0
        actual_size = 8
        # Hardware learns the distance as SSNcommit - T-SSBF[ld.addr]: the
        # youngest committed writer of the load's address.  For single-source
        # loads that is the containing store; for multi-source partial-store
        # cases it is the youngest byte writer -- and predicting it is what
        # lets *delay* wait for the right store (Section 3.3).
        sources = inst.unique_stores
        if sources:
            youngest = max(sources)
            source_ssn = self._arch_ssn(youngest)
            if source_ssn >= 1:
                dist = entry.ssn_rename_at_dispatch + 1 - source_ssn
                if 1 <= dist <= self.config.bypass_predictor.max_distance:
                    actual_dist = dist
                    store = self._store_insts[youngest]
                    actual_shift = max(
                        0, min(7, inst.addr - store.addr)
                    )
                    actual_size = store.size
        self.bypass_predictor.train(
            inst.pc,
            inst.path_hist,
            mispredicted=mispredicted,
            prediction_available=entry.pred_hit,
            actual_dist=actual_dist,
            actual_shift=actual_shift,
            actual_store_size=actual_size,
        )
        if mispredicted:
            self.stats.predictor_trainings += 1

    def _record_flush_cause(self, entry: InFlightInst) -> None:
        inst = entry.inst
        if self._is_conventional:
            self.stats.flush_conv_violation += 1
            return
        if entry.bypassed:
            if inst.containing_store == MEMORY_SOURCE:
                self.stats.flush_should_not_have_bypassed += 1
            elif inst.containing_store != entry.predicted_store_seq:
                self.stats.flush_wrong_store += 1
            else:
                self.stats.flush_wrong_shift += 1
        else:
            self.stats.flush_should_have_bypassed += 1

    # ------------------------------------------------------------------ #
    # Flush recovery
    # ------------------------------------------------------------------ #

    def _flush_after(self, victim: InFlightInst, cycle: int) -> None:
        """Squash everything younger than *victim* and refetch."""
        self.stats.flushes += 1
        detect = self.commit_pipeline.flush_detect_cycle(cycle)
        self._dispatch_barrier = max(
            self._dispatch_barrier, detect + self._frontend_depth
        )
        rob = self.rob
        squashed = []
        while rob and rob[-1].seq > victim.seq:
            squashed.append(rob.pop())
        squashed.reverse()
        iq_heap = self.iq_heap
        iq_removed = False
        for entry in squashed:
            entry.squashed = True
            if entry.allocated_preg:
                self._release_preg(entry.seq)
            if entry.shared_with_seq >= 0:
                self._release_preg(entry.shared_with_seq)
            if entry.in_iq:
                if entry.issue_cycle < 0:
                    self.iq_unscheduled -= 1
                elif entry.issue_cycle > cycle and entry.issue_cycle in iq_heap:
                    iq_heap.remove(entry.issue_cycle)
                    iq_removed = True
            if entry.inst.is_load:
                self.lq_occupancy -= 1
            if entry.inst.is_store:
                self._inflight_stores.pop(entry.inst.store_seq, None)
                if self.store_sets is not None:
                    self.store_sets.store_retired(entry.inst.pc, entry)
            self._sched_waiters.pop(entry.seq, None)
        if iq_removed:
            heapify(iq_heap)
        for stack in self.rename_map:
            while stack and stack[-1][0] > victim.seq:
                stack.pop()
        rollback = victim.ssn_rename_at_dispatch
        if not self.ssn_commit <= rollback <= self.ssn_rename:
            raise SimulationError(
                f"cannot roll SSNrename back to {rollback} "
                f"(commit={self.ssn_commit}, rename={self.ssn_rename})"
            )
        self.ssn_rename = rollback
        self.srq.squash_above(rollback)
        sq = self.sq
        while sq and sq[-1] > victim.seq:
            sq.pop()
        self._pos = victim.seq + 1

    # ------------------------------------------------------------------ #
    # SSN wraparound drain
    # ------------------------------------------------------------------ #

    def _perform_drain(self, cycle: int) -> None:
        """Pipeline drain on SSN wraparound: clear SSN-holding structures."""
        self.stats.ssn_wraps += 1
        self.ssbf.clear()
        self.srq.clear()
        self.ssn_rename = 0
        self.ssn_commit = 0
        self._epoch_store_base = len(self._visible_cycles)
        self._drain_pending = False
        self._dispatch_barrier = max(
            self._dispatch_barrier, cycle + self.config.drain_penalty
        )


class _BarrierRaiser:
    """Deferred dispatch-barrier update for a branch whose resolution time
    was unknown at dispatch (its producer had not been scheduled yet)."""

    def __init__(self, processor: Processor, branch: InFlightInst) -> None:
        self.processor = processor
        self.branch = branch
        self.squashed = False
        self.complete_cycle = 0  # duck-typing with InFlightInst in waiters
        self.seq = branch.seq

    def fire(self) -> None:
        if self.branch.squashed or self.branch.complete_cycle < 0:
            return
        self.processor._dispatch_barrier = max(
            self.processor._dispatch_barrier,
            self.branch.complete_cycle + self.processor.config.frontend_depth,
        )
