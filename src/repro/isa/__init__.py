"""Mini-ISA substrate: a small 64-bit RISC instruction set.

The paper evaluates NoSQ on the Alpha AXP user-level ISA.  This package
provides a compact substitute that exposes everything the NoSQ mechanisms
observe: 1/2/4/8-byte signed and unsigned loads and stores, a single-precision
floating-point convert-on-load/store pair (the ``lds``/``sts`` analogue used
by partial-word bypassing), ALU and FP operations with distinct issue
classes, and branches/calls that feed path history.

The package contains:

* :mod:`repro.isa.opcodes` -- opcode and operation-class definitions,
* :mod:`repro.isa.trace` -- the dynamic-instruction trace format shared by
  the functional executor, the synthetic workload generator, and the timing
  simulator, including ground-truth store-load annotations,
* :mod:`repro.isa.instructions` -- static instruction representation,
* :mod:`repro.isa.assembler` -- a tiny text assembler for example programs,
* :mod:`repro.isa.executor` -- a functional executor that runs a program and
  emits an annotated dynamic trace.
"""

from repro.isa.opcodes import Opcode, OpClass, EXEC_LATENCY
from repro.isa.trace import DynInst, MEMORY_SOURCE, annotate_trace
from repro.isa.instructions import Instruction, Register, NUM_INT_REGS, NUM_FP_REGS
from repro.isa.assembler import AssemblerError, assemble
from repro.isa.executor import ExecutionResult, FunctionalExecutor

__all__ = [
    "Opcode",
    "OpClass",
    "EXEC_LATENCY",
    "DynInst",
    "MEMORY_SOURCE",
    "annotate_trace",
    "Instruction",
    "Register",
    "NUM_INT_REGS",
    "NUM_FP_REGS",
    "AssemblerError",
    "assemble",
    "ExecutionResult",
    "FunctionalExecutor",
]
