"""MIPS R4000-subset ISA with the paper's atomic RMW extensions.

The paper's firmware runs on single-issue cores implementing "a subset
of the MIPS R4000 instruction set" extended with two atomic
read-modify-write instructions, ``setb`` and ``update``, that the
frame-ordering code uses in place of lock/scan/clear loops (Section 4).

This package provides:

* :mod:`repro.isa.instructions` — instruction formats, mnemonics, and
  32-bit binary encode/decode;
* :mod:`repro.isa.assembler` — a two-pass assembler with labels,
  ``.text``/``.data`` sections and the usual pseudo-instructions;
* :mod:`repro.isa.machine` — a functional interpreter with branch delay
  slots, ll/sc, and a shared-memory multi-core stepper;
* :mod:`repro.isa.trace` — dynamic instruction trace capture consumed by
  the ILP limit study (Table 2);
* :mod:`repro.isa.rmw` — the closed form of the run of set bits
  ``update`` harvests from one word, shared with the ordering boards.
"""

from repro._lazy import lazy_exports

# Nothing here is imported eagerly: the throughput simulator's ordering
# boards need only :func:`repro.isa.rmw.update_run`, which imports
# nothing, so importing it does not compile the assembler or the
# interpreter.
__getattr__, __dir__ = lazy_exports(__name__, {
    "AssemblerError": "repro.isa.assembler",
    "Program": "repro.isa.assembler",
    "assemble": "repro.isa.assembler",
    "Instruction": "repro.isa.instructions",
    "InstructionSpec": "repro.isa.instructions",
    "REGISTER_NAMES": "repro.isa.instructions",
    "decode": "repro.isa.instructions",
    "encode": "repro.isa.instructions",
    "spec_for": "repro.isa.instructions",
    "Machine": "repro.isa.machine",
    "MachineError": "repro.isa.machine",
    "Memory": "repro.isa.machine",
    "MultiCoreMachine": "repro.isa.machine",
    "TraceEntry": "repro.isa.trace",
})

__all__ = [
    "AssemblerError",
    "Instruction",
    "InstructionSpec",
    "Machine",
    "MachineError",
    "Memory",
    "MultiCoreMachine",
    "Program",
    "REGISTER_NAMES",
    "TraceEntry",
    "assemble",
    "decode",
    "encode",
    "spec_for",
]
