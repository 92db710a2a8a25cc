"""Functional MIPS interpreter with R4000 branch delay slots.

:class:`Machine` executes one assembled :class:`~repro.isa.assembler.Program`
against a :class:`Memory`.  It is *functional* (no timing): the pipeline
timing model in :mod:`repro.cpu.core` wraps it to add cycles.

:class:`MultiCoreMachine` steps several register contexts round-robin
over one shared memory, preserving per-instruction atomicity — enough to
validate the lock-freedom and linearizability of the paper's ``setb`` /
``update`` instructions against ll/sc spinlock equivalents.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.assembler import Program
from repro.isa.instructions import Instruction
from repro.isa.rmw import update_run
from repro.isa.trace import TraceEntry

WORD_MASK = 0xFFFFFFFF


class MachineError(RuntimeError):
    """Raised on alignment faults, bad fetches, and similar."""


def _signed(value: int) -> int:
    value &= WORD_MASK
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class Memory:
    """Byte-addressable little-endian memory with ll/sc reservations."""

    def __init__(self, size_bytes: int = 1 << 20) -> None:
        if size_bytes % 4:
            raise ValueError("memory size must be word aligned")
        self.size_bytes = size_bytes
        self.data = bytearray(size_bytes)
        # core id -> reserved word address (for ll/sc)
        self._reservations: Dict[int, int] = {}

    # -- bounds/alignment ------------------------------------------------
    def _check(self, address: int, width: int) -> None:
        if address % width:
            raise MachineError(f"unaligned {width}-byte access at {address:#x}")
        if not 0 <= address <= self.size_bytes - width:
            raise MachineError(f"access at {address:#x} outside memory")

    # -- word access -----------------------------------------------------
    # The word accessors test alignment and bounds inline (they run on
    # every ordering-bitmap access) and call _check only for its error.
    def load_word(self, address: int) -> int:
        if address % 4 or not 0 <= address <= self.size_bytes - 4:
            self._check(address, 4)
        return int.from_bytes(self.data[address : address + 4], "little")

    def store_word(self, address: int, value: int) -> None:
        if address % 4 or not 0 <= address <= self.size_bytes - 4:
            self._check(address, 4)
        self.data[address : address + 4] = (value & WORD_MASK).to_bytes(4, "little")
        if self._reservations:
            self._invalidate_reservations(address)

    def load_half(self, address: int, signed: bool) -> int:
        self._check(address, 2)
        value = int.from_bytes(self.data[address : address + 2], "little")
        if signed and value & 0x8000:
            value -= 0x1_0000
        return value

    def store_half(self, address: int, value: int) -> None:
        self._check(address, 2)
        self.data[address : address + 2] = (value & 0xFFFF).to_bytes(2, "little")
        self._invalidate_reservations(address & ~3)

    def load_byte(self, address: int, signed: bool) -> int:
        self._check(address, 1)
        value = self.data[address]
        if signed and value & 0x80:
            value -= 0x100
        return value

    def store_byte(self, address: int, value: int) -> None:
        self._check(address, 1)
        self.data[address] = value & 0xFF
        self._invalidate_reservations(address & ~3)

    def load_bytes(self, address: int, count: int) -> bytes:
        if not 0 <= address <= self.size_bytes - count:
            raise MachineError(f"bulk access at {address:#x} outside memory")
        return bytes(self.data[address : address + count])

    def store_bytes(self, address: int, payload: bytes) -> None:
        if not 0 <= address <= self.size_bytes - len(payload):
            raise MachineError(f"bulk access at {address:#x} outside memory")
        self.data[address : address + len(payload)] = payload

    # -- ll/sc -----------------------------------------------------------
    def load_linked(self, core_id: int, address: int) -> int:
        value = self.load_word(address)
        self._reservations[core_id] = address
        return value

    def store_conditional(self, core_id: int, address: int, value: int) -> bool:
        if self._reservations.get(core_id) != address:
            return False
        # store_word clears every reservation on this word, including ours.
        self.store_word(address, value)
        return True

    def _invalidate_reservations(self, word_address: int) -> None:
        stale = [cid for cid, addr in self._reservations.items() if addr == word_address]
        for cid in stale:
            del self._reservations[cid]


# ----------------------------------------------------------------------
# The paper's atomic read-modify-write primitives (word-level semantics).
# The scratchpad hardware model reuses these same functions so firmware
# and hardware cannot drift apart.
# ----------------------------------------------------------------------
def apply_setb(memory: Memory, base: int, index: int) -> None:
    """Atomically set bit ``index`` of the bit array at ``base``."""
    if index < 0:
        raise MachineError(f"setb: negative bit index {index}")
    word_address = base + 4 * (index // 32)
    word = memory.load_word(word_address)
    memory.store_word(word_address, word | (1 << (index % 32)))


def apply_update(memory: Memory, base: int, last: int) -> int:
    """Atomically harvest consecutive set bits after position ``last``.

    Examines at most the single aligned 32-bit word containing bit
    ``last + 1`` (the hardware does one read-modify-write).  Clears the
    run of set bits found and returns the index of the last cleared bit,
    or ``last`` unchanged when bit ``last + 1`` was clear.
    """
    start = last + 1
    if start < 0:
        raise MachineError(f"update: negative start index {start}")
    word_index = start // 32
    word_address = base + 4 * word_index
    word = memory.load_word(word_address)
    bit = start % 32
    count = update_run(word, bit)
    if count == 0:
        return last
    mask = ((1 << count) - 1) << bit
    memory.store_word(word_address, word & ~mask)
    return last + count


class Machine:
    """Single functional core."""

    def __init__(
        self,
        program: Program,
        memory: Optional[Memory] = None,
        core_id: int = 0,
        entry: Optional[str] = None,
        trace: Optional[List[TraceEntry]] = None,
        load_data: bool = True,
    ) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.core_id = core_id
        self.registers = [0] * 32
        self.hi = 0
        self.lo = 0
        self.pc = program.address_of(entry) if entry else program.text_base
        self.next_pc = self.pc + 4
        self.halted = False
        self.trace = trace
        self.instructions_executed = 0
        self.loads = 0
        self.stores = 0
        self.branches = 0
        self.taken_branches = 0
        self.rmw_ops = 0
        if load_data:
            self.memory.store_bytes(program.data_base, program.data)

    # ------------------------------------------------------------------
    def read_register(self, index: int) -> int:
        return 0 if index == 0 else self.registers[index] & WORD_MASK

    def write_register(self, index: int, value: int) -> None:
        if index != 0:
            self.registers[index] = value & WORD_MASK

    def register_by_name(self, name: str) -> int:
        from repro.isa.instructions import REGISTER_NUMBERS

        return self.read_register(REGISTER_NUMBERS[name])

    # ------------------------------------------------------------------
    def step(self) -> Optional[Instruction]:
        """Execute one instruction; returns it, or None once halted."""
        if self.halted:
            return None
        instruction = self.program.instruction_at(self.pc)
        executed_pc = self.pc
        self.pc = self.next_pc
        self.next_pc = self.pc + 4
        taken, mem_address = self._execute(instruction)
        self.instructions_executed += 1
        if self.trace is not None:
            self.trace.append(
                TraceEntry(
                    pc=executed_pc,
                    mnemonic=instruction.mnemonic,
                    sources=instruction.source_registers(),
                    destination=instruction.destination_register(),
                    is_load=instruction.spec.is_load,
                    is_store=instruction.spec.is_store,
                    is_branch=instruction.spec.is_branch,
                    is_jump=instruction.spec.is_jump,
                    taken=taken,
                    mem_address=mem_address,
                )
            )
        return instruction

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until halt; returns instructions executed in this call."""
        executed = 0
        while not self.halted:
            if executed >= max_instructions:
                raise MachineError(
                    f"exceeded {max_instructions} instructions without halting"
                )
            self.step()
            executed += 1
        return executed

    # ------------------------------------------------------------------
    def _execute(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        m = ins.mnemonic
        handler = _EXECUTORS.get(m)
        if handler is None:
            raise MachineError(f"no executor for {m!r}")
        return handler(self, ins)

    # -- executors -------------------------------------------------------
    def _exec_alu_r(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        a = self.read_register(ins.rs)
        b = self.read_register(ins.rt)
        m = ins.mnemonic
        if m == "addu":
            result = a + b
        elif m == "subu":
            result = a - b
        elif m == "and":
            result = a & b
        elif m == "or":
            result = a | b
        elif m == "xor":
            result = a ^ b
        elif m == "nor":
            result = ~(a | b)
        elif m == "slt":
            result = int(_signed(a) < _signed(b))
        elif m == "sltu":
            result = int(a < b)
        elif m == "sllv":
            result = b << (a & 31)
        elif m == "srlv":
            result = b >> (a & 31)
        elif m == "srav":
            result = _signed(b) >> (a & 31)
        elif m == "mul":
            result = _signed(a) * _signed(b)
        else:  # pragma: no cover - table and executors kept in sync
            raise MachineError(f"unhandled R-type {m}")
        self.write_register(ins.rd, result)
        return False, None

    def _exec_shift(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        value = self.read_register(ins.rt)
        m = ins.mnemonic
        if m == "sll":
            result = value << ins.shamt
        elif m == "srl":
            result = value >> ins.shamt
        else:  # sra
            result = _signed(value) >> ins.shamt
        self.write_register(ins.rd, result)
        return False, None

    def _exec_alu_i(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        a = self.read_register(ins.rs)
        m = ins.mnemonic
        if m == "addiu":
            result = a + ins.imm
        elif m == "andi":
            result = a & (ins.imm & 0xFFFF)
        elif m == "ori":
            result = a | (ins.imm & 0xFFFF)
        elif m == "xori":
            result = a ^ (ins.imm & 0xFFFF)
        elif m == "slti":
            result = int(_signed(a) < ins.imm)
        elif m == "sltiu":
            result = int(a < (ins.imm & WORD_MASK))
        elif m == "lui":
            result = (ins.imm & 0xFFFF) << 16
        else:  # pragma: no cover
            raise MachineError(f"unhandled I-type {m}")
        self.write_register(ins.rt, result)
        return False, None

    def _exec_mem(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        address = (self.read_register(ins.rs) + ins.imm) & WORD_MASK
        m = ins.mnemonic
        if m == "lw":
            self.write_register(ins.rt, self.memory.load_word(address))
            self.loads += 1
        elif m == "lh":
            self.write_register(ins.rt, self.memory.load_half(address, signed=True))
            self.loads += 1
        elif m == "lhu":
            self.write_register(ins.rt, self.memory.load_half(address, signed=False))
            self.loads += 1
        elif m == "lb":
            self.write_register(ins.rt, self.memory.load_byte(address, signed=True))
            self.loads += 1
        elif m == "lbu":
            self.write_register(ins.rt, self.memory.load_byte(address, signed=False))
            self.loads += 1
        elif m == "sw":
            self.memory.store_word(address, self.read_register(ins.rt))
            self.stores += 1
        elif m == "sh":
            self.memory.store_half(address, self.read_register(ins.rt))
            self.stores += 1
        elif m == "sb":
            self.memory.store_byte(address, self.read_register(ins.rt))
            self.stores += 1
        elif m == "ll":
            self.write_register(
                ins.rt, self.memory.load_linked(self.core_id, address)
            )
            self.loads += 1
        elif m == "sc":
            success = self.memory.store_conditional(
                self.core_id, address, self.read_register(ins.rt)
            )
            self.write_register(ins.rt, int(success))
            self.stores += 1
        else:  # pragma: no cover
            raise MachineError(f"unhandled memory op {m}")
        return False, address

    def _exec_branch(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        a = self.read_register(ins.rs)
        m = ins.mnemonic
        if m == "beq":
            taken = a == self.read_register(ins.rt)
        elif m == "bne":
            taken = a != self.read_register(ins.rt)
        elif m == "blez":
            taken = _signed(a) <= 0
        elif m == "bgtz":
            taken = _signed(a) > 0
        elif m == "bltz":
            taken = _signed(a) < 0
        elif m == "bgez":
            taken = _signed(a) >= 0
        else:  # pragma: no cover
            raise MachineError(f"unhandled branch {m}")
        self.branches += 1
        if taken:
            self.taken_branches += 1
            # self.pc currently points at the delay slot.
            self.next_pc = self.pc + 4 * ins.imm
        return taken, None

    def _exec_jump(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        m = ins.mnemonic
        if m == "j":
            self.next_pc = ins.target << 2
        elif m == "jal":
            self.write_register(31, self.pc + 4)  # return past the delay slot
            self.next_pc = ins.target << 2
        elif m == "jr":
            self.next_pc = self.read_register(ins.rs)
        elif m == "jalr":
            self.write_register(ins.rd, self.pc + 4)
            self.next_pc = self.read_register(ins.rs)
        else:  # pragma: no cover
            raise MachineError(f"unhandled jump {m}")
        return True, None

    def _exec_muldiv(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        a = self.read_register(ins.rs)
        b = self.read_register(ins.rt)
        m = ins.mnemonic
        if m == "mult":
            product = _signed(a) * _signed(b)
            self.lo = product & WORD_MASK
            self.hi = (product >> 32) & WORD_MASK
        elif m == "multu":
            product = a * b
            self.lo = product & WORD_MASK
            self.hi = (product >> 32) & WORD_MASK
        elif m == "div":
            if b == 0:
                # MIPS leaves HI/LO unpredictable on divide-by-zero; we
                # pin them to 0 for deterministic simulation.
                self.lo = self.hi = 0
            else:
                sa, sb = _signed(a), _signed(b)
                quotient = abs(sa) // abs(sb)  # trunc toward zero, as hardware
                if (sa < 0) != (sb < 0):
                    quotient = -quotient
                self.lo = quotient & WORD_MASK
                self.hi = (sa - quotient * sb) & WORD_MASK
        elif m == "divu":
            if b == 0:
                self.lo = self.hi = 0
            else:
                self.lo = (a // b) & WORD_MASK
                self.hi = (a % b) & WORD_MASK
        else:  # pragma: no cover
            raise MachineError(f"unhandled mult/div {m}")
        return False, None

    def _exec_mfhilo(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        value = self.hi if ins.mnemonic == "mfhi" else self.lo
        self.write_register(ins.rd, value)
        return False, None

    def _exec_setb(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        base = self.read_register(ins.rs)
        index = self.read_register(ins.rt)
        apply_setb(self.memory, base, index)
        self.rmw_ops += 1
        self.stores += 1
        return False, base + 4 * (index // 32)

    def _exec_update(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        base = self.read_register(ins.rs)
        last = _signed(self.read_register(ins.rt))
        result = apply_update(self.memory, base, last)
        self.write_register(ins.rd, result)
        self.rmw_ops += 1
        self.loads += 1
        return False, base + 4 * (((last + 1) & WORD_MASK) // 32)

    def _exec_halt(self, ins: Instruction) -> Tuple[bool, Optional[int]]:
        self.halted = True
        return False, None


_EXECUTORS: Dict[str, Callable] = {}
for _m in ("addu", "subu", "and", "or", "xor", "nor", "slt", "sltu",
           "sllv", "srlv", "srav", "mul"):
    _EXECUTORS[_m] = Machine._exec_alu_r
for _m in ("sll", "srl", "sra"):
    _EXECUTORS[_m] = Machine._exec_shift
for _m in ("addiu", "andi", "ori", "xori", "slti", "sltiu", "lui"):
    _EXECUTORS[_m] = Machine._exec_alu_i
for _m in ("lw", "lh", "lhu", "lb", "lbu", "sw", "sh", "sb", "ll", "sc"):
    _EXECUTORS[_m] = Machine._exec_mem
for _m in ("beq", "bne", "blez", "bgtz", "bltz", "bgez"):
    _EXECUTORS[_m] = Machine._exec_branch
for _m in ("j", "jal", "jr", "jalr"):
    _EXECUTORS[_m] = Machine._exec_jump
for _m in ("mult", "multu", "div", "divu"):
    _EXECUTORS[_m] = Machine._exec_muldiv
for _m in ("mfhi", "mflo"):
    _EXECUTORS[_m] = Machine._exec_mfhilo
_EXECUTORS["setb"] = Machine._exec_setb
_EXECUTORS["update"] = Machine._exec_update
_EXECUTORS["halt"] = Machine._exec_halt


class MultiCoreMachine:
    """Round-robin interleaving of several cores over one shared memory.

    Each :meth:`step` executes one instruction on one live core; the
    schedule argument (or default round-robin) decides which.  Because
    each instruction executes atomically — exactly the guarantee the
    scratchpad hardware gives for ``setb``/``update`` — this is the right
    level to test races between firmware ordering variants.
    """

    def __init__(
        self,
        program: Program,
        core_count: int,
        memory: Optional[Memory] = None,
        entries: Optional[List[str]] = None,
    ) -> None:
        if core_count < 1:
            raise ValueError("need at least one core")
        self.memory = memory if memory is not None else Memory()
        self.memory.store_bytes(program.data_base, program.data)
        self.cores: List[Machine] = []
        for core_id in range(core_count):
            entry = entries[core_id] if entries else None
            core = Machine(
                program, self.memory, core_id=core_id, entry=entry, load_data=False
            )
            self.cores.append(core)

    @property
    def all_halted(self) -> bool:
        return all(core.halted for core in self.cores)

    def step(self, core_index: Optional[int] = None) -> None:
        if core_index is not None:
            self.cores[core_index].step()
            return
        for core in self.cores:
            if not core.halted:
                core.step()

    def run(self, max_steps: int = 10_000_000, schedule=None) -> int:
        """Run to completion.  ``schedule`` may be an iterable of core
        indices to force a specific interleaving (used by the race
        tests); indices of halted cores are skipped."""
        steps = 0
        if schedule is not None:
            for core_index in schedule:
                if self.all_halted:
                    return steps
                core = self.cores[core_index % len(self.cores)]
                if not core.halted:
                    core.step()
                    steps += 1
            # Fall through to round-robin to finish any stragglers.
        while not self.all_halted:
            if steps >= max_steps:
                raise MachineError(f"exceeded {max_steps} steps without halting")
            for core in self.cores:
                if not core.halted:
                    core.step()
                    steps += 1
        return steps
