"""Microbenchmarks of the simulator's own primitives.

Unlike the table/figure benches (which run once and assert paper
shapes), these measure the *simulator's* performance — the numbers that
determine how long a full evaluation takes and where optimization
effort should go.  pytest-benchmark's repeated timing is meaningful
here."""

from repro.firmware.kernels import assemble_firmware, kernel_source
from repro.isa import Machine, assemble
from repro.isa.machine import Memory, apply_setb, apply_update
from repro.mem.coherence import CoherentCacheSystem, TraceAccess
from repro.sim import Simulator


def bench_event_kernel(benchmark):
    """Schedule-and-drain throughput of the discrete-event kernel."""

    def run():
        sim = Simulator()
        for index in range(5000):
            sim.schedule(index, lambda: None)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 5000


def bench_functional_interpreter(benchmark):
    """Instructions per second of the functional MIPS machine."""
    program = assemble(
        """
        .data
        buf: .word 0, 1, 2, 3, 4, 5, 6, 7
        .text
        main:
            li $t0, 200
        outer:
            la $t1, buf
            li $t2, 8
        inner:
            lw $t3, 0($t1)
            addu $v0, $v0, $t3
            addiu $t2, $t2, -1
            bgtz $t2, inner
            addiu $t1, $t1, 4
            addiu $t0, $t0, -1
            bgtz $t0, outer
            nop
            halt
        """
    )

    def run():
        machine = Machine(program)
        machine.run()
        return machine.instructions_executed

    instructions = benchmark(run)
    assert instructions > 8000


def bench_pipelined_core(benchmark):
    """Cycle-level core: instructions simulated per second."""
    from repro.cpu import PipelinedCore
    from repro.mem import Scratchpad

    program = assemble_firmware("order_rmw", iterations=1)

    def run():
        core = PipelinedCore(program, Scratchpad())
        stats = core.run()
        return stats.instructions

    instructions = benchmark(run)
    assert instructions > 500


def bench_assembler(benchmark):
    """Two-pass assembly of the full firmware kernel source."""
    source = kernel_source("order_sw", iterations=4)
    program = benchmark(assemble, source)
    assert program.text_bytes > 0


def bench_rmw_update(benchmark):
    """The `update` word-scan primitive (hot in ordering-heavy runs)."""
    memory = Memory(256)
    for index in range(512):
        apply_setb(memory, 0, index)

    def run():
        # Re-set a word and harvest it.
        memory.store_word(0, 0xFFFFFFFF)
        last = -1
        while True:
            new_last = apply_update(memory, 0, last)
            if new_last == last or new_last >= 31:
                return new_last
            last = new_last

    assert benchmark(run) == 31


def bench_mesi_access(benchmark):
    """Coherence-simulator accesses per second."""
    trace = [
        TraceAccess(i % 4, (i * 48) % 4096, i % 3 == 0) for i in range(2000)
    ]

    def run():
        system = CoherentCacheSystem(4, 1024, line_bytes=16)
        system.run_trace(trace)
        return system.stats.accesses

    assert benchmark(run) == 2000


def bench_throughput_simulator(benchmark):
    """Wall time of a short macro-tier window (the dominant cost of the
    figure benches)."""
    from repro.nic import RMW_166MHZ, ThroughputSimulator

    def run():
        simulator = ThroughputSimulator(RMW_166MHZ, 1472)
        result = simulator.run(warmup_s=0.1e-3, measure_s=0.2e-3)
        return result.tx_frames

    frames = benchmark.pedantic(run, rounds=3, iterations=1)
    assert frames > 0

