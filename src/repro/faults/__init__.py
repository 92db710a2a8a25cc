"""Deterministic fault-injection and recovery layer.

The paper's NIC has to sustain line rate while the firmware tolerates
the messy realities of a 10 Gb/s link: corrupted frames, stalled DMA
transfers, and full event rings.  This package makes those error paths
first-class in the reproduction:

* :class:`FaultPlan` — a frozen, content-hashable schedule of fault
  rates along four axes (RX FCS corruption, SDRAM transfer errors,
  PCI read stalls, event-queue overflow).  Because the plan is pure
  data, an :class:`~repro.exp.spec.RunSpec` carrying one still caches
  correctly in the experiment engine.
* :class:`FaultInjector` — the runtime companion: seed-reproducible
  per-event decisions (keyed hashes, not shared RNG state, so the
  decision stream is independent of simulator event interleaving),
  per-fault-kind counters, and tracer instants on a ``faults`` track.

Recovery lives in the subsystems the faults hit:
:class:`~repro.nic.throughput.ThroughputSimulator` punches sequence
holes past FCS-dropped frames so the ordering commit pointer never
wedges, :class:`~repro.assists.dma.DmaAssist` retries faulted SDRAM
bursts with bounded exponential backoff, and the distributed event
queue defers (or, for re-issuable singleton events, eventually drops)
work that cannot be enqueued.

With no plan attached the simulator takes none of these code paths and
its outputs stay byte-identical to the fault-free build.
"""

from repro._lazy import lazy_exports

# A run without a fault plan compiles neither module.
__getattr__, __dir__ = lazy_exports(__name__, {
    "FAULT_COUNTER_KEYS": "repro.faults.injector",
    "FaultInjector": "repro.faults.injector",
    "FaultPlan": "repro.faults.plan",
})

__all__ = [
    "FAULT_COUNTER_KEYS",
    "FaultInjector",
    "FaultPlan",
]
