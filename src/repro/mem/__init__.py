"""The paper's partitioned NIC memory system.

Control data (descriptors, frame metadata, event state) lives in a
multi-banked on-chip scratchpad reached through a 32-bit round-robin
crossbar; instructions live in a shared instruction memory behind
per-core I-caches; frame contents live in external GDDR SDRAM reached
over a separate 128-bit bus.  :mod:`repro.mem.coherence` additionally
provides the trace-driven MESI cache simulator used to justify the
scratchpad over coherent caches (Figure 3).
"""

from repro._lazy import lazy_exports
from repro.mem.sdram import GddrSdram, SdramRequest

# The throughput simulator models only the SDRAM; the micro tier's
# memories and the Figure 3 cache study load on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "CoherenceStats": "repro.mem.coherence",
    "CoherentCacheSystem": "repro.mem.coherence",
    "MesiState": "repro.mem.coherence",
    "TraceAccess": "repro.mem.coherence",
    "sweep_cache_sizes": "repro.mem.coherence",
    "Crossbar": "repro.mem.crossbar",
    "InstructionCache": "repro.mem.icache",
    "InstructionMemory": "repro.mem.imem",
    "Scratchpad": "repro.mem.scratchpad",
})

__all__ = [
    "CoherenceStats",
    "CoherentCacheSystem",
    "sweep_cache_sizes",
    "Crossbar",
    "GddrSdram",
    "InstructionCache",
    "InstructionMemory",
    "MesiState",
    "Scratchpad",
    "SdramRequest",
    "TraceAccess",
]
