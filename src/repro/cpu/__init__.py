"""Processor-core models.

Two levels:

* :class:`~repro.cpu.core.PipelinedCore` — a cycle-level model of the
  paper's single-issue, 5-stage, in-order MIPS core (1-deep store
  buffer, static not-taken branches with one delay slot, per-core
  I-cache, 2-cycle banked-scratchpad loads).  Executes real assembled
  programs; used for kernel validation and stall-rule verification.
* :class:`~repro.cpu.costmodel.CoreCostModel` — the same charging rules
  applied statistically to firmware-handler operation profiles; used by
  the event-driven throughput simulator, where running every instruction
  of every frame would be intractable.
"""

from repro._lazy import lazy_exports
from repro.cpu.costmodel import ContentionModel, CoreCostModel, HandlerCost

# The cycle-level core loads on first use: the throughput simulator
# charges the cost model only.
__getattr__, __dir__ = lazy_exports(__name__, {
    "CoreStats": "repro.cpu.core",
    "LockstepSystem": "repro.cpu.core",
    "PipelinedCore": "repro.cpu.core",
})

__all__ = [
    "ContentionModel",
    "CoreCostModel",
    "CoreStats",
    "HandlerCost",
    "LockstepSystem",
    "PipelinedCore",
]
