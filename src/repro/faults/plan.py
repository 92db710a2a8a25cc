"""The :class:`FaultPlan` — a frozen, hashable fault schedule.

A plan is pure data: per-axis fault *rates* plus the recovery knobs
(retry budget, backoff, queue depth).  All randomness is derived from
``seed`` via keyed hashing at decision time (see
:meth:`FaultPlan.decide`), so

* two runs with the same plan make byte-identical fault decisions,
* decisions on one axis are independent of how many decisions another
  axis has made (each stream is keyed separately), and
* the plan can be embedded in an :class:`~repro.exp.spec.RunSpec` and
  content-hashed for the experiment engine's result cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.units import check_int_fields

_TWO_64 = float(2**64)


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule for one simulation run.

    Rates are per-opportunity probabilities in ``[0, 1]``:

    ``rx_fcs_rate``
        Probability that a received frame carries a bad FCS/CRC and is
        dropped at the MAC, punching a sequence hole the firmware must
        resequence around.
    ``sdram_error_rate``
        Probability that a DMA burst's SDRAM transfer faults; the DMA
        assist retries with exponential backoff up to
        ``sdram_max_retries`` times before declaring the transfer
        exhausted (it still completes, flagged bad, so the pipeline
        never deadlocks on a lost completion).
    ``pci_stall_rate``
        Probability that a PCI host phase (read/write across the bus)
        stalls for ``pci_stall_ps`` before completing.
    ``event_queue_depth``
        When non-zero, caps the distributed event queue at this depth;
        pushes into a full queue are deferred by ``queue_retry_ps``
        (backpressure).  Re-issuable singleton events are dropped
        outright after ``queue_drop_after`` deferrals.
    """

    seed: int = 0
    rx_fcs_rate: float = 0.0
    sdram_error_rate: float = 0.0
    sdram_max_retries: int = 4
    sdram_retry_backoff_ps: int = 200_000
    pci_stall_rate: float = 0.0
    pci_stall_ps: int = 2_000_000
    event_queue_depth: int = 0
    queue_retry_ps: int = 1_000_000
    queue_drop_after: int = 8

    def __post_init__(self) -> None:
        check_int_fields(self)
        for name in ("rx_fcs_rate", "sdram_error_rate", "pci_stall_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.sdram_max_retries < 0:
            raise ValueError("sdram_max_retries must be >= 0")
        if self.sdram_retry_backoff_ps < 0:
            raise ValueError("sdram_retry_backoff_ps must be >= 0")
        if self.pci_stall_ps < 0:
            raise ValueError("pci_stall_ps must be >= 0")
        if self.event_queue_depth < 0:
            raise ValueError("event_queue_depth must be >= 0")
        if self.queue_retry_ps <= 0:
            raise ValueError("queue_retry_ps must be > 0")
        if self.queue_drop_after < 1:
            raise ValueError("queue_drop_after must be >= 1")

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when the plan can actually perturb a run."""
        return (
            self.rx_fcs_rate > 0.0
            or self.sdram_error_rate > 0.0
            or self.pci_stall_rate > 0.0
            or self.event_queue_depth > 0
        )

    # ------------------------------------------------------------------
    def uniform(self, axis: str, index: int) -> float:
        """Deterministic uniform draw in ``[0, 1)`` for one decision.

        Keyed on ``(seed, axis, index)`` so every fault stream is an
        independent, reproducible sequence regardless of simulator
        event interleaving.
        """
        digest = hashlib.blake2b(
            f"{self.seed}:{axis}:{index}".encode("ascii"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / _TWO_64

    def decide(self, rate: float, axis: str, index: int) -> bool:
        """Does fault ``axis`` fire on its ``index``-th opportunity?"""
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self.uniform(axis, index) < rate
