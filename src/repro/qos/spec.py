"""Frozen, content-hashable QoS configuration.

A :class:`QosSpec` declares the traffic classes a switched fabric
serves — DSCP-style tags carried on every
:class:`~repro.fabric.flows.FabricFrame`, per-class queue capacities,
the per-port scheduler that drains them, optional RED AQM thresholds,
and optional PFC-style pause/resume watermarks.  Like
:class:`~repro.fabric.spec.FabricSpec` and
:class:`~repro.faults.FaultPlan`, it is built from primitives only, so
it canonicalizes through :func:`repro.exp.spec.describe` and
content-hashes into experiment cache keys; a fabric with ``qos=None``
hashes (and simulates) exactly as it did before this layer existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.qos.red import RedSpec
from repro.units import check_int_fields

#: Base DRR quantum: one max-size wire frame (1538 B of link occupancy:
#: 1518 B frame + preamble/SFD + IFG).  A class's per-round deficit
#: grant is ``weight * DRR_QUANTUM_BYTES`` unless ``quantum_bytes``
#: overrides it; a quantum of at least one max frame guarantees every
#: backlogged class progresses every round (O(1) DRR condition).
DRR_QUANTUM_BYTES = 1538

#: Scheduler disciplines `make_scheduler` knows how to build.
SCHEDULER_NAMES = ("strict", "drr", "wrr")


@dataclass(frozen=True)
class TrafficClassSpec:
    """One traffic class: tag, queue, scheduling share, AQM, pause.

    ``priority`` orders classes under the strict-priority scheduler
    (lower number = served first).  ``weight`` is the per-round share
    under WRR (frames per visit) and scales the DRR quantum
    (``weight * DRR_QUANTUM_BYTES`` bytes per round, unless
    ``quantum_bytes`` sets it explicitly).  ``pause_xoff_frames`` > 0
    arms PFC-style backpressure: when the class queue reaches the XOFF
    watermark the switch pauses the pacers of every stream flow of this
    class targeting the congested port, resuming once the queue drains
    to ``pause_xon_frames``.  ``p999_bound_us`` is the latency budget a
    guaranteed class is provisioned for (0 = best effort, no bound);
    the ``repro qos`` ablation and the isolation bench assert it.
    """

    name: str
    dscp: int = 0
    queue_frames: int = 64
    priority: int = 0
    weight: int = 1
    quantum_bytes: int = 0
    red: Optional[RedSpec] = None
    pause_xoff_frames: int = 0
    pause_xon_frames: int = 0
    p999_bound_us: float = 0.0

    def __post_init__(self) -> None:
        check_int_fields(self)
        if not self.name:
            raise ValueError("traffic class needs a non-empty name")
        if not 0 <= self.dscp <= 63:
            raise ValueError(
                f"class {self.name!r} dscp {self.dscp} outside [0, 63]"
            )
        if self.queue_frames < 1:
            raise ValueError(
                f"class {self.name!r} queue must hold at least one frame"
            )
        if self.priority < 0:
            raise ValueError(f"class {self.name!r} priority must be >= 0")
        if self.weight < 1:
            raise ValueError(f"class {self.name!r} weight must be >= 1")
        if self.quantum_bytes < 0:
            raise ValueError(
                f"class {self.name!r} quantum_bytes must be non-negative"
            )
        if self.red is not None and self.red.max_frames > self.queue_frames:
            raise ValueError(
                f"class {self.name!r} RED max threshold "
                f"{self.red.max_frames} exceeds queue depth "
                f"{self.queue_frames}"
            )
        if self.pause_xoff_frames < 0 or self.pause_xon_frames < 0:
            raise ValueError(
                f"class {self.name!r} pause watermarks must be non-negative"
            )
        if self.pause_xoff_frames:
            if not self.pause_xon_frames < self.pause_xoff_frames:
                raise ValueError(
                    f"class {self.name!r} needs XON {self.pause_xon_frames} "
                    f"< XOFF {self.pause_xoff_frames}"
                )
            if self.pause_xoff_frames > self.queue_frames:
                raise ValueError(
                    f"class {self.name!r} XOFF {self.pause_xoff_frames} "
                    f"exceeds queue depth {self.queue_frames}"
                )
        if self.p999_bound_us < 0.0:
            raise ValueError(
                f"class {self.name!r} p999_bound_us must be non-negative"
            )

    @property
    def drr_quantum_bytes(self) -> int:
        """Effective DRR per-round grant."""
        return self.quantum_bytes or self.weight * DRR_QUANTUM_BYTES


@dataclass(frozen=True)
class QosSpec:
    """The fabric's queue-management configuration.

    ``scheduler`` picks the per-port drain discipline (one independent
    scheduler instance per output port): ``"strict"`` priority,
    ``"drr"`` deficit round robin, or ``"wrr"`` weighted round robin —
    see :mod:`repro.qos.sched`.  ``seed`` keys the RED drop decisions
    (the :meth:`~repro.faults.FaultPlan.uniform` blake2b pattern, so
    drops are reproducible and interleaving-independent).
    ``default_class`` names the class untagged flows map to (default:
    the first declared class).
    """

    classes: Tuple[TrafficClassSpec, ...] = ()
    scheduler: str = "drr"
    seed: int = 0
    default_class: str = ""

    def __post_init__(self) -> None:
        check_int_fields(self)
        if not self.classes:
            raise ValueError("qos needs at least one traffic class")
        names = [tc.name for tc in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"traffic class names must be unique, got {names}")
        tags = [tc.dscp for tc in self.classes]
        if len(set(tags)) != len(tags):
            raise ValueError(f"traffic class dscp tags must be unique, got {tags}")
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"scheduler must be one of {SCHEDULER_NAMES}, "
                f"got {self.scheduler!r}"
            )
        if self.default_class and self.default_class not in names:
            raise ValueError(
                f"default_class {self.default_class!r} is not a declared "
                f"class (have {names})"
            )

    # ------------------------------------------------------------------
    def class_names(self) -> Tuple[str, ...]:
        return tuple(tc.name for tc in self.classes)

    def index_of(self, name: str) -> int:
        """Class index for a (possibly empty ⇒ default) class name."""
        resolved = self.resolve(name)
        for index, tc in enumerate(self.classes):
            if tc.name == resolved:
                return index
        raise ValueError(
            f"unknown traffic class {name!r} (have {self.class_names()})"
        )

    def resolve(self, name: str) -> str:
        """Map an (optional) flow class assignment to a class name."""
        if name:
            return name
        return self.default_class or self.classes[0].name

    # ------------------------------------------------------------------
    @staticmethod
    def mixed_criticality(
        scheduler: str = "strict",
        guaranteed_p999_bound_us: float = 150.0,
        guaranteed_queue_frames: int = 32,
        best_effort_queue_frames: int = 64,
        red: bool = True,
        pause: bool = False,
        seed: int = 0,
    ) -> "QosSpec":
        """The canonical two-lane ablation config (Liang et al. lanes).

        A ``guaranteed`` class (DSCP 46, expedited forwarding) with a
        shallow queue and a provisioned p999 bound, plus a
        ``best-effort`` class (DSCP 0) with a deep queue, optional RED,
        and optional PFC pause watermarks.  Under strict priority (the
        default) or a 4:1 DRR/WRR share, overloading best-effort must
        not move the guaranteed tail — the property ``repro qos`` and
        ``benchmarks/bench_qos_isolation.py`` measure.
        """
        best_effort_red = (
            RedSpec(
                min_frames=best_effort_queue_frames // 4,
                max_frames=(best_effort_queue_frames * 3) // 4,
                max_drop_probability=0.2,
            )
            if red
            else None
        )
        xoff = (best_effort_queue_frames * 7) // 8 if pause else 0
        xon = best_effort_queue_frames // 4 if pause else 0
        return QosSpec(
            classes=(
                TrafficClassSpec(
                    name="guaranteed",
                    dscp=46,
                    queue_frames=guaranteed_queue_frames,
                    priority=0,
                    weight=4,
                    p999_bound_us=guaranteed_p999_bound_us,
                ),
                TrafficClassSpec(
                    name="best-effort",
                    dscp=0,
                    queue_frames=best_effort_queue_frames,
                    priority=1,
                    weight=1,
                    red=best_effort_red,
                    pause_xoff_frames=xoff,
                    pause_xon_frames=xon,
                ),
            ),
            scheduler=scheduler,
            seed=seed,
        )


__all__ = [
    "DRR_QUANTUM_BYTES",
    "QosSpec",
    "SCHEDULER_NAMES",
    "TrafficClassSpec",
]
