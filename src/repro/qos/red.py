"""RED active queue management with keyed, replayable drop decisions.

The drop *probability* is the classic RED ramp over queue occupancy:
zero below ``min_frames``, linear up to ``max_drop_probability`` at
``max_frames``, and a forced drop at or above ``max_frames`` (the
queue's tail-drop guard then never fires first).  Occupancy is the
instantaneous per-class queue depth — the deterministic simulator has
no inter-packet arrival jitter for an EWMA to smooth, so the
instantaneous depth *is* the averaged depth of the original algorithm
(documented simplification; see docs/qos.md).

The drop *decision* reuses the keyed fault-decision pattern of
:meth:`repro.faults.FaultPlan.uniform` byte-for-byte: a blake2b draw
over ``(seed, axis, index)`` where the axis names the port and class
and the index counts that stream's decisions.  Two runs with the same
spec make identical drop decisions regardless of event interleaving —
the property that makes seeded QoS runs byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Union

_TWO_64 = float(2**64)


@dataclass(frozen=True)
class RedSpec:
    """RED thresholds for one traffic class (frames, not bytes)."""

    min_frames: int = 8
    max_frames: int = 24
    max_drop_probability: float = 0.1

    def __post_init__(self) -> None:
        if self.min_frames < 0:
            raise ValueError("RED min threshold must be non-negative")
        if self.max_frames <= self.min_frames:
            raise ValueError(
                f"RED needs min < max thresholds, got "
                f"[{self.min_frames}, {self.max_frames}]"
            )
        if not 0.0 < self.max_drop_probability <= 1.0:
            raise ValueError(
                f"RED max drop probability must be in (0, 1], got "
                f"{self.max_drop_probability}"
            )


def red_drop_probability(occupancy: int, red: RedSpec) -> float:
    """Drop probability at an instantaneous queue depth.

    Monotone non-decreasing in ``occupancy`` (the hypothesis property
    test pins this): 0 below ``min_frames``, the linear ramp between
    the thresholds, 1.0 at or beyond ``max_frames``.
    """
    if occupancy < red.min_frames:
        return 0.0
    if occupancy >= red.max_frames:
        return 1.0
    span = red.max_frames - red.min_frames
    return red.max_drop_probability * (occupancy - red.min_frames) / span


def keyed_uniform(seed: int, axis: str, index: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one decision.

    Identical recipe to :meth:`repro.faults.FaultPlan.uniform`: keyed
    on ``(seed, axis, index)`` so every decision stream is an
    independent, reproducible sequence regardless of simulator event
    interleaving.
    """
    digest = hashlib.blake2b(
        f"{seed}:{axis}:{index}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / _TWO_64


def red_decide(
    seed: int, port: Union[int, str], class_name: str, index: int,
    probability: float,
) -> bool:
    """Does the ``index``-th RED opportunity on (port, class) drop?
    ``port`` is the destination index on the implicit switch, the link
    name on a composed topology."""
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return True
    return keyed_uniform(seed, f"red:{port}:{class_name}", index) < probability


__all__ = ["RedSpec", "keyed_uniform", "red_decide", "red_drop_probability"]
