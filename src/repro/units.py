"""Unit helpers shared across the simulator.

All simulator-internal time is kept in *picoseconds* (integers) so that
multiple clock domains (166/200 MHz cores, 500 MHz SDRAM, the 10 Gb/s
Ethernet bit clock, the PCI clock) can interleave without floating-point
drift.  Frequencies are expressed in Hz and bandwidths in bits per second
unless a name says otherwise.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from typing import Tuple

PICOSECONDS_PER_SECOND = 1_000_000_000_000

KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000

KIB = 1024
MIB = 1024 * 1024


def mhz(value: float) -> float:
    """Return a frequency given in MHz as Hz."""
    return value * MEGA


def ghz(value: float) -> float:
    """Return a frequency given in GHz as Hz."""
    return value * GIGA


def gbps(value: float) -> float:
    """Return a bandwidth given in Gb/s as bits per second."""
    return value * GIGA


def to_gbps(bits_per_second: float) -> float:
    """Express a bits-per-second figure in Gb/s."""
    return bits_per_second / GIGA


def cycle_time_ps(frequency_hz: float) -> int:
    """Length of one clock cycle at ``frequency_hz``, in integer picoseconds.

    Rounded to the nearest picosecond; at the frequencies used here
    (tens of MHz to a few GHz) the rounding error per cycle is < 0.1%.
    A clock whose period rounds to 0 ps (above 2 THz) has no integer
    period and is rejected.
    """
    if not math.isfinite(frequency_hz) or frequency_hz <= 0:
        raise ValueError(f"frequency must be finite and positive, got {frequency_hz}")
    period = round(PICOSECONDS_PER_SECOND / frequency_hz)
    if period < 1:
        raise ValueError(f"frequency {frequency_hz} Hz has a period below 1 ps")
    return period


def seconds_to_ps(seconds: float) -> int:
    """Convert seconds to integer picoseconds."""
    return round(seconds * PICOSECONDS_PER_SECOND)


def ps_to_seconds(picoseconds: int) -> float:
    """Convert integer picoseconds to seconds."""
    return picoseconds / PICOSECONDS_PER_SECOND


def bits_to_bytes(bits: int) -> int:
    """Convert a bit count to bytes, requiring byte alignment."""
    if bits % 8:
        raise ValueError(f"bit count {bits} is not byte aligned")
    return bits // 8


def transfer_time_ps(num_bytes: int, bits_per_second: float) -> int:
    """Wire/bus time to move ``num_bytes`` at ``bits_per_second``."""
    if num_bytes < 0:
        raise ValueError(f"byte count must be non-negative, got {num_bytes}")
    if bits_per_second <= 0:
        raise ValueError(f"bandwidth must be positive, got {bits_per_second}")
    return round(num_bytes * 8 * PICOSECONDS_PER_SECOND / bits_per_second)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return (value + alignment - 1) // alignment * alignment


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return value // alignment * alignment


@functools.lru_cache(maxsize=None)
def _int_fields(cls: type) -> Tuple[str, ...]:
    return tuple(
        f.name for f in dataclasses.fields(cls) if f.type in ("int", int)
    )


def check_int_fields(spec) -> None:
    """Reject a non-integer value in any ``int`` field of the dataclass
    ``spec``; its ``__post_init__`` calls this first.

    Counts, sizes, seeds and picosecond delays are exact integers in the
    simulator, so a field annotated ``int`` must hold a value
    :func:`operator.index` accepts.  A float is refused even when it is
    whole (``seed=1.0`` would seed a different fault stream from
    ``seed=1``), and so is NaN.  The message names the field.
    """
    for name in _int_fields(type(spec)):
        value = getattr(spec, name)
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(
                f"{type(spec).__name__}.{name} must be an integer, got {value!r}"
            ) from None
