"""Discrete-event simulation kernel with multiple clock domains.

This package plays the role of the Liberty Simulation Environment (LSE)
in the paper: it provides the scheduling substrate the NIC models run
on.  Unlike LSE, which evaluates every module every cycle and composes
Spinach modules through ports, the kernel here is event driven — a
model is only activated when an event it scheduled fires (DESIGN.md
§2).  That choice is what makes sustained 10 Gb/s traffic tractable in
Python while preserving cycle-accurate ordering within each clock
domain.
"""

from repro.sim.kernel import ClockDomain, Simulator
from repro.sim.stats import Counter, Histogram, StatRegistry

__all__ = [
    "ClockDomain",
    "Counter",
    "Histogram",
    "Simulator",
    "StatRegistry",
]
