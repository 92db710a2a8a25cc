"""Simulator performance ledger: host wall time per simulated millisecond.

Runs four named workloads through the public ``ThroughputSimulator`` /
``FabricSimulator`` APIs, each round in a fresh single-threaded worker
process, and reports end-to-end speed, set-up time and memory plus a
per-layer breakdown from a traced round.  See ``simbench/README.md``.

This package imports nothing from ``repro`` at import time: a worker
starts its set-up clock before the simulator is imported.
"""
