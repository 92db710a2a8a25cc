"""Mixed-criticality QoS isolation guard (the ISSUE 9 ablation).

A 3-NIC incast over the switched fabric: NIC 0 streams the
*guaranteed* class at a fixed provisioned load while NIC 1 streams the
*best-effort* class at an uncongested load and again well past the
output port's capacity, both converging on NIC 2.  The per-class
queueing + DRR scheduler + RED AQM must deliver the
Papaefstathiou-style guarantee the subsystem exists to demonstrate:

* the guaranteed class loses **zero** frames at every load and its
  one-way p999 stays inside the provisioned bound even while the port
  is overloaded;
* every loss (RED or tail) lands on best-effort, and at overload RED
  is actually shedding (drops > 0) — the guard is not vacuous;
* best-effort still makes forward progress (work conservation: the
  scheduler never idles the port while best-effort holds frames).

The runs are deterministic (seeded keyed RED decisions), so the
assertions are exact, not statistical.  Wall time is recorded as the
trajectory point; a 4-core NIC is required so the sources can actually
overload the 10G port (2 cores cap out near 5.7 Gb/s).
"""

from __future__ import annotations

from benchmarks._helpers import emit, run_once
from repro.fabric import FabricSimulator, FabricSpec, StreamFlowSpec
from repro.nic import NicConfig
from repro.qos import QosSpec
from repro.units import mhz

SEED = 5
GUARANTEED_LOAD = 0.25
UNCONGESTED_LOAD = 0.3
OVERLOAD = 1.0
P999_BOUND_US = 150.0
WARMUP_S = 0.2e-3
MEASURE_S = 0.5e-3


def _base_spec() -> FabricSpec:
    qos = QosSpec.mixed_criticality(
        scheduler="drr",
        guaranteed_p999_bound_us=P999_BOUND_US,
        seed=SEED,
    )
    return FabricSpec(
        nics=3,
        switch=True,
        seed=SEED,
        qos=qos,
        stream_flows=(
            StreamFlowSpec(src=0, dst=2, offered_fraction=GUARANTEED_LOAD,
                           name="gold", qos_class="guaranteed"),
            StreamFlowSpec(src=1, dst=2, offered_fraction=1.0,
                           name="bulk", qos_class="best-effort"),
        ),
    )


def _run_arm(load: float):
    spec = _base_spec().with_load(load, flows=["bulk"])
    config = NicConfig(cores=4, core_frequency_hz=mhz(133))
    simulator = FabricSimulator(config, spec)
    return simulator.run(warmup_s=WARMUP_S, measure_s=MEASURE_S)


def _measure():
    return _run_arm(UNCONGESTED_LOAD), _run_arm(OVERLOAD)


def test_guaranteed_class_isolated_under_overload(benchmark):
    calm, overload = run_once(benchmark, _measure)
    lines = ["Mixed-criticality isolation (drr scheduler, RED AQM)"]
    for label, result in (("calm", calm), ("overload", overload)):
        classes = result.qos["classes"]
        gold, bulk = classes["guaranteed"], classes["best-effort"]
        lines.append(
            f"  {label:9s} gold {gold['goodput_gbps']:.2f} Gb/s "
            f"p999 {gold['oneway']['p999_us']:.1f} us "
            f"(bound {P999_BOUND_US:g}), BE {bulk['goodput_gbps']:.2f} Gb/s "
            f"tail {bulk['tail_drops']} red {bulk['red_drops']}"
        )
    emit("\n".join(lines))

    for label, result in (("calm", calm), ("overload", overload)):
        gold = result.qos["classes"]["guaranteed"]
        # Isolation: the guaranteed class never loses a frame ...
        assert gold["tail_drops"] == 0 and gold["red_drops"] == 0, (
            f"{label}: guaranteed class dropped frames "
            f"(tail {gold['tail_drops']}, red {gold['red_drops']})"
        )
        # ... and its provisioned tail bound holds.
        assert gold["oneway"]["p999_us"] <= P999_BOUND_US, (
            f"{label}: guaranteed p999 {gold['oneway']['p999_us']:.1f} us "
            f"exceeds bound {P999_BOUND_US:g} us"
        )
        assert gold["delivered"] > 0

    bulk_calm = calm.qos["classes"]["best-effort"]
    bulk_over = overload.qos["classes"]["best-effort"]
    # The overload arm actually overloads: RED sheds best-effort frames.
    assert bulk_over["red_drops"] > 0, "overload arm shed no RED drops"
    assert bulk_calm["red_drops"] + bulk_calm["tail_drops"] == 0, (
        "calm arm should be loss-free"
    )
    # Best-effort is squeezed, not starved (DRR work conservation).
    assert bulk_over["delivered"] > 0
    assert bulk_over["goodput_gbps"] >= bulk_calm["goodput_gbps"], (
        "best-effort goodput fell under overload despite spare port capacity"
    )
