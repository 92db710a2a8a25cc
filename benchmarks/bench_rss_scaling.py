"""RSS scaling — the paper's single-ring host interface vs a modern
multi-queue (receive-side-scaling) host model.

The paper funnels every host interaction through one descriptor-ring
pair, which is fine for a single-CPU 2004 host but serializes all
completion processing on one core.  This bench sweeps ring count under
the host-core contention model: one ring is host-limited (its core
saturates below duplex line rate), N >= 2 rings spread the completion
work and restore wire-limited throughput, and per-core utilization
falls roughly in proportion to the ring count."""

from benchmarks._helpers import emit, run_once, sweep_kwargs
from repro.analysis import format_table
from repro.exp import Sweep
from repro.nic import RMW_166MHZ

RING_COUNTS = (1, 2, 4, 8)
# Long enough for the single-ring arm to drain its initial buffer
# credit and settle into its host-limited steady state.
WARMUP_S = 0.8e-3
MEASURE_S = 1.0e-3


def _experiment():
    # The paper baseline (no host model) plus one RSS arm per ring
    # count; the 1-ring RSS arm on the task-level firmware is the
    # host-limited data point.
    sweep = Sweep.rss_grid(
        "bench-rss-scaling",
        RING_COUNTS,
        base_config=RMW_166MHZ,
        warmup_s=WARMUP_S,
        measure_s=MEASURE_S,
    )
    outcome = sweep.run(**sweep_kwargs())
    return Sweep.rows(outcome)


def bench_rss_ring_scaling(benchmark):
    rows = run_once(benchmark, _experiment)

    table = []
    for row in rows:
        table.append([
            row["label"],
            row["rss_rings"],
            f"{row['udp_throughput_gbps']:.2f}",
            f"{row['host_core_busy_max']:.2f}"
            if row["host_core_busy_max"] is not None else "-",
            f"{row['host_completions_per_s'] / 1e6:.2f}"
            if row["host_completions_per_s"] is not None else "-",
        ])
    emit(format_table(
        ["Arm", "Rings", "UDP Gb/s", "Max core busy", "Mcompl/s"],
        table,
        title="RSS scaling: paper 1-ring host vs multi-queue (1472 B, RMW 166 MHz)",
    ))

    paper, *arms = rows
    assert paper["label"] == "paper-1ring"
    by_rings = {row["rss_rings"]: row for row in arms}

    # The paper baseline itself is wire-limited (no host model).
    assert paper["udp_throughput_gbps"] > 18.5
    # One ring under the host model: the core saturates and throughput
    # collapses below the wire.
    assert by_rings[1]["host_core_busy_max"] > 0.99
    assert by_rings[1]["udp_throughput_gbps"] < 0.8 * paper["udp_throughput_gbps"]
    # Two rings already restore wire-limited throughput...
    for rings in (2, 4, 8):
        assert by_rings[rings]["udp_throughput_gbps"] > 0.95 * paper["udp_throughput_gbps"]
    # ...and past that, extra rings only dilute per-core load: total
    # completion rate stays wire-limited while max busy keeps falling.
    assert by_rings[4]["host_core_busy_max"] < 0.6 * by_rings[2]["host_core_busy_max"]
    assert by_rings[8]["host_core_busy_max"] < by_rings[4]["host_core_busy_max"]
    assert (
        by_rings[4]["host_completions_per_s"]
        > 1.5 * by_rings[1]["host_completions_per_s"]
    )
