"""Endpoints-vs-wallclock scaling of the composed-topology fabric.

The composed-topology fabric's performance claim is architectural, not
constant-factor: per-link ports are lazily materialized, flow state is
sharded, and routes are memoized per flow tuple, so wall time grows
near-linearly in offered frames — not in ``endpoints x flows``.  This
bench drives the :class:`~repro.fabric.scale.ScaleFabric` harness at
three fabric sizes with a proportional flow population and prints the
curve.

Assertions are qualitative shape, not absolute speed:

* frame conservation holds at every size (posted == delivered + lost,
  per-link entered == forwarded + dropped);
* growing the fabric 16x (64 -> 1024 endpoints) with 16x the flows
  costs less than 64x the wall time of the small arm — a superlinear
  (O(n^2)-ish) regression in the graph path blows through that
  immediately, while CI noise does not.
"""

from __future__ import annotations

import time

from benchmarks._helpers import emit, run_once
from repro.fabric.scale import ScaleFabric
from repro.fabric.topology import TopologySpec

#: (racks, hosts_per_rack, spines, flows) — endpoints = racks * hosts.
ARMS = (
    (4, 16, 2, 2_500),     # 64 endpoints
    (4, 64, 4, 10_000),    # 256 endpoints
    (4, 256, 4, 40_000),   # 1024 endpoints
)

#: Wall-ratio ceiling for the 16x-endpoints arm relative to the small
#: arm (see module docstring).
SCALE_FACTOR_CEILING = 64.0


def _run_arm(racks, hosts_per_rack, spines, flows):
    topology = TopologySpec.leaf_spine(
        racks=racks, hosts_per_rack=hosts_per_rack, spines=spines
    )
    fabric = ScaleFabric(topology)
    start = time.perf_counter()
    report = fabric.run(flows=flows)
    report["wall_s"] = time.perf_counter() - start
    return report


def _measure():
    return [_run_arm(*arm) for arm in ARMS]


def test_wallclock_scales_subquadratically(benchmark):
    reports = run_once(benchmark, _measure)
    lines = ["Topology scale curve (endpoints -> wall seconds)"]
    for (racks, hosts, spines, flows), report in zip(ARMS, reports):
        lines.append(
            f"  {report['endpoints']:5d} endpoints ({racks}x{hosts}, "
            f"{spines} spines) {flows:6d} flows: "
            f"{report['wall_s']:.2f} s, "
            f"{report['delivered']} delivered / {report['lost']} lost, "
            f"{report['links_used']} links"
        )
    emit("\n".join(lines))

    for report, (_, _, _, flows) in zip(reports, ARMS):
        assert report["posted"] == flows
        assert report["posted"] == report["delivered"] + report["lost"]
        for link, (entered, fwd, dropped) in report["link_counts"].items():
            assert entered == fwd + dropped, link
    small, large = reports[0], reports[-1]
    assert large["endpoints"] == 16 * small["endpoints"]
    # Guard against superlinear blowup, with floor-clamping so a
    # sub-millisecond small arm cannot make the ratio meaningless.
    ratio = large["wall_s"] / max(small["wall_s"], 0.05)
    assert ratio < SCALE_FACTOR_CEILING, (
        f"1024-endpoint arm cost {ratio:.1f}x the 64-endpoint arm "
        f"(ceiling {SCALE_FACTOR_CEILING:g}x)"
    )
