"""Command-line interface.

Subcommands::

    repro run      one full-duplex throughput experiment
    repro sweep    cores x frequency design-space sweep
    repro faults   throughput under injected faults (run or rate sweep)
    repro fabric   multi-NIC fabric: RPC/stream flows, latency percentiles
    repro qos      mixed-criticality QoS ablation: classes, schedulers, AQM
    repro topology leaf-spine ablation: oversubscription incast, ECMP spread
    repro rss      host-interface ablation: paper single ring vs multi-queue RSS
    repro report   regenerate the paper's whole evaluation
    repro check    conformance: oracles, golden corpus, fuzz, replay
    repro asm      assemble and run a MIPS firmware file
    repro ilp      IPC-limit analysis of a firmware trace

Installed as the ``repro`` console script, and reachable via
``python -m repro <subcommand>``.  Flags that describe no valid
configuration exit with status 2 and a one-line message; a failed
ablation check exits with status 1.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import List, Optional

from repro.firmware.ordering import OrderingMode
from repro.units import mhz


# ----------------------------------------------------------------------
# Flag groups shared by several subcommands
# ----------------------------------------------------------------------
def _add_nic_flags(parser, default_cores: int = 6, default_mhz: float = 166,
                   layout: bool = True, cores_help: Optional[str] = None) -> None:
    """The NIC flags :func:`_nic_config` reads; ``layout`` adds
    ``--banks/--ordering`` (without them the NicConfig defaults hold)."""
    parser.add_argument("--cores", type=int, default=default_cores,
                        help=cores_help)
    parser.add_argument("--mhz", type=float, default=default_mhz)
    if layout:
        parser.add_argument("--banks", type=int, default=4)
        parser.add_argument("--ordering", choices=["rmw", "software"],
                            default="rmw")


def _add_engine_flags(parser) -> None:
    """Flags of the cached experiment engine :func:`_run_sweep` drives."""
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: $REPRO_SWEEP_JOBS "
                             "or 1 = serial)")
    parser.add_argument("--cache-dir", type=str, default=None, metavar="DIR",
                        help="content-addressed result cache directory "
                             "(default: $REPRO_CACHE_DIR; unset = no cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable cache reads and writes even if a "
                             "cache directory is configured")


def _add_output_flags(parser, csv: bool = True) -> None:
    parser.add_argument("--json", type=str, default="", metavar="PATH",
                        dest="json_out", nargs="?", const="-",
                        help="write results as JSON ('-' or no value = "
                             "stdout)")
    if csv:
        parser.add_argument("--csv", type=str, default="", metavar="PATH",
                            dest="csv_out",
                            help="write per-point sweep rows as CSV "
                                 "('-' = stdout)")


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "run", help="run one full-duplex throughput experiment"
    )
    _add_nic_flags(parser)
    parser.add_argument("--payload", type=int, default=1472)
    parser.add_argument("--millis", type=float, default=1.0)
    parser.add_argument("--offered", type=float, default=1.0,
                        help="offered receive load as a fraction of line rate")
    _add_output_flags(parser, csv=False)
    # -- observability ---------------------------------------------------
    parser.add_argument("--trace", type=str, default="", metavar="OUT.json",
                        help="record frame-lifecycle spans and write a "
                             "Chrome trace-event / Perfetto JSON file")
    parser.add_argument("--metrics-out", type=str, default="", metavar="PATH",
                        help="write a periodic metrics time series "
                             "(see --metrics-format / --sample-interval)")
    parser.add_argument("--metrics-format", choices=["json", "csv", "prom"],
                        default="json",
                        help="time-series format; 'prom' writes the final "
                             "snapshot in Prometheus text format")
    parser.add_argument("--sample-interval", type=float, default=50.0,
                        metavar="US",
                        help="metrics sampling interval in simulated "
                             "microseconds (default: 50)")
    parser.add_argument("--profile-sim", action="store_true",
                        help="profile the simulator itself: per-callback "
                             "wall-time attribution, top-N report; with "
                             "--json, embeds the machine-readable profile "
                             "as 'sim_profile'")


def _add_sweep_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "sweep",
        help="cores x frequency sweep (parallel, cached; docs/experiments.md)",
    )
    parser.add_argument("--cores", type=int, nargs="+", default=[1, 2, 4, 6, 8])
    parser.add_argument("--mhz", type=float, nargs="+",
                        default=[100, 133, 166, 200])
    parser.add_argument("--ordering", choices=["rmw", "software"], default="rmw")
    parser.add_argument("--payload", type=int, default=1472)
    parser.add_argument("--millis", type=float, default=0.8,
                        help="measurement window per point in simulated "
                             "milliseconds (default: 0.8)")
    _add_engine_flags(parser)
    _add_output_flags(parser)


def _add_faults_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "faults",
        help="throughput under injected faults (docs/faults.md)",
    )
    _add_nic_flags(parser)
    parser.add_argument("--payload", type=int, default=1472)
    parser.add_argument("--millis", type=float, default=0.8,
                        help="measurement window in simulated milliseconds")
    # -- fault plan -------------------------------------------------------
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-plan seed (same seed => same faults)")
    parser.add_argument("--fcs-rate", type=float, default=0.0,
                        help="per-frame RX FCS corruption probability")
    parser.add_argument("--sdram-rate", type=float, default=0.0,
                        help="per-burst SDRAM transfer error probability")
    parser.add_argument("--sdram-max-retries", type=int, default=4,
                        help="bounded retry budget per SDRAM burst")
    parser.add_argument("--pci-stall-rate", type=float, default=0.0,
                        help="per-DMA host-interface stall probability")
    parser.add_argument("--pci-stall-us", type=float, default=2.0,
                        help="added latency per stalled DMA (microseconds)")
    parser.add_argument("--queue-depth", type=int, default=0,
                        help="finite event-queue depth (0 = effectively "
                             "unbounded, the fault-free default)")
    # -- sweep mode -------------------------------------------------------
    parser.add_argument("--sweep-axis", choices=["fcs", "sdram", "pci"],
                        default="", help="sweep one fault rate instead of "
                                         "running a single point")
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[0.0, 1e-4, 1e-3, 1e-2, 0.05],
                        help="fault rates for --sweep-axis")
    _add_engine_flags(parser)
    _add_output_flags(parser)


def _add_fabric_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "fabric",
        help="multi-NIC fabric with stateful flows (docs/fabric.md)",
    )
    _add_nic_flags(parser)
    # -- topology ---------------------------------------------------------
    parser.add_argument("--nics", type=int, default=2,
                        help="endpoints in the fabric (default: 2)")
    parser.add_argument("--prop-us", type=float, default=1.0,
                        help="per-hop propagation delay in microseconds")
    parser.add_argument("--switch", action="store_true",
                        help="route through a store-and-forward switch "
                             "instead of dedicated links")
    parser.add_argument("--port-queue", type=int, default=64,
                        help="switch output-port queue depth in frames")
    parser.add_argument("--switch-latency-us", type=float, default=0.5,
                        help="switch forwarding latency in microseconds")
    # -- flows ------------------------------------------------------------
    parser.add_argument("--concurrency", type=int, default=4,
                        help="RPC outstanding-request window (0 = no RPC flow)")
    parser.add_argument("--request-bytes", type=int, default=64)
    parser.add_argument("--response-bytes", type=int, default=1472)
    parser.add_argument("--think-us", type=float, default=0.0,
                        help="client think time between exchanges")
    parser.add_argument("--stream-load", type=float, default=0.0,
                        help="add an open-loop 0->1 bulk stream at this "
                             "fraction of line rate (0 = none)")
    parser.add_argument("--stream-bytes", type=int, default=1472)
    # -- windows ----------------------------------------------------------
    parser.add_argument("--millis", type=float, default=0.5,
                        help="measurement window in simulated milliseconds")
    parser.add_argument("--warmup-millis", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0,
                        help="fabric seed (salts per-endpoint fault streams)")
    # -- sweep mode -------------------------------------------------------
    parser.add_argument("--sweep-loads", type=float, nargs="+", default=[],
                        metavar="FRACTION",
                        help="sweep the stream offered load over these "
                             "fractions (engine path: parallel + cached)")
    _add_engine_flags(parser)
    # -- output -----------------------------------------------------------
    parser.add_argument("--trace", type=str, default="", metavar="OUT.json",
                        help="write a Perfetto/Chrome trace with per-NIC "
                             "tracks plus cross-NIC fabric spans")
    _add_output_flags(parser)


def _add_qos_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "qos",
        help="mixed-criticality QoS ablation: per-class queueing, "
             "pluggable schedulers, RED AQM, PFC pause (docs/qos.md)",
    )
    _add_nic_flags(parser, default_cores=4, default_mhz=133, layout=False,
                   cores_help="cores per NIC (default 4: each source can "
                              "saturate the 10G switch port, so the "
                              "best-effort lane can actually overload it)")
    # -- QoS configuration ------------------------------------------------
    parser.add_argument("--scheduler", choices=["strict", "drr", "wrr"],
                        default="strict",
                        help="per-port drain discipline (default: strict)")
    parser.add_argument("--p999-bound-us", type=float, default=150.0,
                        help="guaranteed class's provisioned p999 latency "
                             "budget; the ablation asserts it")
    parser.add_argument(
        "--red", action=argparse.BooleanOptionalAction, default=True,
        help="RED AQM on the best-effort queue (seeded, replayable drops)")
    parser.add_argument(
        "--pause", action=argparse.BooleanOptionalAction, default=False,
        help="PFC-style XOFF/XON watermarks on the best-effort queue "
             "(pauses the transmitting stream pacers)")
    # -- traffic ----------------------------------------------------------
    parser.add_argument("--guaranteed-load", type=float, default=0.25,
                        help="guaranteed lane's fixed offered fraction")
    parser.add_argument("--loads", type=float, nargs="+",
                        default=[0.3, 0.7, 1.0], metavar="FRACTION",
                        help="best-effort offered-load arms (1.0 + the "
                             "guaranteed lane overloads the shared port)")
    # -- windows / determinism --------------------------------------------
    parser.add_argument("--millis", type=float, default=0.5,
                        help="measurement window in simulated milliseconds")
    parser.add_argument("--warmup-millis", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0,
                        help="keys the RED drop decisions (same seed => "
                             "byte-identical runs)")
    _add_output_flags(parser, csv=False)


def _add_topology_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "topology",
        help="datacenter-fabric ablations: leaf-spine oversubscription "
             "incast + ECMP spreading (docs/fabric.md)",
    )
    _add_nic_flags(parser, default_cores=2, default_mhz=133, layout=False)
    # -- topology ---------------------------------------------------------
    parser.add_argument("--racks", type=int, default=2)
    parser.add_argument("--hosts-per-rack", type=int, default=4,
                        help="default 4: three elephants + the mice flow "
                             "share one uplink when --spines 1, so the "
                             "oversubscription effect is visible")
    parser.add_argument("--spines", type=int, nargs="+", default=[1, 4],
                        metavar="N",
                        help="spine counts to ablate; the ablation asserts "
                             "that the most oversubscribed arm (fewest "
                             "spines) shows the worst p999")
    # -- traffic ----------------------------------------------------------
    parser.add_argument("--load", type=float, default=0.5,
                        help="offered fraction of each elephant stream "
                             "(every host outside the victim's rack incasts "
                             "one onto the victim)")
    parser.add_argument("--mice-concurrency", type=int, default=2,
                        help="closed-loop window of the cross-rack mice "
                             "RPC flow whose RTT tail the ablation tracks")
    # -- ECMP spreading check ---------------------------------------------
    parser.add_argument("--ecmp-flows", type=int, default=512,
                        help="flow tuples routed (router-level, no "
                             "simulation) for the spreading check")
    parser.add_argument("--spread-tolerance", type=float, default=0.25,
                        help="max relative deviation of any spine's "
                             "first-hop share from the uniform share")
    # -- windows / determinism --------------------------------------------
    parser.add_argument("--millis", type=float, default=0.3,
                        help="measurement window in simulated milliseconds")
    parser.add_argument("--warmup-millis", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=17,
                        help="keys the ECMP route draws (same seed => "
                             "byte-identical runs)")
    _add_output_flags(parser, csv=False)


def _add_rss_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "rss",
        help="paper-vs-modern host-interface ablation: single ring vs "
             "multi-queue RSS (docs/fabric.md)",
    )
    _add_nic_flags(parser)
    # -- ablation arms ----------------------------------------------------
    parser.add_argument("--rings", type=int, nargs="+", default=[1, 2, 4, 8],
                        metavar="N",
                        help="ring counts for the multi-queue arms (each "
                             "runs the task-level firmware; the paper's "
                             "frame-level single-ring baseline always "
                             "rides along)")
    parser.add_argument("--hash-seed", type=int, default=0,
                        help="Toeplitz hash-key seed (0 = the published "
                             "verification-suite key)")
    parser.add_argument("--coalesce", type=int, default=8,
                        help="per-ring interrupt coalescing window")
    # -- workload ---------------------------------------------------------
    parser.add_argument("--workload", choices=["rpc", "imix", "saturation"],
                        default="rpc",
                        help="fabric RPC flows (default), fabric IMIX "
                             "streams, or the paper's analytic "
                             "saturation workload")
    parser.add_argument("--nics", type=int, default=2,
                        help="fabric endpoints (fabric workloads only)")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="RPC outstanding-request window")
    parser.add_argument("--load", type=float, default=0.7,
                        help="IMIX per-direction offered fraction")
    parser.add_argument("--seed", type=int, default=0)
    # -- windows / engine -------------------------------------------------
    parser.add_argument("--millis", type=float, default=0.8,
                        help="measurement window in simulated milliseconds")
    parser.add_argument("--warmup-millis", type=float, default=0.4)
    _add_engine_flags(parser)
    _add_output_flags(parser)


def _add_report_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "report", help="regenerate the paper's evaluation section"
    )
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--output", type=str, default="")


def _add_check_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "check",
        help="conformance checks: differential oracles, golden corpus, "
             "seeded fuzzing with replay (docs/validation.md)",
    )
    parser.add_argument("--fuzz", type=int, default=0, metavar="N",
                        help="fuzz N random experiment points with "
                             "invariant monitors armed (0 = skip)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fuzz corpus seed (same seed => same points)")
    parser.add_argument("--replay-dir", type=str, default="", metavar="DIR",
                        help="write a deterministic replay file per fuzz "
                             "failure into this directory")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking fuzz failures to minimal repros")
    parser.add_argument("--replay", type=str, default="", metavar="FILE",
                        help="re-execute one failure from its replay file "
                             "and exit")
    parser.add_argument("--skip-oracles", action="store_true",
                        help="skip the differential-oracle battery")
    parser.add_argument("--skip-golden", action="store_true",
                        help="skip the golden-trace corpus comparison")
    parser.add_argument("--update-golden", action="store_true",
                        help="regenerate tests/golden/golden.json from the "
                             "current code and exit")
    parser.add_argument("--golden-path", type=str, default="",
                        metavar="PATH", help="golden corpus file to check "
                                             "or regenerate")
    parser.add_argument("--digests", type=str, default="", metavar="PATH",
                        help="write one JSON line per golden run and fuzz "
                             "case (digest + flattened result) for "
                             "scripts/result_diff.py")


def _add_asm_parser(subparsers) -> None:
    parser = subparsers.add_parser("asm", help="assemble and run a MIPS file")
    parser.add_argument("file", help="assembly source file")
    parser.add_argument("--entry", type=str, default=None, help="entry label")
    parser.add_argument("--timing", action="store_true",
                        help="run on the cycle-level pipelined core")
    parser.add_argument("--max-steps", type=int, default=1_000_000)
    parser.add_argument("--dump", type=str, nargs="*", default=[],
                        help="data labels to dump after the run")
    parser.add_argument("--list", action="store_true", dest="listing",
                        help="print an address/encoding listing and exit")
    parser.add_argument("--emit", type=str, default="",
                        help="write a flat firmware image to this path")


def _add_ilp_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "ilp", help="IPC-limit analysis of the firmware trace (Table 2)"
    )
    parser.add_argument("--file", type=str, default=None,
                        help="assembly file to trace (default: built-in kernels)")
    parser.add_argument("--iterations", type=int, default=4)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Programmable 10 GbE NIC reproduction (HPCA 2005)",
    )
    subparsers = parser.add_subparsers(dest="command")
    _add_run_parser(subparsers)
    _add_sweep_parser(subparsers)
    _add_faults_parser(subparsers)
    _add_fabric_parser(subparsers)
    _add_qos_parser(subparsers)
    _add_topology_parser(subparsers)
    _add_rss_parser(subparsers)
    _add_report_parser(subparsers)
    _add_check_parser(subparsers)
    _add_asm_parser(subparsers)
    _add_ilp_parser(subparsers)
    return parser


# ----------------------------------------------------------------------
def _ordering(name: str) -> OrderingMode:
    return OrderingMode.RMW if name == "rmw" else OrderingMode.SOFTWARE


def _nic_config(args):
    """The NicConfig the flags of :func:`_add_nic_flags` describe."""
    from repro.nic import NicConfig

    fields = {"cores": args.cores, "core_frequency_hz": mhz(args.mhz)}
    if "banks" in args:
        fields.update(scratchpad_banks=args.banks,
                      ordering_mode=_ordering(args.ordering))
    return NicConfig(**fields)


class _InvalidFlags(Exception):
    """The flags describe no valid configuration (exit status 2)."""


@contextmanager
def _validating():
    """Scope a command's config and spec construction: a ``ValueError``
    raised inside is bad input, which :func:`main` reports in one line
    with exit status 2.  Never wrap a run, so simulator errors keep
    their traceback."""
    try:
        yield
    except ValueError as error:
        raise _InvalidFlags(str(error)) from error


def _write(path: str, text: str) -> bool:
    """Write ``text`` to ``path`` ('-' = stdout); True if it went to
    stdout, where it replaces the human-readable table."""
    if path == "-":
        print(text, end="")
        return True
    with open(path, "w") as handle:
        handle.write(text)
    print(f"results written to {path}", file=sys.stderr)
    return False


def _write_json(path: str, payload, sort_keys: bool = False) -> bool:
    import json

    return _write(path, json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n")


# ----------------------------------------------------------------------
# Running a sweep's points through the engine
# ----------------------------------------------------------------------
def _run_sweep(args, sweep, render, **header) -> int:
    """Run ``sweep`` through the cached experiment engine
    (``--jobs/--cache-dir/--no-cache``), export its per-point rows
    (``--json`` writes ``{"name", **header, "points"}``, ``--csv`` one
    line per point) and print ``render(rows)`` unless an export went to
    stdout."""
    from repro.exp import Sweep, SweepRunner

    runner = SweepRunner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=sys.stderr,
        label=sweep.name,
    )
    outcome = sweep.run(runner)
    records = Sweep.rows(outcome)
    to_stdout = False
    if args.json_out:
        payload = {"name": sweep.name, **header, "points": records}
        to_stdout |= _write_json(args.json_out, payload)
    if args.csv_out:
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=list(records[0].keys()), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(records)
        to_stdout |= _write(args.csv_out, buffer.getvalue())
    if not to_stdout:
        print(render(records))
    print(
        f"{args.command}: {len(outcome)} points, {outcome.cache_hits} cache "
        f"hits, {outcome.executed} executed in {outcome.elapsed_s:.1f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_run(args) -> int:
    from repro.nic.throughput import ThroughputSimulator, check_window

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    with _validating():
        config = _nic_config(args)
        if args.metrics_out and args.sample_interval <= 0:
            raise ValueError("--sample-interval must be positive")
        check_window(0.4e-3, args.millis * 1e-3)
        simulator = ThroughputSimulator(
            config, args.payload, offered_fraction=args.offered, tracer=tracer
        )
    sampler = None
    if args.metrics_out:
        sampler = simulator.sample_metrics_every(round(args.sample_interval * 1e6))
    profiler = None
    if args.profile_sim:
        from repro.obs import SimProfiler

        profiler = SimProfiler()
        simulator.sim.attach_profiler(profiler)
    result = simulator.run(warmup_s=0.4e-3, measure_s=args.millis * 1e-3)
    if tracer is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(tracer, args.trace, process_name=config.label)
        print(f"trace written to {args.trace} ({len(tracer.events)} events; "
              f"open in chrome://tracing or ui.perfetto.dev)", file=sys.stderr)
    if sampler is not None:
        sampler.sample_now()
        sampler.write(args.metrics_out, fmt=args.metrics_format)
        print(f"{len(sampler.samples)} metric samples written to "
              f"{args.metrics_out} ({args.metrics_format})", file=sys.stderr)
    if profiler is not None:
        print(profiler.report(), file=sys.stderr)
    if args.json_out:
        payload = result.to_dict()
        if profiler is not None:
            payload["sim_profile"] = profiler.to_dict(top_n=25)
        if _write_json(args.json_out, payload):
            return 0
    print(f"{config.label}  payload {args.payload} B")
    print(f"  throughput: {result.udp_throughput_gbps:.2f} Gb/s "
          f"({result.line_rate_fraction():.1%} of duplex line rate)")
    print(f"  tx {result.tx_fps:,.0f} fps, rx {result.rx_fps:,.0f} fps, "
          f"drops {result.rx_dropped}")
    print(f"  core utilization {result.core_utilization:.1%}, "
          f"~{result.mean_outstanding_frames:.0f} frames in flight, "
          f"rx latency {result.mean_rx_commit_latency_s * 1e6:.1f} us")
    breakdown = ", ".join(f"{k} {v:.3f}" for k, v in result.ipc_breakdown().items())
    print(f"  ipc: {breakdown}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.analysis import format_table
    from repro.exp import Sweep

    with _validating():
        sweep = Sweep.grid(
            "sweep",
            core_counts=args.cores,
            frequencies_mhz=args.mhz,
            udp_payload_bytes=args.payload,
            ordering=_ordering(args.ordering),
            warmup_s=0.4e-3,
            measure_s=args.millis * 1e-3,
        )

    def render(records):
        gbps = {(r["cores"], r["mhz"]): r["udp_throughput_gbps"] for r in records}
        return format_table(
            ["cores \\ MHz"] + [str(f) for f in args.mhz],
            [[cores] + [gbps[(cores, frequency)] for frequency in args.mhz]
             for cores in args.cores],
            title=f"UDP Gb/s, {args.ordering} firmware, {args.payload} B payloads",
        )

    return _run_sweep(args, sweep, render)


_FAULT_AXES = {
    "fcs": "rx_fcs_rate",
    "sdram": "sdram_error_rate",
    "pci": "pci_stall_rate",
}


def _cmd_faults(args) -> int:
    from repro.faults import FaultPlan

    with _validating():
        config = _nic_config(args)
        plan = FaultPlan(
            seed=args.seed,
            rx_fcs_rate=args.fcs_rate,
            sdram_error_rate=args.sdram_rate,
            sdram_max_retries=args.sdram_max_retries,
            pci_stall_rate=args.pci_stall_rate,
            pci_stall_ps=round(args.pci_stall_us * 1e6),
            event_queue_depth=args.queue_depth,
        )
    if args.sweep_axis:
        return _faults_sweep(args, config, plan)
    return _faults_single(args, config, plan)


def _faults_single(args, config, plan) -> int:
    from repro.nic.throughput import ThroughputSimulator, check_window

    with _validating():
        check_window(0.4e-3, args.millis * 1e-3)
        simulator = ThroughputSimulator(
            config, args.payload, fault_plan=plan if plan.enabled else None
        )
    result = simulator.run(warmup_s=0.4e-3, measure_s=args.millis * 1e-3)
    report = result.fault_report()
    if args.json_out:
        _write_json(args.json_out, result.to_dict())
        return 0
    print(f"{config.label}  payload {args.payload} B  seed {plan.seed}"
          + ("" if plan.enabled else "  (no faults enabled)"))
    print(f"  goodput: {report['udp_goodput_gbps']:.2f} Gb/s "
          f"({report['line_rate_fraction']:.1%} of duplex line rate)")
    print(f"  rx delivered {report['rx_delivered']}, "
          f"holes {report['rx_holes']}, "
          f"tail-dropped {report['rx_tail_dropped']}")
    counters = report["counters"]
    if counters:
        pieces = ", ".join(
            f"{key} {value:g}" for key, value in counters.items() if value
        ) or "all zero"
        print(f"  fault counters: {pieces}")
    return 0


def _faults_sweep(args, config, plan) -> int:
    from repro.analysis import format_table
    from repro.exp import Sweep

    axis = _FAULT_AXES[args.sweep_axis]
    with _validating():
        sweep = Sweep.fault_grid(
            f"faults-{args.sweep_axis}",
            axis=axis,
            rates=args.rates,
            base_config=config,
            udp_payload_bytes=args.payload,
            plan=plan,
            warmup_s=0.4e-3,
            measure_s=args.millis * 1e-3,
        )

    def render(records):
        rows = [
            [f"{rate:g}",
             f"{record['udp_throughput_gbps']:.2f}",
             record["rx_holes"],
             record["sdram_retries"],
             record["pci_stalls"],
             record["queue_drops"]]
            for rate, record in zip(args.rates, records)
        ]
        return format_table(
            [axis, "goodput Gb/s", "rx holes", "sdram retries",
             "pci stalls", "queue drops"],
            rows,
            title=f"goodput vs {axis}, {config.label}, "
                  f"{args.payload} B payloads, seed {args.seed}",
        )

    return _run_sweep(args, sweep, render, axis=axis)


def _fabric_spec_from_args(args):
    from repro.fabric import FabricSpec, RpcFlowSpec, StreamFlowSpec

    rpc_flows = ()
    if args.concurrency > 0:
        rpc_flows = (
            RpcFlowSpec(
                client=0,
                server=min(1, args.nics - 1),
                request_payload_bytes=args.request_bytes,
                response_payload_bytes=args.response_bytes,
                concurrency=args.concurrency,
                think_ps=round(args.think_us * 1e6),
                name="rpc0",
            ),
        )
    stream_flows = ()
    if args.stream_load > 0 or args.sweep_loads:
        stream_flows = (
            StreamFlowSpec(
                src=0,
                dst=min(1, args.nics - 1),
                udp_payload_bytes=args.stream_bytes,
                offered_fraction=args.stream_load or 1.0,
                name="stream0",
            ),
        )
    return FabricSpec(
        nics=args.nics,
        propagation_delay_ps=round(args.prop_us * 1e6),
        switch=args.switch,
        port_queue_frames=args.port_queue,
        switch_latency_ps=round(args.switch_latency_us * 1e6),
        rpc_flows=rpc_flows,
        stream_flows=stream_flows,
        seed=args.seed,
    )


def _cmd_fabric(args) -> int:
    with _validating():
        config = _nic_config(args)
        spec = _fabric_spec_from_args(args)
    if args.sweep_loads:
        return _fabric_sweep(args, config, spec)
    return _fabric_single(args, config, spec)


def _fabric_single(args, config, spec) -> int:
    from repro.analysis import format_table
    from repro.fabric import FabricSimulator
    from repro.nic.throughput import check_window

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    with _validating():
        check_window(args.warmup_millis * 1e-3, args.millis * 1e-3)
        fabric = FabricSimulator(config, spec, tracer=tracer)
    result = fabric.run(
        warmup_s=args.warmup_millis * 1e-3, measure_s=args.millis * 1e-3
    )
    if tracer is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(tracer, args.trace,
                           process_name=f"fabric x{spec.nics}")
        print(f"trace written to {args.trace} ({len(tracer.events)} events; "
              f"open in chrome://tracing or ui.perfetto.dev)", file=sys.stderr)
    if args.json_out:
        _write_json(args.json_out, result.to_dict())
        return 0
    topology = (
        f"switch (queue {spec.port_queue_frames})" if spec.switch
        else "direct links"
    )
    print(f"{config.label}  {spec.nics} NICs via {topology}, "
          f"prop {spec.propagation_delay_ps / 1e6:g} us/hop")
    print(f"  aggregate goodput {result.aggregate_goodput_gbps:.2f} Gb/s, "
          f"switch drops {result.switch_drops}, mac drops {result.mac_drops}")
    rows = []
    for flow in result.flows.values():
        rtt = flow.rtt
        rows.append([
            flow.name,
            flow.kind,
            flow.delivered,
            flow.lost,
            flow.retransmits,
            f"{flow.goodput_gbps:.2f}",
            f"{flow.oneway.p50_us:.1f}",
            f"{flow.oneway.p99_us:.1f}",
            f"{rtt.p50_us:.1f}" if rtt else "-",
            f"{rtt.p99_us:.1f}" if rtt else "-",
            f"{rtt.p999_us:.1f}" if rtt else "-",
        ])
    print(format_table(
        ["flow", "kind", "delivered", "lost", "retx", "Gb/s",
         "ow p50", "ow p99", "rtt p50", "rtt p99", "rtt p999"],
        rows,
        title="per-flow latency (us) over the measured window",
    ))
    return 0


def _fabric_sweep(args, config, spec) -> int:
    from repro.analysis import format_table
    from repro.exp import Sweep

    with _validating():
        sweep = Sweep.fabric_grid(
            "fabric-load",
            base_fabric=spec,
            loads=args.sweep_loads,
            base_config=config,
            warmup_s=args.warmup_millis * 1e-3,
            measure_s=args.millis * 1e-3,
        )

    def render(records):
        rows = [
            [f"{load:g}",
             f"{record['aggregate_goodput_gbps']:.2f}",
             record["switch_drops"],
             record["lost"],
             f"{record['oneway_p50_us']:.1f}",
             f"{record['oneway_p99_us']:.1f}",
             f"{record['rtt_p99_us']:.1f}" if record["rtt_p99_us"] is not None
             else "-"]
            for load, record in zip(args.sweep_loads, records)
        ]
        return format_table(
            ["load", "goodput Gb/s", "switch drops", "lost",
             "ow p50 us", "ow p99 us", "rtt p99 us"],
            rows,
            title=f"latency vs offered load, {config.label}, "
                  f"{spec.nics} NICs" + (", switched" if spec.switch else ""),
        )

    return _run_sweep(args, sweep, render)


def _cmd_qos(args) -> int:
    """The mixed-criticality QoS isolation ablation (ISSUE 9 tentpole).

    A 3-NIC incast: NIC 0 streams the *guaranteed* class at a fixed
    provisioned load and NIC 1 streams the *best-effort* class at each
    swept load, both converging on NIC 2's switch output port.  Beyond
    saturation the per-class queueing must keep the guaranteed tail
    inside its provisioned p999 bound while every loss (RED or tail)
    lands on best-effort — the Papaefstathiou-style guarantee this
    subsystem exists to demonstrate.  The arms run through the
    experiment engine (workers and cache from ``REPRO_SWEEP_JOBS`` and
    ``REPRO_CACHE_DIR``), deterministically for a given ``--seed``.
    """
    from repro.analysis import format_table
    from repro.exp import Sweep
    from repro.fabric import FabricSpec, StreamFlowSpec
    from repro.qos import QosSpec

    with _validating():
        qos = QosSpec.mixed_criticality(
            scheduler=args.scheduler,
            guaranteed_p999_bound_us=args.p999_bound_us,
            red=args.red,
            pause=args.pause,
            seed=args.seed,
        )
        base = FabricSpec(
            nics=3,
            switch=True,
            seed=args.seed,
            qos=qos,
            stream_flows=(
                StreamFlowSpec(src=0, dst=2, offered_fraction=args.guaranteed_load,
                               name="gold", qos_class="guaranteed"),
                StreamFlowSpec(src=1, dst=2, offered_fraction=1.0,
                               name="bulk", qos_class="best-effort"),
            ),
        )
        sweep = Sweep.qos_grid(
            "qos",
            base_fabric=base,
            loads=args.loads,
            overload_flows=["bulk"],
            base_config=_nic_config(args),
            warmup_s=args.warmup_millis * 1e-3,
            measure_s=args.millis * 1e-3,
        )
    arms = list(zip(args.loads, sweep.run()))

    bound_ok = True
    rows = []
    for load, result in arms:
        classes = result.qos["classes"]
        gold = classes["guaranteed"]
        bulk = classes["best-effort"]
        gold_p999 = gold["oneway"]["p999_us"]
        within = gold_p999 <= args.p999_bound_us
        bound_ok = bound_ok and within
        # Isolation: losses must land on best-effort only.
        gold_clean = gold["tail_drops"] == 0 and gold["red_drops"] == 0
        bound_ok = bound_ok and gold_clean
        rows.append([
            f"{load:g}",
            f"{gold['goodput_gbps']:.2f}",
            f"{gold_p999:.1f}",
            "ok" if within and gold_clean else "VIOLATED",
            f"{bulk['goodput_gbps']:.2f}",
            f"{bulk['oneway']['p999_us']:.1f}",
            str(bulk["tail_drops"]),
            str(bulk["red_drops"]),
            f"{bulk['pause_events']}/{bulk['resume_events']}",
        ])

    if args.json_out:
        payload = {
            "scheduler": args.scheduler,
            "seed": args.seed,
            "p999_bound_us": args.p999_bound_us,
            "bound_ok": bound_ok,
            "arms": [
                {"best_effort_load": load, "result": result.to_dict()}
                for load, result in arms
            ],
        }
        _write_json(args.json_out, payload, sort_keys=True)
    else:
        knobs = []
        if args.red:
            knobs.append("RED")
        if args.pause:
            knobs.append("PFC pause")
        print(format_table(
            ["BE load", "gold Gb/s", "gold p999 us",
             f"bound {args.p999_bound_us:g}us",
             "BE Gb/s", "BE p999 us", "BE tail", "BE red", "BE xoff/xon"],
            rows,
            title=f"mixed-criticality isolation, {args.scheduler} scheduler"
                  + (f" + {' + '.join(knobs)}" if knobs else "")
                  + f", guaranteed load {args.guaranteed_load:g}, "
                    f"seed {args.seed}",
        ))
    if not bound_ok:
        print("qos: guaranteed-class isolation VIOLATED", file=sys.stderr)
        return 1
    return 0


def _cmd_topology(args) -> int:
    """The composed-topology fabric ablations (ISSUE 10 tentpole).

    Two experiments on one leaf-spine parameterization:

    * **Oversubscription incast** — every host outside the last rack
      streams an elephant onto that rack's last host while a cross-rack
      closed-loop mice RPC flow measures its RTT tail, once per spine
      count.  With one spine the leaf→spine tier is oversubscribed and
      the mice p999 must inflate relative to the widest arm; the
      ablation asserts it (and that drops do not *increase* with more
      spines).
    * **ECMP spreading** — the router (no simulation) resolves many
      cross-rack flow tuples on the widest arm and asserts every
      spine's first-hop share is within ``--spread-tolerance`` of the
      uniform share.

    The arms run through the experiment engine, as ``repro qos``'s do.
    Deterministic for a given ``--seed``.
    """
    from repro.analysis import format_table
    from repro.exp import Sweep
    from repro.fabric import (
        FabricSpec,
        RpcFlowSpec,
        StreamFlowSpec,
        TopologyRouter,
        TopologySpec,
    )

    racks, per_rack = args.racks, args.hosts_per_rack
    nics = racks * per_rack
    victim = nics - 1
    mice_client = 0
    spine_counts = sorted(set(args.spines))
    with _validating():
        if racks < 2 or per_rack < 1 or nics < 3:
            raise ValueError("need >= 2 racks and >= 3 hosts")
        elephants = tuple(
            StreamFlowSpec(src=src, dst=victim, offered_fraction=args.load,
                           name=f"ele{src}")
            for src in range(nics - per_rack)  # every host outside the victim rack
            if src != mice_client
        )
        # The base carries the widest arm's topology: topology_grid
        # takes its ECMP seed from it, and the spreading check routes
        # on it.
        base = FabricSpec(
            nics=nics,
            switch=True,
            seed=args.seed,
            topology=TopologySpec.leaf_spine(
                racks=racks, hosts_per_rack=per_rack, spines=spine_counts[-1],
                ecmp_seed=args.seed,
            ),
            port_queue_frames=16,
            rpc_flows=(
                RpcFlowSpec(client=mice_client, server=victim,
                            concurrency=args.mice_concurrency, name="mice"),
            ),
            stream_flows=elephants,
        )
        sweep = Sweep.topology_grid(
            "topology",
            base,
            spine_counts,
            racks=racks,
            hosts_per_rack=per_rack,
            base_config=_nic_config(args),
            warmup_s=args.warmup_millis * 1e-3,
            measure_s=args.millis * 1e-3,
        )
    arms = list(zip(spine_counts, sweep.run()))

    ok = True
    rows = []
    p999_by_spines = {}
    for spines, result in arms:
        mice = result.flows["mice"]
        topo_report = result.topology
        drops = sum(
            link["dropped"] for link in topo_report["per_link"].values()
        )
        p999 = mice.rtt.p999_us
        p999_by_spines[spines] = (p999, drops)
        rows.append([
            str(spines),
            f"{nics - per_rack - 1}x{args.load:g}",
            f"{result.aggregate_goodput_gbps:.2f}",
            f"{p999:.1f}",
            str(drops),
            str(topo_report["flow_table"]["flows"]),
        ])
    if len(p999_by_spines) > 1:
        narrow = min(p999_by_spines)   # fewest spines: oversubscribed
        wide = max(p999_by_spines)
        if p999_by_spines[narrow][0] < p999_by_spines[wide][0]:
            print(
                f"topology: oversubscribed arm (spines={narrow}) shows "
                f"p999 {p999_by_spines[narrow][0]:.1f}us < widest arm "
                f"{p999_by_spines[wide][0]:.1f}us", file=sys.stderr,
            )
            ok = False
        if p999_by_spines[narrow][1] < p999_by_spines[wide][1]:
            print("topology: drops increased with added spines",
                  file=sys.stderr)
            ok = False

    # ECMP spreading, router-level, on the widest arm.
    spines = spine_counts[-1]
    spread_row = None
    if spines > 1:
        router = TopologyRouter(base.topology)
        counts = {f"spine{index}": 0 for index in range(spines)}
        for index in range(args.ecmp_flows):
            path = router.route(f"spread{index}", 0, victim)
            counts[path[1]] += 1
        uniform = args.ecmp_flows / spines
        worst = max(abs(count - uniform) / uniform for count in counts.values())
        spread_row = (counts, worst)
        if worst > args.spread_tolerance:
            print(
                f"topology: ECMP spread deviates {worst:.3f} from uniform "
                f"(tolerance {args.spread_tolerance:g})", file=sys.stderr,
            )
            ok = False

    if args.json_out:
        payload = {
            "racks": racks,
            "hosts_per_rack": per_rack,
            "seed": args.seed,
            "load": args.load,
            "ok": ok,
            "arms": [
                {"spines": spines, "result": result.to_dict()}
                for spines, result in arms
            ],
        }
        if spread_row is not None:
            payload["ecmp_spread"] = {
                "flows": args.ecmp_flows,
                "tolerance": args.spread_tolerance,
                "first_hop_counts": spread_row[0],
                "worst_relative_deviation": spread_row[1],
            }
        _write_json(args.json_out, payload, sort_keys=True)
    else:
        print(format_table(
            ["spines", "elephants", "agg Gb/s", "mice p999 us",
             "link drops", "flows tracked"],
            rows,
            title=f"leaf-spine incast, {racks}x{per_rack} hosts, "
                  f"victim h{victim}, seed {args.seed}",
        ))
        if spread_row is not None:
            counts, worst = spread_row
            shares = ", ".join(
                f"{name}={count}" for name, count in sorted(counts.items())
            )
            print(f"ECMP first-hop spread over {args.ecmp_flows} flows: "
                  f"{shares} (worst deviation {worst:.3f}, tolerance "
                  f"{args.spread_tolerance:g})")
    if not ok:
        print("topology: ablation assertions VIOLATED", file=sys.stderr)
        return 1
    return 0


def _cmd_rss(args) -> int:
    """The paper-vs-modern host-interface ablation (ISSUE 8 tentpole).

    One sweep with the paper baseline (single descriptor-ring pair,
    frame-level parallel firmware) plus one multi-queue arm per
    requested ring count (task-level firmware, Toeplitz-steered rings,
    per-ring interrupt moderation, host-core contention).  All points
    run through the cached experiment engine, so re-running an ablation
    is free and seeded runs are reproducible byte-for-byte.
    """
    from repro.analysis import format_table
    from repro.exp import Sweep
    from repro.host.rss import RssSpec

    with _validating():
        config = _nic_config(args)
        fabric_spec = None
        if args.workload != "saturation":
            from repro.fabric import FabricSpec, RpcFlowSpec, StreamFlowSpec

            peer = min(1, args.nics - 1)
            if args.workload == "rpc":
                flows = dict(
                    rpc_flows=(
                        RpcFlowSpec(
                            client=0,
                            server=peer,
                            concurrency=args.concurrency,
                            name="rpc0",
                        ),
                    ),
                )
            else:
                flows = dict(
                    stream_flows=(
                        StreamFlowSpec(src=0, dst=peer, imix=True,
                                       offered_fraction=args.load, name="imix0"),
                        StreamFlowSpec(src=peer, dst=0, imix=True,
                                       offered_fraction=args.load, name="imix1"),
                    ),
                )
            fabric_spec = FabricSpec(nics=args.nics, seed=args.seed, **flows)
        sweep = Sweep.rss_grid(
            f"rss-{args.workload}",
            args.rings,
            base_config=config,
            base_rss=RssSpec(
                hash_seed=args.hash_seed,
                interrupt_coalesce_frames=args.coalesce,
            ),
            fabric=fabric_spec,
            warmup_s=args.warmup_millis * 1e-3,
            measure_s=args.millis * 1e-3,
        )

    def render(records):
        if fabric_spec is not None:
            goodput_key, goodput_head = "aggregate_goodput_gbps", "goodput Gb/s"
        else:
            goodput_key, goodput_head = "udp_throughput_gbps", "UDP Gb/s"
        rows = []
        for record in records:
            busy = record.get("host_core_busy_max")
            compl = record.get("host_completions_per_s")
            rows.append([
                record["label"],
                record["rss_rings"],
                f"{record[goodput_key]:.2f}",
                f"{busy:.2f}" if busy is not None else "-",
                f"{compl / 1e6:.2f}" if compl is not None else "-",
                "yes" if record["cached"] else "no",
            ])
        firmware = "frame-level (paper) vs task-level (rss arms)"
        return format_table(
            ["arm", "rings", goodput_head, "host busy max",
             "host Mcompl/s", "cached"],
            rows,
            title=f"host-interface ablation, {config.label}, "
                  f"{args.workload} workload — {firmware}",
        )

    return _run_sweep(args, sweep, render)


def _cmd_report(args) -> int:
    from repro.analysis.full_report import generate_full_report

    report = generate_full_report(fast=args.fast)
    print(report)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"\nreport written to {args.output}")
    return 0


def _cmd_check(args) -> int:
    import json

    from repro.check import golden as golden_mod

    golden_path = args.golden_path or golden_mod.DEFAULT_CORPUS_PATH

    # -- replay one failure and exit --------------------------------------
    if args.replay:
        from repro.check.fuzz import replay as run_replay

        outcome = run_replay(args.replay)
        print(outcome.summary())
        return 1 if outcome.reproduced else 0

    # -- regenerate the golden corpus and exit ----------------------------
    if args.update_golden:
        return golden_mod.main(["--update", "--path", golden_path])

    failed = False
    digests = open(args.digests, "w", encoding="utf-8") if args.digests else None

    def write_digest(**record) -> None:
        if digests is not None:
            line = golden_mod.digest_record(**record)
            digests.write(json.dumps(line, sort_keys=True) + "\n")

    try:
        failed = _run_checks(args, golden_path, golden_mod, write_digest)
    finally:
        if digests is not None:
            digests.close()
    return 1 if failed else 0


def _run_checks(args, golden_path, golden_mod, write_digest) -> bool:
    """The oracle, golden and fuzz legs of ``repro check``; True if any
    failed.  ``write_digest`` receives each golden run and fuzz case."""
    failed = False

    # -- differential oracles ---------------------------------------------
    if not args.skip_oracles:
        from repro.check.oracles import run_all_oracles

        for report in run_all_oracles(seed=args.seed):
            print(report.summary())
            failed = failed or not report.ok

    # -- golden-trace corpus ----------------------------------------------
    if not args.skip_golden:
        import os

        if not os.path.exists(golden_path):
            print(f"golden corpus missing ({golden_path}); regenerate with "
                  f"`repro check --update-golden`", file=sys.stderr)
            failed = True
        else:
            def golden_record(name, result):
                write_digest(kind="golden", name=name, result=result)

            if golden_mod.main(["--path", golden_path], golden_record) != 0:
                failed = True

    # -- seeded fuzzing ----------------------------------------------------
    if args.fuzz > 0:
        from repro.check.fuzz import fuzz as run_fuzz

        def fuzz_record(index, spec, result, error):
            write_digest(kind="fuzz", seed=args.seed, index=index,
                         key=spec.key, result=result, error=error)

        report = run_fuzz(
            args.fuzz,
            seed=args.seed,
            replay_dir=args.replay_dir or None,
            progress=sys.stderr,
            shrink=not args.no_shrink,
            on_case=fuzz_record,
        )
        print(report.summary())
        for failure in report.failures:
            print(f"  case {failure.index}: {failure.error}"
                  + (f" (replay: {failure.replay_path})"
                     if failure.replay_path else ""))
        failed = failed or bool(report.failures)

    return failed


def _cmd_asm(args) -> int:
    from repro.isa import assemble
    from repro.isa.debugger import Debugger

    with open(args.file) as handle:
        source = handle.read()
    program = assemble(source)
    print(f"assembled {len(program.instructions)} instructions, "
          f"{len(program.data)} data bytes")

    if args.emit:
        from repro.isa.binary import encode_program

        blob = encode_program(program)
        with open(args.emit, "wb") as handle:
            handle.write(blob)
        print(f"firmware image written to {args.emit} ({len(blob)} bytes)")

    if args.listing:
        from repro.isa.binary import listing as render_listing

        print(render_listing(program))
        return 0

    if args.timing:
        from repro.cpu import PipelinedCore
        from repro.mem import Scratchpad

        core = PipelinedCore(program, Scratchpad(), entry=args.entry)
        stats = core.run(max_instructions=args.max_steps)
        print(f"cycles {stats.cycles}, instructions {stats.instructions}, "
              f"IPC {stats.ipc:.3f}")
        pieces = ", ".join(f"{k} {v:.3f}" for k, v in stats.breakdown().items())
        print(f"breakdown: {pieces}")
        machine = core.machine
    else:
        debugger = Debugger(program, entry=args.entry)
        reason = debugger.run(max_steps=args.max_steps)
        print(f"stopped: {reason.kind} at {reason.pc:#x}")
        print(debugger.dump_registers())
        machine = debugger.machine

    for label in args.dump:
        address = program.address_of(label)
        value = machine.memory.load_word(address)
        print(f"{label} @ {address:#x} = {value:#x} ({value})")
    return 0


def _cmd_ilp(args) -> int:
    from repro.analysis import format_table
    from repro.ilp import ipc_table

    if args.file:
        from repro.isa import Machine, assemble

        with open(args.file) as handle:
            program = assemble(handle.read())
        trace = []
        Machine(program, trace=trace).run()
    else:
        from repro.firmware.kernels import capture_trace

        trace = capture_trace("order_sw", iterations=args.iterations)
    print(f"trace: {len(trace)} dynamic instructions")
    table = ipc_table(trace)
    rows = {}
    for config, ipc in table.items():
        key = (config.issue_order.value, config.width)
        rows.setdefault(key, {})[f"{config.pipeline.value}/{config.branch.value}"] = ipc
    columns = ["perfect/pbp", "perfect/pbp1", "perfect/nobp",
               "stalls/pbp", "stalls/pbp1", "stalls/nobp"]
    print(format_table(
        ["config"] + columns,
        [[f"{order}-{width}"] + [cells[c] for c in columns]
         for (order, width), cells in sorted(rows.items())],
        title="theoretical peak IPC (Table 2)",
    ))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "faults": _cmd_faults,
    "fabric": _cmd_fabric,
    "qos": _cmd_qos,
    "topology": _cmd_topology,
    "rss": _cmd_rss,
    "report": _cmd_report,
    "check": _cmd_check,
    "asm": _cmd_asm,
    "ilp": _cmd_ilp,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _InvalidFlags as error:
        print(f"invalid {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
