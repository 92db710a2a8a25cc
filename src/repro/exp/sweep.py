"""The :class:`Sweep` abstraction — a named grid of experiment points.

A sweep is just an ordered list of :class:`~repro.exp.spec.RunSpec`
points with a name, plus constructors for the grids the paper's
evaluation actually uses (cores x frequency, frame sizes, arbitrary
config perturbations).  Running one through the
:class:`~repro.exp.runner.SweepRunner` yields results in point order;
:meth:`Sweep.rows` flattens them into JSON/CSV-friendly records for the
CLI.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.exp.runner import SweepOutcome, SweepRunner
from repro.exp.spec import RunSpec, WorkloadSpec
from repro.fabric.spec import FabricSpec
from repro.fabric.topology import TopologySpec
from repro.faults import FaultPlan
from repro.firmware.ordering import OrderingMode
from repro.nic.config import NicConfig
from repro.units import mhz

if TYPE_CHECKING:
    from repro.host.rss import RssSpec

#: Fault-plan rate fields :meth:`Sweep.fault_grid` can sweep over.
FAULT_AXES = ("rx_fcs_rate", "sdram_error_rate", "pci_stall_rate")


class Sweep:
    """An ordered, named collection of simulation points."""

    def __init__(self, name: str, specs: Sequence[RunSpec]) -> None:
        self.name = name
        self.specs: List[RunSpec] = list(specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __add__(self, other: "Sweep") -> "Sweep":
        return Sweep(f"{self.name}+{other.name}", self.specs + other.specs)

    # ------------------------------------------------------------------
    # Constructors for the evaluation's standard grids
    # ------------------------------------------------------------------
    @classmethod
    def grid(
        cls,
        name: str,
        core_counts: Sequence[int],
        frequencies_mhz: Sequence[float],
        udp_payload_bytes: int = 1472,
        ordering: OrderingMode = OrderingMode.SOFTWARE,
        base_config: Optional[NicConfig] = None,
        warmup_s: float = 0.4e-3,
        measure_s: float = 0.8e-3,
    ) -> "Sweep":
        """Figure-7-style cores x frequency grid."""
        base = base_config if base_config is not None else NicConfig()
        specs = []
        for cores in core_counts:
            for frequency in frequencies_mhz:
                config = replace(
                    base,
                    cores=cores,
                    core_frequency_hz=mhz(frequency),
                    ordering_mode=ordering,
                )
                specs.append(
                    RunSpec(
                        config=config,
                        workload=WorkloadSpec(udp_payload_bytes=udp_payload_bytes),
                        warmup_s=warmup_s,
                        measure_s=measure_s,
                        label=f"{cores}c@{frequency:g}MHz",
                    )
                )
        return cls(name, specs)

    @classmethod
    def of_configs(
        cls,
        name: str,
        configs: Iterable[NicConfig],
        udp_payload_bytes: int = 1472,
        warmup_s: float = 0.4e-3,
        measure_s: float = 0.8e-3,
        labels: Optional[Sequence[str]] = None,
    ) -> "Sweep":
        """Ablation-style sweep: same workload, perturbed configs."""
        configs = list(configs)
        if labels is not None and len(labels) != len(configs):
            raise ValueError("labels must match configs one-to-one")
        specs = [
            RunSpec(
                config=config,
                workload=WorkloadSpec(udp_payload_bytes=udp_payload_bytes),
                warmup_s=warmup_s,
                measure_s=measure_s,
                label=labels[i] if labels is not None else config.label,
            )
            for i, config in enumerate(configs)
        ]
        return cls(name, specs)

    @classmethod
    def fault_grid(
        cls,
        name: str,
        axis: str,
        rates: Sequence[float],
        base_config: Optional[NicConfig] = None,
        udp_payload_bytes: int = 1472,
        seed: int = 0,
        plan: Optional[FaultPlan] = None,
        warmup_s: float = 0.4e-3,
        measure_s: float = 0.8e-3,
    ) -> "Sweep":
        """Throughput-under-fault-rate curve along one fault axis.

        ``axis`` names one of the :class:`~repro.faults.FaultPlan` rate
        fields (see :data:`FAULT_AXES`); each point perturbs ``plan``
        (default: a pristine plan carrying ``seed``) to that rate.  A
        rate-0 point whose plan ends up disabled is issued with
        ``fault_plan=None`` so it shares its cache entry — and its exact
        simulation path — with the fault-free baseline.
        """
        if axis not in FAULT_AXES:
            raise ValueError(
                f"fault axis must be one of {FAULT_AXES}, got {axis!r}"
            )
        base = base_config if base_config is not None else NicConfig()
        base_plan = plan if plan is not None else FaultPlan(seed=seed)
        specs = []
        for rate in rates:
            point_plan = replace(base_plan, **{axis: float(rate)})
            specs.append(
                RunSpec(
                    config=base,
                    workload=WorkloadSpec(udp_payload_bytes=udp_payload_bytes),
                    warmup_s=warmup_s,
                    measure_s=measure_s,
                    label=f"{axis}={rate:g}",
                    fault_plan=point_plan if point_plan.enabled else None,
                )
            )
        return cls(name, specs)

    @classmethod
    def fabric_grid(
        cls,
        name: str,
        base_fabric: FabricSpec,
        loads: Sequence[float],
        base_config: Optional[NicConfig] = None,
        warmup_s: float = 0.2e-3,
        measure_s: float = 0.5e-3,
    ) -> "Sweep":
        """Offered-load sweep over a fabric topology.

        Each point scales every stream flow's ``offered_fraction`` via
        :meth:`~repro.fabric.spec.FabricSpec.with_load`; RPC flows are
        closed-loop and self-pacing, so they ride along unchanged.  The
        interesting output is the latency-vs-load curve the single-NIC
        harness cannot produce (see ``docs/fabric.md``).
        """
        base = base_config if base_config is not None else NicConfig()
        specs = [
            RunSpec(
                config=base,
                warmup_s=warmup_s,
                measure_s=measure_s,
                label=f"load={load:g}",
                fabric_spec=base_fabric.with_load(float(load)),
            )
            for load in loads
        ]
        return cls(name, specs)

    @classmethod
    def qos_grid(
        cls,
        name: str,
        base_fabric: FabricSpec,
        loads: Sequence[float],
        overload_flows: Sequence[str],
        base_config: Optional[NicConfig] = None,
        warmup_s: float = 0.2e-3,
        measure_s: float = 0.5e-3,
    ) -> "Sweep":
        """Mixed-criticality isolation sweep: overload one lane only.

        ``base_fabric`` must carry a :class:`~repro.qos.QosSpec`.  Each
        point re-paces only the streams named in ``overload_flows``
        (:meth:`FabricSpec.with_load` with its ``flows`` restriction) —
        typically the best-effort lane — while every other flow holds
        its provisioned load.  The interesting output is whether the
        guaranteed class's tail latency moves as the best-effort load
        crosses saturation (it must not; ``repro qos`` tabulates it).
        """
        if base_fabric.qos is None:
            raise ValueError("qos_grid needs a fabric spec with a qos config")
        base = base_config if base_config is not None else NicConfig()
        specs = [
            RunSpec(
                config=base,
                warmup_s=warmup_s,
                measure_s=measure_s,
                label=f"overload={load:g}",
                fabric_spec=base_fabric.with_load(
                    float(load), flows=overload_flows
                ),
            )
            for load in loads
        ]
        return cls(name, specs)

    @classmethod
    def topology_grid(
        cls,
        name: str,
        base_fabric: FabricSpec,
        spine_counts: Sequence[int],
        racks: int = 2,
        hosts_per_rack: int = 2,
        base_config: Optional[NicConfig] = None,
        warmup_s: float = 0.2e-3,
        measure_s: float = 0.5e-3,
    ) -> "Sweep":
        """Oversubscription sweep: same traffic, growing spine tier.

        Each point replaces ``base_fabric``'s topology with a
        ``racks x hosts_per_rack`` leaf-spine carrying that many spines
        (ECMP seed and shard count carried over from the base topology
        when it has one), so the curve isolates how the leaf→spine
        oversubscription ratio moves tail latency and per-link drops
        under identical offered traffic.  ``base_fabric.nics`` must be
        ``racks * hosts_per_rack``; the spec's attachment validation
        enforces it per point.
        """
        base = base_config if base_config is not None else NicConfig()
        base_topo = base_fabric.topology
        specs = []
        for spines in spine_counts:
            topo = TopologySpec.leaf_spine(
                racks=racks,
                hosts_per_rack=hosts_per_rack,
                spines=spines,
                ecmp_seed=base_topo.ecmp_seed if base_topo is not None else 0,
                flow_shards=base_topo.flow_shards if base_topo is not None else 8,
            )
            specs.append(
                RunSpec(
                    config=base,
                    warmup_s=warmup_s,
                    measure_s=measure_s,
                    label=f"spines={spines}",
                    fabric_spec=replace(base_fabric, topology=topo),
                )
            )
        return cls(name, specs)

    @classmethod
    def rss_grid(
        cls,
        name: str,
        ring_counts: Sequence[int],
        base_config: Optional[NicConfig] = None,
        base_rss: Optional[RssSpec] = None,
        fabric: Optional[FabricSpec] = None,
        udp_payload_bytes: int = 1472,
        warmup_s: float = 0.4e-3,
        measure_s: float = 0.8e-3,
    ) -> "Sweep":
        """Paper-vs-modern host-interface ablation over ring counts.

        The first point, ``paper-1ring``, is the paper's host interface:
        ``rss=None`` (one descriptor-ring pair) on ``base_config``'s
        frame-level parallel firmware, sharing cache entries (and the
        exact simulation path) with every pre-RSS result.  Then one
        ``rss-<n>ring`` point per entry of ``ring_counts`` carries an
        :class:`~repro.host.rss.RssSpec` derived from ``base_rss`` on
        the task-level firmware — the modern multi-queue NIC the
        comparison targets.  A count of 1 is a real single-ring RSS arm
        (host-core contention armed), not the paper baseline.  Pass
        ``fabric`` to run every point against a fabric topology
        (RPC/IMIX flows) instead of the analytic single-NIC workload.
        """
        # Imported here: only an RSS grid loads the multi-queue host model.
        from repro.host.rss import RssSpec

        base = base_config if base_config is not None else NicConfig()
        template = base_rss if base_rss is not None else RssSpec()
        task_config = replace(base, task_level_firmware=True)
        workload = WorkloadSpec(udp_payload_bytes=udp_payload_bytes)
        arms = [(base, None, "paper-1ring")] + [
            (task_config, replace(template, rings=int(rings)), f"rss-{rings}ring")
            for rings in ring_counts
        ]
        specs = [
            RunSpec(
                config=config,
                workload=workload,
                warmup_s=warmup_s,
                measure_s=measure_s,
                label=label,
                fabric_spec=fabric,
                rss=rss,
            )
            for config, rss, label in arms
        ]
        return cls(name, specs)

    # ------------------------------------------------------------------
    def run(self, runner: Optional[SweepRunner] = None, **runner_kwargs) -> SweepOutcome:
        """Execute every point; ``runner_kwargs`` build a runner if none
        is given (``jobs=``, ``cache_dir=``, ...)."""
        if runner is None:
            runner_kwargs.setdefault("label", self.name)
            runner = SweepRunner(**runner_kwargs)
        return runner.run(self.specs)

    # ------------------------------------------------------------------
    @staticmethod
    def _rss_columns(spec: RunSpec, result) -> Dict[str, object]:
        """Host-interface columns for sweeps containing RSS points."""
        row: Dict[str, object] = {
            "rss_rings": spec.rss.rings if spec.rss is not None else 1,
        }
        if spec.fabric_spec is not None:
            reports = [nic.rss for nic in result.nics if nic.rss is not None]
        else:
            reports = [result.rss] if getattr(result, "rss", None) else []
        if reports:
            cores = [core for rep in reports for core in rep["per_core"]]
            row["host_core_busy_max"] = max(c["busy_fraction"] for c in cores)
            row["host_completions_per_s"] = sum(
                c["completions_per_s"] for c in cores
            )
        else:
            row["host_core_busy_max"] = None
            row["host_completions_per_s"] = None
        return row

    @staticmethod
    def _qos_columns(result) -> Dict[str, object]:
        """Per-class columns for sweeps containing QoS fabric points."""
        row: Dict[str, object] = {}
        report = getattr(result, "qos", None) or {"classes": {}}
        for class_name, entry in report["classes"].items():
            prefix = f"qos_{class_name}"
            row[f"{prefix}_goodput_gbps"] = entry["goodput_gbps"]
            row[f"{prefix}_p999_us"] = entry["oneway"]["p999_us"]
            row[f"{prefix}_tail_drops"] = entry["tail_drops"]
            row[f"{prefix}_red_drops"] = entry["red_drops"]
            row[f"{prefix}_pauses"] = entry["pause_events"]
        return row

    @staticmethod
    def rows(outcome: SweepOutcome) -> List[Dict[str, object]]:
        """Flatten an outcome into records for JSON/CSV export."""
        rows: List[Dict[str, object]] = []
        faulted_sweep = any(spec.fault_plan is not None for spec in outcome.specs)
        # RSS columns only materialize for sweeps carrying an RssSpec
        # somewhere, so legacy exports keep their exact schema.
        rss_sweep = any(spec.rss is not None for spec in outcome.specs)
        # Same contract for QoS columns: only sweeps with a QoS fabric
        # point somewhere grow the per-class columns.
        qos_sweep = any(
            spec.fabric_spec is not None and spec.fabric_spec.qos is not None
            for spec in outcome.specs
        )
        for spec, result, key, cached in zip(
            outcome.specs, outcome.results, outcome.keys, outcome.cached_flags
        ):
            if spec.fabric_spec is not None:
                # Fabric points report system-level columns; they only
                # appear in sweeps that contain fabric specs, so legacy
                # single-NIC exports keep their exact schema.
                flow = result.primary_flow
                row = {
                    "label": spec.describe_label(),
                    "key": key,
                    "cached": cached,
                    "cores": spec.config.cores,
                    "mhz": spec.config.core_frequency_hz / 1e6,
                    "nics": spec.fabric_spec.nics,
                    "switch": spec.fabric_spec.switch,
                    "measure_s": spec.measure_s,
                    "aggregate_goodput_gbps": result.aggregate_goodput_gbps,
                    "switch_drops": result.switch_drops,
                    "mac_drops": result.mac_drops,
                    "flow": flow.name,
                    "delivered": flow.delivered,
                    "lost": flow.lost,
                    "retransmits": flow.retransmits,
                    "oneway_p50_us": flow.oneway.p50_us,
                    "oneway_p99_us": flow.oneway.p99_us,
                    "oneway_p999_us": flow.oneway.p999_us,
                    "rtt_p50_us": flow.rtt.p50_us if flow.rtt else None,
                    "rtt_p99_us": flow.rtt.p99_us if flow.rtt else None,
                    "rtt_p999_us": flow.rtt.p999_us if flow.rtt else None,
                }
                if rss_sweep:
                    row.update(Sweep._rss_columns(spec, result))
                if qos_sweep:
                    row.update(Sweep._qos_columns(result))
                rows.append(row)
                continue
            row: Dict[str, object] = {
                "label": spec.describe_label(),
                "key": key,
                "cached": cached,
                "cores": spec.config.cores,
                "mhz": spec.config.core_frequency_hz / 1e6,
                "banks": spec.config.scratchpad_banks,
                "ordering": spec.config.ordering_mode.value,
                "udp_payload_bytes": spec.workload.udp_payload_bytes,
                "workload": spec.workload.kind,
                "offered_fraction": spec.workload.offered_fraction,
                "measure_s": spec.measure_s,
                "udp_throughput_gbps": result.udp_throughput_gbps,
                "line_rate_fraction": result.line_rate_fraction(),
                "total_fps": result.total_fps,
                "core_utilization": result.core_utilization,
                "rx_dropped": result.rx_dropped,
            }
            if faulted_sweep:
                # Fault columns only materialize for sweeps that carry a
                # plan somewhere, so fault-free exports keep their exact
                # pre-fault-layer schema.
                counters = getattr(result, "fault_counters", None) or {}
                row["fault_seed"] = (
                    spec.fault_plan.seed if spec.fault_plan is not None else None
                )
                row["rx_holes"] = getattr(result, "rx_holes", 0)
                row["rx_fcs_drops"] = counters.get("rx_fcs_drops", 0)
                row["sdram_retries"] = counters.get("sdram_retries", 0)
                row["sdram_exhausted"] = counters.get("sdram_exhausted", 0)
                row["pci_stalls"] = counters.get("pci_stalls", 0)
                row["queue_overflows"] = counters.get("queue_overflows", 0)
                row["queue_drops"] = counters.get("queue_drops", 0)
            if rss_sweep:
                row.update(Sweep._rss_columns(spec, result))
            rows.append(row)
        return rows
