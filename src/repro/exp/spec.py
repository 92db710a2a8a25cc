"""Experiment points and their content-addressed identity.

A :class:`RunSpec` is everything needed to reproduce one
:class:`~repro.nic.throughput.ThroughputSimulator` run: the full
:class:`~repro.nic.config.NicConfig`, a :class:`WorkloadSpec`
(frame sizes, offered load, burstiness) and the measurement windows.
Specs are plain frozen dataclasses, so they pickle across process
boundaries and hash to a stable content key.

The cache key (:func:`spec_key`) is a SHA-256 over a canonical JSON
rendering of the spec *plus* the code-relevant calibration constants
(Table 1 profiles, batching constants, the send-task split, lock hold
times and a schema version).  Changing any model constant therefore
invalidates every cached result automatically — the cache can never
serve a number the current code would not produce.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.fabric.spec import FabricSpec
from repro.faults import FaultPlan
from repro.host.rss import RssSpec
from repro.net.workload import ConstantSize, FrameSizeModel, ImixSize
from repro.nic.config import NicConfig
from repro.nic.throughput import check_window
from repro.units import check_int_fields

#: Bump when the meaning of cached results changes in a way the
#: automatic constant-hashing below cannot see (e.g. a simulator
#: algorithm change with identical calibration constants).
#: v2: fabric runs default to the streaming latency estimator, so
#: fabric percentiles differ (within the documented error bound) from
#: v1's exact-sample values.
#: v3: handler statistics are exact integer sums in 10**-9 units, so the
#: per-function instructions/accesses/cycles, the IPC breakdown and the
#: imem bandwidth of single-NIC results differ (by ~1e-10 relative) from
#: v2's float sums; no constant changed, so only this bump keeps a warm
#: cache from serving v2 statistics beside v3 ones.
CACHE_SCHEMA_VERSION = 3


# ----------------------------------------------------------------------
# Canonical description of arbitrary config values
# ----------------------------------------------------------------------
def describe(value: Any) -> Any:
    """Recursively convert a value into canonical JSON-able primitives.

    * dataclasses become ``{"__type__": name, fields...}`` (sorted keys
      come from ``json.dumps(..., sort_keys=True)`` at hash time);
    * enums become their value;
    * floats are rendered via ``repr`` so the hash is exact, not
      subject to formatting;
    * mappings / sequences recurse.

    A dataclass may name fields in a ``DESCRIBE_OMIT_DEFAULTS`` class
    attribute: those fields are *omitted* from the description while
    they hold their declared default.  This is how a frozen spec grows
    a new optional knob (``FabricSpec.qos``, flow ``qos_class`` tags)
    without flipping the hash — and therefore the cache key and golden
    digest — of every spec that does not use it, the same contract
    :meth:`RunSpec.key_inputs` applies to its own optional fields.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        omit_defaults = getattr(type(value), "DESCRIBE_OMIT_DEFAULTS", ())
        out: Dict[str, Any] = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            field_value = getattr(value, f.name)
            if (
                f.name in omit_defaults
                and f.default is not dataclasses.MISSING
                and field_value == f.default
            ):
                continue
            out[f.name] = describe(field_value)
        return out
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "value": describe(value.value)}
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if isinstance(value, dict):
        return {str(k): describe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [describe(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot canonically describe {type(value).__name__}: {value!r}")


def code_constants() -> Dict[str, Any]:
    """The calibration constants a cached result implicitly depends on.

    Anything that changes a :class:`ThroughputResult` without appearing
    in the :class:`NicConfig` belongs here; including it in the cache
    key turns "edit a constant" into a clean cache miss.
    """
    from repro.firmware import profiles as fw
    from repro.host.descriptors import DESCRIPTOR_BYTES
    from repro.nic import throughput as tp

    return {
        "schema": CACHE_SCHEMA_VERSION,
        "ideal_profiles": describe(
            {name: p.per_frame for name, p in fw.IDEAL_PROFILES.items()}
        ),
        "send_bds_per_fetch": fw.SEND_BDS_PER_FETCH,
        "recv_bds_per_fetch": fw.RECV_BDS_PER_FETCH,
        "bds_per_sent_frame": fw.BDS_PER_SENT_FRAME,
        "descriptor_bytes": DESCRIPTOR_BYTES,
        "start_fraction": describe(tp._START_FRACTION),
        "hold_txq": describe(tp._HOLD_TXQ),
        "hold_rxpool": describe(tp._HOLD_RXPOOL),
        "hold_notify": describe(tp._HOLD_NOTIFY),
        "contention_interval_ps": tp.ThroughputSimulator._contention_interval_ps,
    }


# ----------------------------------------------------------------------
# Workload description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Serializable description of one experiment's traffic.

    ``kind`` selects the frame-size model: ``"constant"`` (the paper's
    uniform datagrams) or ``"imix"`` (the 7:4:1 Internet mix extension,
    with ``imix_pattern`` as (udp_payload, count) pairs).
    """

    kind: str = "constant"
    udp_payload_bytes: int = 1472
    imix_pattern: Tuple[Tuple[int, int], ...] = ImixSize.DEFAULT_PATTERN
    offered_fraction: float = 1.0
    rx_burst_frames: int = 1

    def __post_init__(self) -> None:
        check_int_fields(self)
        if self.kind not in ("constant", "imix"):
            raise ValueError(f"workload kind must be constant/imix, got {self.kind!r}")
        # The simulator checks these too; checking here rejects a bad
        # RunSpec before it is hashed and sent to a worker.
        if not 0.0 < self.offered_fraction <= 1.0:
            raise ValueError(
                f"offered_fraction must be in (0, 1], got {self.offered_fraction}"
            )
        if self.rx_burst_frames < 1:
            raise ValueError("rx_burst_frames must be >= 1")

    def build_size_model(self) -> Optional[FrameSizeModel]:
        """Live size model, or ``None`` for the simulator's built-in
        :class:`ConstantSize` path (kept ``None`` so constant-size runs
        construct exactly what the pre-engine drivers constructed)."""
        if self.kind == "imix":
            return ImixSize(self.imix_pattern)
        return None

    @staticmethod
    def imix(pattern: Tuple[Tuple[int, int], ...] = ImixSize.DEFAULT_PATTERN,
             offered_fraction: float = 1.0,
             rx_burst_frames: int = 1) -> "WorkloadSpec":
        return WorkloadSpec(
            kind="imix",
            imix_pattern=tuple(tuple(entry) for entry in pattern),
            offered_fraction=offered_fraction,
            rx_burst_frames=rx_burst_frames,
        )


# ----------------------------------------------------------------------
# One experiment point
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """One fully-specified simulation point.

    ``label`` is a human-facing tag (used in progress lines and result
    tables); it is deliberately *excluded* from the cache key so the
    same physical experiment under two drivers' names is one cache
    entry.
    """

    config: NicConfig
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    warmup_s: float = 0.4e-3
    measure_s: float = 0.8e-3
    label: str = ""
    fault_plan: Optional[FaultPlan] = None
    #: When set, the point is a :class:`~repro.fabric.FabricSimulator`
    #: run (N NICs + wire + flows) instead of a single-NIC throughput
    #: run; ``workload`` is ignored (traffic comes from the flows).
    fabric_spec: Optional[FabricSpec] = None
    #: When set, the host interface is the multi-queue RSS model
    #: (:class:`~repro.host.rss.RssSpec`) instead of the paper's single
    #: descriptor-ring pair.  Applies to both single-NIC and fabric
    #: points.
    rss: Optional[RssSpec] = None

    def __post_init__(self) -> None:
        check_window(self.warmup_s, self.measure_s)

    def key_inputs(self) -> Dict[str, Any]:
        """Everything that feeds the content hash (label excluded)."""
        inputs = {
            "config": describe(self.config),
            "workload": describe(self.workload),
            "warmup_s": describe(self.warmup_s),
            "measure_s": describe(self.measure_s),
            "constants": code_constants(),
        }
        # Only fault-injected points extend the key: fault-free specs
        # keep their pre-fault-layer hashes, so existing cached results
        # stay valid.
        if self.fault_plan is not None:
            inputs["fault_plan"] = describe(self.fault_plan)
        # Same contract for fabric points: single-NIC specs keep their
        # pre-fabric-layer hashes byte-identical.
        if self.fabric_spec is not None:
            inputs["fabric_spec"] = describe(self.fabric_spec)
        # And for multi-queue points: single-ring specs keep their
        # pre-RSS-layer hashes byte-identical.
        if self.rss is not None:
            inputs["rss"] = describe(self.rss)
        return inputs

    @property
    def key(self) -> str:
        return spec_key(self)

    def describe_label(self) -> str:
        return self.label or (
            f"{self.config.label}/{self.workload.kind}"
            f"{self.workload.udp_payload_bytes}"
        )


def spec_key(spec: RunSpec) -> str:
    """Stable content hash of a :class:`RunSpec` (hex SHA-256)."""
    canonical = json.dumps(
        spec.key_inputs(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_seed(spec: RunSpec) -> int:
    """Deterministic per-point seed, derived from the content key.

    The simulator is currently fully deterministic, but workers seed
    ``random`` with this before each run so any future stochastic
    component (randomized workloads, jittered arrivals) stays
    reproducible point-by-point regardless of scheduling order.
    """
    return int(spec_key(spec)[:16], 16)
