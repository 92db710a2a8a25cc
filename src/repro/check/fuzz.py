"""Seeded fuzzing over the experiment space, with shrink and replay.

The fuzzer samples random :class:`~repro.exp.spec.RunSpec` points —
configs, workloads, optional :class:`~repro.faults.FaultPlan` fault
injection and optional :class:`~repro.fabric.spec.FabricSpec` multi-NIC
topologies — and runs each with an armed
:class:`~repro.check.monitor.InvariantMonitor` plus the post-run
:func:`~repro.check.verify.verify_conservation` identities.

Every case is a pure function of ``(seed, index)``: the sampler derives
its RNG from the string ``"{seed}:{index}"`` (Python hashes ``str``
seeds with SHA-512, stable across runs and platforms), so a failing
case needs only those two integers — plus the names of the shrink
transforms that were applied — to be reproduced exactly.  That triple
*is* the replay file:

.. code-block:: json

    {"version": 1, "seed": 0, "index": 17,
     "shrinks": ["drop_fabric", "single_core"], "error": "..."}

``repro check --replay file.json`` re-derives the spec and re-runs it
deterministically.  Shrinking is greedy over a fixed list of named,
order-deterministic simplifications (drop the fabric, drop the fault
plan, collapse to one core, ...): a transform is kept only if the
simplified case still fails, so the recorded shrink list always maps
the sampled point to a *minimal still-failing* configuration.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.monitor import InvariantMonitor
from repro.check.verify import attach_monitor, verify_conservation

REPLAY_VERSION = 1

#: The fuzzer keeps windows short: invariants are checked per event, so
#: a few hundred microseconds of simulated traffic exercises thousands
#: of checks per case while keeping ``--fuzz 25`` CI-cheap.
WARMUP_S = 0.05e-3
MEASURE_S = 0.2e-3


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def _case_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"repro-fuzz:{seed}:{index}")


def sample_point(rng: random.Random):
    """One random :class:`RunSpec` drawn from the supported space."""
    from repro.exp.spec import RunSpec, WorkloadSpec
    from repro.fabric.spec import FabricSpec
    from repro.faults import FaultPlan
    from repro.firmware.ordering import OrderingMode
    from repro.nic.config import NicConfig
    from repro.units import mhz

    config = NicConfig(
        cores=rng.choice([1, 2, 4, 6]),
        core_frequency_hz=mhz(rng.choice([100, 133, 166, 200])),
        scratchpad_banks=rng.choice([2, 4, 8]),
        ordering_mode=rng.choice(list(OrderingMode)),
        checksum_offload=rng.choice(["none", "none", "assist", "firmware"]),
        task_level_firmware=rng.random() < 0.15,
    )

    if rng.random() < 0.3:
        workload = WorkloadSpec.imix(
            offered_fraction=rng.choice([0.6, 0.8, 1.0]),
            rx_burst_frames=rng.choice([1, 1, 4]),
        )
    else:
        workload = WorkloadSpec(
            udp_payload_bytes=rng.choice([18, 64, 256, 512, 1472]),
            offered_fraction=rng.choice([0.5, 0.8, 1.0]),
            rx_burst_frames=rng.choice([1, 1, 2, 8]),
        )

    fault_plan = None
    if rng.random() < 0.45:
        fault_plan = FaultPlan(
            seed=rng.randrange(1 << 16),
            rx_fcs_rate=rng.choice([0.0, 0.005, 0.02]),
            sdram_error_rate=rng.choice([0.0, 0.001, 0.01]),
            pci_stall_rate=rng.choice([0.0, 0.002]),
            event_queue_depth=rng.choice([0, 0, 24]),
        )

    fabric_spec = None
    if rng.random() < 0.3:
        fabric_spec = FabricSpec.rpc_pair(
            seed=rng.randrange(1 << 16),
            concurrency=rng.choice([1, 4]),
        )
        if rng.random() < 0.5:
            fabric_spec = dataclasses.replace(
                fabric_spec,
                switch=True,
                port_queue_frames=rng.choice([2, 8]),
            )

    if rng.random() < 0.25:
        # A small receive buffer makes the MAC tail-drop, so the window
        # commits frames accepted after a drop.  Drawn last, so every
        # earlier draw of a case is unchanged.
        config = dataclasses.replace(config, rx_buffer_bytes=16 * 1024)

    return RunSpec(
        config=config,
        workload=workload,
        warmup_s=WARMUP_S,
        measure_s=MEASURE_S,
        fault_plan=fault_plan,
        fabric_spec=fabric_spec,
        label="fuzz",
    )


# ----------------------------------------------------------------------
# Monitored execution
# ----------------------------------------------------------------------
def run_monitored(spec) -> Tuple[object, InvariantMonitor, Dict[str, object]]:
    """Run one spec with monitors armed; returns (result, monitor, identities).

    Raises :exc:`InvariantViolation` (or whatever the simulator raises)
    on failure — the caller decides whether that is a fuzz finding or a
    test failure.
    """
    from repro.exp.runner import build_simulator

    monitor = InvariantMonitor()
    simulator = build_simulator(spec)
    attach_monitor(simulator, monitor)
    result = simulator.run(spec.warmup_s, spec.measure_s)
    identities = verify_conservation(simulator, monitor=monitor)
    return result, monitor, identities


# ----------------------------------------------------------------------
# Shrinking (named, deterministic transforms)
# ----------------------------------------------------------------------
def _drop_fabric(spec):
    return dataclasses.replace(spec, fabric_spec=None)


def _drop_faults(spec):
    return dataclasses.replace(spec, fault_plan=None)


def _plain_switch(spec):
    if spec.fabric_spec is None or not spec.fabric_spec.switch:
        return spec
    return dataclasses.replace(
        spec, fabric_spec=dataclasses.replace(spec.fabric_spec, switch=False)
    )


def _constant_workload(spec):
    from repro.exp.spec import WorkloadSpec

    return dataclasses.replace(spec, workload=WorkloadSpec())


def _single_core(spec):
    return dataclasses.replace(
        spec, config=dataclasses.replace(spec.config, cores=1)
    )


def _default_ordering(spec):
    from repro.firmware.ordering import OrderingMode

    return dataclasses.replace(
        spec,
        config=dataclasses.replace(
            spec.config, ordering_mode=OrderingMode.RMW
        ),
    )


def _frame_level(spec):
    return dataclasses.replace(
        spec, config=dataclasses.replace(spec.config, task_level_firmware=False)
    )


def _no_checksum(spec):
    return dataclasses.replace(
        spec, config=dataclasses.replace(spec.config, checksum_offload="none")
    )


def _short_window(spec):
    return dataclasses.replace(spec, warmup_s=0.0, measure_s=0.1e-3)


#: Ordered registry; names are what replay files record.
SHRINK_TRANSFORMS: Dict[str, Callable] = {
    "drop_fabric": _drop_fabric,
    "drop_faults": _drop_faults,
    "plain_switch": _plain_switch,
    "constant_workload": _constant_workload,
    "single_core": _single_core,
    "default_ordering": _default_ordering,
    "frame_level_firmware": _frame_level,
    "no_checksum": _no_checksum,
    "short_window": _short_window,
}


def apply_shrinks(spec, shrinks: List[str]):
    for name in shrinks:
        spec = SHRINK_TRANSFORMS[name](spec)
    return spec


def _case_fails(spec) -> Optional[str]:
    """Run one case; returns the failure string, or None on success."""
    try:
        run_monitored(spec)
    except Exception as error:  # noqa: BLE001 - any crash is a finding;
        # the replay file reproduces it either way.
        return f"{type(error).__name__}: {error}"
    return None


def shrink_failure(spec, first_error: str) -> Tuple[List[str], str]:
    """Greedy minimization; returns (kept shrink names, final error)."""
    kept: List[str] = []
    error = first_error
    progress = True
    while progress:
        progress = False
        for name, transform in SHRINK_TRANSFORMS.items():
            if name in kept:
                continue
            candidate = transform(apply_shrinks(spec, kept))
            if candidate == apply_shrinks(spec, kept):
                continue  # transform was a no-op for this spec
            still_failing = _case_fails(candidate)
            if still_failing is not None:
                kept.append(name)
                error = still_failing
                progress = True
    return kept, error


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
@dataclass
class FuzzFailure:
    """One failing case, in replayable form."""

    seed: int
    index: int
    shrinks: List[str]
    error: str
    original_error: str
    replay_path: Optional[str] = None

    def replay_payload(self) -> Dict[str, object]:
        return {
            "version": REPLAY_VERSION,
            "seed": self.seed,
            "index": self.index,
            "shrinks": list(self.shrinks),
            "error": self.error,
        }


@dataclass
class FuzzReport:
    """Outcome of one ``repro check --fuzz`` invocation."""

    seed: int
    cases: int = 0
    checks: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] fuzz: {self.cases} cases (seed {self.seed}), "
            f"{self.checks} runtime checks, {len(self.failures)} failure(s)"
        )


def spec_for_case(seed: int, index: int, shrinks: Optional[List[str]] = None):
    """Deterministically rebuild the spec for ``(seed, index, shrinks)``."""
    spec = sample_point(_case_rng(seed, index))
    if shrinks:
        spec = apply_shrinks(spec, shrinks)
    return spec


def fuzz(
    cases: int,
    seed: int = 0,
    replay_dir: Optional[str] = None,
    progress=None,
    shrink: bool = True,
    on_case: Optional[Callable] = None,
) -> FuzzReport:
    """Run ``cases`` random monitored simulations.

    Failures are shrunk to a minimal still-failing configuration and —
    when ``replay_dir`` is given — written there as
    ``replay-<seed>-<index>.json`` files for ``repro check --replay``.
    ``on_case(index, spec, result, error)``, when given, sees every case
    before any shrinking: its result, or ``None`` and the error string.
    """
    import os

    report = FuzzReport(seed=seed)
    for index in range(cases):
        spec = spec_for_case(seed, index)
        report.cases += 1
        try:
            result, monitor, _identities = run_monitored(spec)
            if on_case is not None:
                on_case(index, spec, result, None)
            report.checks += monitor.total_checks()
            if progress is not None:
                progress.write(
                    f"fuzz[{index}] ok: {spec.config.label} "
                    f"faults={'y' if spec.fault_plan else 'n'} "
                    f"fabric={'y' if spec.fabric_spec else 'n'} "
                    f"({monitor.total_checks()} checks)\n"
                )
        except Exception as error:  # noqa: BLE001 - every crash is a finding
            original = f"{type(error).__name__}: {error}"
            if on_case is not None:
                on_case(index, spec, None, original)
            shrinks: List[str] = []
            final_error = original
            if shrink:
                shrinks, final_error = shrink_failure(spec, original)
            failure = FuzzFailure(
                seed=seed,
                index=index,
                shrinks=shrinks,
                error=final_error,
                original_error=original,
            )
            report.failures.append(failure)
            if replay_dir is not None:
                os.makedirs(replay_dir, exist_ok=True)
                path = os.path.join(
                    replay_dir, f"replay-{seed}-{index}.json"
                )
                write_replay(failure, path)
                failure.replay_path = path
                if progress is not None:
                    progress.write(f"fuzz[{index}] FAIL -> {path}\n")
            elif progress is not None:
                progress.write(f"fuzz[{index}] FAIL: {final_error}\n")
    return report


# ----------------------------------------------------------------------
# Replay files
# ----------------------------------------------------------------------
def write_replay(failure: FuzzFailure, path: str) -> None:
    payload = failure.replay_payload()
    # Human context: the described spec (informational; reconstruction
    # uses only seed/index/shrinks so the file cannot go stale).
    from repro.exp.spec import describe

    payload["described_spec"] = describe(
        spec_for_case(failure.seed, failure.index, failure.shrinks)
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass
class ReplayOutcome:
    reproduced: bool
    error: Optional[str]
    expected_error: Optional[str]
    spec: object

    def summary(self) -> str:
        if self.error is None:
            return "[PASS?] replay ran clean — failure no longer reproduces"
        return f"[REPRODUCED] {self.error}"


def replay(path: str) -> ReplayOutcome:
    """Re-execute a replay file deterministically."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != REPLAY_VERSION:
        raise ValueError(
            f"unsupported replay version {payload.get('version')!r} "
            f"(expected {REPLAY_VERSION})"
        )
    unknown = [
        name for name in payload.get("shrinks", [])
        if name not in SHRINK_TRANSFORMS
    ]
    if unknown:
        raise ValueError(f"replay uses unknown shrink transforms: {unknown}")
    spec = spec_for_case(
        int(payload["seed"]), int(payload["index"]), payload.get("shrinks", [])
    )
    error = _case_fails(spec)
    return ReplayOutcome(
        reproduced=error is not None,
        error=error,
        expected_error=payload.get("error"),
        spec=spec,
    )
