"""The line-rate receive merge changes the event count and nothing else.

``ThroughputSimulator._rx_pump`` spends one kernel event where the
store of frame n and the take of frame n+1 fall on the same instant.
This differential runs each configuration twice, once with the pump as
it was before the merge (two events per frame, kept below), and
requires every simulated output to match: the result dictionary, the
per-function statistics, the Table 3 cost totals and the SDRAM's whole
request log.  The same pump serves the fabric endpoint, so a fabric
run is one of the configurations.
"""

from dataclasses import replace

import pytest

from repro.fabric import FabricSimulator, FabricSpec
from repro.faults import FaultPlan
from repro.firmware.ordering import OrderingMode
from repro.host.rss import RssSpec
from repro.mem.sdram import GddrSdram
from repro.net.workload import ImixSize
from repro.nic import NicConfig, ThroughputSimulator
from repro.nic.throughput import _RxRecord
from repro.units import mhz

WARMUP_S = 0.1e-3
MEASURE_S = 0.3e-3


def _two_event_rx_pump(self) -> None:
    """``ThroughputSimulator._rx_pump`` before the merge: the store and
    the next take are always two events."""
    now = self.sim.now_ps
    mac = self.mac_rx
    if not mac.has_pending:
        self._rx_pump_active = False
        return
    frame_size, payload, identity = mac.peek_frame()
    if self._rx_space < frame_size:
        self._rx_pump_active = False
        return
    arrival = mac.next_arrival_ps()
    if arrival > now:
        self.sim.schedule_at(arrival, self._rx_pump)
        return
    self._rx_space -= frame_size
    wire = mac.take_frame(now, frame_size)
    self._rx_records[wire.seq] = _RxRecord(frame_size, payload, identity)
    self._assist_touch(self.config.assist_accesses_per_mac_frame)
    if self.tracer.enabled:
        self.tracer.complete(
            "mac-rx",
            f"rx {wire.seq}",
            wire.wire_start_ps,
            wire.wire_end_ps - wire.wire_start_ps,
            seq=wire.seq,
        )
    self.sim.schedule_at(wire.wire_end_ps, lambda s=wire.seq: self._rx_store(s))
    if mac.has_pending:
        self.sim.schedule_at(max(now, mac.next_arrival_ps()), self._rx_pump)
    else:
        self._rx_pump_active = False


def _small():
    return NicConfig(cores=2, core_frequency_hz=mhz(133))


#: name -> (simulator factory, runs at line rate)
CASES = {
    "default-1472": (lambda: ThroughputSimulator(NicConfig(), 1472), True),
    "software-18-rss": (
        lambda: ThroughputSimulator(
            replace(_small(), ordering_mode=OrderingMode.SOFTWARE), 18,
            rss=RssSpec(rings=4),
        ),
        True,
    ),
    "imix-bursty": (
        lambda: ThroughputSimulator(
            _small(), size_model=ImixSize(), offered_fraction=0.8,
            rx_burst_frames=8,
        ),
        False,
    ),
    "18-half-load": (
        lambda: ThroughputSimulator(_small(), 18, offered_fraction=0.5),
        False,
    ),
    "fcs-faults": (
        lambda: ThroughputSimulator(
            _small(), 1472, fault_plan=FaultPlan(seed=9, rx_fcs_rate=0.05),
        ),
        False,
    ),
    # The golden corpus's faulted fabric run: the same pump serves the
    # fabric edge, where a frame is pushed at its first bit, so the
    # merge never fires and the event count stays the same.
    "fabric-rpc-faulted": (
        lambda: FabricSimulator(
            _small(), FabricSpec.rpc_pair(concurrency=8, seed=3),
            fault_plan=FaultPlan(
                seed=7, rx_fcs_rate=0.03, sdram_error_rate=0.01,
                pci_stall_rate=0.02,
            ),
        ),
        False,
    ),
}


def _run(factory, monkeypatch):
    """One run's outputs, its SDRAM request log and its event count."""
    log = []
    transfer = GddrSdram.transfer

    def logged(self, *args, **kwargs):
        request = transfer(self, *args, **kwargs)
        log.append((args, tuple(sorted(kwargs.items())), request))
        return request

    with monkeypatch.context() as patch:
        patch.setattr(GddrSdram, "transfer", logged)
        simulator = factory()
        result = simulator.run(WARMUP_S, MEASURE_S)
    return result, log, simulator.sim.events_processed


@pytest.mark.parametrize("name", sorted(CASES))
def test_merge_changes_only_the_event_count(name, monkeypatch):
    factory, line_rate = CASES[name]
    merged, merged_log, merged_events = _run(factory, monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(ThroughputSimulator, "_rx_pump", _two_event_rx_pump)
        reference, reference_log, reference_events = _run(factory, monkeypatch)
    assert merged.to_dict() == reference.to_dict()
    nics = getattr(merged, "nics", [merged])
    reference_nics = getattr(reference, "nics", [reference])
    for nic, reference_nic in zip(nics, reference_nics):
        assert nic.function_stats == reference_nic.function_stats
        assert nic.cost_totals == reference_nic.cost_totals
    assert merged_log == reference_log
    assert all(nic.rx_frames > 0 for nic in nics)
    assert merged_events <= reference_events
    if line_rate:
        assert merged_events < reference_events
