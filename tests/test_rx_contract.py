"""One receive contract: both MAC receivers number only accepted frames.

A tail-dropped frame gets no sequence number on either traffic edge, so
the ordering board, the DMA, the commit pass and every per-frame record
count the same frames.  These runs tail-drop at the MAC and then keep
committing frames accepted after the drop.  Each accepted frame has one
receive record, which only the commit pass removes; on the send side of
a fabric NIC, each posted frame waits in one store until its wire
hand-off.
"""

import dataclasses

import pytest

from repro.assists.mac import MacReceiver
from repro.check import verify_conservation
from repro.fabric import FabricSimulator, FabricSpec, StreamFlowSpec
from repro.fabric.endpoint import NicEndpoint
from repro.faults import FaultPlan
from repro.firmware.ordering import OrderingMode
from repro.host.rss import RssSpec
from repro.net.workload import ImixSize
from repro.nic import NicConfig, ThroughputSimulator
from repro.nic.throughput import _RxRecord
from repro.units import mhz

WARMUP_S = 0.1e-3
MEASURE_S = 0.3e-3


def _config(**overrides) -> NicConfig:
    return dataclasses.replace(
        NicConfig(cores=2, core_frequency_hz=mhz(133)), **overrides
    )


def _imix_bursty(config, fault_plan=None) -> ThroughputSimulator:
    return ThroughputSimulator(
        config, size_model=ImixSize(), offered_fraction=0.8,
        rx_burst_frames=8, fault_plan=fault_plan,
    )


def test_fault_plan_does_not_wedge_the_receive_path():
    """With a plan attached, landings advance a watermark that waits
    for every sequence number; a numbered tail drop never lands, so the
    receive path used to stop (14 of 88 frames delivered here)."""
    config = _config(rx_buffer_bytes=16 * 1024)
    plan = FaultPlan(seed=7, rx_fcs_rate=0.01, pci_stall_rate=0.001)
    clean = _imix_bursty(config).run(WARMUP_S, MEASURE_S)
    simulator = _imix_bursty(config, plan)
    faulted = simulator.run(WARMUP_S, MEASURE_S)
    assert faulted.rx_dropped > 0
    assert faulted.rx_frames == clean.rx_frames == 88
    assert not [
        seq for seq, record in simulator._rx_records.items()
        if seq >= simulator._rx_written and record.landed_ps is not None
    ]
    verify_conservation(simulator)


def test_rx_buffer_space_is_what_the_buffered_frames_leave(monkeypatch):
    """The free receive buffer equals its size minus the sizes of the
    accepted, uncommitted frames.  With mixed sizes, refunding a frame
    under another frame's number leaked buffer (7,270 B here)."""
    taken = []
    take_frame = MacReceiver.take_frame

    def logged(self, now_ps, frame_bytes):
        taken.append(frame_bytes)
        return take_frame(self, now_ps, frame_bytes)

    monkeypatch.setattr(MacReceiver, "take_frame", logged)
    config = _config()
    simulator = _imix_bursty(config)
    result = simulator.run(0.4e-3, 3e-3)
    assert result.rx_dropped > 0
    buffered = taken[simulator.board_rx.commit_seq:]
    assert len(taken) == simulator.mac_rx.frames_accepted
    assert simulator._rx_space == config.rx_buffer_bytes - sum(buffered)
    assert len(simulator._rx_records) == len(buffered)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: _imix_bursty(_config()),
        lambda: ThroughputSimulator(
            _config(ordering_mode=OrderingMode.SOFTWARE), 18,
            rss=RssSpec(rings=4, hash_seed=2),
        ),
    ],
    ids=["imix-bursty", "rss-minframe"],
)
def test_receive_records_stay_in_the_window(factory):
    """Every per-frame receive record belongs to a frame accepted and
    not yet committed; these runs left stray keys when tail drops took
    sequence numbers."""
    simulator = factory()
    result = simulator.run(WARMUP_S, MEASURE_S)
    assert result.rx_dropped > 0
    assert verify_conservation(simulator)["rx.records_in_window"]


def test_stray_receive_record_fails_the_check():
    simulator = ThroughputSimulator(_config(), 1472)
    simulator.run(WARMUP_S, MEASURE_S)
    simulator._rx_records[simulator.mac_rx.frames_accepted] = _RxRecord(1518, 1472, None)
    checked = verify_conservation(simulator, raise_on_failure=False)
    assert checked["rx.records_in_window"] is False


class _KeptRecords(dict):
    """A receive-record store whose ``pop`` returns the record but keeps
    it: the commit pass then leaks every committed frame's record, its
    sizes and identity included."""

    def pop(self, seq, *default):
        return self[seq]


def test_leaked_receive_records_fail_the_check():
    """The run is unchanged, and only ``rx.records_in_window`` sees the
    leak; the per-frame stores the record replaced were read by no
    check."""
    simulator = ThroughputSimulator(_config(), 1472)
    clean = simulator.run(WARMUP_S, MEASURE_S)
    simulator = ThroughputSimulator(_config(), 1472)
    simulator._rx_records = _KeptRecords()
    leaked = simulator.run(WARMUP_S, MEASURE_S)
    assert leaked.to_dict() == clean.to_dict()
    assert len(simulator._rx_records) > simulator.board_rx.commit_seq > 0
    checked = verify_conservation(simulator, raise_on_failure=False)
    assert [name for name, ok in checked.items() if not ok] == ["rx.records_in_window"]


def test_leaked_receive_records_on_a_fabric_endpoint_fail_the_check():
    spec = FabricSpec.rpc_pair(concurrency=8, seed=1)
    simulator = FabricSimulator(_config(), spec)
    simulator.endpoints[1]._rx_records = _KeptRecords()
    simulator.run(WARMUP_S, MEASURE_S)
    checked = verify_conservation(simulator, raise_on_failure=False)
    assert [name for name, ok in checked.items() if not ok] == ["nic1.rx.records_in_window"]


def _tx_wire_keeping_the_frame(self, seq, wire):
    """``NicEndpoint.tx_wire`` reading the frame without popping it."""
    self.fabric.wire.transmit(self.index, self.tx_sizes.frames[seq], wire)


def test_leaked_posted_frames_fail_the_check(monkeypatch):
    """A wire hand-off that leaves sent frames in the posted store moves
    no result, and only ``tx.records_in_window`` sees the leak."""
    spec = FabricSpec.rpc_pair(concurrency=8, seed=1)
    simulator = FabricSimulator(_config(), spec)
    clean = simulator.run(WARMUP_S, MEASURE_S)
    assert verify_conservation(simulator)["nic0.tx.records_in_window"]
    monkeypatch.setattr(NicEndpoint, "tx_wire", _tx_wire_keeping_the_frame)
    simulator = FabricSimulator(_config(), spec)
    leaked = simulator.run(WARMUP_S, MEASURE_S)
    assert leaked.to_dict() == clean.to_dict()
    nic = simulator.endpoints[0]
    assert len(nic.tx_sizes.frames) > nic._tx_post_seq - nic._tx_mac_seq
    checked = verify_conservation(simulator, raise_on_failure=False)
    assert [name for name, ok in checked.items() if not ok] == [
        "nic0.tx.records_in_window", "nic1.tx.records_in_window",
    ]


def test_fabric_nic_counts_every_offered_frame():
    """A 3-to-1 incast overruns the receiver's MAC: offered frames are
    the accepted ones plus the tail drops, on a fabric NIC as on the
    standalone one (it used to count the accepted frames only)."""
    spec = FabricSpec(
        nics=4,
        stream_flows=tuple(StreamFlowSpec(src=src, dst=3) for src in range(3)),
    )
    simulator = FabricSimulator(NicConfig(rx_buffer_bytes=16 * 1024), spec)
    result = simulator.run(WARMUP_S, MEASURE_S)
    nic = simulator.endpoints[3]
    window = result.nics[3]
    assert window.rx_dropped > 0
    assert window.rx_offered == 736
    assert window.rx_offered - window.rx_dropped >= window.rx_frames
    offered = nic.metrics_snapshot()["counter.rx_offered_frames"]
    assert offered == nic.mac_rx.frames_accepted + nic._rx_dropped == 956


def _uncounted_wake_rx(self) -> None:
    """``_wake_rx`` with one defect: it skips the backlog but never adds
    the tail drops to ``_rx_dropped``."""
    if not self._rx_pump_active:
        self.mac_rx.skip_backlog(self.sim.now_ps)
        self._rx_pump_active = True
        self._rx_pump()


def test_fault_identity_catches_uncounted_tail_drops(monkeypatch):
    """``rx.fault_identity`` sets the MAC's own count of the frames it
    took or tail-dropped against the core's accounting.  When it counted
    offered frames as ``accepted + _rx_dropped`` it reduced to
    ``rx.commit_accounting``, and this mutant, which loses every tail
    drop, passed every check."""
    monkeypatch.setattr(ThroughputSimulator, "_wake_rx", _uncounted_wake_rx)
    simulator = _imix_bursty(_config(rx_buffer_bytes=16 * 1024))
    simulator.run(WARMUP_S, MEASURE_S)
    mac = simulator.mac_rx
    assert (mac.frames_disposed, mac.frames_accepted, simulator._rx_dropped) == (861, 154, 0)
    checked = verify_conservation(simulator, raise_on_failure=False)
    assert [name for name, ok in checked.items() if not ok] == ["rx.fault_identity"]


def test_fabric_mac_counts_the_frames_it_disposed_of(monkeypatch):
    """On a fabric NIC the MAC's count is the frames the wire pushed
    less those still queued; the same mutant fails the identity there."""
    spec = FabricSpec(
        nics=4,
        stream_flows=tuple(StreamFlowSpec(src=src, dst=3) for src in range(3)),
    )
    simulator = FabricSimulator(NicConfig(rx_buffer_bytes=16 * 1024), spec)
    simulator.run(WARMUP_S, MEASURE_S)
    nic = simulator.endpoints[3]
    mac = nic.mac_rx
    assert mac.frames_disposed == mac.frames_pushed - len(mac._pending)
    assert mac.frames_disposed == mac.frames_accepted + nic._rx_dropped == 956
    assert verify_conservation(simulator)["nic3.rx.fault_identity"]

    monkeypatch.setattr(ThroughputSimulator, "_wake_rx", _uncounted_wake_rx)
    simulator = FabricSimulator(NicConfig(rx_buffer_bytes=16 * 1024), spec)
    simulator.run(WARMUP_S, MEASURE_S)
    checked = verify_conservation(simulator, raise_on_failure=False)
    assert checked["nic3.rx.fault_identity"] is False
