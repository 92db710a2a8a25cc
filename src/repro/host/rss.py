"""Receive-side scaling: a multi-queue host interface for the NIC model.

The paper's firmware parallelizes frame processing *inside* the NIC but
funnels all host interaction through one descriptor-ring pair — "A
Transport-Friendly NIC for Multicore/Multiprocessor Systems" (see
PAPERS.md) shows that single ring becoming the bottleneck on multicore
hosts.  This module models the modern alternative the comparison needs:

* :class:`RssSpec` — a frozen, serializable description of the
  multi-queue configuration.  It rides :class:`~repro.exp.spec.RunSpec`
  as an *optional* field, so legacy single-ring cache keys stay
  byte-identical when it is absent (the fault-plan/fabric-spec
  precedent).
* :class:`ToeplitzHash` — the standard RSS flow hash (verified against
  the published Microsoft verification-suite vectors in
  ``tests/test_rss.py``), steering each flow through an indirection
  table to one of N rings.
* :class:`HostQueueModel` — N independent RX/TX
  :class:`~repro.host.descriptors.DescriptorRing` pairs, each with its
  own :class:`~repro.host.driver.DriverStats` and per-ring interrupt
  moderation, plus a host-core contention model: every completion batch
  charges per-completion and per-interrupt costs to the ring's host
  core, and receive buffers are only recycled to the NIC once the
  owning core has processed the batch.  A single-ring configuration
  therefore serializes all completion work on one core — and its
  recycle rate, not the wire, becomes the throughput ceiling — while N
  rings spread the same work over N cores.

Determinism: the hash key is derived from ``hash_seed`` by a pure
splitmix64 expansion, steering is memoized per flow tuple, and each
host-core pump drains through an ordinary kernel ``schedule_at`` event.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.check.nullmonitor import NULL_MONITOR
from repro.firmware.profiles import BDS_PER_SENT_FRAME
from repro.host.descriptors import DescriptorRing
from repro.host.driver import DriverModel, DriverStats
from repro.units import check_int_fields

#: The 40-byte key from the Microsoft RSS verification suite; used for
#: ``hash_seed == 0`` so the implementation can be checked against the
#: published test vectors.
RSS_DEFAULT_KEY = bytes(
    (
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    )
)

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def toeplitz_key(seed: int, length: int = 40) -> bytes:
    """Deterministic hash key: the published key for seed 0, otherwise a
    splitmix64 expansion of the seed (no global RNG state involved)."""
    if length < 5:
        raise ValueError("Toeplitz keys need at least 32 + 8 bits")
    if seed == 0 and length == len(RSS_DEFAULT_KEY):
        return RSS_DEFAULT_KEY
    out = bytearray()
    state = (seed ^ _SPLITMIX_GAMMA) & _MASK64
    while len(out) < length:
        state = (state + _SPLITMIX_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out.extend(z.to_bytes(8, "big"))
    return bytes(out[:length])


class ToeplitzHash:
    """The RSS Toeplitz hash over up to ``max_input_bytes`` of input.

    The classic definition slides a 32-bit window of the key one bit per
    input bit, XOR-accumulating the window wherever the input bit is
    set.  Precomputing a 256-entry table per input byte position turns
    that into one XOR per byte with identical results.
    """

    def __init__(self, key: bytes, max_input_bytes: int = 12) -> None:
        if len(key) * 8 < 32 + max_input_bytes * 8:
            raise ValueError(
                f"key too short: {len(key)} bytes for "
                f"{max_input_bytes}-byte inputs"
            )
        self.key = bytes(key)
        key_int = int.from_bytes(self.key, "big")
        key_bits = len(self.key) * 8
        tables: List[List[int]] = []
        for i in range(max_input_bytes):
            windows = [
                (key_int >> (key_bits - 32 - (8 * i + j))) & 0xFFFFFFFF
                for j in range(8)
            ]
            table = [0] * 256
            for value in range(256):
                acc = 0
                for j in range(8):
                    if value & (0x80 >> j):
                        acc ^= windows[j]
                table[value] = acc
            tables.append(table)
        self._tables = tables

    def hash(self, data: bytes) -> int:
        if len(data) > len(self._tables):
            raise ValueError(
                f"input of {len(data)} bytes exceeds the "
                f"{len(self._tables)}-byte window"
            )
        result = 0
        tables = self._tables
        for i, byte in enumerate(data):
            result ^= tables[i][byte]
        return result


def flow_key_bytes(src_ip: int, dst_ip: int, src_port: int,
                   dst_port: int) -> bytes:
    """The 12-byte IPv4+ports RSS input, network byte order."""
    return struct.pack(
        ">IIHH",
        src_ip & 0xFFFFFFFF,
        dst_ip & 0xFFFFFFFF,
        src_port & 0xFFFF,
        dst_port & 0xFFFF,
    )


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RssSpec:
    """Multi-queue host-interface configuration.

    Deliberately *not* a :class:`~repro.nic.config.NicConfig` field:
    ``describe()`` walks every config field, so adding one there would
    invalidate every legacy cache key.  Instead this rides
    :class:`~repro.exp.spec.RunSpec` as an optional field included in
    the content hash only when set.
    """

    #: Independent RX/TX descriptor-ring pairs.
    rings: int = 4
    #: RSS indirection table entries (hash -> table -> ring).
    indirection_entries: int = 64
    #: Seeds :func:`toeplitz_key`; 0 selects the published key.
    hash_seed: int = 0
    #: Per-ring interrupt moderation window (completions per interrupt).
    interrupt_coalesce_frames: int = 8
    #: Flow population synthesized for analytic (non-fabric) traffic:
    #: frame ``seq % synthetic_flows`` selects the flow tuple.
    synthetic_flows: int = 64
    #: Host cores servicing the rings (ring ``i`` -> core ``i % cores``);
    #: 0 means one core per ring.
    host_cores: int = 0
    #: Host-core cost per completion processed (descriptor recycle +
    #: protocol bookkeeping), picoseconds.
    completion_ps: int = 800_000
    #: Host-core cost per interrupt taken (context switch + handler),
    #: picoseconds.
    interrupt_ps: int = 2_500_000

    def __post_init__(self) -> None:
        check_int_fields(self)
        if self.rings < 1:
            raise ValueError(f"need at least one ring, got {self.rings}")
        if self.indirection_entries < 1:
            raise ValueError("indirection table cannot be empty")
        if self.interrupt_coalesce_frames < 1:
            raise ValueError("interrupt_coalesce_frames must be >= 1")
        if self.synthetic_flows < 1:
            raise ValueError("synthetic_flows must be >= 1")
        if self.host_cores < 0:
            raise ValueError("host_cores must be >= 0")
        if self.completion_ps < 0 or self.interrupt_ps < 0:
            raise ValueError("host-core costs must be non-negative")

    @property
    def core_count(self) -> int:
        return self.host_cores if self.host_cores else self.rings


# ----------------------------------------------------------------------
# Per-ring and per-core state
# ----------------------------------------------------------------------
@dataclass
class HostCore:
    """One host CPU servicing completion batches."""

    index: int
    free_at_ps: int = 0
    busy_ps: int = 0
    processed: int = 0


class HostRing:
    """One RX/TX descriptor-ring pair with its own driver statistics."""

    def __init__(self, index: int, core_index: int, send_capacity: int,
                 recv_capacity: int) -> None:
        self.index = index
        self.core_index = core_index
        self.send_ring = DescriptorRing(send_capacity, f"rss{index}-send")
        self.recv_ring = DescriptorRing(recv_capacity, f"rss{index}-recv")
        self.stats = DriverStats()
        # Descriptor conservation counters (posted == completed +
        # in-flight); the invariant monitor shadows these.
        self.tx_posted = 0
        self.tx_completed = 0
        self.rx_posted = 0
        self.rx_completed = 0
        #: Frames steered here whose buffers are all NIC-held pending
        #: host recycle; delivered as the core frees buffers.
        self.rx_backlog = 0
        self.rx_backlog_peak = 0
        #: FIFO of unprocessed completion batches:
        #: ``(direction, count, cost_ps)``.
        self.pending: Deque[Tuple[str, int, int]] = deque()
        self.pump_busy = False

    @property
    def rx_in_flight(self) -> int:
        return self.rx_posted - self.rx_completed

    @property
    def tx_in_flight(self) -> int:
        return self.tx_posted - self.tx_completed

    def post_recv_buffers(self, count: int) -> None:
        self.recv_ring.post(count)
        self.rx_posted += count


# ----------------------------------------------------------------------
# The multi-queue host model
# ----------------------------------------------------------------------
class HostQueueModel:
    """N host rings + Toeplitz steering + host-core contention.

    Sits beside the NIC-facing aggregate :class:`DriverModel` (whose
    descriptor-DMA timing the firmware pipeline already models) and owns
    the *host* side: which ring each flow lands on, per-ring interrupt
    moderation and statistics, and when descriptors recycle back to the
    NIC.  Two credit pools couple the sides:

    * receive — the NIC may only be handed as many buffer descriptors
      as the rings have posted; a completion batch returns its buffers
      only after the owning host core processed it, so a lagging core
      starves the NIC's receive-BD ring (the multicore bottleneck the
      RSS ablation measures);
    * transmit — frames post against ring capacity and recycle on
      processed send completions, bounding outstanding sends the same
      way.
    """

    def __init__(
        self,
        spec: RssSpec,
        sim,
        send_ring_capacity: int = 512,
        recv_ring_capacity: int = 256,
    ) -> None:
        self.spec = spec
        self.sim = sim
        self.monitor = NULL_MONITOR
        self._hash = ToeplitzHash(toeplitz_key(spec.hash_seed))
        self._indirection = [
            i % spec.rings for i in range(spec.indirection_entries)
        ]
        self._steer_cache: Dict[Tuple[int, int, int, int], int] = {}
        self.cores = [HostCore(i) for i in range(spec.core_count)]
        self.rings = [
            HostRing(
                i,
                core_index=i % len(self.cores),
                send_capacity=send_ring_capacity,
                recv_capacity=recv_ring_capacity,
            )
            for i in range(spec.rings)
        ]
        # Initial fill: every ring advertises a full complement of
        # receive buffers; the NIC-facing replenish draws on this pool.
        for ring in self.rings:
            ring.post_recv_buffers(ring.recv_ring.capacity)
        self.rx_credit = sum(r.recv_ring.capacity for r in self.rings)
        self.tx_credit = sum(
            r.send_ring.capacity // BDS_PER_SENT_FRAME for r in self.rings
        )
        #: Simulator callbacks fired after a core finishes a batch (the
        #: recycled credits are already accounted when these run).
        self.on_rx_processed: Optional[Callable[[int], None]] = None
        self.on_tx_processed: Optional[Callable[[int], None]] = None

    def _make_drain(self, ring: HostRing) -> Callable[[], None]:
        def drain() -> None:
            self._ring_done(ring)
        return drain

    # -- steering -------------------------------------------------------
    def ring_index(self, key: bytes) -> int:
        return self._indirection[self._hash.hash(key) % len(self._indirection)]

    def ring_for(self, src_ip: int, dst_ip: int, src_port: int,
                 dst_port: int) -> int:
        flow = (src_ip, dst_ip, src_port, dst_port)
        ring = self._steer_cache.get(flow)
        if ring is None:
            ring = self.ring_index(flow_key_bytes(*flow))
            self._steer_cache[flow] = ring
        return ring

    # -- transmit side --------------------------------------------------
    def refill_send(self, driver: DriverModel,
                    steer_fn: Callable[[int], int]) -> int:
        """Credit-gated replacement for ``driver.refill_send_ring()``.

        Posts frame by frame so each post lands in its steered ring's
        send ring too; stops at the first ring without room for a
        frame's descriptors (head-of-line, in frame order) or when
        transmit credit runs out.
        """
        posted = 0
        while self.tx_credit > 0:
            seq = driver._next_send_seq
            # Budget/space checks before steering: flow-driven drivers
            # (max_frames) may have nothing to post, and steering an
            # unposted sequence would read a frame that does not exist.
            if driver.max_frames is not None and seq >= driver.max_frames:
                break
            if driver.send_ring.free_slots < BDS_PER_SENT_FRAME:
                break
            ring = self.rings[steer_fn(seq)]
            if ring.send_ring.free_slots < BDS_PER_SENT_FRAME:
                break
            if driver.refill_send_ring(limit=1) == 0:
                break
            ring.send_ring.post(BDS_PER_SENT_FRAME)
            ring.tx_posted += 1
            ring.stats.frames_posted += 1
            self.tx_credit -= 1
            posted += 1
            if self.monitor.enabled:
                self.monitor.ring_posted(self, ring.index, "tx", 1)
        return posted

    def complete_tx(self, first_seq: int, count: int,
                    steer_fn: Callable[[int], int], now_ps: int) -> None:
        """Route a contiguous batch of send completions to their rings."""
        run_ring = -1
        run_count = 0
        for seq in range(first_seq, first_seq + count):
            ring = steer_fn(seq)
            if ring == run_ring:
                run_count += 1
                continue
            if run_count:
                self._deliver_tx(self.rings[run_ring], run_count, now_ps)
            run_ring = ring
            run_count = 1
        if run_count:
            self._deliver_tx(self.rings[run_ring], run_count, now_ps)

    def _deliver_tx(self, ring: HostRing, count: int, now_ps: int) -> None:
        ring.tx_completed += count
        ring.send_ring.take(BDS_PER_SENT_FRAME * count)
        ring.stats.record_sends(count)
        # Per-ring interrupt moderation, same modulo form as the legacy
        # single-ring decision in ``_commit_tx``.
        interrupt = (
            ring.tx_completed % self.spec.interrupt_coalesce_frames
        ) < count
        if interrupt:
            ring.stats.note_interrupt()
        if self.monitor.enabled:
            self.monitor.ring_completed(self, ring.index, "tx", count)
        self._enqueue(ring, "tx", count, interrupt, now_ps)

    # -- receive side ---------------------------------------------------
    def replenish_recv(self, driver: DriverModel) -> int:
        """Credit-gated replacement for ``driver.replenish_recv_ring()``:
        the NIC only sees buffers the rings actually hold."""
        if self.rx_credit <= 0:
            return 0
        posted = driver.replenish_recv_ring(limit=self.rx_credit)
        self.rx_credit -= posted
        return posted

    def complete_rx(self, ring_index: int, count: int, now_ps: int) -> None:
        """``count`` received frames steered to ``ring_index`` finished
        NIC-side commit; deliver as many as the ring has buffers for and
        backlog the rest until the host core recycles some."""
        ring = self.rings[ring_index]
        ring.rx_backlog += count
        if ring.rx_backlog > ring.rx_backlog_peak:
            ring.rx_backlog_peak = ring.rx_backlog
        self._drain_rx_backlog(ring, now_ps)

    def _drain_rx_backlog(self, ring: HostRing, now_ps: int) -> None:
        recv_ring = ring.recv_ring
        deliver = min(ring.rx_backlog, len(recv_ring))
        if deliver <= 0:
            return
        ring.rx_backlog -= deliver
        recv_ring.take(deliver)
        ring.rx_completed += deliver
        ring.stats.record_receives(deliver)
        interrupt = (
            ring.rx_completed % self.spec.interrupt_coalesce_frames
        ) < deliver
        if interrupt:
            ring.stats.note_interrupt()
        if self.monitor.enabled:
            self.monitor.ring_completed(self, ring.index, "rx", deliver)
        self._enqueue(ring, "rx", deliver, interrupt, now_ps)

    # -- host-core contention model ------------------------------------
    def _enqueue(self, ring: HostRing, direction: str, count: int,
                 interrupt: bool, now_ps: int) -> None:
        cost = count * self.spec.completion_ps
        if interrupt:
            cost += self.spec.interrupt_ps
        ring.pending.append((direction, count, cost))
        if not ring.pump_busy:
            self._arm(ring, now_ps)

    def _arm(self, ring: HostRing, now_ps: int) -> None:
        _direction, _count, cost = ring.pending[0]
        core = self.cores[ring.core_index]
        start = max(now_ps, core.free_at_ps)
        done = start + cost
        core.free_at_ps = done
        core.busy_ps += cost
        ring.pump_busy = True
        self.sim.schedule_at(done, self._make_drain(ring))

    def _ring_done(self, ring: HostRing) -> None:
        now = self.sim.now_ps
        direction, count, _cost = ring.pending.popleft()
        core = self.cores[ring.core_index]
        core.processed += count
        if direction == "rx":
            # Refill-on-poll: the processed buffers go straight back to
            # the ring, then to the NIC-facing credit pool.
            ring.post_recv_buffers(count)
            self.rx_credit += count
            if self.monitor.enabled:
                self.monitor.ring_posted(self, ring.index, "rx", count)
            if ring.rx_backlog:
                self._drain_rx_backlog(ring, now)
            callback = self.on_rx_processed
        else:
            self.tx_credit += count
            callback = self.on_tx_processed
        if ring.pending:
            self._arm(ring, now)
        else:
            ring.pump_busy = False
        if callback is not None:
            callback(count)

    # -- measurement window --------------------------------------------
    def window_reset(self) -> Dict[str, List[int]]:
        """Start the measured window: reset per-ring stat windows and
        return the core/ring baselines the report subtracts."""
        for ring in self.rings:
            ring.stats.reset_window()
            ring.rx_backlog_peak = ring.rx_backlog
        return {
            "core_busy_ps": [core.busy_ps for core in self.cores],
            "core_processed": [core.processed for core in self.cores],
        }

    def report(self, baselines: Optional[Dict[str, List[int]]],
               measure_ps: int) -> Dict[str, object]:
        if baselines is None:
            baselines = {
                "core_busy_ps": [0] * len(self.cores),
                "core_processed": [0] * len(self.cores),
            }
        measure_s = measure_ps / 1e12
        per_ring = []
        for ring in self.rings:
            stats = ring.stats
            per_ring.append(
                {
                    "ring": ring.index,
                    "core": ring.core_index,
                    "send_completions": stats.window_send_completions,
                    "recv_completions": stats.window_recv_completions,
                    "interrupts": stats.window_interrupts,
                    "completions_per_interrupt": (
                        stats.window_completions_per_interrupt
                    ),
                    "rx_backlog_peak": ring.rx_backlog_peak,
                    "rx_in_flight": ring.rx_in_flight,
                    "tx_in_flight": ring.tx_in_flight,
                }
            )
        per_core = []
        for core in self.cores:
            busy = core.busy_ps - baselines["core_busy_ps"][core.index]
            processed = (
                core.processed - baselines["core_processed"][core.index]
            )
            per_core.append(
                {
                    "core": core.index,
                    "busy_fraction": busy / measure_ps if measure_ps else 0.0,
                    "completions_per_s": (
                        processed / measure_s if measure_s else 0.0
                    ),
                }
            )
        return {
            "rings": self.spec.rings,
            "host_cores": len(self.cores),
            "hash_seed": self.spec.hash_seed,
            "per_ring": per_ring,
            "per_core": per_core,
        }


__all__ = [
    "HostCore",
    "HostQueueModel",
    "HostRing",
    "RSS_DEFAULT_KEY",
    "RssSpec",
    "ToeplitzHash",
    "flow_key_bytes",
    "toeplitz_key",
]
