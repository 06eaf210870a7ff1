"""Reliable-transport model layered over the lossy fabric.

The paper ships raw UDP and relies on cooldown pacing to keep the switch
lossless (Sec. 5.4).  This module models the alternative a production
cluster needs: per-flow sequence numbers, receiver ACKs, and sender
retransmit timers with exponential backoff and a bounded retry budget —
together with *cycle accounting*, so the harness can report what
reliability costs relative to the bare-UDP operating point.

The model is flow-level, not event-level: :func:`send_flows` resolves
the fate of every packet of the (src, dst) flows of one (channel,
iteration) exchange in rounds (:func:`send_flow` is its one-flow call).
Round 0 is the original transmission; each later round retransmits
exactly the unacknowledged packets after a timeout that doubles per
round.  Packet loss, corruption (detected by the packet checksum and
treated as loss), and ACK loss (which causes a spurious retransmission
of an already-delivered packet) all come from the shared
:class:`~repro.faults.plan.FaultInjector`, keyed by attempt number, so
the whole exchange is bitwise reproducible.  Each round draws every
flow still sending in one batched keyed draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultInjector
from repro.util.errors import ValidationError

#: Channel suffix carrying acknowledgements (its loss process is keyed
#: independently of the data channel's).
ACK_SUFFIX = "/ack"


@dataclass(frozen=True)
class TransportConfig:
    """Parameters of the reliability layer.

    Attributes
    ----------
    retry_budget:
        Maximum retransmission rounds per packet (0 = send once, never
        retry — still detects loss, unlike bare UDP which is oblivious).
    timeout_cycles:
        Initial retransmit timer.  At 200 MHz and ~1 us switch RTT the
        paper-scale figure is a few hundred cycles; the default is
        deliberately conservative (2x a 200-cycle one-way latency).
    backoff:
        Multiplier applied to the timer each round (exponential backoff).
    packet_cycles:
        Serialization cost of putting one packet back on the wire.
    model_acks:
        Expose ACKs to the same loss process as data (a lost ACK causes
        a spurious retransmission that the receiver discards as a
        duplicate).
    """

    retry_budget: int = 3
    timeout_cycles: float = 400.0
    backoff: float = 2.0
    packet_cycles: float = 1.0
    model_acks: bool = True

    def __post_init__(self) -> None:
        if self.retry_budget < 0:
            raise ValidationError("retry_budget must be >= 0")
        if self.timeout_cycles < 0 or self.packet_cycles < 0:
            raise ValidationError("cycle costs must be >= 0")
        if self.backoff < 1.0:
            raise ValidationError("backoff must be >= 1")


@dataclass
class TransportStats:
    """Accumulated reliability-layer accounting (mergeable with ``+``).

    ``overhead_cycles`` is the cost *beyond* the fault-free one-shot
    send: timeout waits plus retransmitted-packet serialization.  The
    fault-free baseline therefore reports exactly zero overhead.
    """

    packets_sent: int = 0
    retransmits: int = 0
    acks_sent: int = 0
    ack_drops: int = 0
    duplicates: int = 0
    corrupt_detected: int = 0
    delivered: int = 0
    lost: int = 0
    rounds: int = 0
    overhead_cycles: float = 0.0

    def __add__(self, other: "TransportStats") -> "TransportStats":
        if not isinstance(other, TransportStats):
            return NotImplemented
        return TransportStats(
            packets_sent=self.packets_sent + other.packets_sent,
            retransmits=self.retransmits + other.retransmits,
            acks_sent=self.acks_sent + other.acks_sent,
            ack_drops=self.ack_drops + other.ack_drops,
            duplicates=self.duplicates + other.duplicates,
            corrupt_detected=self.corrupt_detected + other.corrupt_detected,
            delivered=self.delivered + other.delivered,
            lost=self.lost + other.lost,
            rounds=max(self.rounds, other.rounds),
            overhead_cycles=self.overhead_cycles + other.overhead_cycles,
        )

    def __radd__(self, other):
        # Support sum(stats_list) starting from 0.
        if other == 0:
            return self
        return self.__add__(other)

    @property
    def delivery_rate(self) -> float:
        total = self.delivered + self.lost
        return self.delivered / total if total else 1.0

    @property
    def overhead_per_packet(self) -> float:
        """Mean extra cycles per originally-sent packet."""
        original = self.packets_sent - self.retransmits
        return self.overhead_cycles / original if original else 0.0


class FlowOutcome(NamedTuple):
    """What :func:`send_flows` resolved, flow by flow.

    ``delivered`` is one boolean mask over every flow's packets, flow
    ``k``'s at ``offsets[k]:offsets[k + 1]`` (see :meth:`mask`);
    ``retransmits`` and ``n_delivered`` are per-flow counts; ``stats``
    is the sum of the flows' accounting, ``TransportStats() + flow 0 +
    flow 1 + ...`` in flow order.
    """

    delivered: np.ndarray
    offsets: np.ndarray
    retransmits: np.ndarray
    n_delivered: np.ndarray
    stats: TransportStats

    def mask(self, k: int) -> np.ndarray:
        """Flow ``k``'s delivered mask over its packet indices."""
        return self.delivered[self.offsets[k]:self.offsets[k + 1]]


def send_flows(
    injector: Optional[FaultInjector],
    srcs,
    dsts,
    channel: str,
    iteration: int,
    n_packets,
    config: Optional[TransportConfig] = None,
    backend=None,
) -> FlowOutcome:
    """Resolve the packets of many flows of one channel and iteration.

    Flow ``k`` runs from ``srcs[k]`` to ``dsts[k]`` with
    ``n_packets[k]`` packets.  Each round draws the data masks (and,
    when ACKs are modelled, the ACK masks) of every flow still holding
    unacknowledged packets in one
    :meth:`~repro.faults.plan.FaultInjector.drop_corrupt_flows` call,
    whose keyed draw runs on ``backend`` (``None``: the numpy
    statement).  Every flow's mask and accounting equal those of its
    own round loop (kept as the oracle in ``tests/oracles.py``).

    Parameters
    ----------
    injector:
        Fault source; ``None`` means a lossless fabric.
    config:
        Reliability layer; ``None`` models the paper's bare UDP — one
        transmission, no ACKs, no retries.  Corruption is caught by the
        packet checksum at the NIC and discarded, so it manifests as
        loss either way.
    """
    counts = np.asarray(n_packets, dtype=np.int64).reshape(-1)
    if np.any(counts < 0):
        raise ValidationError("n_packets must be >= 0")
    srcs = np.asarray(srcs, dtype=np.int64).reshape(-1)
    dsts = np.asarray(dsts, dtype=np.int64).reshape(-1)
    n_flows = len(counts)
    offsets = np.zeros(n_flows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    stats = TransportStats()
    if injector is None or total == 0:
        stats.packets_sent = stats.delivered = total
        if config is not None and config.model_acks:
            stats.acks_sent = total
        return FlowOutcome(
            np.ones(total, dtype=bool), offsets,
            np.zeros(n_flows, dtype=np.int64), counts.copy(), stats,
        )

    flow_of = np.repeat(np.arange(n_flows), counts)
    budget = 0 if config is None else config.retry_budget
    delivered = np.zeros(total, dtype=bool)
    unacked = np.ones(total, dtype=bool)
    sent = np.zeros(n_flows, dtype=np.int64)
    overhead = np.zeros(n_flows)
    for attempt in range(budget + 1):
        n_send = np.bincount(flow_of[unacked], minlength=n_flows)
        live = n_send > 0
        if not live.any():
            break
        stats.rounds = attempt + 1
        sent += n_send
        if attempt > 0:
            # Per flow, in round order: the oracle's float accumulation.
            overhead[live] += (
                config.timeout_cycles * config.backoff ** (attempt - 1)
                + n_send[live] * config.packet_cycles
            )
        on_wire = live[flow_of]
        drop = np.zeros(total, dtype=bool)
        corrupt = np.zeros(total, dtype=bool)
        drop[on_wire], corrupt[on_wire] = injector.drop_corrupt_flows(
            srcs[live], dsts[live], channel, iteration, counts[live],
            attempt=attempt, backend=backend,
        )
        fail = (drop | corrupt) & unacked
        stats.corrupt_detected += int(
            np.count_nonzero(corrupt & ~drop & unacked)
        )
        arrived = unacked & ~fail
        stats.duplicates += int(np.count_nonzero(arrived & delivered))
        delivered |= arrived
        if config is None:
            break  # bare UDP: no ACKs, no retries
        stats.acks_sent += int(np.count_nonzero(arrived))
        unacked = fail
        if config.model_acks:
            ack_drop = np.zeros(total, dtype=bool)
            ack_drop[on_wire] = injector.drop_corrupt_flows(
                srcs[live], dsts[live], channel + ACK_SUFFIX, iteration,
                counts[live], attempt=attempt, backend=backend,
            )[0]
            ack_lost = arrived & ack_drop
            stats.ack_drops += int(np.count_nonzero(ack_lost))
            unacked = unacked | ack_lost
    n_delivered = np.bincount(flow_of[delivered], minlength=n_flows)
    retransmits = sent - counts
    stats.packets_sent = int(sent.sum())
    stats.retransmits = int(retransmits.sum())
    stats.delivered = int(n_delivered.sum())
    stats.lost = total - stats.delivered
    # Summed left to right, as adding the flows' stats one by one does.
    stats.overhead_cycles = float(np.cumsum(overhead)[-1])
    return FlowOutcome(delivered, offsets, retransmits, n_delivered, stats)


def send_flow(
    injector: Optional[FaultInjector],
    src: int,
    dst: int,
    channel: str,
    iteration: int,
    n_packets: int,
    config: Optional[TransportConfig] = None,
    backend=None,
) -> Tuple[np.ndarray, TransportStats]:
    """Resolve one flow's packets: :func:`send_flows` of that one flow.

    Returns ``(delivered, stats)``: a boolean mask over the flow's
    packet indices and the flow's accounting (overhead is zero when
    nothing went wrong).
    """
    out = send_flows(
        injector, [src], [dst], channel, iteration, [n_packets], config,
        backend,
    )
    return out.delivered, out.stats
