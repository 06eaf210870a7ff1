"""Deterministic, seedable fault plans and the injector that applies them.

The paper's cluster keeps its raw-UDP transport lossless only by pacing
transmissions (Sec. 5.4); this module models what happens when that
assumption breaks.  A :class:`FaultPlan` declares the fault processes —
packet drop, duplication, reordering delay, payload bit-flip corruption,
and node stall/straggler faults — and a :class:`FaultInjector` turns the
plan into *bitwise reproducible* decisions: every decision is drawn from
the keyed stream (:mod:`repro.faults.keyed`) of the plan seed plus the
event key ``(src, dst, channel, iteration, unit, attempt)``, so a run
never depends on call order, thread scheduling, or how many other
decisions were drawn before it.  The masks of many flows come out of
one batched keyed draw (:meth:`FaultInjector.drop_corrupt_flows`).

``channel`` is a string ("position", "force", "last_position", ...) and
is folded into the seed via CRC-32, which is stable across processes —
unlike Python's randomized ``hash``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Tuple

import numpy as np

from repro.faults.keyed import keyed_draws, keyed_rng
from repro.util.errors import ValidationError

#: Domain-separation salts so the message, stall, and corruption streams
#: never alias even for identical keys.
_SALT_MESSAGE = 0x4D53_4721
_SALT_STALL = 0x5354_414C
_SALT_CORRUPT = 0x434F_5252


@dataclass(frozen=True)
class FaultDecision:
    """The injector's verdict for one packet/message (one attempt).

    Attributes
    ----------
    drop:
        Lose the packet in the fabric.
    duplicates:
        Extra copies delivered after the original (0 = none).
    delay:
        Extra in-fabric latency (cycles) modelling reordering — the
        packet arrives late relative to later sends.
    corrupt:
        Flip a payload bit in flight.  A reliable transport detects this
        via its checksum and treats the packet as lost; a bare receiver
        sees the corrupted payload.
    """

    drop: bool = False
    duplicates: int = 0
    delay: float = 0.0
    corrupt: bool = False

    @property
    def clean(self) -> bool:
        return not (self.drop or self.duplicates or self.delay or self.corrupt)


#: Shared no-fault verdict (fast path for zero-rate plans).
CLEAN = FaultDecision()


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the fault processes to inject.

    All rates are per-packet (or per-message) probabilities in [0, 1];
    the stall rate is per (node, iteration).  A default-constructed plan
    injects nothing.

    Attributes
    ----------
    seed:
        Root seed; two injectors with equal plans make equal decisions.
    drop_rate:
        Probability a packet is lost in the fabric.
    duplicate_rate:
        Probability a packet is delivered twice.
    delay_rate / delay_cycles:
        Probability a packet is delayed (reordered), and the mean of the
        exponential extra latency applied when it is.
    corrupt_rate:
        Probability of a payload bit-flip in flight.
    stall_rate / stall_factor:
        Probability a node straggles on an iteration, and the work
        multiplier applied when it does.
    onset_iteration:
        Faults only fire from this iteration on — e.g. ``1`` keeps the
        first exchange clean so receivers have a stale snapshot to
        degrade onto when later losses exceed the retry budget.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_cycles: float = 1000.0
    corrupt_rate: float = 0.0
    stall_rate: float = 0.0
    stall_factor: float = 4.0
    onset_iteration: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate",
                     "corrupt_rate", "stall_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if self.delay_cycles < 0:
            raise ValidationError("delay_cycles must be >= 0")
        if self.stall_factor < 1.0:
            raise ValidationError("stall_factor must be >= 1")
        if self.onset_iteration < 0:
            raise ValidationError("onset_iteration must be >= 0")

    @property
    def has_message_faults(self) -> bool:
        """Any in-fabric fault process active?"""
        return (
            self.drop_rate > 0
            or self.duplicate_rate > 0
            or self.delay_rate > 0
            or self.corrupt_rate > 0
        )

    @property
    def has_stall_faults(self) -> bool:
        return self.stall_rate > 0


def _channel_id(channel: str) -> int:
    """Stable 32-bit integer for a channel name."""
    return zlib.crc32(channel.encode("utf-8"))


class FaultInjector:
    """Applies a :class:`FaultPlan` with bitwise-reproducible decisions.

    One injector instance can be shared by every layer (event network,
    packet switch, distributed exchange): decisions depend only on the
    plan and the event key, never on injector state.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def _covers(self, channel: str) -> bool:
        """Whether the plan's message faults reach ``channel`` (all do)."""
        return True

    # -- per-message decisions ---------------------------------------------

    def decide(
        self,
        src: int,
        dst: int,
        channel: str,
        iteration: int,
        unit: int = 0,
        attempt: int = 0,
    ) -> FaultDecision:
        """Verdict for one packet/message.

        ``unit`` distinguishes packets within the same
        (src, dst, channel, iteration) flow; ``attempt`` distinguishes
        retransmissions of the same unit, so a retransmitted packet is
        re-exposed to an independent loss draw.
        """
        plan = self.plan
        if (
            not plan.has_message_faults
            or iteration < plan.onset_iteration
            or not self._covers(channel)
        ):
            return CLEAN
        rng = keyed_rng(
            plan.seed, _SALT_MESSAGE, src, dst, _channel_id(channel),
            iteration, unit, attempt,
        )
        u = rng.random(4)
        drop = bool(u[0] < plan.drop_rate)
        duplicates = int(u[1] < plan.duplicate_rate)
        delay = 0.0
        if u[2] < plan.delay_rate:
            # Inverse-CDF exponential from a dedicated draw: deterministic
            # and independent of the boolean draws above.
            delay = float(-np.log(1.0 - rng.random()) * plan.delay_cycles)
        corrupt = bool(u[3] < plan.corrupt_rate)
        if not (drop or duplicates or delay or corrupt):
            return CLEAN
        return FaultDecision(drop, duplicates, delay, corrupt)

    def decide_message(self, msg: Any, iteration: int, unit: int = 0,
                       attempt: int = 0) -> FaultDecision:
        """Verdict for an event-layer :class:`~repro.eventsim.Message`.

        The default implementation keys off the message's envelope
        (src, dst, kind); subclasses may inspect the full message.
        """
        return self.decide(msg.src, msg.dst, msg.kind, iteration, unit, attempt)

    def drop_corrupt_arrays(
        self,
        src: int,
        dst: int,
        channel: str,
        iteration: int,
        n: int,
        attempt: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized per-packet (drop, corrupt) masks for a whole flow.

        Equivalent to ``n`` :meth:`decide` calls with ``unit=0..n-1``
        collapsed into one keyed draw — the batched distributed exchange
        and the packet switch use this so fault decisions stay O(1) RNG
        setups per flow instead of per packet.
        """
        if not self._drops_or_corrupts(channel, iteration) or n <= 0:
            z = np.zeros(max(n, 0), dtype=bool)
            return z, z.copy()
        plan = self.plan
        rng = keyed_rng(
            plan.seed, _SALT_MESSAGE, src, dst, _channel_id(channel),
            iteration, attempt,
        )
        u = rng.random((n, 2))
        return u[:, 0] < plan.drop_rate, u[:, 1] < plan.corrupt_rate

    def drop_corrupt_flows(
        self,
        srcs,
        dsts,
        channel: str,
        iteration: int,
        counts,
        attempt: int = 0,
        backend=None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`drop_corrupt_arrays` of many flows of one channel and
        attempt, concatenated in flow order.

        Flow ``k`` is ``(srcs[k], dsts[k])`` with ``counts[k]`` packets.
        Every flow's masks come out of one keyed draw (``backend``'s
        ``keyed_uniforms``; ``None`` runs the numpy statement), equal to
        its own :meth:`drop_corrupt_arrays` bit for bit.  A subclass
        that overrides :meth:`drop_corrupt_arrays` keeps deciding its
        packets: it is asked flow by flow.
        """
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        own = FaultInjector.drop_corrupt_arrays
        if type(self).drop_corrupt_arrays is not own:
            pairs = [(np.zeros(0, dtype=bool),) * 2] + [
                self.drop_corrupt_arrays(
                    int(s), int(d), channel, iteration, int(n), attempt
                )
                for s, d, n in zip(srcs, dsts, counts)
            ]
            return (
                np.concatenate([p[0] for p in pairs]),
                np.concatenate([p[1] for p in pairs]),
            )
        total = int(counts.sum())
        if not self._drops_or_corrupts(channel, iteration) or total == 0:
            z = np.zeros(total, dtype=bool)
            return z, z.copy()
        plan = self.plan
        keys = np.empty((len(counts), 6), dtype=np.int64)
        keys[:, 0] = _SALT_MESSAGE
        keys[:, 1] = srcs
        keys[:, 2] = dsts
        keys[:, 3] = _channel_id(channel)
        keys[:, 4] = iteration
        keys[:, 5] = attempt
        # Each key's draws are (drop, corrupt) pairs, as in
        # drop_corrupt_arrays' ``random((n, 2))``.
        u = keyed_draws(plan.seed, keys, 2 * counts, backend)
        return u[0::2] < plan.drop_rate, u[1::2] < plan.corrupt_rate

    def _drops_or_corrupts(self, channel: str, iteration: int) -> bool:
        plan = self.plan
        return (
            (plan.drop_rate > 0 or plan.corrupt_rate > 0)
            and iteration >= plan.onset_iteration
            and self._covers(channel)
        )

    # -- payload corruption -------------------------------------------------

    def corrupt_payload(
        self, payload: Any, src: int, dst: int, channel: str, iteration: int
    ) -> Any:
        """Bit-flip a payload in flight (bare-transport corruption).

        Integer payloads get one of their low 16 bits flipped; anything
        else is replaced by a ``("corrupt", original)`` marker — the
        receiver either mis-interprets it or its validation trips, both
        of which are realistic outcomes of an undetected flip.
        """
        rng = keyed_rng(
            self.plan.seed, _SALT_CORRUPT, src, dst, _channel_id(channel),
            iteration,
        )
        if isinstance(payload, (int, np.integer)):
            return int(payload) ^ (1 << int(rng.integers(0, 16)))
        return ("corrupt", payload)

    # -- node stall faults --------------------------------------------------

    def work_multiplier(self, node: int, iteration: int) -> float:
        """Stall factor for a node's force-phase work this iteration."""
        plan = self.plan
        if not plan.has_stall_faults or iteration < plan.onset_iteration:
            return 1.0
        rng = keyed_rng(plan.seed, _SALT_STALL, node, iteration)
        return plan.stall_factor if rng.random() < plan.stall_rate else 1.0


class ChannelInjector(FaultInjector):
    """Restrict a plan's message faults to one channel family.

    Packets whose channel equals ``channel`` (or a derived subchannel
    such as ``"<channel>/ack"``) see the wrapped plan's fault
    processes; every other flow sees a clean fabric.  The elasticity
    soak uses this to fault migration traffic in flight while the
    position exchange stays bitwise comparable to a fault-free run.
    Node-stall draws are not channel-scoped and pass through unchanged.
    """

    def __init__(self, plan: FaultPlan, channel: str):
        super().__init__(plan)
        self.channel = str(channel)

    def _covers(self, channel: str) -> bool:
        return channel == self.channel or channel.startswith(
            self.channel + "/"
        )
