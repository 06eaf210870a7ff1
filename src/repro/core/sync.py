"""Synchronization protocols: chained vs. bulk-synchronous (paper Sec. 4.4).

Distributed spatial simulation conventionally uses BSP, whose global
barrier makes every node wait for the slowest one ("straggler problem")
and whose host round-trip can cost milliseconds per MD iteration.  FASDA
instead synchronizes each node *only with its immediate neighbors*
(Fig. 12) through a four-way handshake per neighbor (Fig. 13):

1. I sent you my "last position" (after streaming all my positions),
2. I received your "last position",
3. I sent you a "last force" (after processing all your positions),
4. I received your "last force".

When all four hold for every neighbor the node independently enters
motion update, then its next iteration — no central agent.  A straggler
still bounds steady-state throughput (the paper is explicit about this),
but its delay propagates only one hop per iteration, giving distant
nodes a head start instead of a global stall.

Both protocols are implemented as node state machines on the
discrete-event kernel, with per-node, per-iteration work times supplied
by a callable so straggler injection is trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eventsim import EventSimulator, Message, MessageNetwork, NodeProcess
from repro.faults import (
    CLEAN,
    FaultDecision,
    FaultInjector,
    FaultPlan,
    TransportConfig,
)
from repro.network.topology import Topology
from repro.util.errors import ConfigError, DeadlockError, SimulationError

#: Work model: (node_id, iteration) -> force-phase compute cycles.
WorkFn = Callable[[int, int], float]


@dataclass
class SyncResult:
    """Timing outcome of a synchronization simulation.

    Attributes
    ----------
    iteration_complete:
        ``(n_nodes, n_iterations)`` array; entry [n, k] is the time node
        ``n`` finished iteration ``k`` (end of its motion update).
    makespan:
        Completion time of the whole run (max over nodes, last iteration).
    fault_counts:
        Fabric fault/reliability accounting (dropped, retransmits, ...)
        when a fault injector was attached; ``None`` for clean runs.
    """

    iteration_complete: np.ndarray
    fault_counts: Optional[Dict[str, int]] = field(default=None, compare=False)

    @property
    def makespan(self) -> float:
        return float(self.iteration_complete[:, -1].max())

    @property
    def n_iterations(self) -> int:
        return self.iteration_complete.shape[1]

    def mean_iteration_time(self) -> float:
        """Steady-state time per iteration (makespan / iterations)."""
        return self.makespan / self.n_iterations

    def start_spread(self, iteration: int) -> float:
        """Spread between the earliest and latest node finishing an
        iteration — nonzero spread under chained sync is the "head start"
        the paper describes."""
        col = self.iteration_complete[:, iteration]
        return float(col.max() - col.min())


def constant_work(cycles: float) -> WorkFn:
    """Every node takes the same force-phase time each iteration."""
    return lambda node, iteration: cycles


def straggler_work(
    base_cycles: float,
    straggler_node: int,
    slowdown: float,
    iterations: Optional[Sequence[int]] = None,
) -> WorkFn:
    """One node is ``slowdown``x slower (on selected iterations, or all)."""

    def fn(node: int, iteration: int) -> float:
        if node == straggler_node and (iterations is None or iteration in iterations):
            return base_cycles * slowdown
        return base_cycles

    return fn


def random_straggler_work(
    base_cycles: float, slowdown: float, probability: float, seed: int = 0
) -> WorkFn:
    """Each (node, iteration) independently straggles with a probability.

    Deterministic given the seed: the delay decision is hashed from
    (node, iteration) so the work function is a pure function.
    """

    def fn(node: int, iteration: int) -> float:
        rng = np.random.default_rng((seed * 1_000_003 + node) * 1_000_003 + iteration)
        return base_cycles * (slowdown if rng.random() < probability else 1.0)

    return fn


# -- chained synchronization ---------------------------------------------------


class _ChainedNode(NodeProcess):
    """One FPGA node running the Fig. 13 handshake."""

    def __init__(
        self,
        node_id: int,
        neighbors: Tuple[int, ...],
        work_fn: WorkFn,
        mu_cycles: float,
        n_iterations: int,
        result: np.ndarray,
        position_tail_fraction: float,
    ):
        super().__init__(node_id)
        self.neighbors = neighbors
        self.work_fn = work_fn
        self.mu_cycles = mu_cycles
        self.n_iterations = n_iterations
        self.result = result
        # Fraction of the force phase spent processing a neighbor's
        # positions after its last one arrives (pipeline tail).
        self.tail_fraction = position_tail_fraction
        self.iteration = 0
        #: Messages from neighbors already in a later iteration, keyed by
        #: their iteration; replayed when we get there.  Skew is at most
        #: one iteration because a neighbor needs our signals to advance.
        self._pending: Dict[int, List[Message]] = {}
        #: Late duplicates / retransmits of already-consumed signals,
        #: discarded on arrival.  Always zero on a lossless fabric.
        self.stale_messages = 0
        self._reset_flags()

    def _reset_flags(self) -> None:
        self.sent_last_pos: set = set()
        self.recv_last_pos: Dict[int, float] = {}
        self.sent_last_frc: set = set()
        self.recv_last_frc: set = set()
        self.own_stream_end: Optional[float] = None
        self._frc_scheduled: set = set()
        self._mu_scheduled = False

    def on_start(self) -> None:
        self._begin_iteration()

    def _begin_iteration(self) -> None:
        work = self.work_fn(self.node_id, self.iteration)
        self.sim.schedule(work, self._position_stream_done)

    def _position_stream_done(self) -> None:
        """All local positions routed: send 'last position' everywhere."""
        self.own_stream_end = self.sim.now
        for nbr in self.neighbors:
            self.send(nbr, "last_position", self.iteration)
            self.sent_last_pos.add(nbr)
        self._try_send_forces()
        self._maybe_motion_update()

    def _try_send_forces(self) -> None:
        """Send 'last force' to each neighbor whose stream we've finished."""
        if self.own_stream_end is None:
            return
        for nbr, recv_t in list(self.recv_last_pos.items()):
            if nbr in self._frc_scheduled:
                continue
            tail = self.tail_fraction * self.work_fn(self.node_id, self.iteration)
            ready = max(self.own_stream_end, recv_t + tail)
            self._frc_scheduled.add(nbr)
            delay = max(0.0, ready - self.sim.now)
            self.sim.schedule(delay, self._send_last_force, nbr, self.iteration)

    def _send_last_force(self, nbr: int, iteration: int) -> None:
        if iteration != self.iteration:  # pragma: no cover - defensive
            raise SimulationError("stale last_force send")
        self.send(nbr, "last_force", iteration)
        self.sent_last_frc.add(nbr)
        self._maybe_motion_update()

    def on_message(self, msg: Message) -> None:
        if msg.payload != self.iteration:
            if not isinstance(msg.payload, int) or msg.payload < self.iteration:
                # A duplicate or late retransmit of a signal we already
                # consumed (sets below are idempotent, so the protocol
                # already advanced past it), or a corrupted iteration
                # tag.  Both are discarded — a genuinely *missing*
                # signal is what the deadlock watchdog diagnoses.
                self.stale_messages += 1
                return
            # A faster neighbor may already be in iteration k+1 while we
            # are in k; its signals for k+1 are buffered until we get there.
            self._pending.setdefault(msg.payload, []).append(msg)
            return
        self._handle(msg)

    def _handle(self, msg: Message) -> None:
        if msg.kind == "last_position":
            self.recv_last_pos[msg.src] = self.sim.now
            self._try_send_forces()
        elif msg.kind == "last_force":
            self.recv_last_frc.add(msg.src)
            self._maybe_motion_update()
        else:
            raise SimulationError(f"unexpected message kind {msg.kind!r}")

    def _maybe_motion_update(self) -> None:
        n = len(self.neighbors)
        if (
            not self._mu_scheduled
            and len(self.sent_last_pos) == n
            and len(self.recv_last_pos) == n
            and len(self.sent_last_frc) == n
            and len(self.recv_last_frc) == n
        ):
            self._mu_scheduled = True
            self.sim.schedule(self.mu_cycles, self._iteration_done)

    def _iteration_done(self) -> None:
        self.result[self.node_id, self.iteration] = self.sim.now
        self.iteration += 1
        self._reset_flags()
        if self.iteration < self.n_iterations:
            # Replay any buffered messages for the new iteration.
            for msg in self._pending.pop(self.iteration, []):
                self._handle(msg)
            self._begin_iteration()


def _diagnose_deadlock(
    nodes: List[_ChainedNode], n_iterations: int
) -> Optional[str]:
    """Name the first stalled node and its missing handshake edges.

    Returns ``None`` when every node completed all iterations (a clean
    drain); otherwise a diagnosis string for :class:`DeadlockError`.
    """
    stuck = [nd for nd in nodes if nd.iteration < n_iterations]
    if not stuck:
        return None
    first = min(stuck, key=lambda nd: (nd.iteration, nd.node_id))
    missing: List[str] = []
    waiting_pos = sorted(set(first.neighbors) - set(first.recv_last_pos))
    waiting_frc = sorted(set(first.neighbors) - first.recv_last_frc)
    if waiting_pos:
        missing.append(
            "last_position from node(s) " + ", ".join(map(str, waiting_pos))
        )
    if waiting_frc:
        missing.append(
            "last_force from node(s) " + ", ".join(map(str, waiting_frc))
        )
    if not missing:
        unsent = sorted(set(first.neighbors) - first.sent_last_frc)
        missing.append(
            "its own last_force send to node(s) " + ", ".join(map(str, unsent))
            if unsent
            else "its motion update"
        )
    return (
        f"chained sync deadlocked: node {first.node_id} stuck at iteration "
        f"{first.iteration} ({len(stuck)}/{len(nodes)} nodes unfinished), "
        "waiting for " + "; ".join(missing)
    )


def run_chained_sync(
    topology: Topology,
    work_fn: WorkFn,
    n_iterations: int,
    link_latency: float = 200.0,
    mu_cycles: float = 100.0,
    position_tail_fraction: float = 0.05,
    injector: Optional[FaultInjector] = None,
    transport: Optional[TransportConfig] = None,
) -> SyncResult:
    """Simulate chained synchronization over a topology.

    Parameters
    ----------
    topology:
        Defines each node's synchronization neighbors (its torus
        neighbors, Fig. 8).
    work_fn:
        Per-(node, iteration) force-phase cycles.
    link_latency:
        One-way inter-FPGA latency in cycles.
    mu_cycles:
        Motion-update phase length.
    position_tail_fraction:
        Fraction of the force phase needed to finish processing a
        neighbor's stream after its last position arrives.
    injector:
        Fault injection for the fabric (drop / duplicate / delay /
        corrupt) and node stall faults.  Without a ``transport`` the
        protocol has no retransmission (the paper's UDP relies on
        cooldown keeping the switch lossless), so a lost `last` signal
        deadlocks the cluster — the progress watchdog converts that into
        a :class:`~repro.util.errors.DeadlockError` naming the stuck
        node and the missing handshake edge.
    transport:
        Reliable-transport parameters; lost signals are then
        retransmitted with exponential backoff, which shows up as
        makespan overhead instead of a deadlock (until the retry budget
        is exhausted).
    """
    if n_iterations < 1:
        raise ConfigError("n_iterations must be >= 1")
    effective_work = work_fn
    if injector is not None and injector.plan.has_stall_faults:
        def effective_work(node: int, iteration: int) -> float:
            return work_fn(node, iteration) * injector.work_multiplier(
                node, iteration
            )

    sim = EventSimulator()
    net = MessageNetwork(
        sim, default_latency=link_latency, injector=injector, transport=transport
    )
    result = np.zeros((topology.n_nodes, n_iterations))
    node_list: List[_ChainedNode] = []
    for nid in range(topology.n_nodes):
        node = _ChainedNode(
            nid,
            topology.neighbors(nid),
            effective_work,
            mu_cycles,
            n_iterations,
            result,
            position_tail_fraction,
        )
        net.attach(node)
        node_list.append(node)
    sim.add_watchdog(lambda: _diagnose_deadlock(node_list, n_iterations))
    net.start()
    sim.run()
    if np.any(result[:, -1] == 0.0):  # pragma: no cover - watchdog fires first
        raise DeadlockError(
            _diagnose_deadlock(node_list, n_iterations)
            or "chained sync deadlocked: some node never finished"
        )
    return SyncResult(
        result,
        fault_counts=dict(net.fault_counts) if injector is not None else None,
    )


class _SilentNodeInjector(FaultInjector):
    """Drops every message ``node`` sends and nothing else: a crashed
    board, as its neighbors observe it."""

    _DROP = FaultDecision(drop=True)

    def __init__(self, node: int):
        super().__init__(FaultPlan())
        self.node = node

    def decide_message(self, msg: Message, iteration: int, unit: int = 0,
                       attempt: int = 0) -> FaultDecision:
        return self._DROP if msg.src == self.node else CLEAN


def diagnose_dead_node(
    topology: Topology,
    dead_node: int,
    n_iterations: int = 2,
    work_cycles: float = 1000.0,
    link_latency: float = 200.0,
) -> str:
    """Run the chained handshake with ``dead_node`` silent; return the
    watchdog's diagnosis.

    This is how surviving boards *detect* a crashed peer: the dead node
    sends no ``last_position``/``last_force`` signals, its neighbors'
    four-way handshakes stall, and the progress watchdog names the first
    stuck node and the missing edges — the trigger for the recovery
    protocol in :class:`~repro.core.distributed.DistributedMachine`.
    """
    if not 0 <= dead_node < topology.n_nodes:
        raise ConfigError(
            f"dead_node must be in [0, {topology.n_nodes}), got {dead_node}"
        )
    try:
        run_chained_sync(
            topology,
            lambda node, it: work_cycles,
            n_iterations,
            link_latency=link_latency,
            injector=_SilentNodeInjector(dead_node),
        )
    except DeadlockError as exc:
        return str(exc)
    raise SimulationError(  # pragma: no cover - watchdog always fires
        f"silent node {dead_node} went undetected by the watchdog"
    )


# -- bulk-synchronous baseline -------------------------------------------------


def run_bulk_sync(
    n_nodes: int,
    work_fn: WorkFn,
    n_iterations: int,
    barrier_latency: float = 200.0,
    mu_cycles: float = 100.0,
    host_coordinated: bool = False,
    host_latency: float = 200_000.0,
) -> SyncResult:
    """Bulk-synchronous baseline (closed form — no event queue needed).

    Every iteration: all nodes compute, then a global barrier (one
    gather + one release).  With ``host_coordinated`` the barrier costs a
    host round-trip, which at 200 MHz is ~1 ms = 200k cycles — the
    "latency of milliseconds for a single MD iteration" the paper warns
    about.
    """
    if n_iterations < 1:
        raise ConfigError("n_iterations must be >= 1")
    barrier = 2.0 * (host_latency if host_coordinated else barrier_latency)
    result = np.zeros((n_nodes, n_iterations))
    t = 0.0
    for k in range(n_iterations):
        slowest = max(work_fn(n, k) for n in range(n_nodes))
        t += slowest + barrier + mu_cycles
        result[:, k] = t
    return SyncResult(result)
