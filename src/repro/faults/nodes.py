"""Node-level failure domains: crashes, restarts, and slowdowns.

PR 3 modelled *message*-level faults (a packet lost in the fabric); this
module models the next failure domain up — a whole FPGA board dying mid
run, the case the paper's day-long drug-discovery campaigns must survive.
A :class:`NodeFaultPlan` declares the crash/slowdown processes (random
with a per-(node, iteration) hazard derived from an MTBF, or explicit
scripted :class:`NodeFaultEvent`\\ s), and a :class:`NodeFaultInjector`
turns the plan into bitwise-reproducible decisions with the same keyed
streams (:mod:`repro.faults.keyed`) as
:class:`~repro.faults.plan.FaultInjector` — decisions never depend on
call order or on how many draws preceded them.

The recovery protocol itself lives in
:class:`~repro.core.distributed.DistributedMachine`; each completed
recovery is summarized here as a :class:`RecoveryRecord` (what moved,
what was replayed, what it cost).  Recovery is **lossless by
construction**: surviving nodes re-home the dead node's cells and replay
them from the buddy shadow checkpoint through the canonical evaluation
path, so positions/forces/energies stay bitwise identical to a
fault-free run — only the cycle and traffic accounting differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.faults.keyed import _MASK32, _MASK64, key_words, keyed_kernel
from repro.util.errors import ValidationError

#: Domain-separation salts for the node-level fault streams (disjoint
#: from the message/stall/corrupt salts in :mod:`repro.faults.plan`).
_SALT_CRASH = 0x4E44_4352  # "NDCR"
_SALT_SLOW = 0x4E44_534C   # "NDSL"

#: Cost proxy for replaying one position record for one iteration on the
#: adopting nodes (filter + pipeline + scatter, amortized) — the same
#: order as one PE's per-record work in the cycle model.
REPLAY_CYCLES_PER_RECORD = 64.0

_EVENT_KINDS = ("crash", "slowdown")


@dataclass(frozen=True)
class NodeFaultEvent:
    """One scripted node fault.

    Attributes
    ----------
    node:
        Node id the fault hits.
    iteration:
        Force-pass index at which it fires.
    kind:
        ``"crash"`` (board dies, recovery protocol engages) or
        ``"slowdown"`` (board straggles; work multiplied by ``factor``).
    factor:
        Work multiplier for ``kind="slowdown"`` (ignored for crashes).
    """

    node: int
    iteration: int
    kind: str = "crash"
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ValidationError(f"event node must be >= 0, got {self.node}")
        if self.iteration < 0:
            raise ValidationError(
                f"event iteration must be >= 0, got {self.iteration}"
            )
        if self.kind not in _EVENT_KINDS:
            raise ValidationError(
                f"event kind must be one of {_EVENT_KINDS}, got {self.kind!r}"
            )
        if self.factor < 1.0:
            raise ValidationError("slowdown factor must be >= 1")


@dataclass(frozen=True)
class NodeFaultPlan:
    """Declarative description of the node-failure processes.

    Attributes
    ----------
    seed:
        Root seed; two injectors with equal plans make equal decisions.
    crash_rate:
        Per-(node, iteration) crash probability — the discrete hazard of
        an exponential failure law, i.e. ``1 / MTBF`` in iterations (see
        :meth:`from_mtbf`).
    slowdown_rate / slowdown_factor:
        Probability a node straggles on an iteration and the work
        multiplier applied when it does (the node-fault analogue of the
        message plan's stall process).
    restart_iterations:
        Iterations a crashed board stays down before it rejoins (its
        cells live on the adopting survivors for the whole window).
    onset_iteration:
        Random faults only fire from this iteration on; scripted events
        fire at their own iteration regardless.
    events:
        Explicit scripted faults, applied in addition to the random
        processes (the CLI demo's "kill node k at iteration i").
    """

    seed: int = 0
    crash_rate: float = 0.0
    slowdown_rate: float = 0.0
    slowdown_factor: float = 4.0
    restart_iterations: int = 2
    onset_iteration: int = 0
    events: Tuple[NodeFaultEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in ("crash_rate", "slowdown_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if self.slowdown_factor < 1.0:
            raise ValidationError("slowdown_factor must be >= 1")
        if self.restart_iterations < 1:
            raise ValidationError("restart_iterations must be >= 1")
        if self.onset_iteration < 0:
            raise ValidationError("onset_iteration must be >= 0")
        object.__setattr__(self, "events", tuple(self.events))

    @classmethod
    def from_mtbf(cls, mtbf_iterations: float, **kwargs) -> "NodeFaultPlan":
        """Plan with the crash hazard of a given per-node MTBF.

        ``mtbf_iterations`` is the mean iterations between failures of
        one node; the per-iteration hazard is its reciprocal.
        """
        if not mtbf_iterations >= 1.0:
            raise ValidationError(
                f"mtbf_iterations must be >= 1, got {mtbf_iterations}"
            )
        return cls(crash_rate=1.0 / float(mtbf_iterations), **kwargs)

    @property
    def has_node_faults(self) -> bool:
        """Any crash/slowdown process (random or scripted) active?"""
        return (
            self.crash_rate > 0
            or self.slowdown_rate > 0
            or len(self.events) > 0
        )


class NodeFaultInjector:
    """Applies a :class:`NodeFaultPlan` with bitwise-reproducible draws."""

    def __init__(self, plan: NodeFaultPlan):
        self.plan = plan
        #: The draw's entropy words per (seed, salts drawn, node count,
        #: wide iteration): see :meth:`_draw`.
        self._words: Dict[tuple, tuple] = {}

    def faults_at(
        self, iteration: int, n_nodes: int, backend=None
    ) -> Tuple[List[int], np.ndarray]:
        """Crashed nodes and per-node work multipliers at ``iteration``.

        Returns the node ids that crash (sorted, deduplicated) and each
        node's slowdown factor (>= 1).  Scripted events and the random
        processes combine; events naming nodes outside ``[0, n_nodes)``
        are ignored.  Every node's crash and slowdown decisions are the
        first uniforms of their keys ``(salt, node, iteration)``, drawn
        for all nodes in one keyed draw (``backend``'s
        ``keyed_uniforms``; ``None`` runs the numpy statement) whose
        entropy words are built once per node count and set of active
        processes; a call rewrites only their iteration words.
        """
        plan = self.plan
        crashed = {
            e.node
            for e in plan.events
            if e.kind == "crash"
            and e.iteration == iteration
            and 0 <= e.node < n_nodes
        }
        factors = np.ones(n_nodes)
        for e in plan.events:
            if (
                e.kind == "slowdown"
                and e.iteration == iteration
                and 0 <= e.node < n_nodes
            ):
                factors[e.node] = max(factors[e.node], e.factor)
        drawn = [
            (salt, rate)
            for salt, rate in (
                (_SALT_CRASH, plan.crash_rate),
                (_SALT_SLOW, plan.slowdown_rate),
            )
            if rate > 0 and iteration >= plan.onset_iteration
        ]
        if drawn and n_nodes > 0:
            u = self._draw(
                tuple(salt for salt, _ in drawn), iteration, n_nodes, backend
            ).reshape(len(drawn), n_nodes)
            for (salt, rate), row in zip(drawn, u):
                hit = np.flatnonzero(row < rate)
                if salt == _SALT_CRASH:
                    crashed.update(hit.tolist())
                else:
                    factors[hit] = np.maximum(
                        factors[hit], plan.slowdown_factor
                    )
        return sorted(crashed), factors

    def _draw(self, salts, iteration: int, n_nodes: int, backend):
        """The first uniform of every key ``(salt, node, iteration)``,
        salts outer, nodes inner: :func:`~repro.faults.keyed.keyed_draws`
        of those keys, from entropy words kept per (salts, node count,
        whether the iteration needs a high word) with only the iteration
        words rewritten.  The iteration is each key's last field, so its
        words end the key's run."""
        it = int(iteration) & _MASK64
        wide = it >> 32 != 0
        cache = (self.plan.seed, salts, n_nodes, wide)
        held = self._words.get(cache)
        if held is None:
            keys = np.empty((len(salts) * n_nodes, 3), dtype=np.int64)
            keys[:, 0] = np.repeat(salts, n_nodes)
            keys[:, 1] = np.tile(np.arange(n_nodes), len(salts))
            keys[:, 2] = iteration
            words, word_offsets = key_words(self.plan.seed, keys)
            held = self._words[cache] = (
                words, word_offsets,
                np.arange(len(keys) + 1, dtype=np.int64),
                word_offsets[1:] - (2 if wide else 1),
            )
        words, word_offsets, out_offsets, at = held
        words[at] = it & _MASK32
        if wide:
            words[at + 1] = it >> 32
        return keyed_kernel(backend)(words, word_offsets, out_offsets)

    def crashes_at(
        self, iteration: int, n_nodes: int, backend=None
    ) -> List[int]:
        """Node ids that crash at this iteration (see :meth:`faults_at`)."""
        return self.faults_at(iteration, n_nodes, backend)[0]

    def work_multiplier(self, node: int, iteration: int) -> float:
        """Slowdown factor for a node's work this iteration (>= 1)."""
        return float(self.faults_at(iteration, node + 1)[1][node])


@dataclass(frozen=True)
class RecoveryRecord:
    """One completed node-crash recovery.

    Attributes
    ----------
    node:
        The node that crashed.
    crash_iteration / detected_iteration:
        Force-pass index of the crash and of its detection by the
        surviving peers' watchdogs (equal in the synchronous model: the
        chained handshake stalls within the same iteration).
    buddy:
        Surviving node holding the crashed node's shadow checkpoint
        (ring buddy, skipping other down nodes).
    shadow_iteration:
        Iteration of the shadow the replay started from.
    replay_iterations:
        Iterations replayed to catch the adopted cells up
        (``detected_iteration - shadow_iteration``).
    cells_moved / records_moved:
        The dead node's cells re-homed onto survivors and the position
        records they held at re-homing time.
    migration_cross_node:
        Cross-node migrations the re-homing cost per the MU-ring
        accounting (every adopted record crosses a node boundary).
    recovery_traffic_records:
        Extra fabric records: shadow restore from the buddy plus the
        return migration when the node rejoins.
    cycles_lost:
        Watchdog detection timeout plus the replay work, in cycles.
    """

    node: int
    crash_iteration: int
    detected_iteration: int
    buddy: int
    shadow_iteration: int
    replay_iterations: int
    cells_moved: int
    records_moved: int
    migration_cross_node: int
    recovery_traffic_records: int
    cycles_lost: float


@dataclass(frozen=True)
class RescaleRecord:
    """One committed elastic rescale (planned grow or shrink).

    The planned counterpart of :class:`RecoveryRecord`: a rescale moves
    cells because the host *decided* to, not because a board died, so
    its migration is fully accounted through the switch model instead
    of being charged as crash-recovery traffic.

    Attributes
    ----------
    iteration:
        Force-pass index at which the rescale committed (an iteration
        boundary — physics state is never in flight during a rescale).
    n_old / n_new:
        Node counts before and after.
    grid_old / grid_new:
        The FPGA grids before and after.
    cells_moved:
        Cells whose owning node changed under the new partition
        (including empty cells — ownership moves even when no records
        do).
    records_moved:
        Position records those cells held at the boundary; every one
        crosses a node boundary by definition.
    flows:
        Per-(old owner, new owner) migration flows as
        ``(src, dst, records, packets)`` tuples, ascending by (src,
        dst) — the unit the conservation tests check
        (``packets == ceil(records / records_per_packet)`` per flow).
    migration_packets / migration_bytes:
        Total packets and wire bytes of the transfer.
    migration_cycles:
        Cooldown-paced serialization makespan of the transfer (the
        longest single flow's paced train; flows pace concurrently).
    shadow_records:
        Records captured in the prepare-phase shadow checkpoint the
        transfer could have rolled back to.
    """

    iteration: int
    n_old: int
    n_new: int
    grid_old: Tuple[int, int, int]
    grid_new: Tuple[int, int, int]
    cells_moved: int
    records_moved: int
    flows: Tuple[Tuple[int, int, int, int], ...]
    migration_packets: int
    migration_bytes: int
    migration_cycles: float
    shadow_records: int


@dataclass(frozen=True)
class RescaleAbortedRecord:
    """One rescale attempt rolled back by a mid-migration fault.

    Attributes
    ----------
    iteration:
        Force-pass index of the attempt.
    n_old / n_new:
        Node counts of the pre-rescale partition and the abandoned
        target.
    reason:
        What killed the transfer (node crash, lost/corrupt migration
        flow, switch overflow, or a prepare-phase precondition).
    phase:
        ``"prepare"`` (preconditions failed before any transfer) or
        ``"transfer"`` (the migration itself faulted).
    flows_attempted:
        Migration flows planned before the abort.
    packets_lost:
        Migration packets lost beyond the retry budget (0 for crashes
        and prepare-phase aborts).
    rolled_back:
        Always True on the normal path — recorded explicitly so the
        soak can assert no abort ever left a half-migrated machine.
    """

    iteration: int
    n_old: int
    n_new: int
    reason: str
    phase: str
    flows_attempted: int
    packets_lost: int
    rolled_back: bool
