"""Distributed execution: per-node state, real packet exchange, ID conversion.

:class:`~repro.core.machine.FasdaMachine` computes globally and *accounts*
traffic; this module executes the way the cluster actually does:

* each node owns only its local cells' particles (position cache
  contents: quantized fractions + species + ids);
* boundary-cell positions ship as one record run per (source node,
  destination node) flow, packed like the per-node P2R encapsulator
  chain packs :class:`~repro.core.packets.Packet` objects — one copy per
  destination *node*, exactly like the hardware's departure gates;
* the receiving node's GCID -> LCID (node-relative) and LCID -> RCID
  (cell-relative) conversions — the actual Sec. 4.2 machinery — depend
  on the partition alone, so they run, round-trip checked, whenever a
  partition is applied (construction and every rescale), over every
  flow's cells and every node's half-shell neighborhoods;
* each node runs the single machine's datapath
  (:class:`~repro.core.machine.MachineCore`) over its *node view* — its
  local cells plus received halo cells in ascending cid — on a
  persistent, updatable :class:`~repro.md.cellstate.CellState` whose
  bank rows are global particle ids, returns the nonzero neighbor
  forces of rows another node owns as force packets, and integrates
  its particles.

Like the hardware's position caches, a node view is laid out once per
binning (:class:`_ViewLayout`) over an arena keyed by global particle
id; each step only moves the position payload: one gather of the
node's own fractions, and per flow one gather to pack and one scatter
into the destination's arena.  The node's band lists follow the view
the way the machine's follow the box: reused while nothing changed
cell, re-searched in place over the regions whose cells changed
membership, and rebuilt only on the skin/2 criterion.  The force
returns of a pass come back as flat ``(owner, particle id, force)``
arrays and are folded onto the force bank in one pass
(:meth:`DistributedMachine._merge_results`), with the float32 rounding
of applying them segment by segment.

The distributed trajectory agrees with the global machine's within
float32 accumulation-order noise — asserted by the equivalence tests —
which is precisely the guarantee the homogeneous-ID design gives the
real cluster.
"""

from __future__ import annotations

from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.cellids import (
    RCID_HOME,
    cell_node_ids,
    gcid_to_lcid,
    lcid_to_rcid,
)
from repro.core.config import MachineConfig
from repro.core.datapath import quantize_cell_fractions
from repro.core.elasticity import LoadBalancer, fpga_grid_for
from repro.core.machine import MachineCore, _Pass, _StepArena
from repro.core.migration import plan_partition_migration
from repro.faults import (
    DegradationRecord,
    FaultInjector,
    NodeFaultInjector,
    NodeFaultPlan,
    RecoveryRecord,
    RescaleAbortedRecord,
    RescaleRecord,
    TransportConfig,
    TransportStats,
    send_flows,
)
from repro.network.netsim import Burst, OutputQueuedSwitch, SwitchStats
from repro.faults.nodes import REPLAY_CYCLES_PER_RECORD
from repro.md.backends import resolve_backend
from repro.md.cells import CellList, HALF_SHELL_OFFSETS
from repro.md.cellstate import BinningChange, CellState
from repro.md.system import ParticleSystem
from repro.util.errors import (
    ConfigError,
    NodeFailureError,
    TransportError,
    ValidationError,
)


@dataclass
class _CellData:
    """One cell's position-cache contents on its owning node."""

    particle_ids: np.ndarray       # global particle indices
    fractions: np.ndarray          # quantized in-cell offsets, (n, 3)
    species: np.ndarray


class _ViewLayout(NamedTuple):
    """One node's view of a binning: its slots in ascending cid, each
    cell's particles in bucket order, which is also the order its flow
    ships them in, over the node's arena rows."""

    counts: np.ndarray       # slots per cell, zero where the node sees none
    start: np.ndarray        # first slot of every cell, (n_cells + 1,)
    ids: np.ndarray          # particle id of every slot
    species: np.ndarray      # int32 species of every slot
    #: The slots grouped by the node owning their cell, ascending within
    #: each group, and each owner's group (``owner_start[k]`` to
    #: ``owner_start[k + 1]``): the node's own slots, and per source
    #: node the slots its flow's records land in, in order.
    by_owner: np.ndarray
    owner_start: List[int]
    local: np.ndarray        # slots of the node's own particles
    local_ids: np.ndarray    # ``ids[local]``, also their arena rows
    #: The binning of the arena rows: ``clist.order`` is the row of
    #: every slot, its particle id unless a stale snapshot repeats an id.
    clist: CellList
    #: Arena row -> particle id when rows past N hold repeated ids.
    row_ids: Optional[np.ndarray] = None
    #: What changed since the node's previous layout (its binning keys
    #: and moved rows), when the relayout worked it out.
    change: Optional[BinningChange] = None


class _Flow(NamedTuple):
    """One (source node, destination node) position flow of a binning:
    its records in ascending (cell, slot) order."""

    src: int
    dst: int
    pids: np.ndarray         # particle id (destination arena row) of every record
    species: np.ndarray
    cids: np.ndarray         # the flow's cells (the partition's, ascending)
    bounds: np.ndarray       # each cell's record run, (len(cids) + 1,)
    carried: np.ndarray      # whether each cell's run is nonempty
    full: bool               # whether every cell's run is
    n_packets: int

    def cell(self, k: int, payload: np.ndarray) -> _CellData:
        """The ``k``-th cell's run of a step's ``payload`` (views)."""
        lo, hi = self.bounds[k], self.bounds[k + 1]
        return _CellData(self.pids[lo:hi], payload[lo:hi], self.species[lo:hi])


class _View(NamedTuple):
    """A node's view for one step: its layout, the fraction of every
    arena row, and the position (angstrom) and cell coordinates its
    state reads for every row: the machine's, read-only and shared by
    the nodes of a pass, or stale where a degraded cell's snapshot
    holds older ones."""

    layout: _ViewLayout
    frac: np.ndarray
    positions: np.ndarray
    coords: np.ndarray


@dataclass
class _Node:
    """One FPGA node's private state."""

    node_id: int
    node_coords: np.ndarray
    layout: _ViewLayout
    #: The arena's fractions, one row per particle id, refilled in place
    #: every step for the rows the layout holds.
    frac: np.ndarray
    #: This step's view: ``layout`` and ``frac``, or a re-laid copy
    #: when a degraded halo cell's snapshot holds other particles (set
    #: by :meth:`DistributedMachine._build_nodes`).
    view: Optional[_View]
    #: Packets received this phase (for statistics).
    packets_in: int = 0
    packets_out: int = 0


class _HaloSnapshots(Mapping):
    """``(dst node, cid) -> (capture iteration, _CellData)``: every
    receiver's last complete copy of each nonempty halo cell it was sent.

    A flow that arrives whole is kept as one entry holding that step's
    payload by reference, so recording it costs nothing per cell; a
    cell is cut out of it only when read.  Per-cell entries (the cells
    of a partly lost flow that did arrive, and anything assigned)
    override it until the flow next arrives whole carrying the cell.
    """

    def __init__(self) -> None:
        self._flows: Dict[Tuple[int, int], Tuple[int, _Flow, np.ndarray]] = {}
        self._cells: Dict[int, Dict[int, Tuple[int, _CellData]]] = {}

    def record_flow(self, flow: _Flow, payload: np.ndarray, iteration: int) -> None:
        """``flow`` arrived whole at ``iteration`` carrying ``payload``."""
        key = (flow.src, flow.dst)
        old = self._flows.get(key)
        self._flows[key] = (iteration, flow, payload)
        if old is not None and old[1] is not flow and not flow.full:
            # Re-binned: a cell the new flow carries no record of keeps
            # its older snapshot.
            it, prev, prev_payload = old
            for k in np.flatnonzero(prev.carried & ~flow.carried):
                self._cells.setdefault(flow.dst, {}).setdefault(
                    int(flow.cids[k]), (it, prev.cell(k, prev_payload))
                )
        overrides = self._cells.get(flow.dst)
        if overrides:
            for cid in [c for c in overrides if _carries(flow, c)]:
                del overrides[cid]

    def __getitem__(self, key: Tuple[int, int]) -> Tuple[int, _CellData]:
        dst, cid = key
        entry = self._cells.get(dst, {}).get(cid)
        if entry is not None:
            return entry
        for (_, d), (it, flow, payload) in self._flows.items():
            if d == dst and _carries(flow, cid):
                return it, flow.cell(_run(flow, cid), payload)
        raise KeyError(key)

    def __setitem__(self, key: Tuple[int, int], value) -> None:
        self._cells.setdefault(key[0], {})[key[1]] = value

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        keys = {(d, c) for d, cells in self._cells.items() for c in cells}
        for (_, d), (_, flow, _) in self._flows.items():
            keys.update((d, int(c)) for c in flow.cids[flow.carried])
        return iter(sorted(keys))

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def clear(self) -> None:
        self._flows.clear()
        self._cells.clear()


def _run(flow: _Flow, cid: int) -> int:
    """Index of ``cid`` in ``flow.cids``, or -1 when the flow lacks it."""
    k = int(np.searchsorted(flow.cids, cid))
    return k if k < len(flow.cids) and flow.cids[k] == cid else -1


def _carries(flow: _Flow, cid: int) -> bool:
    """Whether ``flow`` holds records of cell ``cid``."""
    k = _run(flow, cid)
    return k >= 0 and bool(flow.carried[k])


class _Returns(Mapping):
    """A node's neighbor-force records in evaluation order, flat: the
    owner of each record's neighbor cell, its particle id and its
    float32 force.  As a mapping, ``owner -> (particle ids, forces)``
    in ascending owner order."""

    __slots__ = ("owners", "pids", "forces")

    def __init__(self, owners: np.ndarray, pids: np.ndarray, forces: np.ndarray):
        self.owners = owners
        self.pids = pids
        self.forces = forces

    def __getitem__(self, owner: int) -> Tuple[np.ndarray, np.ndarray]:
        sel = self.owners == owner
        if not sel.any():
            raise KeyError(owner)
        return self.pids[sel], self.forces[sel]

    def __iter__(self) -> Iterator[int]:
        return iter(np.unique(self.owners).tolist())

    def __len__(self) -> int:
        return len(np.unique(self.owners))


_NO_RETURNS = _Returns(
    np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
    np.zeros((0, 3), dtype=np.float32),
)


class _NodeResult(NamedTuple):
    """One node's force pass: forces on its own particles ``ids``, its
    potential, its neighbor-force records and the number of pairs its
    filters admitted."""

    ids: np.ndarray
    forces: np.ndarray
    potential: float
    returns: _Returns
    admitted: int


class DistributedMachine(MachineCore):
    """Executes a FASDA deployment node by node with explicit exchange.

    Parameters mirror :class:`~repro.core.machine.FasdaMachine`.  Every
    node evaluates its view through the shared
    :class:`~repro.core.machine.MachineCore` datapath into force banks
    over its arena rows; the merge runs in node-id order.
    """

    def __init__(
        self,
        config: MachineConfig,
        system: Optional[ParticleSystem] = None,
        seed: int = 2023,
        parallel: bool = False,
        injector: Optional[FaultInjector] = None,
        transport: Optional[TransportConfig] = None,
        degradation: str = "stale",
        node_faults=None,
        shadow_interval: int = 5,
        watchdog_timeout_cycles: float = 10_000.0,
    ):
        """See class docstring.

        Parameters
        ----------
        parallel:
            ``True`` evaluates the nodes of each force pass on a thread
            pool with one worker per node (the NumPy and ``cext``
            kernels release the GIL); ``False`` evaluates them serially.
            Each node accumulates into private force banks and results
            are merged in node-id order regardless of worker
            scheduling, so both settings produce the bitwise-identical
            trajectory.
        injector:
            Fault injection for the position exchange.  A plan with all
            rates zero leaves the trajectory bitwise identical to a run
            without an injector (asserted by the fault tests).
        transport:
            Reliable-transport parameters layered over the lossy fabric;
            packets the injector drops/corrupts are retransmitted (with
            cycle accounting in :attr:`transport_stats`) until the retry
            budget runs out.  ``None`` models the paper's bare UDP.
        degradation:
            What to do about halo records lost beyond recovery:
            ``"stale"`` substitutes the last good snapshot of the cell
            (recording a :class:`~repro.faults.DegradationRecord` with a
            force-error bound) while ``"raise"`` raises
            :class:`~repro.util.errors.TransportError`.  Loss with no
            stale snapshot to fall back on always raises.
        node_faults:
            A :class:`~repro.faults.NodeFaultPlan` (or prebuilt
            :class:`~repro.faults.NodeFaultInjector`) of board-level
            crash/slowdown faults.  Crashes engage the lossless recovery
            protocol (see :meth:`_node_fault_preamble`): the trajectory
            stays bitwise identical to a fault-free run; only
            :attr:`recovery_log` and the traffic/cycle accounting
            differ.  ``None`` disables the whole path.
        shadow_interval:
            Iterations between buddy shadow checkpoints — each node
            periodically ships its cell contents to its ring buddy, the
            state a crash replays from.  Smaller intervals mean less
            replay but more steady-state shadow traffic (the chaos-soak
            harness sweeps exactly this trade-off).
        watchdog_timeout_cycles:
            Detection cost charged per crash: the time the survivors'
            chained-sync watchdog needs to flag the silent peer (see
            :func:`~repro.core.sync.diagnose_dead_node`).
        """
        if not config.is_distributed:
            raise ConfigError("DistributedMachine needs more than one node")
        if not isinstance(parallel, bool):
            raise ConfigError(
                f"parallel must be a bool, got {parallel!r}; the process "
                "pool was retired, use parallel=True for the thread pool"
            )
        if degradation not in ("stale", "raise"):
            raise ConfigError(
                f"degradation must be 'stale' or 'raise', got {degradation!r}"
            )
        if shadow_interval < 1:
            raise ConfigError(
                f"shadow_interval must be >= 1, got {shadow_interval}"
            )
        if watchdog_timeout_cycles < 0:
            raise ConfigError("watchdog_timeout_cycles must be >= 0")
        super().__init__(config, system, seed)
        self.parallel = parallel
        self.injector = injector
        self.transport = transport
        self.degradation = degradation
        # Partition-derived structures (rebuilt on every elastic rescale).
        self._apply_partition(config)
        #: Force passes in which some node view state fully rebuilt its
        #: band lists, and those in which none did (see
        #: :meth:`_prepare_node`).
        self.state_builds = 0
        self.state_reused_steps = 0
        self._nodes_cache: Optional[Dict[int, _Node]] = None
        #: node id -> (view CellState, scratch arena), see
        #: :meth:`_node_state`.
        self._node_states: Dict[int, Tuple[CellState, _StepArena]] = {}
        self._build_cids: Optional[np.ndarray] = None
        self._build_keys: Optional[np.ndarray] = None
        #: The current binning's nonempty position flows, in flow order,
        #: and their (source node, destination node, packets) rows.
        self._flows: List[_Flow] = []
        self._flow_table = np.zeros((0, 3), dtype=np.int64)
        #: Every flow of the partition in ``_node_flows`` order, laid out
        #: for the current binning (empty ones included).
        self._flow_list: List[Optional[_Flow]] = []
        self._last_frac: Optional[np.ndarray] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Scratch of the fold (:meth:`_merge_results`).
        self._fold_arena = _StepArena()
        # ``timings`` phases: build/exchange/force/integrate.
        self.total_position_packets = 0
        self.total_force_packets = 0
        # -- resilience state (inert without an injector) -------------------
        #: Force-pass index, the fault keys' iteration component.
        self._iteration = 0
        #: (dst node, cell id) -> (capture iteration, last good halo data).
        self._stale_halo = _HaloSnapshots()
        #: Reliability-layer accounting accumulated over all force passes.
        self.transport_stats = TransportStats()
        #: Every stale-halo substitution, in occurrence order.
        self.degradation_log: List[DegradationRecord] = []
        #: Records lost this force pass that degradation papered over.
        self.last_degraded_records = 0
        self._lipschitz: Optional[float] = None
        # -- node-failure recovery state (inert without node_faults) --------
        if isinstance(node_faults, NodeFaultPlan):
            node_faults = NodeFaultInjector(node_faults)
        self.node_injector: Optional[NodeFaultInjector] = node_faults
        self.shadow_interval = int(shadow_interval)
        self.watchdog_timeout_cycles = float(watchdog_timeout_cycles)
        #: Every completed crash recovery, in occurrence order.
        self.recovery_log: List[RecoveryRecord] = []
        #: node id -> iteration at which its restart completes.
        self._down_until: Dict[int, int] = {}
        #: Iteration of the last buddy shadow capture (None before any).
        self._shadow_iteration: Optional[int] = None
        #: node id -> records it held at the last shadow capture.
        self._shadow_records: Dict[int, int] = {}
        #: Records shipped to buddies by the periodic shadow captures.
        self.shadow_traffic_records = 0
        #: (iteration, node, factor) for every node-slowdown fault.
        self.node_slowdown_log: List[Tuple[int, int, float]] = []
        # -- elasticity state (inert until rescale()/balancer use) ----------
        #: Every committed rescale, in occurrence order.
        self.rescale_log: List[RescaleRecord] = []
        #: Every rolled-back rescale attempt, in occurrence order.
        self.rescale_aborted_log: List[RescaleAbortedRecord] = []
        #: Switch-model accounting of all committed migration traffic.
        self.migration_switch_stats = SwitchStats(delivered=0, dropped=0)
        #: Transport accounting of all migration flows (committed *and*
        #: aborted attempts — attempted traffic is real traffic).
        self.migration_transport_stats = TransportStats()
        #: Optional :class:`~repro.core.elasticity.LoadBalancer` driving
        #: :meth:`maybe_rescale`; assign one to make the machine elastic.
        self.balancer: Optional[LoadBalancer] = None

    # -- partition ---------------------------------------------------------------

    def _apply_partition(self, config: MachineConfig) -> None:
        """(Re)derive every partition-dependent structure from ``config``.

        Runs at construction and again at every rescale commit.  Physics
        state (positions, velocities, force banks) is untouched: the
        distributed evaluation always computes the canonical partition's
        result, so changing cell ownership here never changes the
        trajectory — only which node does which work and what crosses
        the fabric.
        """
        n_cells = self.grid.n_cells
        n_nodes = config.n_fpgas
        fg = config.fpga_grid
        cell_node = cell_node_ids(self._cell_coords, config.local_cells, fg)
        node_coords = {
            n: np.array(
                [n // (fg[1] * fg[2]), (n // fg[2]) % fg[1], n % fg[2]],
                dtype=np.int64,
            )
            for n in range(n_nodes)
        }
        # Half-shell topology from the shared (cached) pair plan and, per
        # cell, the destination nodes its particles must reach (the P2R
        # chain's gate assignments).
        plan = self._plan
        home_nodes = cell_node[plan.home]
        nbr_nodes = cell_node[plan.nbr]
        remote = ~plan.is_self & (home_nodes != nbr_nodes)
        # ncid's particles are needed at the home cell's node.
        flows = np.unique(
            np.stack([plan.nbr[remote], home_nodes[remote]], axis=1), axis=0
        )
        # Per-(src node, dst node) flow: the ascending source cells whose
        # particles ship src -> dst.  This is the batched view of the
        # same gate assignments: one record run per flow replaces the
        # per-particle chain walk, with identical packet counts (each
        # gate fills from its cells in ascending-cid order and flushes
        # once at end of iteration).
        node_flows: Dict[Tuple[int, int], np.ndarray] = {}
        if len(flows):
            fkeys = cell_node[flows[:, 0]] * np.int64(n_nodes) + flows[:, 1]
            for key in np.unique(fkeys):
                node_flows[(int(key) // n_nodes, int(key) % n_nodes)] = (
                    np.sort(flows[fkeys == key, 0])
                )
        local_cells = {
            k: np.flatnonzero(cell_node == k) for k in range(n_nodes)
        }
        # The Sec. 4.2 conversions depend on the partition alone: check
        # them before adopting it, so a failing check leaves the machine
        # on its previous partition.
        for k in range(n_nodes):
            self._verify_id_conversion(
                config, node_coords[k], local_cells[k],
                [cids for (_, dst), cids in node_flows.items() if dst == k],
            )
        self.config = config
        self._cell_node = cell_node
        self._node_coords = node_coords
        #: Node -> plan rows whose neighbor cell another node owns: the
        #: rows whose reaction forces leave the node as records.
        self._remote_rows = {
            k: ~plan.is_self & (nbr_nodes != k) for k in range(n_nodes)
        }
        self._send_targets: Dict[int, List[int]] = {
            c: [] for c in range(n_cells)
        }
        for src_cell, dst_node in flows:
            self._send_targets[int(src_cell)].append(int(dst_node))
        self._node_flows = node_flows
        #: Node -> owned global cell ids (ascending).
        self._local_cells_static = local_cells
        #: Plan row -> the node owning its neighbor cell.
        self._row_owner = nbr_nodes
        # What every relayout reads (see :meth:`_lay_out_nodes`).
        #: Node x cell: the cells its view holds (its own and every halo
        #: cell shipped to it).
        view = cell_node[None, :] == np.arange(n_nodes)[:, None]
        for (_, dst), cids in node_flows.items():
            view[dst, cids] = True
        self._view_cells = view
        #: The (node, cell) pairs of the views, by node then cell, and
        #: their order by node, then cell owner, then cell.
        vk, vc = np.nonzero(view)
        self._view_pairs = (vk, vc)
        self._owner_order = np.lexsort((vc, cell_node[vc], vk))
        #: The flows in ``node_flows`` order: source and destination
        #: nodes, their cells back to back and each flow's run of them.
        self._flow_nodes = np.array(list(node_flows), dtype=np.int64).reshape(-1, 2)
        cells = list(node_flows.values())
        self._flow_cells = (
            np.concatenate(cells) if cells else np.zeros(0, dtype=np.int64)
        )
        self._flow_seg = np.cumsum([0] + [len(c) for c in cells])

    def _invalidate_partition_caches(self) -> None:
        """Drop every structure keyed by the *old* partition.

        The node cache with its view layouts and flows, node view states,
        stale-halo snapshots, buddy-shadow bookkeeping and the thread
        pool are all shaped or keyed by node ids/counts; after a
        partition change each is rebuilt lazily, so dropping them is
        always bitwise-safe.
        """
        self._nodes_cache = None
        self._build_cids = None
        self._stale_halo.clear()
        self._node_states.clear()
        self._shadow_iteration = None
        self._shadow_records = {}
        self.close()

    # -- node construction per step --------------------------------------------

    def _binning(self) -> Tuple[np.ndarray, np.ndarray]:
        """The cell coordinates and cell id of every particle: the
        binning a force pass computes once, for its fault preamble and
        its node views."""
        coords = self.grid.coords_of_positions(self.system.positions)
        return coords, self.grid.cell_id(coords)

    def _build_nodes(
        self,
        coords: Optional[np.ndarray] = None,
        cids: Optional[np.ndarray] = None,
    ) -> Dict[int, _Node]:
        """Partition the current particle state across nodes, binned
        at ``coords`` (cell ids ``cids``; ``None``: :meth:`_binning`).

        The partition (which particles live in which cell on which node)
        is cached across steps while no particle changes cell.  Reused
        steps only refill each node's own arena rows (one gather per
        node, exactly the values a fresh split would produce) and clear
        the per-step packet state.  Any cell-assignment change lays the
        node views and flows of the changed cells out anew
        (:meth:`_lay_out_nodes`).
        """
        if coords is None:
            coords, cids = self._binning()
        cfg = self.config
        frac = quantize_cell_fractions(
            self.system.positions, coords, cfg.cutoff, self.fmt
        )
        self._last_frac = frac
        if self._nodes_cache is None or not np.array_equal(
            cids, self._build_cids
        ):
            self._lay_out_nodes(cids)
        nodes = self._nodes_cache
        # One read-only snapshot for every node state of the pass.
        positions = self.system.positions.copy()
        positions.flags.writeable = coords.flags.writeable = False
        for node in nodes.values():
            node.packets_in = 0
            node.packets_out = 0
            own = node.layout.local_ids
            node.frac[own] = frac[own]
            node.view = _View(node.layout, node.frac, positions, coords)
        return nodes

    def _lay_out_nodes(self, cids: np.ndarray) -> None:
        """Lay out the node views and position flows of the binning
        ``cids``, in array passes over all nodes and flows at once.

        A view holds whole cells and a flow ships whole cells, each in
        bucket order, so both are runs of one bucket pass over the box.
        Views and flows none of whose cells changed membership since the
        last binning are kept, by identity (a flow's snapshots and a
        node state's band lists key on it).  Every view that replaces
        another carries its binning keys, which are the box's on the
        rows it holds, and the rows whose key changed
        (:class:`~repro.md.cellstate.BinningChange`), so its node state
        works out neither.  ``tests/oracles.py::lay_out_nodes`` lays the
        same views and flows out node by node from scratch.
        """
        C = self.grid.n_cells
        n = self.system.n
        n_nodes = len(self._node_coords)
        order = np.argsort(cids, kind="stable")
        sorted_cids = cids[order]
        counts = np.bincount(cids, minlength=C)
        start = np.zeros(C + 1, dtype=np.int64)
        np.cumsum(counts, out=start[1:])
        # The binning keys of the box; a view's are these on its rows.
        keys = np.empty(n, dtype=np.int64)
        keys[order] = sorted_cids * n + (np.arange(n) - start[sorted_cids])
        prev = self._build_cids
        if self._nodes_cache is None:
            dirty = np.ones(C, dtype=bool)
            stale = np.ones(n_nodes, dtype=bool)
            changed = None
            self._nodes_cache = {
                k: _Node(k, self._node_coords[k], None, np.zeros((n, 3)), None)
                for k in range(n_nodes)
            }
            self._flow_list = [None] * len(self._flow_nodes)
        else:
            moved = np.flatnonzero(cids != prev)
            dirty = np.zeros(C, dtype=bool)
            dirty[prev[moved]] = True
            dirty[cids[moved]] = True
            stale = (self._view_cells & dirty).any(axis=1)
            # The rows whose key changed: a view's rows whose key
            # changed are those of them it holds now or held before.
            changed = np.flatnonzero(keys != self._build_keys)
        self._build_cids, self._build_keys = cids, keys
        species = self.system.species.astype(np.int32, copy=False)
        if stale.any():
            self._lay_out_views(
                np.flatnonzero(stale), cids, prev, changed, order, counts,
                start, keys, species,
            )
        self._lay_out_flows(dirty, order, counts, start, species)

    def _lay_out_views(
        self, stale, cids, prev, changed, order, counts, start, keys, species
    ) -> None:
        """New layouts for the views of the ``stale`` nodes at the
        binning ``cids`` (keys ``keys``), and what changed since the
        binning ``prev``, whose keys differ on the rows ``changed``
        (``None``: no views to compare with; see :meth:`_lay_out_nodes`)."""
        C = self.grid.n_cells
        n = len(keys)
        n_nodes = len(self._node_coords)
        vk, vc = self._view_pairs
        in_stale = np.zeros(n_nodes, dtype=bool)
        in_stale[stale] = True
        sel = in_stale[vk]
        # Slots, node by node: each held cell's bucket, ascending cid.
        pk, pc = vk[sel], vc[sel]
        cnt = counts[pc]
        first = np.cumsum(cnt) - cnt
        total = int(first[-1] + cnt[-1]) if len(cnt) else 0
        ids = order[np.repeat(start[pc] - first, cnt) + np.arange(total)]
        slot_cids = np.repeat(pc, cnt)
        spc = species[ids]
        lo = np.zeros(n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(pk, weights=cnt, minlength=n_nodes).astype(np.int64),
                  out=lo[1:])
        # The same slots grouped by the owner of their cell: the held
        # cells by node, owner and cell, each its run of its node's slots.
        pair_first = np.zeros(len(vk), dtype=np.int64)
        pair_first[sel] = first
        bo = self._owner_order[sel[self._owner_order]]
        bk, bcnt = vk[bo], counts[vc[bo]]
        bfirst = np.cumsum(bcnt) - bcnt
        by_owner = np.repeat(pair_first[bo] - lo[bk] - bfirst, bcnt)
        by_owner += np.arange(total)
        owned = np.bincount(
            pk * n_nodes + self._cell_node[pc], weights=cnt,
            minlength=n_nodes * n_nodes,
        ).astype(np.int64).reshape(n_nodes, n_nodes)
        owner_start = np.zeros((n_nodes, n_nodes + 1), dtype=np.int64)
        np.cumsum(owned, axis=1, out=owner_start[:, 1:])
        view = self._view_cells[stale]
        view_counts = np.where(view, counts, 0)
        view_start = np.zeros((len(stale), C + 1), dtype=np.int64)
        np.cumsum(view_counts, axis=1, out=view_start[:, 1:])
        if changed is not None:
            view_keys = np.where(view[:, cids], keys, C * n)
            held = view[:, cids[changed]] | view[:, prev[changed]]
        for i, k in enumerate(stale.tolist()):
            node = self._nodes_cache[k]
            a, b = int(lo[k]), int(lo[k + 1])
            node_ids = ids[a:b]
            node_by_owner = by_owner[a:b]
            starts = owner_start[k].tolist()
            local = node_by_owner[starts[k]:starts[k + 1]]
            row_counts, row_start = view_counts[i], view_start[i]
            old = node.layout
            change = None
            if old is not None:
                change = BinningChange(old.clist, view_keys[i], changed[held[i]])
            node.layout = _ViewLayout(
                counts=row_counts,
                start=row_start,
                ids=node_ids,
                species=spc[a:b],
                by_owner=node_by_owner,
                owner_start=starts,
                local=local,
                local_ids=node_ids[local],
                clist=CellList.from_rows(
                    self.grid, row_counts, node_ids, row_start, slot_cids[a:b]
                ),
                change=change,
            )

    def _lay_out_flows(self, dirty, order, counts, start, species) -> None:
        """New flows for those with a cell in ``dirty``, and the
        nonempty flows and flow table of the binning (see
        :meth:`_lay_out_nodes`)."""
        cells, seg = self._flow_cells, self._flow_seg
        flows = self._flow_list
        if not flows:
            self._flows = []
            self._flow_table = np.zeros((0, 3), dtype=np.int64)
            self._flow_pids = np.zeros(0, dtype=np.int64)
            self._flow_runs, self._dst_runs = [], []
            return
        runs = counts[cells]
        cum = np.zeros(len(cells) + 1, dtype=np.int64)
        np.cumsum(runs, out=cum[1:])
        n_rec = cum[seg[1:]] - cum[seg[:-1]]
        n_pkts = -(-n_rec // self.config.records_per_packet)
        carried = runs > 0
        full = np.minimum.reduceat(carried, seg[:-1])
        changed = np.logical_or.reduceat(dirty[cells], seg[:-1])
        # The records of the changed flows: their cells' buckets.
        take = np.repeat(changed, np.diff(seg))
        rc, rn = cells[take], runs[take]
        rfirst = np.cumsum(rn) - rn
        total = int(rfirst[-1] + rn[-1]) if len(rn) else 0
        pids = order[np.repeat(start[rc] - rfirst, rn) + np.arange(total)]
        spc = species[pids]
        lo = 0
        for f in np.flatnonzero(changed).tolist():
            a, b = seg[f], seg[f + 1]
            hi = lo + int(n_rec[f])
            src, dst = self._flow_nodes[f].tolist()
            flows[f] = _Flow(
                src, dst, pids[lo:hi], spc[lo:hi], cells[a:b],
                cum[a:b + 1] - cum[a], carried[a:b], bool(full[f]),
                int(n_pkts[f]),
            )
            lo = hi
        ships = n_rec > 0
        self._flows = [flows[f] for f in np.flatnonzero(ships).tolist()]
        self._flow_table = np.concatenate(
            [self._flow_nodes, n_pkts[:, None]], axis=1
        )[ships]
        # Every record of the binning, flows by destination: one gather
        # packs them all and one scatter per destination lands them.
        by_dst = np.lexsort(self._flow_table[:, :2].T)
        rec = n_rec[ships]
        run_lo = np.zeros(len(rec) + 1, dtype=np.int64)
        np.cumsum(rec[by_dst], out=run_lo[1:])
        self._flow_pids = np.concatenate(
            [self._flows[f].pids for f in by_dst.tolist()]
            or [np.zeros(0, dtype=np.int64)]
        )
        flow_lo = np.empty_like(rec)
        flow_lo[by_dst] = run_lo[:-1]
        self._flow_runs = list(zip(flow_lo.tolist(), (flow_lo + rec).tolist()))
        dst = self._flow_table[by_dst, 1]
        cut = [0, *(np.flatnonzero(np.diff(dst)) + 1).tolist(), len(dst)]
        self._dst_runs = [
            (int(dst[a]), int(run_lo[a]), int(run_lo[b]))
            for a, b in zip(cut[:-1], cut[1:]) if a < b
        ]

    def _lay_out(
        self,
        nid: int,
        slot_cids: np.ndarray,
        ids: np.ndarray,
        species: np.ndarray,
        rows: Optional[np.ndarray] = None,
        row_ids: Optional[np.ndarray] = None,
    ) -> _ViewLayout:
        """Node ``nid``'s view layout of slots in ascending ``slot_cids``
        holding particles ``ids`` of ``species`` in arena ``rows``
        (``None``: the ids; see :class:`_ViewLayout` for ``row_ids``)."""
        clist = CellList.from_rows(
            self.grid, np.bincount(slot_cids, minlength=self.grid.n_cells),
            ids if rows is None else rows,
        )
        owner = self._cell_node[slot_cids]
        by_owner = np.argsort(owner, kind="stable")
        owner_start = np.searchsorted(
            owner[by_owner], np.arange(len(self._node_coords) + 1)
        ).tolist()
        local = by_owner[owner_start[nid]:owner_start[nid + 1]]
        return _ViewLayout(
            counts=clist.counts,
            start=clist.start,
            ids=ids,
            species=species,
            by_owner=by_owner,
            owner_start=owner_start,
            local=local,
            local_ids=ids[local],
            clist=clist,
            row_ids=row_ids,
        )

    # -- position exchange ------------------------------------------------------

    def _exchange_positions(self, nodes: Dict[int, _Node]) -> None:
        """Pack, send, and unpack boundary-cell positions.

        Ships one record run per (source node, destination node) flow:
        one gather of the current fractions packs every flow's run, and
        one scatter per destination node lands its runs in its arena
        rows.  Gate-chain
        equivalence: the per-particle
        :class:`~repro.core.packets.P2REncapsulatorChain` walk (the
        protocol oracle in ``tests/oracles.py``) gives each destination
        gate exactly this flow's records in ascending (cell, slot)
        order and flushes once at end of iteration, so its packet count
        is ``ceil(n_records / records_per_packet)`` and its halos are
        identical.  The records' GCID -> LCID conversion was checked
        when the partition was applied (:meth:`_verify_id_conversion`).
        """
        rpp = self.config.records_per_packet
        flows = self._flows
        # Fault exposure: resolve which packets of every flow survive
        # the fabric (plus any retransmissions the transport pays for)
        # in one transport call.  Without an injector every record
        # arrives and the hot path below is byte-for-byte the lossless
        # one.
        sent = None
        if self.injector is not None:
            sent = send_flows(
                self.injector, [f.src for f in flows], [f.dst for f in flows],
                "position", self._iteration, [f.n_packets for f in flows],
                self.transport, resolve_backend(self.force_impl),
            )
            self.transport_stats += sent.stats
        src, dst, n_pkts = self._flow_table.T
        sent_pkts, got_pkts = n_pkts, n_pkts
        complete = None
        if sent is not None:
            sent_pkts = n_pkts + sent.retransmits
            got_pkts = sent.n_delivered
            complete = (sent.n_delivered == n_pkts).tolist()
        self.total_position_packets += int(sent_pkts.sum())
        out = np.bincount(src, weights=sent_pkts, minlength=len(nodes))
        arrived = np.bincount(dst, weights=got_pkts, minlength=len(nodes))
        for k, node in nodes.items():
            node.packets_out += int(out[k])
            node.packets_in += int(arrived[k])
        payloads = np.take(self._last_frac, self._flow_pids, axis=0)
        for d, lo, hi in self._dst_runs:
            nodes[d].frac[self._flow_pids[lo:hi]] = payloads[lo:hi]
        if complete is None:
            return
        degraded: Dict[int, Dict[int, _CellData]] = {}
        for f, flow in enumerate(flows):
            lo, hi = self._flow_runs[f]
            payload = payloads[lo:hi]
            if complete[f]:
                # Snapshot for graceful degradation: the receiver's last
                # complete view of the flow's cells.  The payload is
                # never mutated downstream, so it is kept by reference.
                self._stale_halo.record_flow(flow, payload, self._iteration)
                continue
            rec_ok = np.repeat(sent.mask(f), rpp)[: len(flow.pids)]
            for k in np.flatnonzero(flow.carried):
                cid = int(flow.cids[k])
                lo, hi = flow.bounds[k], flow.bounds[k + 1]
                if rec_ok[lo:hi].all():
                    self._stale_halo[(flow.dst, cid)] = (
                        self._iteration, flow.cell(k, payload),
                    )
                    continue
                # The cell's record run is incomplete: a node cannot
                # evaluate against a partially-arrived cell, so it
                # degrades (stale snapshot) or errors out.
                degraded.setdefault(flow.dst, {})[cid] = self._degrade_cell(
                    flow.src, flow.dst, cid,
                    lost=int(np.count_nonzero(~rec_ok[lo:hi])),
                    total=int(hi - lo),
                )
        for dst, cells in degraded.items():
            self._use_snapshots(nodes[dst], cells)

    def _use_snapshots(self, node: _Node, cells: Dict[int, _CellData]) -> None:
        """Put the stale snapshots ``cells`` (cid -> data) in place of
        those halo cells in ``node``'s view for this step.

        A snapshot of the particles the layout holds for its cell only
        rewrites their fractions; any other re-lays the node's view for
        this step, slots still in ascending cid, on a copy of the arena.
        A snapshot particle the view also holds elsewhere gets an arena
        row past N.  Either way the stale rows' positions, which the
        node state's skin test reads, are the snapshot's.
        """
        layout, frac = node.layout, node.frac
        n = self.system.n
        relay = {}
        stale = []  # (cid, arena rows) of every substituted cell
        for cid, data in cells.items():
            lo, hi = layout.start[cid], layout.start[cid + 1]
            if np.array_equal(data.particle_ids, layout.ids[lo:hi]):
                frac[data.particle_ids] = data.fractions
                stale.append((cid, data.particle_ids))
            else:
                relay[cid] = data
        if relay:
            keep = np.ones(len(layout.ids), dtype=bool)
            for cid in relay:
                keep[layout.start[cid]:layout.start[cid + 1]] = False
            slot_cids = np.repeat(np.arange(self.grid.n_cells), layout.counts)
            # A snapshot particle the view already holds takes a row
            # past N.
            seen = np.zeros(n, dtype=bool)
            seen[layout.ids[keep]] = True
            extra = []
            parts = [(slot_cids[keep], layout.ids[keep], layout.species[keep],
                      layout.ids[keep])]
            for cid, d in relay.items():
                rows = d.particle_ids.copy()
                for i, pid in enumerate(d.particle_ids.tolist()):
                    if seen[pid]:
                        rows[i] = n + len(extra)
                        extra.append(pid)
                    seen[pid] = True
                parts.append(
                    (np.full(len(rows), cid), d.particle_ids, d.species, rows)
                )
                stale.append((cid, rows))
            cids, ids, species, rows = (np.concatenate(x) for x in zip(*parts))
            order = np.argsort(cids, kind="stable")
            row_ids = None
            if extra:
                row_ids = np.concatenate([np.arange(n), extra]).astype(np.int64)
            layout = self._lay_out(
                node.node_id, cids[order], ids[order], species[order],
                rows[order], row_ids,
            )
            frac = np.concatenate([frac, np.zeros((len(extra), 3))])
            for cid, rows in stale[-len(relay):]:
                frac[rows] = relay[cid].fractions.reshape(-1, 3)
        extra = len(frac) - n
        positions = np.concatenate([node.view.positions, np.zeros((extra, 3))])
        coords = np.concatenate(
            [node.view.coords, np.zeros((extra, 3), dtype=np.int64)]
        )
        for cid, rows in stale:
            coords[rows] = self._cell_coords[cid]
            positions[rows] = (coords[rows] + frac[rows]) * self.config.cutoff
        positions.flags.writeable = coords.flags.writeable = False
        node.view = _View(layout, frac, positions, coords)

    # -- graceful degradation ---------------------------------------------------

    def _force_lipschitz(self) -> float:
        """Max |dF/dr| (kcal/mol/A^2) of the pair kernel over the
        *physically occupied* range — the constant turning a
        stale-position displacement bound into a per-interaction
        force-error bound.

        Estimated once by finite-differencing the machine's own tabulated
        pipelines for every species pair present (and, with Ewald
        enabled, the worst charge product).  The scan starts at the
        current minimum interparticle distance (with a 20% margin), not
        at the table's r_min: the divergent LJ core below any occurring
        pair separation would otherwise dominate the constant and make
        the bound vacuous.
        """
        if self._lipschitz is not None:
            return self._lipschitz
        # Nearest pair actually present, from the verlet-style bucketing
        # already used to build the dataset; conservative 0.8 factor for
        # drift during the run.
        from repro.md.neighborlist import minimum_pair_distance

        r_nearest = minimum_pair_distance(self.system, self.grid)
        r_lo = max(
            float(np.sqrt(self.tables.r2_min)),
            0.8 * r_nearest / self.config.cutoff,
        )
        r = np.linspace(r_lo, 1.0, 1024)
        dr = np.zeros((len(r), 3))
        dr[:, 0] = r
        r2 = r * r
        worst = 0.0
        species = np.unique(self.system.species)
        for si in species:
            for sj in species:
                sa = np.full(len(r), si, dtype=np.int32)
                sb = np.full(len(r), sj, dtype=np.int32)
                f, _ = self.pipeline.compute(dr, r2, sa, sb)
                grad = np.abs(np.diff(f[:, 0].astype(np.float64)) / np.diff(r))
                worst = max(worst, float(grad.max()))
        if self.coulomb_pipeline is not None:
            qq_max = float(np.abs(self._charges32).max()) ** 2
            fc, _ = self.coulomb_pipeline.compute(
                dr, r2, np.full(len(r), qq_max, dtype=np.float32)
            )
            grad = np.abs(np.diff(fc[:, 0].astype(np.float64)) / np.diff(r))
            worst += float(grad.max())
        # The pipelines take normalized displacements (cell edge = 1), so
        # the finite difference is per normalized unit; convert to per A.
        self._lipschitz = worst / self.config.cutoff
        return self._lipschitz

    def _degrade_cell(
        self, src: int, dst: int, cid: int, lost: int, total: int
    ) -> _CellData:
        """Handle a halo cell whose records were lost beyond recovery.

        Returns the last complete snapshot of the cell to evaluate
        against (recording the event with a force-error bound), or raises
        :class:`~repro.util.errors.TransportError` when configured to —
        or when there is no snapshot to degrade onto.
        """
        entry = self._stale_halo.get((dst, cid))
        where = (
            f"halo cell {cid} (flow node {src} -> node {dst}) lost "
            f"{lost}/{total} position records at iteration {self._iteration}"
        )
        if entry is None or self.degradation == "raise":
            raise TransportError(
                where
                + (
                    " with no stale snapshot to fall back on"
                    if entry is None
                    else " (degradation='raise')"
                )
                + "; increase the transport retry budget to recover in-band"
            )
        snap_iter, data = entry
        age = self._iteration - snap_iter
        if len(data.particle_ids):
            v = self.system.velocities[data.particle_ids]
            speed = float(np.sqrt((v * v).sum(axis=1)).max())
        else:  # pragma: no cover - empty cells are skipped upstream
            speed = 0.0
        max_disp = age * self.config.dt_fs * speed
        record = DegradationRecord(
            iteration=self._iteration,
            src=src,
            dst=dst,
            cell=cid,
            lost_records=lost,
            stale_records=len(data.particle_ids),
            age=age,
            max_displacement=max_disp,
            force_error_bound=max_disp * self._force_lipschitz(),
        )
        self.degradation_log.append(record)
        self.last_degraded_records += lost
        return data

    @property
    def degraded_records_total(self) -> int:
        """Position records ever replaced by stale fallbacks."""
        return sum(rec.lost_records for rec in self.degradation_log)

    # -- node-failure recovery --------------------------------------------------

    def _per_node_records(
        self, cids: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, Dict[int, int]]:
        """Per-cell occupancy and per-node record counts of the binning
        ``cids`` (``None``: the current positions')."""
        if cids is None:
            cids = self._binning()[1]
        per_cell = np.bincount(cids, minlength=self.grid.n_cells)
        per_node = np.bincount(
            self._cell_node, weights=per_cell, minlength=self.config.n_fpgas
        )
        return per_cell, {k: int(r) for k, r in enumerate(per_node.tolist())}

    def _node_fault_preamble(self, cids: np.ndarray) -> None:
        """Advance the node-failure model one force pass, binned at
        ``cids``.

        Runs *before* node construction, in a fixed order that keeps the
        model deterministic: (1) capture the periodic buddy shadow,
        (2) complete pending restarts, (3) draw/apply crashes at the
        current iteration, (4) draw slowdowns.  Recovery completes
        synchronously within the pass — surviving nodes adopt the dead
        node's cells, restore them from the buddy shadow, and replay the
        missed iterations through the **canonical** evaluation path
        (deterministic replay of deterministic state), so by the time
        :meth:`_build_nodes` runs the partition and every float32
        accumulation are exactly those of a fault-free pass.  What a
        crash *does* change: the node cache is
        invalidated (an adopting node has no warm skeletons for foreign
        cells) and the :class:`~repro.faults.RecoveryRecord` accounting.
        """
        it = self._iteration
        n = self.config.n_fpgas
        per_cell, per_node = self._per_node_records(cids)
        # (1) Periodic buddy shadow capture (iteration 0 always captures,
        # so a replay source exists for any crash).
        if (
            self._shadow_iteration is None
            or it - self._shadow_iteration >= self.shadow_interval
        ):
            self._shadow_iteration = it
            self._shadow_records = per_node
            self.shadow_traffic_records += int(per_cell.sum())
        # (2) Restarts whose down-window has elapsed rejoin.
        for node in [k for k, until in self._down_until.items() if until <= it]:
            del self._down_until[node]
        # (3) Crashes: already-down boards cannot crash again.  One keyed
        # draw decides every node's crash and slowdown.
        crashes, factors = self.node_injector.faults_at(
            it, n, resolve_backend(self.force_impl)
        )
        crashed = [k for k in crashes if k not in self._down_until]
        if crashed:
            if len(self._down_until) + len(crashed) >= n:
                raise NodeFailureError(
                    f"all {n} nodes down at iteration {it} "
                    f"({len(crashed)} new crash(es) on top of "
                    f"{len(self._down_until)} restarting): no surviving "
                    "buddy shadow to replay from; restore from an "
                    "interval checkpoint"
                )
            for node in crashed:
                self._recover_crashed_node(node, it, per_cell, per_node)
        # (4) Slowdowns (straggler accounting only; work is modelled, not
        # timed, so the trajectory is untouched).
        for node in np.flatnonzero(factors > 1.0):
            self.node_slowdown_log.append(
                (it, int(node), float(factors[node]))
            )

    def _recover_crashed_node(
        self,
        node: int,
        it: int,
        per_cell: np.ndarray,
        per_node: Dict[int, int],
    ) -> None:
        """Adopt, restore, and replay one crashed node's cells."""
        from repro.core.migration import MigrationStats

        n = self.config.n_fpgas
        self._down_until[node] = it + self.node_injector.plan.restart_iterations
        # Ring buddy: next node id upward that is still alive.
        buddy = (node + 1) % n
        while buddy in self._down_until:
            buddy = (buddy + 1) % n
        dead_cells = np.flatnonzero(self._cell_node == node)
        records = per_node[node]
        # Re-homing is cross-node by definition; express it through the
        # MU-ring accounting so recovery traffic shares the migration
        # machinery's units.
        outflow = np.zeros(self.grid.n_cells, dtype=np.int64)
        outflow[dead_cells] = per_cell[dead_cells]
        migration = MigrationStats(
            total=records, cross_node=records, per_cell_outflow=outflow
        )
        shadow_it = self._shadow_iteration if self._shadow_iteration is not None else it
        replay = it - shadow_it
        shadow_records = self._shadow_records.get(node, records)
        self.recovery_log.append(
            RecoveryRecord(
                node=node,
                crash_iteration=it,
                detected_iteration=it,
                buddy=buddy,
                shadow_iteration=shadow_it,
                replay_iterations=replay,
                cells_moved=int(len(dead_cells)),
                records_moved=records,
                migration_cross_node=migration.cross_node,
                # Buddy-shadow restore plus the return migration when the
                # board rejoins.
                recovery_traffic_records=shadow_records + records,
                cycles_lost=self.watchdog_timeout_cycles
                + replay * records * REPLAY_CYCLES_PER_RECORD,
            )
        )
        # The adopting nodes have no warm view layouts for foreign
        # cells: force a full rebuild of the node cache (bitwise-equal
        # to a reused one, so this is always safe).
        self._nodes_cache = None
        self._build_cids = None

    @property
    def recovered_records_total(self) -> int:
        """Position records ever re-homed by crash recoveries."""
        return sum(rec.records_moved for rec in self.recovery_log)

    def recovery_summary(self) -> Dict[str, float]:
        """Aggregate reconfiguration accounting (JSON-able).

        One call covers both kinds of partition change: crash-driven
        re-homing (``n_recoveries`` ...) and policy-driven elastic
        rescales (``rescales_*`` — planned vs aborted attempts plus the
        migration traffic the committed ones moved).
        """
        return {
            "n_recoveries": len(self.recovery_log),
            "cells_moved": sum(r.cells_moved for r in self.recovery_log),
            "records_moved": self.recovered_records_total,
            "recovery_traffic_records": sum(
                r.recovery_traffic_records for r in self.recovery_log
            ),
            "cycles_lost": sum(r.cycles_lost for r in self.recovery_log),
            "shadow_traffic_records": self.shadow_traffic_records,
            "slowdown_events": len(self.node_slowdown_log),
            "rescales_planned": len(self.rescale_log),
            "rescales_aborted": len(self.rescale_aborted_log),
            "rescale_cells_moved": sum(
                r.cells_moved for r in self.rescale_log
            ),
            "rescale_records_moved": sum(
                r.records_moved for r in self.rescale_log
            ),
            "rescale_migration_packets": sum(
                r.migration_packets for r in self.rescale_log
            ),
            "rescale_migration_cycles": sum(
                r.migration_cycles for r in self.rescale_log
            ),
        }

    # -- elastic rescale --------------------------------------------------------

    def _capture_rescale_shadow(self) -> Dict[str, Any]:
        """Prepare-phase shadow checkpoint: everything a rollback restores."""
        return {
            "positions": self.system.positions.copy(),
            "velocities": self.system.velocities.copy(),
            "forces": self.system.forces.copy(),
            "velocities32": self._velocities32.copy(),
            "forces32": self._forces32.copy(),
            "iteration": self._iteration,
            "primed": self._primed,
            "last_potential": self._last_potential,
        }

    def _restore_rescale_shadow(self, shadow: Dict[str, Any]) -> None:
        """Roll the machine back to the prepare-phase shadow (bitwise)."""
        self.system.positions[:] = shadow["positions"]
        self.system.velocities[:] = shadow["velocities"]
        self.system.forces[:] = shadow["forces"]
        self._velocities32 = shadow["velocities32"].copy()
        self._forces32 = shadow["forces32"].copy()
        self._iteration = shadow["iteration"]
        self._primed = shadow["primed"]
        self._last_potential = shadow["last_potential"]

    def _abort_rescale(
        self,
        shadow: Optional[Dict[str, Any]],
        n_new: int,
        reason: str,
        phase: str,
        flows_attempted: int,
        packets_lost: int,
    ) -> bool:
        """Roll back a failed rescale attempt and record the abort."""
        if shadow is not None:
            self._restore_rescale_shadow(shadow)
        self.rescale_aborted_log.append(
            RescaleAbortedRecord(
                iteration=self._iteration,
                n_old=self.config.n_fpgas,
                n_new=int(n_new),
                reason=reason,
                phase=phase,
                flows_attempted=int(flows_attempted),
                packets_lost=int(packets_lost),
                rolled_back=True,
            )
        )
        if self.balancer is not None:
            self.balancer.notify_rescale(committed=False)
        return False

    def rescale(
        self,
        n_new: Optional[int] = None,
        fpga_grid: Optional[Tuple[int, int, int]] = None,
    ) -> bool:
        """Transactionally re-partition the machine onto a new node count.

        Must run at an iteration boundary (between :meth:`step` calls,
        where no exchange is in flight).  Two phases:

        **prepare** — refuse if any board is mid-restart; capture a
        shadow checkpoint of the full physics state; derive the new
        partition map from the canonical
        :func:`~repro.core.elasticity.fpga_grid_for` grid and plan the
        cell migration it implies
        (:func:`~repro.core.migration.plan_partition_migration`).

        **transfer + commit** — ship every migration flow through the
        reliable transport (channel ``"rescale"``, exposed to this
        machine's fault injector) and the output-queued switch model; if
        a node crash is drawn mid-migration, any flow loses packets
        beyond the retry budget, or the switch overflows, roll back to
        the shadow and append a
        :class:`~repro.faults.RescaleAbortedRecord` — the machine is
        never left half-migrated.  On success, swap in the new partition
        (:meth:`_apply_partition`), drop every old-partition cache, and
        append a :class:`~repro.faults.RescaleRecord`.

        Because physics always evaluates the canonical partition, a
        committed rescale resumes bitwise-identical to a fresh machine
        of the new size started from the boundary state — the property
        the elasticity harness asserts.

        Returns True on commit, False on a rolled-back abort.  Raises
        :class:`~repro.util.errors.ConfigError` for targets that are
        invalid outright (not distributed, grid does not divide the
        cells, or equal to the current partition).
        """
        cfg = self.config
        if fpga_grid is not None:
            grid_new = tuple(int(d) for d in fpga_grid)
            if n_new is not None and int(n_new) != int(np.prod(grid_new)):
                raise ConfigError(
                    f"n_new ({n_new}) contradicts fpga_grid {grid_new}"
                )
        elif n_new is not None:
            grid_new = fpga_grid_for(cfg.global_cells, int(n_new))
        else:
            raise ConfigError("rescale needs n_new or fpga_grid")
        new_cfg = replace(cfg, fpga_grid=grid_new)
        n_old = cfg.n_fpgas
        n_target = new_cfg.n_fpgas
        if not new_cfg.is_distributed:
            raise ConfigError(
                f"rescale target must stay distributed, got {n_target} node(s)"
            )
        if grid_new == tuple(cfg.fpga_grid):
            raise ConfigError(
                f"rescale target equals the current partition "
                f"{tuple(cfg.fpga_grid)}"
            )
        it = self._iteration
        # ---- prepare ----
        if self._down_until:
            return self._abort_rescale(
                None,
                n_target,
                reason=(
                    f"node(s) {sorted(self._down_until)} still restarting "
                    "at the rescale boundary"
                ),
                phase="prepare",
                flows_attempted=0,
                packets_lost=0,
            )
        shadow = self._capture_rescale_shadow()
        per_cell, _ = self._per_node_records()
        old_cell_node = self._cell_node
        new_cell_node = cell_node_ids(
            self._cell_coords, new_cfg.local_cells, grid_new
        )
        stats, flows = plan_partition_migration(
            per_cell, old_cell_node, new_cell_node, cfg.records_per_packet
        )
        cells_moved = int(np.count_nonzero(old_cell_node != new_cell_node))
        # ---- transfer ----
        # A board crashing mid-migration kills the transfer.  The draw is
        # the same keyed decision the next force pass's preamble makes, so
        # after the rollback the crash is then recovered losslessly there.
        if self.node_injector is not None:
            crashed = [
                k
                for k in self.node_injector.crashes_at(
                    it, n_old, resolve_backend(self.force_impl)
                )
                if k not in self._down_until
            ]
            if crashed:
                return self._abort_rescale(
                    shadow,
                    n_target,
                    reason=(
                        f"node {crashed[0]} crashed during the migration "
                        f"at iteration {it}"
                    ),
                    phase="transfer",
                    flows_attempted=len(flows),
                    packets_lost=0,
                )
        # Every flow of the transfer is in flight at once: one transport
        # call resolves them all, and any packet lost beyond the retry
        # budget kills the transfer.
        moving = [key for key, flow in flows.items() if flow["packets"]]
        n_pkts = [flows[key]["packets"] for key in moving]
        sent = send_flows(
            self.injector, [src for src, _ in moving],
            [dst for _, dst in moving], "rescale", it, n_pkts,
            self.transport, resolve_backend(self.force_impl),
        )
        self.migration_transport_stats = (
            self.migration_transport_stats + sent.stats
        )
        if sent.stats.lost:
            k = int(np.flatnonzero(sent.n_delivered < n_pkts)[0])
            src, dst = moving[k]
            return self._abort_rescale(
                shadow,
                n_target,
                reason=(
                    f"migration flow node {src} -> node {dst} lost "
                    f"{n_pkts[k] - int(sent.n_delivered[k])} packet(s) "
                    "beyond the retry budget"
                ),
                phase="transfer",
                flows_attempted=len(flows),
                packets_lost=int(sent.stats.lost),
            )
        # Cooldown-paced trains through the switch model (loss was already
        # resolved at the transport layer above, so no injector here —
        # only incast/buffer behavior can still kill the transfer).
        bursts = [
            Burst(
                src=src,
                dst=dst,
                n_packets=flow["packets"],
                gap_cycles=cfg.cooldown_cycles,
            )
            for (src, dst), flow in flows.items()
            if flow["packets"]
        ]
        switch = OutputQueuedSwitch(max(n_old, n_target, 2))
        switch_stats = switch.run(bursts, channel="rescale", iteration=it)
        if switch_stats.dropped:
            return self._abort_rescale(
                shadow,
                n_target,
                reason=(
                    f"switch dropped {switch_stats.dropped} migration "
                    "packet(s) (incast overflow)"
                ),
                phase="transfer",
                flows_attempted=len(flows),
                packets_lost=int(switch_stats.dropped),
            )
        # ---- commit ----
        migration_packets = sum(f["packets"] for f in flows.values())
        self._apply_partition(new_cfg)
        self._invalidate_partition_caches()
        switch_stats.rescales = 1
        self.migration_switch_stats = (
            self.migration_switch_stats + switch_stats
        )
        self.rescale_log.append(
            RescaleRecord(
                iteration=it,
                n_old=n_old,
                n_new=n_target,
                grid_old=tuple(cfg.fpga_grid),
                grid_new=grid_new,
                cells_moved=cells_moved,
                records_moved=stats.total,
                flows=tuple(
                    (src, dst, f["records"], f["packets"])
                    for (src, dst), f in flows.items()
                ),
                migration_packets=int(migration_packets),
                migration_bytes=int(migration_packets) * cfg.packet_bits // 8,
                migration_cycles=float(
                    max((f["packets"] for f in flows.values()), default=0)
                    * cfg.cooldown_cycles
                ),
                shadow_records=int(per_cell.sum()),
            )
        )
        if self.balancer is not None:
            self.balancer.notify_rescale(committed=True)
        return True

    def maybe_rescale(self) -> Optional[bool]:
        """Feed the balancer one boundary observation; rescale on proposal.

        Returns ``None`` when no balancer is attached or it holds,
        otherwise :meth:`rescale`'s verdict for the proposed size.
        """
        if self.balancer is None:
            return None
        _, per_node = self._per_node_records()
        target = self.balancer.observe(
            [per_node[k] for k in sorted(per_node)]
        )
        if target is None:
            return None
        return self.rescale(target)

    # -- force evaluation -------------------------------------------------------

    def _verify_id_conversion(
        self,
        config: MachineConfig,
        node_coords: np.ndarray,
        local_cells: np.ndarray,
        flow_cells: List[np.ndarray],
    ) -> None:
        """Assert the Sec. 4.2 GCID -> LCID -> RCID machinery on one node.

        Every cell of each flow into the node (``flow_cells``) must come
        back unchanged from GCID -> LCID at the node and back, as every
        arriving record's cell id would.  For every (home cell,
        half-shell neighbor) pair of the node, the offset recovered
        through the homogeneous local ID space must equal the geometric
        half-shell offset.  Both depend on the partition alone, so they
        run for every node whenever a partition is applied
        (construction and each rescale).
        """
        gd = config.global_cells
        ld = config.local_cells
        origin = node_coords * np.asarray(ld, dtype=np.int64)
        for cids in flow_cells:
            cells = self._cell_coords[cids]
            lcid = gcid_to_lcid(cells, node_coords, ld, gd)
            if not np.array_equal(np.mod(lcid + origin, gd), cells):
                raise ValidationError("LCID conversion corrupted a cell id")
        if not len(local_cells):
            return
        home_lcid = gcid_to_lcid(
            self._cell_coords[local_cells], node_coords, ld, gd
        )
        nbr_lcid = gcid_to_lcid(
            self._cell_coords[self._neighbor_cids[local_cells]],
            node_coords,
            ld,
            gd,
        )
        rcid = lcid_to_rcid(nbr_lcid, home_lcid[:, None, :], gd)
        offsets = np.asarray(HALF_SHELL_OFFSETS, dtype=np.int64)
        if not np.array_equal(rcid - RCID_HOME, np.broadcast_to(
            offsets[None, :, :], rcid.shape
        )):
            raise ValidationError("RCID conversion mismatch")

    def _prepare_node(self, node: _Node) -> bool:
        """Bring the node's view state up to this step's view — reuse,
        update in place or rebuild — and its pass operands; True when
        its band lists were fully rebuilt.  Only the node's own cached
        state is written, so nodes prepare concurrently on the thread
        pool."""
        layout, _, positions, coords = node.view
        if not len(layout.ids):
            return False
        state, _ = self._node_state(node.node_id)
        if layout.row_ids is not None or state.ids is not None:
            # Rows past N are numbered per step: rebuild on their steps
            # and on the step after.
            state.invalidate()
            state.ids = layout.row_ids
        rebuilt = state.ensure(
            positions, resolve_backend(self.force_impl), layout.clist, coords,
            layout.change,
        )
        self._prepare(state)
        return rebuilt

    def _evaluate_node(self, node: _Node) -> _NodeResult:
        """The node's home rows through the shared datapath into banks
        over its arena rows, rows whose neighbor cell another node owns
        returning records.  Only static machine state and the node's
        own cached state are written, so nodes evaluate concurrently on
        the thread pool."""
        nid = node.node_id
        layout, frac = node.view[:2]
        own = layout.local_ids
        if not len(layout.ids):
            return _NodeResult(
                own, np.zeros((0, 3), dtype=np.float32), 0.0, _NO_RETURNS, 0
            )
        out = self._node_pass(nid, len(frac))
        potential = self._evaluate(self._node_states[nid][0], frac, out)
        # Adder-tree combination of the banks on the node's own rows.
        return _NodeResult(
            own,
            out.home_bank[own] + out.nbr_bank[own],
            float(potential),
            self._returns(out.records, layout.row_ids),
            int(out.accepted.sum()),
        )

    def _node_pass(self, nid: int, n: int) -> _Pass:
        """Node ``nid``'s :class:`~repro.core.machine._Pass` over ``n``
        arena rows, reset: its banks and counters are buffers of the
        node's scratch arena, and the object is kept with the state's
        artifacts while ``n`` stays, so the state's pass plan checks
        and binds it once."""
        state, arena = self._node_states[nid]
        art = state.artifacts["machine"]
        out = art.out
        if out is None or len(out.home_bank) != n:
            banks = arena.get("banks", 6 * n, np.float32).reshape(2, n, 3)
            out = art.out = _Pass(
                banks[0], banks[1], self._plan, arena, self._remote_rows[nid]
            )
            out.accepted = arena.get("accepted", len(out.accepted), np.int64)
            out.uniq_per_row = arena.get("uniq", len(out.uniq_per_row), np.int64)
        out.reset()
        return out

    def _returns(
        self, records: list, row_ids: Optional[np.ndarray]
    ) -> _Returns:
        """A node's records, flat in evaluation order: the owner of each
        record's neighbor cell, its particle id and its float32 force."""
        if not records:
            return _NO_RETURNS
        if len(records) == 1:
            rows, bank_rows, forces = records[0]
        else:
            rows, bank_rows, forces = (np.concatenate(x) for x in zip(*records))
        owners = self._row_owner[rows]
        pids = bank_rows if row_ids is None else row_ids[bank_rows]
        return _Returns(owners, pids, forces)

    def _node_state(self, nid: int) -> Tuple[CellState, _StepArena]:
        """Node ``nid``'s view state and scratch — a cache (every pass
        over it is bitwise a fresh build's)."""
        entry = self._node_states.get(nid)
        if entry is None:
            entry = (
                self._new_cell_state(home=self._local_cells_static[nid]),
                _StepArena(),
            )
            self._node_states[nid] = entry
        return entry

    def _get_executor(self):
        """Build (once per partition) and return the thread pool, one
        worker per node.  :meth:`_evaluate_node` reads only static
        machine state (geometry, plan, filter, pipelines) plus the
        node's own view state, so the pool is reused across steps."""
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.n_fpgas
            )
        return self._executor

    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def compute_forces(self) -> float:
        """One distributed force pass; returns the potential energy."""
        self.last_degraded_records = 0
        with self.timings.phase("build"):
            coords, cids = self._binning()
        if self.node_injector is not None:
            self._node_fault_preamble(cids)
        with self.timings.phase("build"):
            nodes = self._build_nodes(coords, cids)
        with self.timings.phase("exchange"):
            self._exchange_positions(nodes)
        self._iteration += 1
        node_list = [nodes[n] for n in sorted(nodes)]
        with self.timings.phase("build"):
            if any(self._for_nodes(self._prepare_node, node_list)):
                self.state_builds += 1
            else:
                self.state_reused_steps += 1
        with self.timings.phase("force"):
            results = self._for_nodes(self._evaluate_node, node_list)
            potential = self._merge_results(node_list, results)
        self._last_potential = potential
        return self._last_potential

    def _for_nodes(self, fn, node_list: List[_Node]) -> list:
        """``fn`` over every node, serially or on the thread pool."""
        if not self.parallel:
            return [fn(node) for node in node_list]
        return list(self._get_executor().map(fn, node_list))

    def _merge_results(self, node_list: List[_Node], results) -> float:
        """Combine the node passes in node-id order (independent of
        worker scheduling): each node's own rows, then every returned
        neighbor force, folded in one pass.

        The old merge applied the returns one segment at a time, per
        owner node and then per evaluating node: a segment's forces
        summed per particle in float64 in evaluation order, rounded to
        float32 and added onto the bank.  The fold keys every record by
        (segment rank, particle id), sums each key in float64 in the
        same order, rounds it to float32 and adds the keys onto the bank
        in ascending order — each particle's segments in the old order.
        That is bitwise the old merge: a bank row is never -0.0, so the
        +0.0 its per-segment adds put on untouched rows changed nothing.
        The keys are grouped without a sort: they are below ``n_nodes^2
        * N``, so a presence mark per key, read back in order, lists the
        distinct ones ascending, and a slot table over the same range
        maps each record to its key.
        """
        n = self.system.n
        home_bank = np.zeros((n, 3), dtype=np.float32)
        potential = np.float32(0.0)
        for res in results:
            potential += np.float32(res.potential)
        # Every particle is one node's own: the rows are disjoint, and
        # writing each onto its +0.0 row is adding it (a bank sum is
        # never -0.0).
        home_bank[np.concatenate([r.ids for r in results])] = np.concatenate(
            [r.forces for r in results]
        )
        rets = [res.returns for res in results]
        counts = [len(r.owners) for r in rets]
        if sum(counts):
            owners = np.concatenate([r.owners for r in rets])
            # A segment holds one record per (block, particle) key of one
            # evaluating node for one owner, and owners account packets.
            per_owner = np.bincount(owners)
            per_owner = per_owner[per_owner > 0]
            rpp = self.config.records_per_packet
            self.total_force_packets += int((-(-per_owner // rpp)).sum())
            n_nodes = len(node_list)
            rank = owners * n_nodes + np.repeat(np.arange(len(rets)), counts)
            keys = rank * n + np.concatenate([r.pids for r in rets])
            forces = np.concatenate([r.forces for r in rets])
            ar = self._fold_arena
            present = ar.get("present", n_nodes * n_nodes * n, np.bool_)
            present[:] = False
            present[keys] = True
            uniq = np.flatnonzero(present)
            slot = ar.get("slot", len(present), np.int32)
            slot[uniq] = np.arange(len(uniq))
            inv = slot[keys]
            # float64 sums in record order, one float32 rounding each,
            # added onto the bank in ascending key order.
            rows = uniq % n
            for d in range(3):
                sums = np.bincount(inv, weights=forces[:, d], minlength=len(uniq))
                np.add.at(home_bank[:, d], rows, sums.astype(np.float32))
        self._forces32 = home_bank
        return float(potential)

    def _force_pass(self) -> float:
        return self.compute_forces()
