"""Distributed execution: per-node state, real packet exchange, ID conversion.

:class:`~repro.core.machine.FasdaMachine` computes globally and *accounts*
traffic; this module executes the way the cluster actually does:

* each node owns only its local cells' particles (position cache
  contents: quantized fractions + species + ids);
* boundary-cell positions are packed into :class:`~repro.core.packets.Packet`
  objects by a per-node P2R encapsulator chain — one copy per destination
  *node*, exactly like the hardware's departure gates;
* on arrival, the receiving node converts the record's global cell
  coordinates through GCID -> LCID (node-relative) and LCID -> RCID
  (cell-relative) — the actual Sec. 4.2 machinery, exercised on real data;
* each node runs the single machine's datapath
  (:class:`~repro.core.machine.MachineCore`) over its *node view* — its
  local cells plus received halo cells, slot by slot in ascending cid —
  on a persistent :class:`~repro.md.cellstate.CellState` of that view,
  returns the nonzero neighbor forces of rows another node owns as
  force packets, and integrates its particles.

The distributed trajectory agrees with the global machine's within
float32 accumulation-order noise — asserted by the equivalence tests —
which is precisely the guarantee the homogeneous-ID design gives the
real cluster.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

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
from repro.core.packets import RecordBatch
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
from repro.md.cellstate import CellState
from repro.md.kernels import scatter_add
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


@dataclass
class _Node:
    """One FPGA node's private state."""

    node_id: int
    node_coords: np.ndarray
    local_cells: List[int] = field(default_factory=list)   # global cell ids
    cells: Dict[int, _CellData] = field(default_factory=dict)
    halo: Dict[int, _CellData] = field(default_factory=dict)
    #: Packets received this phase (for statistics).
    packets_in: int = 0
    packets_out: int = 0


class _NodeResult(NamedTuple):
    """One node's force pass: forces on its own particles ``ids``, its
    potential, per-owner ``(particle ids, forces)`` neighbor-force
    records and the number of pairs its filters admitted."""

    ids: np.ndarray
    forces: np.ndarray
    potential: float
    returns: Dict[int, Tuple[np.ndarray, np.ndarray]]
    admitted: int


class DistributedMachine(MachineCore):
    """Executes a FASDA deployment node by node with explicit exchange.

    Parameters mirror :class:`~repro.core.machine.FasdaMachine`.  Every
    node evaluates its view through the shared
    :class:`~repro.core.machine.MachineCore` datapath into force banks
    sized to the slots it sees; the merge runs in node-id order.
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
        #: Node-structure rebuilds / reuse hits of the node cache (see
        #: :meth:`_build_nodes`).
        self.state_builds = 0
        self.state_reused_steps = 0
        self._nodes_cache: Optional[Dict[int, _Node]] = None
        #: node id -> (view CellState, scratch arena), see
        #: :meth:`_node_state`.
        self._node_states: Dict[int, Tuple[CellState, _StepArena]] = {}
        self._build_cids: Optional[np.ndarray] = None
        self._flow_static: Optional[Dict[Tuple[int, int], Optional[dict]]] = None
        self._last_frac: Optional[np.ndarray] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        # ``timings`` phases: build/exchange/force/integrate.
        self.total_position_packets = 0
        self.total_force_packets = 0
        # -- resilience state (inert without an injector) -------------------
        #: Force-pass index, the fault keys' iteration component.
        self._iteration = 0
        #: (dst node, cell id) -> (capture iteration, last good halo data).
        self._stale_halo: Dict[Tuple[int, int], Tuple[int, _CellData]] = {}
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
        self.config = config
        n_cells = self.grid.n_cells
        fg = config.fpga_grid
        self._cell_node = cell_node_ids(
            self._cell_coords, config.local_cells, fg
        )
        self._node_coords = {
            n: np.array(
                [n // (fg[1] * fg[2]), (n // fg[2]) % fg[1], n % fg[2]],
                dtype=np.int64,
            )
            for n in range(config.n_fpgas)
        }
        # Half-shell topology from the shared (cached) pair plan and, per
        # cell, the destination nodes its particles must reach (the P2R
        # chain's gate assignments).
        plan = self._plan
        home_nodes = self._cell_node[plan.home]
        nbr_nodes = self._cell_node[plan.nbr]
        remote = ~plan.is_self & (home_nodes != nbr_nodes)
        #: Node -> plan rows whose neighbor cell another node owns: the
        #: rows whose reaction forces leave the node as records.
        self._remote_rows = {
            k: ~plan.is_self & (nbr_nodes != k) for k in range(config.n_fpgas)
        }
        self._send_targets: Dict[int, List[int]] = {
            c: [] for c in range(n_cells)
        }
        # ncid's particles are needed at the home cell's node.
        flows = np.unique(
            np.stack([plan.nbr[remote], home_nodes[remote]], axis=1), axis=0
        )
        for src_cell, dst_node in flows:
            self._send_targets[int(src_cell)].append(int(dst_node))
        # Per-(src node, dst node) flow: the ascending source cells whose
        # particles ship src -> dst.  This is the batched view of the
        # same gate assignments: one RecordBatch per flow replaces the
        # per-particle chain walk, with identical packet counts (each
        # gate fills from its cells in ascending-cid order and flushes
        # once at end of iteration).
        self._node_flows: Dict[Tuple[int, int], np.ndarray] = {}
        if len(flows):
            fsrc = self._cell_node[flows[:, 0]]
            fkeys = fsrc * np.int64(config.n_fpgas) + flows[:, 1]
            for key in np.unique(fkeys):
                sel = fkeys == key
                self._node_flows[
                    (int(key) // config.n_fpgas, int(key) % config.n_fpgas)
                ] = np.sort(flows[sel, 0])
        #: Node -> owned global cell ids (ascending).
        self._local_cells_static = {
            k: np.flatnonzero(self._cell_node == k)
            for k in range(config.n_fpgas)
        }
        for k, cells in self._local_cells_static.items():
            self._verify_id_conversion(cells, self._node_coords[k])

    def _invalidate_partition_caches(self) -> None:
        """Drop every structure keyed by the *old* partition.

        The node cache and packing skeletons, node view states,
        stale-halo snapshots, buddy-shadow bookkeeping and the thread
        pool are all shaped or keyed by node ids/counts; after a
        partition change each is rebuilt lazily, so dropping them is
        always bitwise-safe.
        """
        self._nodes_cache = None
        self._build_cids = None
        self._flow_static = None
        self._stale_halo.clear()
        self._node_states.clear()
        self._shadow_iteration = None
        self._shadow_records = {}
        self.close()

    # -- node construction per step --------------------------------------------

    def _build_nodes(self) -> Dict[int, _Node]:
        """Partition the current particle state across nodes.

        The partition (which particles live in which cell on which node)
        is cached across steps while no particle changes cell — the
        distributed evaluation enumerates *every* plan-row slot pair
        from the binning, so identical binning
        alone makes reuse bitwise identical; no skin criterion is needed.
        Reused steps only refresh the per-cell fraction payloads (one
        gather per cell of the cached index arrays, exactly the values a
        fresh split would produce) and clear the per-step halo/packet
        state.  Any cell-assignment change triggers a full rebuild of the
        partition and the flow packing skeletons.
        """
        cfg = self.config
        coords = self.grid.coords_of_positions(self.system.positions)
        frac = quantize_cell_fractions(
            self.system.positions, coords, cfg.cutoff, self.fmt
        )
        self._last_frac = frac
        cids = self.grid.cell_id(coords)
        if self._nodes_cache is not None and np.array_equal(
            cids, self._build_cids
        ):
            self.state_reused_steps += 1
            nodes = self._nodes_cache
            for node in nodes.values():
                node.packets_in = 0
                node.packets_out = 0
                node.halo.clear()
                for data in node.cells.values():
                    data.fractions = frac[data.particle_ids]
            return nodes
        self._build_cids = cids
        self.state_builds += 1
        clist = CellList(self.grid, self.system.positions)
        nodes = {
            n: _Node(node_id=n, node_coords=self._node_coords[n])
            for n in range(cfg.n_fpgas)
        }
        for cid in range(self.grid.n_cells):
            owner = int(self._cell_node[cid])
            idx = clist.particles_in_cell(cid)
            nodes[owner].local_cells.append(cid)
            nodes[owner].cells[cid] = _CellData(
                particle_ids=idx.copy(),
                fractions=frac[idx],
                species=self.system.species[idx],
            )
        self._nodes_cache = nodes
        self._flow_static = None  # packing skeletons follow the build
        return nodes

    # -- position exchange ------------------------------------------------------

    def _exchange_positions(self, nodes: Dict[int, _Node]) -> None:
        """Pack, send, and unpack boundary-cell positions.

        Ships one array-packed :class:`~repro.core.packets.RecordBatch`
        per (source node, destination node) flow.  Gate-chain
        equivalence: the per-particle
        :class:`~repro.core.packets.P2REncapsulatorChain` walk (the
        protocol oracle in ``tests/oracles.py``) gives each destination
        gate exactly this flow's records in ascending (cell, slot)
        order and flushes once at end of iteration, so its packet count
        is ``ceil(n_records / records_per_packet)`` — precisely
        :meth:`~repro.core.packets.RecordBatch.n_packets` — and its
        halos are identical.
        """
        rpp = self.config.records_per_packet
        gd = np.asarray(self.config.global_cells, dtype=np.int64)
        ld = self.config.local_cells
        if self._flow_static is None:
            # Packing skeletons: everything about a flow's RecordBatch
            # except the fraction payload is frozen with the binning
            # (ids, species, cell coords, per-cell run boundaries), so
            # it is concatenated once per rebuild and the per-step pack
            # becomes a single gather of the current fractions —
            # concatenating per-cell gathers equals gathering the
            # concatenated index, element for element.
            self._flow_static = {}
            for (src, dst), cids in self._node_flows.items():
                node = nodes[src]
                parts = [node.cells[int(c)] for c in cids]
                occ = np.array(
                    [len(p.particle_ids) for p in parts], dtype=np.int64
                )
                if int(occ.sum()) == 0:
                    self._flow_static[(src, dst)] = None
                    continue
                # The payload buffer is part of the skeleton: the species
                # column is frozen with the binning, so reused steps only
                # gather the current fractions into columns 0..2 (halo
                # cells copy out of the batch, so reuse cannot alias).
                payload = np.empty((int(occ.sum()), 4))
                payload[:, 3] = np.concatenate([p.species for p in parts])
                self._flow_static[(src, dst)] = dict(
                    starts=np.concatenate([[0], np.cumsum(occ)]),
                    pids=np.concatenate([p.particle_ids for p in parts]),
                    payload=payload,
                    fracbuf=np.empty((int(occ.sum()), 3)),
                    cells=np.repeat(self._cell_coords[cids], occ, axis=0),
                )
        flows = [
            (src, dst, cids, self._flow_static[(src, dst)])
            for (src, dst), cids in self._node_flows.items()
            if self._flow_static[(src, dst)] is not None
        ]
        n_pkts = [-(-len(ent["pids"]) // rpp) for *_, ent in flows]
        # Fault exposure: resolve which packets of every flow survive
        # the fabric (plus any retransmissions the transport pays for)
        # in one transport call.  Without an injector every record
        # arrives and the hot path below is byte-for-byte the lossless
        # one.
        sent = None
        if self.injector is not None:
            sent = send_flows(
                self.injector, [f[0] for f in flows], [f[1] for f in flows],
                "position", self._iteration, n_pkts, self.transport,
                resolve_backend(self.force_impl),
            )
            self.transport_stats += sent.stats
        for f, (src, dst, cids, ent) in enumerate(flows):
            node = nodes[src]
            payload = ent["payload"]
            np.take(self._last_frac, ent["pids"], axis=0, out=ent["fracbuf"])
            payload[:, :3] = ent["fracbuf"]
            batch = RecordBatch(
                kind="position",
                dst=int(dst),
                particle_ids=ent["pids"],
                cells=ent["cells"],
                payload=payload,
            )
            node.packets_out += n_pkts[f]
            self.total_position_packets += n_pkts[f]
            dnode = nodes[int(dst)]
            rec_ok = None
            if sent is not None:
                retransmits = int(sent.retransmits[f])
                node.packets_out += retransmits
                self.total_position_packets += retransmits
                dnode.packets_in += int(sent.n_delivered[f])
                if sent.n_delivered[f] < n_pkts[f]:
                    rec_ok = np.repeat(sent.mask(f), rpp)[: batch.n_records]
            else:
                dnode.packets_in += n_pkts[f]
            # Arrival: whole-batch GCID -> LCID conversion (round-trip
            # asserted, as in the per-record path), then halo bucketing
            # by contiguous ascending-cid runs.
            lcid = gcid_to_lcid(batch.cells, dnode.node_coords, ld, gd)
            origin = dnode.node_coords * np.asarray(ld, dtype=np.int64)
            back = np.mod(lcid + origin, gd)
            if not np.array_equal(back, batch.cells):
                raise ValidationError("LCID conversion corrupted a cell id")
            starts = ent["starts"]
            for k, cid in enumerate(cids):
                lo, hi = int(starts[k]), int(starts[k + 1])
                if lo == hi:
                    continue
                if rec_ok is not None and not rec_ok[lo:hi].all():
                    # The cell's record run is incomplete: a node cannot
                    # evaluate against a partially-arrived cell, so it
                    # degrades (stale snapshot) or errors out.
                    self._degrade_cell(
                        int(src), int(dst), int(cid), dnode,
                        lost=int(np.count_nonzero(~rec_ok[lo:hi])),
                        total=hi - lo,
                    )
                    continue
                data = _CellData(
                    particle_ids=batch.particle_ids[lo:hi].copy(),
                    fractions=batch.payload[lo:hi, :3].copy(),
                    species=batch.payload[lo:hi, 3].astype(np.int32),
                )
                dnode.halo[int(cid)] = data
                if self.injector is not None:
                    # Snapshot for graceful degradation: the receiver's
                    # last complete view of this cell.  The arrays are
                    # never mutated downstream, so storing by reference
                    # is safe.
                    self._stale_halo[(int(dst), int(cid))] = (
                        self._iteration, data,
                    )

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
        self, src: int, dst: int, cid: int, dnode: _Node, lost: int, total: int
    ) -> None:
        """Handle a halo cell whose records were lost beyond recovery.

        Falls back to the last complete snapshot of the cell (recording
        the event with a force-error bound), or raises
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
        dnode.halo[cid] = data

    @property
    def degraded_records_total(self) -> int:
        """Position records ever replaced by stale fallbacks."""
        return sum(rec.lost_records for rec in self.degradation_log)

    # -- node-failure recovery --------------------------------------------------

    def _per_node_records(self) -> Tuple[np.ndarray, Dict[int, int]]:
        """Per-cell occupancy and per-node record counts, current binning."""
        cids = self.grid.cell_id(
            self.grid.coords_of_positions(self.system.positions)
        )
        per_cell = np.bincount(cids, minlength=self.grid.n_cells)
        per_node = {
            k: int(per_cell[self._cell_node == k].sum())
            for k in range(self.config.n_fpgas)
        }
        return per_cell, per_node

    def _node_fault_preamble(self) -> None:
        """Advance the node-failure model one force pass.

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
        per_cell, per_node = self._per_node_records()
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
        # The adopting nodes have no warm packing skeletons for foreign
        # cells: force a full rebuild of the node cache (bitwise-equal
        # to a reused one, so this is always safe).
        self._nodes_cache = None
        self._build_cids = None
        self._flow_static = None

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
        self, local_cells, node_coords: np.ndarray
    ) -> None:
        """Assert the Sec. 4.2 GCID -> LCID -> RCID machinery on one node.

        For every (home cell, half-shell neighbor) pair of the node, the
        offset recovered through the homogeneous local ID space must
        equal the geometric half-shell offset.  It depends on the
        partition alone, so it runs for every node whenever a partition
        is applied (construction and each rescale).
        """
        if not len(local_cells):
            return
        gd = self.config.global_cells
        ld = self.config.local_cells
        local = np.asarray(local_cells, dtype=np.int64)
        home_lcid = gcid_to_lcid(
            self._cell_coords[local], node_coords, ld, gd
        )
        nbr_lcid = gcid_to_lcid(
            self._cell_coords[self._neighbor_cids[local]],
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

    def _node_view(self, node: _Node) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The node's view: its local cells plus its received halo cells
        in ascending cid, as per-cell counts and the particle id and
        quantized fraction of every slot."""
        visible = sorted(list(node.cells.items()) + list(node.halo.items()))
        counts = np.zeros(self.grid.n_cells, dtype=np.int64)
        for cid, data in visible:
            counts[cid] = len(data.particle_ids)
        ids = np.concatenate([d.particle_ids for _, d in visible])
        frac = np.concatenate([d.fractions.reshape(-1, 3) for _, d in visible])
        return counts, ids, frac

    def _evaluate_node(self, node: _Node) -> _NodeResult:
        """The node's home rows through the shared datapath into banks
        over its view's slots, rows whose neighbor cell another node
        owns returning records.  Only static machine state and the
        node's own cached state are written, so nodes evaluate
        concurrently on the thread pool."""
        nid = node.node_id
        counts, ids, frac = self._node_view(node)
        n_slots = len(ids)
        if n_slots == 0:
            return _NodeResult(ids, np.zeros((0, 3), dtype=np.float32), 0.0, {}, 0)
        state, arena = self._node_state(nid)
        state.ensure_view(
            counts, ids, frac, self._local_cells_static[nid],
            resolve_backend(self.force_impl),
        )
        self._prepare(state)
        out = _Pass(
            np.zeros((n_slots, 3), dtype=np.float32),
            np.zeros((n_slots, 3), dtype=np.float32),
            self._plan, arena, self._remote_rows[nid],
        )
        potential = self._evaluate(state, frac, out)
        # Adder-tree combination of the banks on the node's own slots.
        own = self._cell_node[state.clist.sorted_cids] == nid
        return _NodeResult(
            state.ids[own],
            out.home_bank[own] + out.nbr_bank[own],
            float(potential),
            self._returns(out.records, state.ids),
            int(out.accepted.sum()),
        )

    def _returns(
        self, records: list, ids: np.ndarray
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """A node's records grouped by the owner of their neighbor cell:
        ``(particle ids, float32 forces)`` in evaluation order."""
        if not records:
            return {}
        rows, slots, forces = (np.concatenate(x) for x in zip(*records))
        owners = self._cell_node[self._plan.nbr[rows]]
        by_owner = np.argsort(owners, kind="stable")
        bounds = np.flatnonzero(np.diff(owners[by_owner])) + 1
        return {
            int(owners[seg[0]]): (ids[slots[seg]], forces[seg])
            for seg in np.split(by_owner, bounds)
        }

    def _node_state(self, nid: int) -> Tuple[CellState, _StepArena]:
        """Node ``nid``'s view state and scratch — a cache (reuse is
        decided from the view alone and is bitwise a fresh build)."""
        entry = self._node_states.get(nid)
        if entry is None:
            entry = (self._new_cell_state(view=True), _StepArena())
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
        if self.node_injector is not None:
            self._node_fault_preamble()
        with self.timings.phase("build"):
            nodes = self._build_nodes()
        with self.timings.phase("exchange"):
            self._exchange_positions(nodes)
        self._iteration += 1
        node_list = [nodes[n] for n in sorted(nodes)]
        with self.timings.phase("force"):
            results = self._evaluate_all(node_list)
            potential = self._merge_results(node_list, results)
        self._last_potential = potential
        return self._last_potential

    def _evaluate_all(self, node_list: List[_Node]) -> List[_NodeResult]:
        """Evaluate every node serially or on the thread pool."""
        if not self.parallel:
            return [self._evaluate_node(node) for node in node_list]
        return list(self._get_executor().map(self._evaluate_node, node_list))

    def _merge_results(self, node_list: List[_Node], results) -> float:
        # Deterministic merge in node-id order (independent of worker
        # scheduling): each node's own rows, then the returned neighbor
        # forces.
        home_bank = np.zeros((self.system.n, 3), dtype=np.float32)
        potential = np.float32(0.0)
        return_records: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {
            n.node_id: [] for n in node_list
        }
        for res in results:
            home_bank[res.ids] += res.forces
            potential += np.float32(res.potential)
            for owner, segment in res.returns.items():
                return_records[owner].append(segment)
        # Force return: apply each arriving segment in order and account
        # its packets.  A segment holds one record per (block, particle)
        # key of one evaluating node.
        for node in node_list:
            n_records = 0
            for pids, fvecs in return_records[node.node_id]:
                scatter_add(home_bank, pids, fvecs)
                n_records += len(pids)
            if n_records:
                self.total_force_packets += int(
                    np.ceil(n_records / self.config.records_per_packet)
                )
        self._forces32 = home_bank
        return float(potential)

    def _force_pass(self) -> float:
        return self.compute_forces()
