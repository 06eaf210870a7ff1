"""The FASDA machine: functional simulation of the full accelerator.

:class:`FasdaMachine` runs real MD timesteps through the modeled
datapath — fixed-point positions, float32 squared distances, table-lookup
force pipelines, float32 force/velocity state — organized exactly as the
hardware organizes it:

* one CBB per cell; home-home pairs plus the 13 half-shell neighbor
  cells (Newton's third law applied once per pair);
* home forces accumulate into the home FC bank, neighbor forces into the
  PE-local bank and return via the force ring ("adder tree" combination
  is the final bank sum);
* positions/forces crossing FPGA-node boundaries are packed into 512-bit
  packets and accounted per (source, destination) flow, with zero
  neighbor forces discarded (paper Sec. 5.4);
* position/force ring loads are accounted per node with the broadcast
  semantics of Sec. 4.5 (a position rides the ring once, visiting all
  its destination CBBs).

The machine produces both *physics* (trajectories, energies — compared
against the float64 reference in Fig. 19) and *workload statistics*
(candidates, acceptance, traffic, ring loads — the inputs to the cycle
model behind Figs. 16-18).

It and :class:`~repro.core.distributed.DistributedMachine` evaluate
through :class:`MachineCore`, the one datapath force core (with the
physics set-up and integrator) that every FASDA node runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arith.fixedpoint import FixedPointFormat
from repro.arith.interp import ForceTableSet
from repro.core.cellids import node_of_cell
from repro.core.config import MachineConfig
from repro.core.datapath import (
    ForcePipeline,
    PairFilter,
    quantize_cell_fractions,
)
from repro.core.rings import RingLoadModel, RingPath, cbb_ring_order
from repro.core.timing import StepTimings
from repro.md.cells import CellGrid, HALF_SHELL_OFFSETS
from repro.md.dataset import build_dataset
from repro.md.kernels import scatter_add
from repro.md.pairplan import candidates_per_cell, plan_for_grid
from repro.md.cellstate import CellState, machine_pack_fn
from repro.md.backends import DatapathTables, resolve_backend
from repro.md.engine import EnergyRecord
from repro.md.system import ParticleSystem
from repro.network.fabric import Fabric
from repro.util.errors import ConfigError, ValidationError
from repro.util.units import KCAL_MOL_TO_INTERNAL


@dataclass
class RingLoadSummary:
    """Per-node summary of one ring's load in one iteration."""

    total_records: int
    total_hops: int
    min_cycles: int
    mean_link_load: float

    @classmethod
    def from_model(cls, model: RingLoadModel) -> "RingLoadSummary":
        return cls(
            total_records=model.total_records,
            total_hops=model.total_hops,
            min_cycles=model.min_cycles,
            mean_link_load=model.mean_link_load,
        )


@dataclass
class StepStats:
    """Workload statistics from one force-evaluation pass.

    All arrays are indexed by global cell id; traffic dicts by node id.
    """

    candidates_per_cell: np.ndarray
    accepted_per_cell: np.ndarray
    occupancy_per_cell: np.ndarray
    potential_energy: float
    #: Remote traffic per directed node pair, in records.
    position_records: Dict[Tuple[int, int], int] = field(default_factory=dict)
    force_records: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: Per-node position/force ring load summaries.
    pr_load: Dict[int, RingLoadSummary] = field(default_factory=dict)
    fr_load: Dict[int, RingLoadSummary] = field(default_factory=dict)
    #: Neighbor-force records produced per evaluating cell (nonzero only).
    neighbor_force_records_per_cell: Optional[np.ndarray] = None
    #: Cumulative :class:`~repro.md.cellstate.CellState` full builds and
    #: in-place updates at the end of this pass, and whether this pass
    #: reused persistent state (no full build).
    state_builds: Optional[int] = None
    state_reused: Optional[bool] = None
    state_updates: Optional[int] = None
    #: Node-crash recoveries folded into this pass and their cycle cost
    #: (None when no node-fault plan is active; the distributed layer's
    #: :attr:`~repro.core.distributed.DistributedMachine.recovery_log`
    #: is the per-event source these aggregates come from).
    recoveries: Optional[int] = None
    recovery_cycles: Optional[float] = None
    #: Cumulative per-phase wall-clock seconds (and ``*_calls`` counts)
    #: from the machine's :class:`~repro.core.timing.StepTimings` —
    #: ``None`` unless timing was enabled.  Counters are monotonic
    #: across the machine's lifetime, not per step; ``ring`` time is a
    #: subset of ``traffic`` time.
    timings: Optional[Dict[str, float]] = None

    @property
    def total_candidates(self) -> int:
        return int(self.candidates_per_cell.sum())

    @property
    def total_accepted(self) -> int:
        return int(self.accepted_per_cell.sum())

    @property
    def acceptance_rate(self) -> float:
        """Fraction of candidate pairs passing the filter (~15.5% expected,
        paper Eq. 3)."""
        total = self.total_candidates
        return self.total_accepted / total if total else 0.0

    def fill_fabric(self, fabric: Fabric) -> None:
        """Load the remote record counts into a Fabric for Fig. 18 math."""
        for (src, dst), records in self.position_records.items():
            fabric.add_records(src, dst, "position", records)
        for (src, dst), records in self.force_records.items():
            fabric.add_records(src, dst, "force", records)


#: Home offset + 13 half-shell offsets, f64 — row k of every padded pass.
_OFFS14 = np.concatenate(
    [np.zeros((1, 3)), np.asarray(HALF_SHELL_OFFSETS, dtype=np.float64)]
)


class _StepArena:
    """Lazily-grown named scratch buffers for per-step temporaries.

    ``get(name, n, dtype)`` returns the first ``n`` elements of a named
    persistent buffer, growing it by ~25% headroom when ``n`` exceeds
    the current capacity — so fluctuating admitted-pair counts settle
    into zero allocations after the first few steps.  Buffers are plain
    scratch: contents are undefined between calls and views returned
    here must not escape the step that requested them.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: Dict[str, np.ndarray] = {}

    def get(self, name: str, n: int, dtype) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.size < n or buf.dtype != dtype:
            buf = np.empty(n + (n >> 2), dtype=dtype)
            self._bufs[name] = buf
        return buf[:n]


class _Pass:
    """One datapath pass: banks indexed like the binning's bank rows
    (``clist.order``), admitted pairs per cell, unique neighbor-force
    records per plan row, scratch, and — given a ``remote`` plan-row
    mask (a node view) — the ``records`` list those rows' reactions are
    appended to as ``(rows, bank rows, float32 forces)``, one coalesced
    record per (row, neighbor).  The halo bank rows they also touch are
    the caller's to ignore."""

    def __init__(self, home_bank, nbr_bank, plan, arena, remote=None):
        self.home_bank = home_bank
        self.nbr_bank = nbr_bank
        self.accepted = np.zeros(plan.n_cells, dtype=np.int64)
        self.uniq_per_row = np.zeros(plan.n_rows, dtype=np.int64)
        self.arena = arena
        self.remote = remote
        self.records: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def reset(self) -> None:
        """Zero the banks and counters and empty the records, for the
        next pass into the same buffers."""
        for x in (self.home_bank, self.nbr_bank, self.accepted, self.uniq_per_row):
            x.fill(0)
        self.records = []


class _MachineArtifacts:
    """Per-build operands of the band-list pass over one CellState's
    :class:`RowBands`: the :class:`~repro.md.backends.DatapathTables`
    whose multi-species coefficients and Coulomb charge products are
    gathered per layout entry, the :class:`~repro.md.backends.PassPlan`
    of the state's passes and, on a node view, the :class:`_Pass` they
    run into.  After an in-place update of the state,
    :meth:`refresh` gathers the tables again for the new layout.  Built
    in the ``build`` phase right after each rebuild, so phase timings
    charge every per-rebuild cost to ``build``.
    """

    __slots__ = ("tables", "updates", "plan", "out")

    def __init__(self, machine: "MachineCore", state: CellState):
        self.plan = None
        self.out: Optional[_Pass] = None
        self.refresh(machine, state)

    def refresh(self, machine: "MachineCore", state: CellState) -> None:
        self.updates = state.updates
        self.tables = machine._datapath_tables(state)


class MachineCore:
    """Physics set-up, datapath force core and integrator shared by the
    single machine and every distributed node.

    Parameters
    ----------
    config:
        The machine configuration (design point).
    system:
        Particle system to simulate; if None, the paper's dataset is
        generated for ``config.global_cells``.  The system is copied —
        the caller's arrays are never mutated.
    seed:
        Dataset seed when ``system`` is None.
    """

    def __init__(
        self,
        config: MachineConfig,
        system: Optional[ParticleSystem] = None,
        seed: int = 2023,
    ):
        self.config = config
        self.grid = CellGrid(config.global_cells, config.cutoff)
        if system is None:
            system, _ = build_dataset(
                config.global_cells, cutoff=config.cutoff, seed=seed
            )
        if not np.allclose(system.box, self.grid.box):
            raise ConfigError(
                f"system box {system.box} does not match config box {self.grid.box}"
            )
        self.system = system.copy()
        # Hardware state widths: velocities and forces are float32
        # (VC/FC are 32-bit), positions are fixed-point per cell.
        self._velocities32 = self.system.velocities.astype(np.float32)
        self._forces32 = np.zeros_like(self._velocities32)
        self.fmt = FixedPointFormat(frac_bits=config.frac_bits)
        self.tables = ForceTableSet(n_s=config.table_ns, n_b=config.table_nb)
        self.filter = PairFilter(self.tables.r2_min)
        self.pipeline = ForcePipeline(
            self.system.lj_table, config.cutoff, self.tables
        )
        # Optional second pipeline: the short-range Ewald electrostatic
        # term, structurally identical table lookup with a different ROM
        # image (paper Secs. 2.1, 3.4).
        self.coulomb_pipeline = None
        self._charges32 = None
        if config.force_model == "lj+coulomb":
            from repro.core.datapath import TabulatedRadialPipeline
            from repro.md.ewald import (
                choose_beta,
                ewald_real_energy_scalar,
                ewald_real_scalar,
            )

            self.ewald_beta = choose_beta(config.cutoff, config.ewald_tolerance)
            beta = self.ewald_beta
            self.coulomb_pipeline = TabulatedRadialPipeline.from_physical(
                lambda r2: ewald_real_scalar(r2, beta),
                lambda r2: ewald_real_energy_scalar(r2, beta),
                cutoff=config.cutoff,
                n_s=config.table_ns,
                n_b=config.table_nb,
            )
            self._charges32 = self.system.charges.astype(np.float32)
        # Static geometry: cell coordinates and the shared half-shell
        # pair plan.
        self._cell_coords = self.grid.cell_coords(
            np.arange(self.grid.n_cells, dtype=np.int64)
        )
        self._plan = plan_for_grid(self.grid)
        self._neighbor_cids = self._plan.neighbor_ids
        #: Force backend (see :mod:`repro.md.backends`): ``None`` uses
        #: the process-wide default, ``"numpy"`` the pure-numpy
        #: kernels, ``"cext"`` their compiled restatements.  The
        #: float64 recheck through
        #: :meth:`~repro.core.datapath.PairFilter.admit_r2` (and its
        #: arithmetic restatements) stays authoritative on every
        #: backend, so admissions, statistics, traffic and the
        #: potential are **bitwise identical** across backends.
        self.force_impl: Optional[str] = None
        #: Skin margin (angstrom) for the persistent states' band lists.
        self.reuse_skin = 0.15 * config.cutoff
        self._rom32_cache = None
        self._shared_tables: Optional[DatapathTables] = None
        #: Per-phase wall-clock counters; ``timings.enabled = True``.
        self.timings = StepTimings()
        self.history: List[EnergyRecord] = []
        self._primed = False
        self._last_potential = 0.0

    # -- the datapath force core -----------------------------------------------

    def _pipelines(
        self,
        dr: np.ndarray,
        r2: np.ndarray,
        gi: np.ndarray,
        gj: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """All force pipelines over one admitted pair block.

        The LJ pipeline always runs; with ``force_model="lj+coulomb"``
        the Ewald pipeline consumes the *same* filtered pairs — in
        hardware the two pipelines sit side by side behind one filter
        bank, which is why the paper calls them "nearly identical".
        """
        spc = self.system.species
        f, e = self.pipeline.compute(dr, r2, spc[gi], spc[gj])
        if self.coulomb_pipeline is not None:
            qq = self._charges32[gi] * self._charges32[gj]
            fc, ec = self.coulomb_pipeline.compute(dr, r2, qq)
            f = f + fc
            e = e + ec
        return f, e

    def _new_cell_state(self, home: Optional[np.ndarray] = None) -> CellState:
        """A persistent :class:`CellState`, updatable in place, over the
        plan rows of the ``home`` cells (every cell for ``None``; a node
        view's state searches its own)."""
        cutoff = self.config.cutoff
        return CellState(
            self.grid,
            self._plan,
            self.reuse_skin,
            machine_pack_fn(self.fmt, cutoff, self.reuse_skin, self.grid),
            updatable=True,
            home=home,
        )

    def _prepare(self, state: CellState) -> None:
        """Attach (or refresh after an update) the per-build artifacts
        the band-list pass reads."""
        art = state.artifacts.get("machine")
        if art is None:
            state.artifacts["machine"] = _MachineArtifacts(self, state)
        elif art.updates != state.updates:
            art.refresh(self, state)

    def _evaluate(self, state: CellState, frac: np.ndarray, out: _Pass) -> np.float32:
        """One datapath pass over ``state``'s band lists into ``out``,
        whatever the occupancy.  ``frac`` holds the fraction of every
        bank row (particle ids; a node view's arena may add rows past
        them).

        The band-list pass is the backend's ``datapath_pass`` (see
        :func:`~repro.md.backends.datapath_pass_numpy`), bitwise equal
        to a fresh padded-broadcast pass on the same positions (the
        oracle in ``tests/oracles.py``): the band lists hold, per offset
        ``k`` and in the fresh path's flat enumeration order, a superset
        of anything the fresh band can pass, and the float32 cutoff test
        is exactly the :meth:`~repro.core.datapath.PairFilter.admit_r2`
        admission — so the admitted pair sequences, every pipeline
        input and the per-offset accumulation grouping all coincide
        with a fresh build's.

        The pass runs through the state's
        :class:`~repro.md.backends.PassPlan`, which writes the fractions
        by bank row in float32 — exact: fractions are k * 2**-23 in
        [0, 1), so differences (and minus the integer cell offsets) are
        exactly representable; float32 dr is bit-equal to casting the
        fresh path's float64 dr — and checks the operands once per
        layout version.
        """
        art = state.artifacts["machine"]
        backend = resolve_backend(self.force_impl)
        if art.plan is None or art.plan.backend is not backend:
            art.plan = backend.plan_passes()
        return art.plan(frac, state.pairs, _OFFS14, art.tables, out)

    def _rom32(self) -> np.ndarray:
        """The float32 coefficient ROM images, interleaved per
        section/bin as :class:`~repro.md.backends.DatapathTables` lays
        them out, built once.

        ``evaluate_f32_at`` casts the gathered float64 coefficients per
        call; casting the whole table once and gathering from the f32
        image yields bitwise-identical values (f64->f32 rounding commutes
        with the gather) without the per-step cast passes.
        """
        if self._rom32_cache is None:
            tabs = [self.tables.tables[a] for a in (14, 8, 12, 6)]
            if self.coulomb_pipeline is not None:
                tabs += [
                    self.coulomb_pipeline.force_table,
                    self.coulomb_pipeline.energy_table,
                ]
            self._rom32_cache = np.stack(
                [x.astype(np.float32).ravel() for t in tabs for x in (t._a, t._b)],
                axis=1,
            )
        return self._rom32_cache

    def _datapath_tables(self, state: CellState) -> DatapathTables:
        """The band-list pass operands of ``state``'s layout.

        Single-species boxes (the paper's workload) share one set of
        coefficients: multiplying by the float32 scalar is bitwise-equal
        to multiplying by the gathered constant array.  Otherwise the
        coefficients, and under Coulomb the charge products, are
        gathered per layout entry (pads clip onto the last bank row;
        they are never admitted).
        """
        pipe = self.pipeline
        coefs = (pipe._c14, pipe._c8, pipe._c12, pipe._c6)
        scalar = pipe._c14.size == 1
        # Nothing per entry: every layout shares one set of tables.
        shared = scalar and self.coulomb_pipeline is None
        if shared and self._shared_tables is not None:
            return self._shared_tables
        coef = qq = None
        if scalar:
            coef = np.array([c.reshape(()) for c in coefs], dtype=np.float32)
        if not shared:
            rb = state.pairs
            # Particle ids of each entry: the bank rows themselves, or
            # through the state's row map on a node view that has rows
            # past them; ``take`` clips them (and the pad row) below.
            pi, pj = rb.a[: rb.size], rb.b[: rb.size]
            if state.ids is not None:
                pi = state.ids.take(pi, mode="clip")
                pj = state.ids.take(pj, mode="clip")
            if not scalar:
                spc = self.system.species
                si, sj = spc.take(pi, mode="clip"), spc.take(pj, mode="clip")
                coef = np.stack([c[si, sj] for c in coefs])
            if self.coulomb_pipeline is not None:
                q = self._charges32
                qq = q.take(pi, mode="clip") * q.take(pj, mode="clip")
        ts = self.tables
        tables = DatapathTables(
            ts.n_s, ts.n_b, ts.r2_min, self._rom32(), coef, qq
        )
        if shared:
            self._shared_tables = tables
        return tables

    # -- time integration (motion-update units) --------------------------------

    @property
    def forces(self) -> np.ndarray:
        """Current float32 forces (kcal/mol/A)."""
        return self._forces32

    @property
    def velocities(self) -> np.ndarray:
        """Current float32 velocities (A/fs)."""
        return self._velocities32

    def kinetic_energy(self) -> float:
        """Kinetic energy (kcal/mol) from the float32 velocity cache."""
        v = self._velocities32.astype(np.float64)
        ke = 0.5 * float(np.sum(self.system.masses * np.sum(v * v, axis=1)))
        return ke / KCAL_MOL_TO_INTERNAL

    def _accel32(self, forces: np.ndarray) -> np.ndarray:
        factor = (KCAL_MOL_TO_INTERNAL / self.system.masses).astype(np.float32)
        return forces * factor[:, None]

    def _force_pass(self, *pass_args, **pass_kw) -> float:
        """One force pass; returns the potential energy."""
        raise NotImplementedError

    def _drift(self, delta: np.ndarray) -> None:
        """Move every particle by ``delta`` and wrap into the box."""
        self.system.positions += delta
        self.system.wrap()

    def step(self, *pass_args, **pass_kw) -> float:
        """Advance one timestep; returns the new potential energy.

        The motion-update unit integrates in float32; positions are held
        as fixed-point cell offsets, re-quantized when the position
        caches are rebuilt at the start of the next force phase.
        Further arguments go to the force pass
        (:class:`FasdaMachine`: ``collect_traffic``).
        """
        if not self._primed:
            self._last_potential = self._force_pass(*pass_args, **pass_kw)
            self._primed = True
        with self.timings.phase("integrate"):
            dt = np.float32(self.config.dt_fs)
            accel = self._accel32(self._forces32)
            delta = (
                self._velocities32 * dt + np.float32(0.5) * accel * dt * dt
            ).astype(np.float64)
            self._drift(delta)
        self._last_potential = self._force_pass(*pass_args, **pass_kw)
        with self.timings.phase("integrate"):
            accel_new = self._accel32(self._forces32)
            self._velocities32 += np.float32(0.5) * (accel + accel_new) * dt
            # Keep the public system state consistent with the VC/FC
            # caches so analysis code sees the machine's actual
            # trajectory.
            self.system.velocities[:] = self._velocities32
            self.system.forces[:] = self._forces32
        return self._last_potential

    def run(
        self, n_steps: int, record_every: int = 1, *pass_args, **pass_kw
    ) -> List[EnergyRecord]:
        """Run ``n_steps`` timesteps, recording energies like the reference
        engine so the two histories compare directly (Fig. 19)."""
        if n_steps < 0:
            raise ValidationError("n_steps must be >= 0")
        appended: List[EnergyRecord] = []
        if not self._primed:
            self._last_potential = self._force_pass(*pass_args, **pass_kw)
            self._primed = True
            rec = EnergyRecord(0, self.kinetic_energy(), self._last_potential)
            self.history.append(rec)
            appended.append(rec)
        start = self.history[-1].step if self.history else 0
        for i in range(1, n_steps + 1):
            self.step(*pass_args, **pass_kw)
            if record_every and i % record_every == 0:
                rec = EnergyRecord(
                    start + i, self.kinetic_energy(), self._last_potential
                )
                self.history.append(rec)
                appended.append(rec)
        return appended


class FasdaMachine(MachineCore):
    """Functional + statistical simulator of a FASDA deployment: the
    whole box through the datapath, with the traffic of its partition
    accounted.  Parameters as for :class:`MachineCore`."""

    def __init__(
        self,
        config: MachineConfig,
        system: Optional[ParticleSystem] = None,
        seed: int = 2023,
    ):
        super().__init__(config, system, seed)
        # Static geometry: cell -> owning node.
        node_coords = node_of_cell(self._cell_coords, config.local_cells)
        fg = config.fpga_grid
        self._cell_node = (
            node_coords[:, 0] * fg[1] * fg[2]
            + node_coords[:, 1] * fg[2]
            + node_coords[:, 2]
        )
        # Local ring slot per cell (EX node occupies the last slot).
        order = cbb_ring_order(config.local_cells)
        local_index = {c: i for i, c in enumerate(order)}
        local_coords = self._cell_coords - node_coords * np.asarray(
            config.local_cells
        )
        self._cell_ring_slot = np.array(
            [local_index[tuple(c)] for c in local_coords], dtype=np.int64
        )
        self._ring_slots = config.cells_per_fpga + 1  # + EX
        self._ex_slot = config.cells_per_fpga
        self._cell_state = None
        # ``timings`` phases: build/force/traffic/ring/integrate, with
        # ``ring`` time charged inside the ``traffic`` phase.
        # Persistent per-step force banks and the named scratch arena:
        # a reuse-path step performs no large allocations (see
        # DESIGN.md §13).
        self._home_bank: Optional[np.ndarray] = None
        self._nbr_bank: Optional[np.ndarray] = None
        self._arena = _StepArena()
        self.last_stats: Optional[StepStats] = None
        #: Migration accounting from the most recent step (MU-ring load).
        self.last_migrations = None

    # -- force evaluation ------------------------------------------------------

    def compute_forces(self, collect_traffic: bool = True) -> StepStats:
        """One full force-evaluation pass through the modeled datapath.

        Updates the internal float32 force banks and returns workload
        statistics.  Does not advance time.

        Every pass goes through the persistent skin-banded
        :class:`~repro.md.cellstate.CellState`, rebuilt on the skin/2
        displacement criterion and updated in place when particles only
        changed cell, and evaluates over its band lists (the backend's
        ``datapath_pass``) whatever the occupancy: dense, sparse or
        skewed boxes take the one path, admitting pairs through the real
        :class:`~repro.core.datapath.PairFilter`.  Traffic accounting
        runs as vectorized group-by passes.
        """
        cfg = self.config
        plan = self._plan
        pos = self.system.positions
        n = self.system.n
        n_cells = self.grid.n_cells
        with self.timings.phase("build"):
            state = self.ensure_cell_state()
            state.ensure(pos, resolve_backend(self.force_impl))
            clist = state.clist
            frac = quantize_cell_fractions(pos, state.coords, cfg.cutoff, self.fmt)
            # Per-rebuild gathers belong to the build, not the force pass.
            self._prepare(state)

        # Persistent force banks (zeroed in place each pass) — the two
        # largest per-step arrays; their adder-tree sum below still
        # produces a fresh array so returned force snapshots stay valid.
        if self._home_bank is None or len(self._home_bank) != n:
            self._home_bank = np.zeros((n, 3), dtype=np.float32)
            self._nbr_bank = np.zeros((n, 3), dtype=np.float32)
        else:
            self._home_bank.fill(0)
            self._nbr_bank.fill(0)
        candidates = candidates_per_cell(plan, clist.counts)
        # ``uniq_per_row``: unique neighbor particles touched per plan
        # row — the per-block force-return record counts of the hardware
        # (zero forces and duplicate touches within a block coalesced).
        out = _Pass(self._home_bank, self._nbr_bank, plan, self._arena)
        with self.timings.phase("force"):
            potential = self._evaluate(state, frac, out)

        nbr_frc_records = np.zeros(n_cells, dtype=np.int64)
        scatter_add(nbr_frc_records, plan.home, out.uniq_per_row)

        occupancy = clist.occupancies()
        if collect_traffic:
            with self.timings.phase("traffic"):
                position_records, force_records, pr_models, fr_models = (
                    self._account_traffic(clist.counts, occupancy, out.uniq_per_row)
                )
        else:
            position_records = {}
            force_records = {}
            pr_models = {
                n_: RingLoadModel(RingPath(self._ring_slots, +1))
                for n_ in range(cfg.n_fpgas)
            }
            fr_models = {
                n_: RingLoadModel(RingPath(self._ring_slots, -1))
                for n_ in range(cfg.n_fpgas)
            }

        # Adder-tree combination of the FC banks (Sec. 4.5).
        self._forces32 = out.home_bank + out.nbr_bank

        stats = StepStats(
            candidates_per_cell=candidates,
            accepted_per_cell=out.accepted,
            occupancy_per_cell=occupancy.copy(),
            potential_energy=float(potential),
            position_records=position_records,
            force_records=force_records,
            pr_load={n: RingLoadSummary.from_model(m) for n, m in pr_models.items()},
            fr_load={n: RingLoadSummary.from_model(m) for n, m in fr_models.items()},
            neighbor_force_records_per_cell=nbr_frc_records,
            state_builds=state.builds,
            state_reused=not state.last_rebuilt,
            state_updates=state.updates,
            timings=self.timings.snapshot(),
        )
        self.last_stats = stats
        return stats

    # -- step-persistent state -------------------------------------------------

    def ensure_cell_state(self) -> CellState:
        """Create (once) and return the persistent :class:`CellState`.

        Creation alone does not build the band lists (the next force
        pass does); checkpoint restore uses this to reattach the reuse
        counters without paying an immediate build.
        """
        if self._cell_state is None:
            self._cell_state = self._new_cell_state()
        return self._cell_state

    # -- traffic accounting ----------------------------------------------------

    def _traffic_models(
        self,
    ) -> Tuple[Dict[int, RingLoadModel], Dict[int, RingLoadModel]]:
        cfg = self.config
        pr_models = {
            n_: RingLoadModel(
                RingPath(self._ring_slots, +1), force_impl=self.force_impl
            )
            for n_ in range(cfg.n_fpgas)
        }
        fr_models = {
            n_: RingLoadModel(
                RingPath(self._ring_slots, -1), force_impl=self.force_impl
            )
            for n_ in range(cfg.n_fpgas)
        }
        return pr_models, fr_models

    def _active_neighbor_rows(self, counts: np.ndarray) -> np.ndarray:
        """Non-self plan rows whose home and neighbor cells are occupied,
        in the (cid, k) order the hardware schedules blocks."""
        plan = self._plan
        return np.flatnonzero(
            ~plan.is_self & (counts[plan.home] > 0) & (counts[plan.nbr] > 0)
        )

    def _account_traffic(
        self,
        counts: np.ndarray,
        occupancy: np.ndarray,
        uniq_per_row: np.ndarray,
    ) -> Tuple[
        Dict[Tuple[int, int], int],
        Dict[Tuple[int, int], int],
        Dict[int, RingLoadModel],
        Dict[int, RingLoadModel],
    ]:
        """Vectorized traffic accounting over the active neighbor rows.

        Group-by passes over composite (cell, node, slot) keys through
        the backend ``traffic_flat`` kernel
        (:func:`~repro.md.backends.traffic_flat_numpy` on ``numpy``) and
        batched :class:`~repro.core.rings.RingLoadModel` charging,
        bitwise-identical in records, link loads and summaries to the
        per-row loop oracle in ``tests/oracles.py``.
        """
        plan = self._plan
        S = self._ring_slots
        nf = np.int64(self.config.n_fpgas)
        position_records: Dict[Tuple[int, int], int] = {}
        force_records: Dict[Tuple[int, int], int] = {}
        pr_models, fr_models = self._traffic_models()
        act = self._active_neighbor_rows(counts)
        if act.size == 0:
            return position_records, force_records, pr_models, fr_models
        tfl = resolve_backend(self.force_impl).traffic_flat

        cid = plan.home[act]
        ncid = plan.nbr[act]
        home_node = self._cell_node[cid]
        home_slot = self._cell_ring_slot[cid]
        src_node = self._cell_node[ncid]
        local = src_node == home_node

        # Position stream dedup: unique (source cell, dest node) flows;
        # remote flows charge the source cell's occupancy per record.
        pkeys = tfl(ncid * nf + home_node)[0]
        pcell = pkeys // nf
        pdst = pkeys % nf
        psrc = self._cell_node[pcell]
        remote = psrc != pdst
        if remote.any():
            rk = psrc[remote] * nf + pdst[remote]
            uk, rsums, _, _ = tfl(
                rk, weights=occupancy[pcell[remote]].astype(np.float64)
            )
            sums = rsums.astype(np.int64)
            position_records = {
                (int(k // nf), int(k % nf)): int(s) for k, s in zip(uk, sums)
            }

        # Position-ring broadcasts: one ring traversal per (node, source
        # stream) key, up to the farthest destination CBB (Sec. 4.5).
        # Remote streams enter at EX; the key keeps them distinct per
        # source cell exactly as the loop oracle does.  Hops are formed
        # per row before grouping; the per-key stream length and source
        # slot are constant within a key, so the first row's values are
        # exactly the loop oracle's.
        key_mod = np.int64(self._ex_slot + 10_000 + plan.n_cells + 1)
        src_slot_row = np.where(
            local, self._cell_ring_slot[ncid], self._ex_slot
        )
        src_key = np.where(
            local,
            self._cell_ring_slot[ncid],
            self._ex_slot + 10_000 + ncid,
        )
        comp = home_node * key_mod + src_key
        hops_row = (home_slot - src_slot_row) % S
        uc, _, far, first = tfl(comp, aux=hops_row)
        src_slot = src_slot_row[first]
        key_count = counts[ncid[first]]
        key_node = uc // key_mod
        with self.timings.phase("ring"):
            for n_ in pr_models:
                sel = key_node == n_
                if sel.any():
                    pr_models[n_].broadcast_many(
                        src_slot[sel], far[sel], key_count[sel]
                    )

        # Force-ring injections: evaluating CBB -> home CBB (or EX when
        # the neighbor particles live on another node).
        u = uniq_per_row[act]
        has = u > 0
        if has.any():
            rem_f = has & ~local
            if rem_f.any():
                fk = home_node[rem_f] * nf + src_node[rem_f]
                uf, fsums_f, _, _ = tfl(
                    fk, weights=u[rem_f].astype(np.float64)
                )
                fsums = fsums_f.astype(np.int64)
                force_records = {
                    (int(k // nf), int(k % nf)): int(s)
                    for k, s in zip(uf, fsums)
                }
            dst_slot = np.where(local, self._cell_ring_slot[ncid], self._ex_slot)
            with self.timings.phase("ring"):
                for n_ in fr_models:
                    sel = has & (home_node == n_)
                    if sel.any():
                        fr_models[n_].inject_many(
                            home_slot[sel], dst_slot[sel], u[sel]
                        )
                # Remote arriving forces also ride the destination
                # node's FR from EX to the home CBB: home cells unknown
                # at this granularity — charge the mean path (EX to
                # mid-ring).
                for (src, dst), recs in force_records.items():
                    fr_models[dst].inject(self._ex_slot, S // 2, recs)

        return position_records, force_records, pr_models, fr_models


    def _force_pass(self, collect_traffic: bool = False) -> float:
        return self.compute_forces(collect_traffic).potential_energy

    def _drift(self, delta: np.ndarray) -> None:
        before = self.system.positions.copy()
        super()._drift(delta)
        # MU-ring workload: particles that changed home cell (Sec. 3.2).
        from repro.core.migration import count_migrations

        self.last_migrations = count_migrations(
            self.grid, before, self.system.positions, self._cell_node
        )

    def measure_workload(self) -> StepStats:
        """One force pass with traffic collection, without advancing time.

        This is what the cycle/traffic models consume; the particle
        distribution is statistically stationary, so one pass
        characterizes the steady-state workload.
        """
        return self.compute_forces(collect_traffic=True)
