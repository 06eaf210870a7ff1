"""Many-system batched stepping: one fused force pass serving K systems.

The paper's headline workload is *small* systems run for *long*
timescales, replicated across many independent jobs (the drug-discovery
ensemble of ``examples/drug_screening_throughput.py``).  PR 6 made one
system fast, but at a few thousand particles the per-step Python and
numpy dispatch overhead of a solo :class:`~repro.md.engine.ReferenceEngine`
still rivals the kernel itself — and that overhead repeats K times for
K replicas.  :class:`BatchedEngine` packs K independent systems into
one concatenated SoA state so each step costs **one** fused force-kernel
call, one segmented scatter, and one vectorized integrator pass for the
whole batch, amortizing the fixed costs K ways (mirroring the
replica-throughput framing of the on-FPGA MD ensembles in PAPERS.md).

Packing layout (see DESIGN.md §11)
----------------------------------
* **Particle (row) space** — per-system arrays are concatenated in
  segment order: rows ``bases[k]:bases[k+1]`` belong to system ``k``.
  Positions, velocities, forces, masses, species, per-row box edges and
  per-row cell-grid strides all live in this space, so velocity-Verlet,
  wrapping and the rebuild criterion run as single elementwise /
  ``reduceat`` passes over the whole batch.  The force kernel reads
  ``n_rows + 2`` SoA coordinate columns: the rows themselves plus two
  trailing *ghost* rows pinned ``4 * cell_edge`` apart, so any pair
  referencing them fails the exact ``r2 < cutoff2`` test.
* **Pair-stream space** — each segment's flat int32 ``(a, b, srow)``
  stream, 12 bytes a pair (:class:`_FlatArtifacts`: the bank rows of
  its band layout, which are its particle rows, re-offset by its row
  base and shift-table block) occupies a region with ~25% capacity
  slack; entries past the live length are *pad pairs* pointing at the
  ghost rows.  A skin rebuild that still fits splices in place; growth
  beyond capacity triggers one stream re-pack.  ``seg_lo/seg_hi``
  delimit the live ranges for the backend's ``lj_flat_seg`` kernel, and
  ``cuts`` each segment's pieces for the numpy one (its half-shell
  offsets at :data:`CUT_OCCUPANCY` particles a cell or more, else the
  whole segment).

A solo :class:`~repro.md.engine.ReferenceEngine` is a one-segment
batch: this is the one float64 stepping path.

Bitwise contract
----------------
Each packed system's trajectory (positions, velocities, forces) and
potential is **bitwise identical** to running it alone in a
``ReferenceEngine(force_impl=solo_oracle_impl(impl))``, on every
backend, including across :meth:`BatchedEngine.add` /
:meth:`BatchedEngine.remove` swaps of *other* segments:

* every integrator / wrap / thermostat operation is elementwise (or a
  same-shape contiguous ``np.sum``) over the same operand values;
* the kernel's result for a segment depends only on that segment's
  pairs and pieces (its rows never appear in another segment's pairs,
  pad pairs are rejected by the cutoff or skipped by ``seg_lo/seg_hi``,
  and the cuts read only the segment's own shape);
* rebuild decisions apply the :class:`CellState` rebuild test (skin/2
  or any cell change, ``CellState._outcome``) to each segment's own
  rows with exact reductions (``max``, ``any``), so each segment
  rebuilds on exactly the steps its solo run would.

The contract holds for any occupancy: every build lists its band,
sparse or skewed boxes included, so every segment batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.faults.health import (
    GuardConfig,
    PoisonRecord,
    REASON_DISPLACEMENT,
    REASON_DRIFT,
    REASON_ENERGY,
    REASON_FORCE,
    check_system_finite,
)
from repro.md.cells import CellGrid
from repro.md.cellstate import (
    INDEX_DTYPE,
    CellState,
    RowBands,
    check_index_range,
    engine_pack_fn,
    engine_skin,
)
from repro.md.integrator import VelocityVerlet
from repro.md.pairplan import ROWS_PER_CELL, CellPairPlan, plan_for_grid
from repro.md.backends import ForceBackend, SegPieces, resolve_backend
from repro.md.reference import _cutoff_shift
from repro.md.system import ParticleSystem
from repro.util.errors import ValidationError
from repro.util.units import KCAL_MOL_TO_INTERNAL

#: Capacity slack of a segment's pair-stream region: a rebuild whose
#: band list grew less than this factor splices in place instead of
#: re-packing the whole stream.
PAIR_SLACK = 1.25

#: Mean cell occupancy from which a segment's stream is cut into its
#: half-shell offsets for the numpy kernel (see
#: :class:`~repro.md.backends.SegPieces`); a sparser segment is one
#: piece.  A cut segment's forces are the per-offset fold, whose slot
#: bookkeeping costs ~14 bins per particle a pass: worth it where each
#: offset holds tens of pairs per particle and its scratch arrays stay
#: in cache, not in a sparse segment of a few pairs per particle.
CUT_OCCUPANCY = 8

#: Floor on a segment's pair-stream capacity (tiny systems still get a
#: few spare rows so the first skin fluctuation does not force a
#: re-pack).
_MIN_CAP = 16


def solo_oracle_impl(force_impl: Optional[str] = None) -> str:
    """The solo ``force_impl`` whose trajectory a batched run matches bitwise.

    The resolved backend itself, on every backend: a solo
    :class:`~repro.md.engine.ReferenceEngine` is a one-segment batch, and
    the segmented kernel evaluates a segment alike whatever is packed
    beside it.
    """
    return resolve_backend(force_impl).name


def _shift_rows(rb: RowBands, plan: CellPairPlan) -> np.ndarray:
    """Per-entry image-shift row of a band layout: region ``k * n_cells
    + c`` reads plan row ``c * ROWS_PER_CELL + k``, or -1 where that row
    has no shift (the bulk)."""
    C = plan.n_cells
    row = (
        np.arange(C)[None, :] * ROWS_PER_CELL
        + np.arange(ROWS_PER_CELL)[:, None]
    ).reshape(-1)
    return np.repeat(
        np.where(plan.has_shift[row], row, -1).astype(np.int32), rb.rcap
    )


class _FlatArtifacts:
    """One segment's flat pair stream, per build of its band layout.

    The layout's int32 bank-row ``(a, b)`` entries (views, not copies;
    bank rows are the segment's particle rows), a per-pair int32
    shift-row index (``-1`` for the unshifted bulk) into the plan's
    ``(n_rows, 3)`` shift table, and the stream offsets where the
    half-shell offsets' blocks of regions start (``ROWS_PER_CELL + 1``,
    the last the length).
    """

    __slots__ = ("a", "b", "srow", "offsets")

    def __init__(self, rb: RowBands, plan: CellPairPlan):
        self.a = rb.a[: rb.size]
        self.b = rb.b[: rb.size]
        self.srow = _shift_rows(rb, plan)
        self.offsets = rb.rstart[:: plan.n_cells]


class _Segment:
    """One packed system: its grid machinery plus packing offsets."""

    __slots__ = (
        "handle", "grid", "plan", "state", "thermostat", "aux", "n",
        "pending", "primed", "art", "cut", "live", "cap", "lo", "stab_base",
        "base", "last_potential", "steps_base", "start_step", "start_pass",
        "e_ref",
    )

    def __init__(self, handle, grid, plan, state, thermostat, aux, pending):
        self.handle = handle
        self.grid = grid
        self.plan = plan
        self.state = state
        self.thermostat = thermostat
        self.aux = aux
        self.n = pending.n
        self.pending: Optional[ParticleSystem] = pending
        self.primed = False
        self.art: Optional[_FlatArtifacts] = None
        # Cut into half-shell offsets for the numpy kernel, or one
        # piece: read from the shape alone, so a stale band list is cut
        # where a fresh one would be.
        self.cut = self.n >= CUT_OCCUPANCY * plan.n_cells
        self.live = 0       # live pairs in the stream region
        self.cap = 0        # stream region capacity (-1: its own layout)
        self.lo = 0         # stream region offset
        self.stab_base = 0  # shift-table row offset of this segment's plan
        self.base = 0       # particle-row base
        self.last_potential = 0.0
        self.steps_base = 0     # steps carried over a checkpoint restore
        self.start_step = 0     # engine step_count at priming
        self.start_pass = 0     # engine force passes at priming
        self.e_ref = None       # energy-drift watchdog reference (kcal/mol)


@dataclass(eq=False)
class BatchSnapshot:
    """Copies of a batch's packed rows and segment table at one boundary.

    Rows are in segment order: segment ``k`` (handle ``handles[k]``)
    owns rows ``bases[k]:bases[k + 1]`` of ``positions``, ``velocities``,
    ``forces`` and ``species``, inside box ``boxes[k]``.  ``settings``
    and ``segments`` are the engine's and each segment's restart
    metadata (timestep, backend, thermostat, aux payload, cell-state
    counters, steps done), captured at the same instant.  A snapshot is
    a ``batch`` checkpoint kind of its own: saving one writes the file
    saving the engine at that boundary would have written.
    """

    positions: np.ndarray
    velocities: np.ndarray
    forces: np.ndarray
    species: np.ndarray
    lj_table: object
    handles: List[int]
    bases: np.ndarray
    boxes: np.ndarray
    settings: dict
    segments: List[dict]

    def system(self, handle: int) -> ParticleSystem:
        """One segment's state as a fresh :class:`ParticleSystem`.

        Bitwise equal to :meth:`BatchedEngine.extract` at the boundary
        the snapshot was taken.
        """
        k = self.handles.index(handle)
        lo, hi = self.bases[k], self.bases[k + 1]
        return ParticleSystem(
            positions=self.positions[lo:hi].copy(),
            velocities=self.velocities[lo:hi].copy(),
            species=self.species[lo:hi].copy(),
            lj_table=self.lj_table,
            box=self.boxes[k].copy(),
            forces=self.forces[lo:hi].copy(),
        )


class BatchedEngine:
    """K independent LJ systems stepped by one fused force pass.

    Systems may have different particle counts and grid dims, but must
    share the force-field family: one LJ table, one ``cell_edge``
    (= cutoff), one timestep and one ``shift`` setting — the fused
    kernel runs with a single ``cutoff2``/``shift_e``.  Any occupancy
    batches, sparse boxes and single particles included: every segment
    lists its band like its solo run does.

    Parameters
    ----------
    dt_fs / shift:
        As :class:`~repro.md.engine.ReferenceEngine`.
    force_impl:
        Force backend; every registered backend (including ``numpy``)
        provides the segmented kernel.  See :func:`solo_oracle_impl`
        for the solo backend each trajectory matches bitwise.
    reuse_skin:
        Skin margin for the per-segment persistent
        :class:`~repro.md.cellstate.CellState`; defaults to
        :func:`~repro.md.cellstate.engine_skin` like the solo engine.
    guard:
        Optional :class:`~repro.faults.health.GuardConfig` enabling the
        per-segment numerical health guards (DESIGN.md §12).  Guards
        only *read* arrays the step already produces, so a guarded
        healthy run is bitwise identical to an unguarded one; a tripped
        segment is quarantined through the :meth:`remove` swap-out at
        the end of its step and recorded in :attr:`poison_log`, and the
        survivors continue bitwise as if it had never been admitted.
    """

    def __init__(
        self,
        dt_fs: float = 2.0,
        shift: bool = False,
        force_impl: Optional[str] = None,
        reuse_skin: Optional[float] = None,
        guard: Optional[GuardConfig] = None,
    ):
        self.dt_fs = float(dt_fs)
        self.shift = bool(shift)
        self.force_impl = force_impl
        self.reuse_skin = reuse_skin
        self.guard = guard
        #: Quarantine history: one :class:`PoisonRecord` per guard trip,
        #: in detection order.  Schedulers drain the tail after each
        #: ``step`` call to learn which handles were swapped out.
        self.poison_log: List[PoisonRecord] = []
        self._step_tripped: Dict[int, tuple] = {}
        backend = resolve_backend(force_impl)
        if backend.lj_flat_seg is None:
            raise ValidationError(
                f"backend {backend.name!r} has no segmented lj_flat_seg kernel"
            )
        self._backend: ForceBackend = backend
        self.backend_name = backend.name
        self._integrator = VelocityVerlet(self.dt_fs)
        self.step_count = 0
        self._passes = 0  # full force passes: one per step or evaluate()
        self._segments: List[_Segment] = []
        self._by_handle: Dict[int, _Segment] = {}
        self._next_handle = 0
        self._pack_dirty = False
        self._lj = None
        self._cell_edge: Optional[float] = None
        self._cutoff2 = 0.0
        self._shift_e = 0.0
        self._skin = 0.0
        self._n = 0
        self._energies = np.zeros(0, dtype=np.float64)

    # -- admission and removal ---------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def n_particles(self) -> int:
        """Total particles across all segments (including pending adds)."""
        return sum(s.n for s in self._segments)

    def handles(self) -> List[int]:
        return [s.handle for s in self._segments]

    def add(
        self,
        system: ParticleSystem,
        grid: CellGrid,
        thermostat=None,
        aux: Optional[dict] = None,
        handle: Optional[int] = None,
    ) -> int:
        """Admit a system; returns its stable integer handle.

        The system state is *copied* at admission (the engine owns its
        packed arrays; the caller's object is never mutated).  The
        segment is packed and primed lazily on the next :meth:`step` —
        adding mid-run never perturbs the other segments' trajectories.

        With a :attr:`guard` whose ``check_input`` is set, non-finite
        positions or velocities raise
        :class:`~repro.util.errors.JobPoisonedError` here — a corrupt
        upload is rejected before it ever touches the shared arrays.
        """
        if system.n == 0:
            raise ValidationError("cannot batch an empty system")
        if self.guard is not None and self.guard.check_input:
            check_system_finite(
                system.positions, system.velocities,
                handle=self._next_handle if handle is None else handle,
            )
        if not np.allclose(grid.box, system.box):
            raise ValidationError("grid box must match system box")
        edge = float(grid.cell_edge)
        if self._cell_edge is None:
            self._cell_edge = edge
            self._cutoff2 = edge * edge
            self._lj = system.lj_table
            self._shift_e = _cutoff_shift(self._lj, edge, self.shift)
            skin = self.reuse_skin
            if skin is None:
                skin = engine_skin(edge)
            self._skin = float(skin)
        else:
            if edge != self._cell_edge:
                raise ValidationError(
                    f"batch cutoff is {self._cell_edge}; got grid edge {edge}"
                )
            lj = system.lj_table
            if lj is not self._lj and not (
                lj.n_species == self._lj.n_species
                and np.array_equal(lj.c6, self._lj.c6)
                and np.array_equal(lj.c12, self._lj.c12)
                and np.array_equal(lj.masses, self._lj.masses)
            ):
                raise ValidationError(
                    "all batched systems must share one LJ table"
                )
        if handle is None:
            handle = self._next_handle
        elif handle in self._by_handle:
            raise ValidationError(f"segment handle {handle} already in use")
        self._next_handle = max(self._next_handle, handle) + 1
        plan = plan_for_grid(grid)
        state = CellState(
            grid, plan, self._skin, engine_pack_fn(grid, plan, self._skin)
        )
        seg = _Segment(
            handle, grid, plan, state, thermostat,
            dict(aux) if aux else {}, system.copy(),
        )
        self._segments.append(seg)
        self._by_handle[handle] = seg
        self._pack_dirty = True
        return seg.handle

    def extract(self, handle: int) -> ParticleSystem:
        """Copy of a segment's current dynamic state (engine unchanged)."""
        seg = self._seg(handle)
        if seg.pending is not None:
            return seg.pending.copy()
        lo, hi = seg.base, seg.base + seg.n
        return ParticleSystem(
            positions=self._pos[lo:hi].copy(),
            velocities=self._vel[lo:hi].copy(),
            species=self._spc[lo:hi].copy(),
            lj_table=self._lj,
            box=seg.grid.box,
            forces=self._frc[lo:hi].copy(),
        )

    def snapshot(self) -> BatchSnapshot:
        """Copies of every segment's rows and the segment table, at once.

        Packs and primes pending segments first (the repack the next
        :meth:`step` would otherwise do), then copies each packed array
        whole: one copy per field instead of one :meth:`extract` per
        segment.  The engine is unchanged apart from that repack.
        """
        from repro.md.thermostat import thermostat_meta

        self._ensure_ready()
        self._sync_segment_stats()
        segs = self._segments
        if self._n:
            pos, vel = self._pos.copy(), self._vel.copy()
            frc, spc = self._frc.copy(), self._spc.copy()
        else:
            pos, vel, frc = np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3))
            spc = np.zeros(0, dtype=np.int32)
        bases = np.zeros(len(segs) + 1, dtype=np.int64)
        np.cumsum([s.n for s in segs], out=bases[1:])
        settings = {
            "dt_fs": self.dt_fs,
            "shift": self.shift,
            "force_impl": self.force_impl,
            "reuse_skin": None if self.reuse_skin is None else float(self.reuse_skin),
            "cell_edge": self._cell_edge,
            "step_count": int(self.step_count),
        }
        segments = [
            {
                "handle": int(s.handle),
                "grid_dims": list(s.grid.dims),
                "steps": int(self.segment_steps(s.handle)),
                "last_potential": float(s.last_potential),
                "thermostat": thermostat_meta(s.thermostat),
                "aux": dict(s.aux),
                "cellstate": s.state.meta(),
            }
            for s in segs
        ]
        return BatchSnapshot(
            pos, vel, frc, spc, self._lj,
            handles=[s.handle for s in segs],
            bases=bases,
            boxes=np.array([s.grid.box for s in segs]).reshape(-1, 3),
            settings=settings,
            segments=segments,
        )

    def remove(self, handle: int) -> ParticleSystem:
        """Swap a segment out; returns its final state.

        The remaining segments' packed values are copied verbatim and
        their pair streams re-offset, so their trajectories continue
        bitwise as if nothing happened.
        """
        seg = self._seg(handle)
        self._sync_segment_stats()
        out = self.extract(handle)
        self._segments.remove(seg)
        del self._by_handle[handle]
        self._pack_dirty = True
        return out

    def _seg(self, handle: int) -> _Segment:
        try:
            return self._by_handle[handle]
        except KeyError:
            raise ValidationError(f"no batched segment with handle {handle}")

    # -- bookkeeping accessors ---------------------------------------------

    def potentials(self) -> Dict[int, float]:
        """Last per-segment potential energies (kcal/mol)."""
        self._sync_segment_stats()
        return {s.handle: s.last_potential for s in self._segments}

    def segment_steps(self, handle: int) -> int:
        """Steps this segment has advanced (across checkpoint restores)."""
        seg = self._seg(handle)
        if not seg.primed:
            return seg.steps_base
        return seg.steps_base + (self.step_count - seg.start_step)

    def state_builds(self, handle: int) -> int:
        return self._seg(handle).state.builds

    def _sync_segment_stats(self) -> None:
        """Mirror the packed energy vector and reuse counters onto segments.

        Called at inspection/repack boundaries, not per step, so the hot
        path stays loop-free; ``reuse_steps`` is derived from the pass
        arithmetic (every primed segment gets one force pass at priming
        and one per full pass since: each step and each
        :meth:`evaluate`; each pass is either a build or a reuse,
        matching the ``CellState.ensure`` accounting).
        """
        # The packed energy vector indexes the segment list it was
        # produced for; after a remove (and before the repack) the two
        # are misaligned, and every segment's ``last_potential`` was
        # already synced by ``remove`` itself — skip the mirror then.
        aligned = len(self._energies) == len(self._segments)
        for k, seg in enumerate(self._segments):
            if not seg.primed:
                continue
            if aligned:
                seg.last_potential = float(self._energies[k])
            passes = (self._passes - seg.start_pass) + 1
            st = seg.state
            st.reuse_steps = st.builds_restore_base + passes - st.builds

    # -- packing -----------------------------------------------------------

    def _ensure_ready(self) -> None:
        """Pack pending segments and prime the unprimed ones."""
        if not self._pack_dirty:
            return
        self._sync_segment_stats()
        self._pack_particles()
        for seg in self._segments:
            if seg.art is None:
                self._build_segment(seg)
        self._pack_stream()
        self._pack_dirty = False
        fresh = [seg for seg in self._segments if not seg.primed]
        if fresh:
            self._prime_segments(fresh)

    def _pack_particles(self) -> None:
        """Concatenate per-segment particle arrays into fresh row space."""
        segs = self._segments
        pos, vel, frc, spc, box_r, edges_snap = [], [], [], [], [], []
        build_p, cids = [], []
        for seg in segs:
            if seg.pending is not None:
                sysv = seg.pending
                p, v, f, s = (
                    sysv.positions, sysv.velocities, sysv.forces, sysv.species,
                )
            else:
                lo, hi = seg.base, seg.base + seg.n
                p = self._pos[lo:hi]
                v = self._vel[lo:hi]
                f = self._frc[lo:hi]
                s = self._spc[lo:hi]
            pos.append(p)
            vel.append(v)
            frc.append(f)
            spc.append(s)
            box_r.append(np.broadcast_to(seg.grid.box, (seg.n, 3)))
            if seg.art is not None:
                build_p.append(seg.state.build_positions)
                cids.append(seg.state.cids)
            else:
                build_p.append(np.zeros((seg.n, 3)))
                cids.append(np.zeros(seg.n, dtype=np.int64))
        n = sum(s.n for s in segs)
        self._n = n
        if n == 0:
            self._bases = np.zeros(1, dtype=np.int64)
            self._energies = np.zeros(0, dtype=np.float64)
            return
        self._pos = np.concatenate(pos) if segs else np.zeros((0, 3))
        self._vel = np.concatenate(vel)
        self._frc = np.concatenate(frc)
        self._new_frc = np.empty_like(self._frc)
        # Species per row plus the two ghost rows' (see below).
        self._spc_g = np.zeros(n + 2, dtype=np.int32)
        self._spc_g[:n] = np.concatenate(spc)
        self._spc = self._spc_g[:n]
        self._box_rows = np.ascontiguousarray(np.concatenate(box_r))
        self._build_pos = np.concatenate(build_p)
        self._cids = np.concatenate(cids)
        self._masses = self._lj.masses[self._spc]
        from repro.util.units import KCAL_MOL_TO_INTERNAL

        # Constant per pack: acceleration_from_force's mass column and
        # scratch buffers for the allocation-free integrator variants.
        self._minv_col = np.ascontiguousarray(
            (KCAL_MOL_TO_INTERNAL / self._masses)[:, None]
        )
        self._accel_buf = np.empty_like(self._frc)
        self._sb1 = np.empty_like(self._frc)
        self._sb2 = np.empty_like(self._frc)
        self._mb1 = np.empty_like(self._frc)
        self._mb2 = np.empty_like(self._frc)
        self._thermo_segs = [s for s in segs if s.thermostat is not None]
        bases = np.zeros(len(segs) + 1, dtype=np.int64)
        dims_m1 = np.empty((n, 3), dtype=np.int64)
        sx = np.empty(n, dtype=np.int64)
        sy = np.empty(n, dtype=np.int64)
        off = 0
        for k, seg in enumerate(segs):
            seg.base = off
            bases[k + 1] = off + seg.n
            dx, dy, dz = seg.grid.dims
            dims_m1[off:off + seg.n] = (dx - 1, dy - 1, dz - 1)
            sx[off:off + seg.n] = dy * dz
            sy[off:off + seg.n] = dz
            seg.pending = None
            off += seg.n
        self._bases = bases
        self._dims_m1 = dims_m1
        self._sx = sx
        self._sy = sy
        self._skin2 = np.full(len(segs), (0.5 * self._skin) ** 2)
        self._energies = np.array(
            [s.last_potential for s in segs], dtype=np.float64
        )
        if self.guard is not None:
            md = self.guard.resolved_max_disp(self._cell_edge)
            self._guard_max_disp = md
            self._guard_disp2 = md * md
            self._guard_rowbuf = np.empty(n)
            # Watchdog references / exemptions (thermostatted segments
            # exchange energy by design, so only NVE segments are
            # watched; references persist across repacks on the
            # segment objects).
            self._guard_eref = np.array(
                [np.nan if s.e_ref is None else s.e_ref for s in segs]
            )
            self._guard_nve = np.array(
                [s.thermostat is None for s in segs], dtype=bool
            )
        # Coordinate columns of the rows plus two far-apart ghost rows.
        self._psx = np.empty(n + 2)
        self._psy = np.empty(n + 2)
        self._psz = np.empty(n + 2)
        self._psx[n:] = (0.0, 4.0 * self._cell_edge)
        self._psy[n:] = 0.0
        self._psz[n:] = 0.0
        self._fx = np.empty(n + 2)
        self._fy = np.empty(n + 2)
        self._fz = np.empty(n + 2)

    def _build_segment(self, seg: _Segment) -> None:
        """(Re)build one segment's band lists and flat artifacts."""
        lo, hi = seg.base, seg.base + seg.n
        if seg.pending is not None:
            positions = seg.pending.positions
        else:
            positions = self._pos[lo:hi]
        st = seg.state
        if not hasattr(st, "builds_restore_base"):
            st.builds_restore_base = st.builds + st.reuse_steps
        st.build(positions, self._backend)
        st.last_rebuilt = True
        seg.art = _FlatArtifacts(st.pairs, seg.plan)
        seg.live = len(seg.art.a)
        self._build_pos[lo:hi] = st.build_positions
        self._cids[lo:hi] = st.cids

    def _pack_stream(self) -> None:
        """Lay out every segment's pair-stream region with capacity slack."""
        segs = self._segments
        # One shift-table block per distinct plan (plans are cached per
        # geometry, so same-shaped segments share one block).
        blocks: List[np.ndarray] = []
        block_of: Dict[int, int] = {}
        rows = 0
        for seg in segs:
            pid = id(seg.plan)
            if pid not in block_of:
                block_of[pid] = rows
                rows += seg.plan.n_rows
                blocks.append(seg.plan.shift)
            seg.stab_base = block_of[pid]
        self._g_stab = (
            np.ascontiguousarray(np.concatenate(blocks))
            if blocks else np.zeros((0, 3))
        )
        # Rows 0..n-1 are particles, n and n + 1 the two ghosts.
        check_index_range(self._n + 2, what="batch pair stream")
        self._seg_lo = np.zeros(len(segs), dtype=np.int64)
        self._seg_hi = np.zeros(len(segs), dtype=np.int64)
        self._cuts = np.zeros((len(segs), ROWS_PER_CELL + 1), dtype=np.int64)
        if len(segs) == 1:
            # A lone segment (the solo engine's) is its own stream: its
            # layout's entries are its rows and its plan's shift rows,
            # so the kernel reads them in place, and every rebuild
            # re-packs (cap -1) to read the new layout.
            seg = segs[0]
            seg.lo, seg.cap = 0, -1
            art = seg.art
            self._g_a, self._g_b, self._g_srow = art.a, art.b, art.srow
            self._seg_hi[0] = seg.live
            self._write_cuts(0, seg)
            return
        total = 0
        for seg in segs:
            seg.lo = total
            seg.cap = max(int(seg.live * PAIR_SLACK) + 1, seg.live, _MIN_CAP)
            total += seg.cap
        self._g_a = np.full(total, self._n, dtype=INDEX_DTYPE)
        self._g_b = np.full(total, self._n + 1, dtype=INDEX_DTYPE)
        self._g_srow = np.full(total, -1, dtype=np.int32)
        for k, seg in enumerate(segs):
            self._seg_lo[k] = seg.lo
            self._write_segment_stream(k, seg)

    def _write_segment_stream(self, k: int, seg: _Segment) -> None:
        """Splice one segment's live pairs (and pad tail) into the stream."""
        art = seg.art
        lo, live, cap = seg.lo, seg.live, seg.cap
        np.add(art.a, seg.base, out=self._g_a[lo:lo + live])
        np.add(art.b, seg.base, out=self._g_b[lo:lo + live])
        srow = self._g_srow[lo:lo + live]
        srow[:] = art.srow
        if seg.stab_base:
            np.add(srow, seg.stab_base, where=srow >= 0, out=srow)
        self._g_a[lo + live:lo + cap] = self._n
        self._g_b[lo + live:lo + cap] = self._n + 1
        self._g_srow[lo + live:lo + cap] = -1
        self._seg_hi[k] = lo + live
        self._write_cuts(k, seg)

    def _write_cuts(self, k: int, seg: _Segment) -> None:
        """Segment ``k``'s pieces for the numpy kernel (``SegPieces``)."""
        cuts = self._cuts[k]
        if seg.cut:
            np.add(seg.art.offsets, seg.lo, out=cuts)
        else:
            cuts[0] = seg.lo
            cuts[1:] = seg.lo + seg.live

    # -- the hot path ------------------------------------------------------

    def _rebuild_mask(self) -> np.ndarray:
        """Vectorized restatement of every segment's rebuild test.

        Elementwise displacement / cell-assignment arithmetic over the
        whole batch, segmented by exact ``reduceat`` reductions — the
        comparisons are the solo predicate's, so each segment rebuilds
        on exactly the steps its solo run would.
        """
        delta, t = self._mb1, self._mb2
        np.subtract(self._pos, self._build_pos, out=delta)
        np.divide(delta, self._box_rows, out=t)
        np.rint(t, out=t)
        np.multiply(self._box_rows, t, out=t)
        np.subtract(delta, t, out=delta)
        np.multiply(delta, delta, out=delta)
        disp2 = np.sum(delta, axis=1)
        seg_max = np.maximum.reduceat(disp2, self._bases[:-1])
        trip = seg_max > self._skin2
        np.divide(self._pos, self._cell_edge, out=t)
        np.floor(t, out=t)
        # A quarantine-pending segment may hold NaN positions for the
        # remainder of its final step; the cast verdict for such rows is
        # irrelevant (the segment is excluded from rebuilds), so silence
        # the invalid-cast warning.  Finite rows cast identically.
        with np.errstate(invalid="ignore"):
            coords = t.astype(np.int64)
        np.minimum(coords, self._dims_m1, out=coords)
        cids = self._sx * coords[:, 0] + self._sy * coords[:, 1] + coords[:, 2]
        moved = (cids != self._cids).astype(np.int64)
        mism = np.add.reduceat(moved, self._bases[:-1]) > 0
        return trip | mism

    def _force_pass(self) -> np.ndarray:
        """One fused force evaluation; returns per-segment energies."""
        rebuild = self._rebuild_mask()
        if self._step_tripped:
            # A tripped segment keeps its stale stream for its final
            # step (its coordinates may no longer be safe to re-bin);
            # any pair it still lists only references its own rows, and
            # NaN/ghost distances fail the exact r2 < cutoff2 test, so
            # the survivors' accumulations are untouched either way.
            rebuild[list(self._step_tripped)] = False
        idxs = np.flatnonzero(rebuild)
        if idxs.size:
            overflow = False
            for k in idxs:
                seg = self._segments[k]
                self._build_segment(seg)
                if seg.live > seg.cap:
                    overflow = True
                else:
                    self._write_segment_stream(k, seg)
            if overflow:
                self._pack_stream()
        n = self._n
        self._psx[:n] = self._pos[:, 0]
        self._psy[:n] = self._pos[:, 1]
        self._psz[:n] = self._pos[:, 2]
        self._fx.fill(0.0)
        self._fy.fill(0.0)
        self._fz.fill(0.0)
        energies = self._backend.lj_flat_seg(
            self._psx, self._psy, self._psz,
            self._g_a, self._g_b, self._g_srow, self._g_stab,
            self._spc_g, self._lj, self._cutoff2, self._shift_e,
            self._fx, self._fy, self._fz, self._seg_lo, self._seg_hi,
            SegPieces(self._cuts, self._bases),
        )
        self._passes += 1
        self._new_frc[:, 0] = self._fx[:n]
        self._new_frc[:, 1] = self._fy[:n]
        self._new_frc[:, 2] = self._fz[:n]
        return energies

    def _prime_segments(self, fresh: List[_Segment]) -> None:
        """Evaluate initial forces for newly packed segments only.

        A restricted kernel call over just those segments' stream
        ranges, scattered into just their force rows — the established
        segments' state is untouched, so a mid-campaign swap-in never
        disturbs running trajectories.
        """
        n = self._n
        self._psx[:n] = self._pos[:, 0]
        self._psy[:n] = self._pos[:, 1]
        self._psz[:n] = self._pos[:, 2]
        self._fx.fill(0.0)
        self._fy.fill(0.0)
        self._fz.fill(0.0)
        index_of = {id(s): k for k, s in enumerate(self._segments)}
        ks = np.array(sorted(index_of[id(s)] for s in fresh), dtype=np.int64)
        # The pure-numpy kernel reads the particle rows of the segments
        # it is given as one range, so a restricted call covers a run of
        # adjacent segments.  Fresh segments are appended, hence
        # normally a contiguous suffix — fall back to one call per
        # segment if not.
        if int(ks[-1] - ks[0]) + 1 == len(ks):
            groups = [ks]
        else:
            groups = [ks[i:i + 1] for i in range(len(ks))]
        pairs = []
        for grp in groups:
            energies = self._backend.lj_flat_seg(
                self._psx, self._psy, self._psz,
                self._g_a, self._g_b, self._g_srow, self._g_stab,
                self._spc_g, self._lj, self._cutoff2, self._shift_e,
                self._fx, self._fy, self._fz,
                self._seg_lo[grp], self._seg_hi[grp],
                SegPieces(self._cuts[grp], self._bases[grp[0]:grp[-1] + 2]),
            )
            pairs.extend(zip(energies, grp))
        for e_k, k in pairs:
            seg = self._segments[k]
            lo, hi = seg.base, seg.base + seg.n
            self._frc[lo:hi, 0] = self._fx[lo:hi]
            self._frc[lo:hi, 1] = self._fy[lo:hi]
            self._frc[lo:hi, 2] = self._fz[lo:hi]
            self._energies[k] = e_k
            seg.last_potential = float(e_k)
            seg.primed = True
            seg.start_step = self.step_count
            seg.start_pass = self._passes

    # -- health guards (DESIGN.md §12) -------------------------------------

    def _trip(self, k: int, reason: str, value: float, threshold: float) -> None:
        """Mark segment index ``k`` poisoned for end-of-step quarantine."""
        if k not in self._step_tripped:
            self._step_tripped[k] = (reason, float(value), float(threshold))

    def _row_norm2(self, sq: np.ndarray) -> np.ndarray:
        """Row sums of a pre-squared ``(N, 3)`` array into the guard buffer.

        Two strided column adds instead of ``np.sum(axis=1, out=...)``,
        which is an order of magnitude slower for this shape and would
        alone blow the guards' <2% overhead budget.
        """
        buf = self._guard_rowbuf
        np.add(sq[:, 0], sq[:, 1], out=buf)
        np.add(buf, sq[:, 2], out=buf)
        return buf

    def _guard_displacement(self) -> None:
        """Max-displacement-per-step tripwire (also catches NaN/Inf).

        Reads the per-row displacement the drift just wrote into
        ``_sb1`` (see :meth:`VelocityVerlet.drift_buffered`), squares it
        into scratch, and reduces segment-wise — the exact
        ``reduceat``-over-``bases`` shape of :meth:`_rebuild_mask`.  A
        NaN or Inf displacement (non-finite velocity or force upstream)
        fails the ``<=`` comparison just like an oversized one, so this
        single check covers position finiteness inductively: admission
        screened the initial state, and every later position is
        ``previous + displacement``.
        """
        np.multiply(self._sb1, self._sb1, out=self._mb1)
        disp2 = self._row_norm2(self._mb1)
        seg_max = np.maximum.reduceat(disp2, self._bases[:-1])
        ok = seg_max <= self._guard_disp2
        if ok.all():
            return
        for k in np.flatnonzero(~ok):
            self._trip(
                int(k), REASON_DISPLACEMENT,
                float(np.sqrt(seg_max[k])), self._guard_max_disp,
            )

    def _guard_forces(self, energies: np.ndarray) -> None:
        """Segment-wise finite checks on fresh forces and energies.

        Healthy path: one O(N) screen (three force-column sums plus an
        ``isfinite`` over the K energies).  Only a failing screen pays
        the per-segment attribution pass: one ``reduceat`` over the
        rows' ``bases``.
        """
        n = self._n
        screen = (
            float(self._fx[:n].sum())
            + float(self._fy[:n].sum())
            + float(self._fz[:n].sum())
        )
        bad_e = ~np.isfinite(energies)
        if np.isfinite(screen) and not bad_e.any():
            return
        finite_rows = (
            np.isfinite(self._fx[:n])
            & np.isfinite(self._fy[:n])
            & np.isfinite(self._fz[:n])
        )
        bad_rows = np.add.reduceat(
            (~finite_rows).astype(np.int64), self._bases[:-1]
        )
        for k in np.flatnonzero(bad_rows > 0):
            self._trip(int(k), REASON_FORCE, float(bad_rows[k]), 0.0)
        for k in np.flatnonzero(bad_e):
            self._trip(int(k), REASON_ENERGY, float(energies[k]), 0.0)
        # A screen that failed by pure float64 overflow of the *sum* of
        # huge-but-finite forces attributes to no segment; the resulting
        # displacement trips the drift guard next step instead.

    def _guard_energy_drift(self, energies: np.ndarray) -> None:
        """Optional watchdog: total-energy drift of NVE segments.

        Runs post-kick so kinetic and potential describe the same time
        point; thermostatted segments are exempt (they exchange energy
        by design).  References are captured on each segment's first
        watched step and persist across repacks.
        """
        tol = self.guard.energy_drift_tol
        np.multiply(self._vel, self._vel, out=self._mb1)
        v2 = self._row_norm2(self._mb1)
        np.multiply(v2, self._masses, out=v2)
        ke = 0.5 * np.add.reduceat(v2, self._bases[:-1]) / KCAL_MOL_TO_INTERNAL
        etot = ke + energies
        fresh = np.isnan(self._guard_eref) & self._guard_nve
        if fresh.any():
            self._guard_eref[fresh] = etot[fresh]
            for k in np.flatnonzero(fresh):
                self._segments[k].e_ref = float(etot[k])
        scale = np.maximum(np.abs(self._guard_eref), 1.0)
        drifted = self._guard_nve & (
            np.abs(etot - self._guard_eref) > tol * scale
        )
        for k in np.flatnonzero(drifted):
            self._trip(
                int(k), REASON_DRIFT,
                float(abs(etot[k] - self._guard_eref[k])),
                float(tol * scale[k]),
            )

    def _quarantine_tripped(self) -> None:
        """Swap every tripped segment out through :meth:`remove`.

        The survivors' packed values are copied verbatim at the next
        repack, so their trajectories continue bitwise as if the
        poisoned job had never been admitted — the same guarantee any
        other mid-run :meth:`remove` gives.
        """
        tripped = self._step_tripped
        self._step_tripped = {}
        # Resolve indices to segments before any removal: remove()
        # shrinks the segment list, so positional indices recorded at
        # trip time go stale the moment the first segment leaves.
        resolved = [(self._segments[k], tripped[k]) for k in sorted(tripped)]
        for seg, (reason, value, threshold) in resolved:
            record = PoisonRecord(
                handle=seg.handle,
                step=self.step_count,
                reason=reason,
                value=value,
                threshold=threshold,
                segment_steps=self.segment_steps(seg.handle),
            )
            record.system = self.remove(seg.handle)
            self.poison_log.append(record)

    def step(self, n_steps: int = 1) -> None:
        """Advance every segment ``n_steps`` timesteps.

        Per step: one vectorized drift, one fused force pass (with any
        needed per-segment rebuilds), one vectorized kick, and the
        per-segment thermostats.  No per-system Python loop touches the
        numerical arrays; the only per-segment step work is the
        constant-time reuse-counter bookkeeping.

        With :attr:`guard` set, the health checks run inside the step —
        read-only, so the healthy path stays bitwise identical — and
        any tripped segment finishes the step on its own rows (pairs of
        a poisoned segment never reference foreign rows) before being
        quarantined into :attr:`poison_log` at the step boundary.
        """
        if n_steps < 0:
            raise ValidationError("n_steps must be >= 0")
        self._ensure_ready()
        if self._n == 0:
            return
        integ = self._integrator
        guard = self.guard
        for _ in range(n_steps):
            if self._pack_dirty:
                # Re-pack after a quarantine at the previous boundary.
                self._ensure_ready()
                if self._n == 0:
                    return
            accel = integ.drift_buffered(
                self._pos, self._vel, self._frc, self._minv_col,
                self._box_rows, self._accel_buf, self._sb1, self._sb2,
            )
            if guard is not None:
                self._guard_displacement()
            self._energies = self._force_pass()
            if guard is not None:
                self._guard_forces(self._energies)
            integ.kick_buffered(
                self._vel, self._frc, self._new_frc, accel,
                self._minv_col, self._sb1,
            )
            if guard is not None and guard.energy_drift_tol is not None:
                self._guard_energy_drift(self._energies)
            for seg in self._thermo_segs:
                lo, hi = seg.base, seg.base + seg.n
                seg.thermostat.apply_arrays(
                    self._vel[lo:hi], self._masses[lo:hi]
                )
            self.step_count += 1
            if self._step_tripped:
                self._quarantine_tripped()

    def run(self, n_steps: int, record_every: int = 0) -> None:
        """Alias of :meth:`step` (harness compatibility)."""
        self.step(n_steps)

    def evaluate(self) -> np.ndarray:
        """Per-segment potentials of the current positions, one fresh pass.

        Packs and primes pending segments first.  The pass rebuilds the
        band lists that need it, like a step's, but leaves the stored
        forces, :meth:`potentials` and the step count as they were: it
        serves a caller that moved particles between steps and wants
        their energy without advancing.
        """
        self._ensure_ready()
        if self._n == 0:
            return np.zeros(0)
        return self._force_pass()

    def prime(self) -> None:
        """Pack and prime without stepping (exposed for benchmarks)."""
        self._ensure_ready()
