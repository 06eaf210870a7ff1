"""The int32 per-entry streams: dtype pins and the 2**31 range guard.

Every layout (:class:`~repro.md.cellstate.RowBands` ``a``/``b``/``key``)
and the batch pair stream hold int32 bank rows and keys, 12 bytes an
entry.  ``ffi.from_buffer("int32_t[]", x)`` reinterprets the bytes of
any ``x``, so the compiled wrappers refuse streams of another dtype or
layout before a kernel runs, and every build refuses bank rows or keys
that reach 2**31.  The range guard is exercised with large counts or a
lowered limit, never with large arrays.
"""

import numpy as np
import pytest

import repro.md.cellstate as cellstate_mod
from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import _OFFS14, FasdaMachine, _Pass, _StepArena
from repro.md.backends import SegPieces, available_backends, resolve_backend
from repro.md.batch import BatchedEngine
from repro.md.cells import CellList
from repro.md.cellstate import (
    INDEX_DTYPE,
    INDEX_LIMIT,
    RowBands,
    check_index_range,
    engine_pack_fn,
    key_stride,
)
from repro.md.dataset import build_dataset
from repro.md.pairplan import plan_for_grid
from repro.md.reference import compute_forces_cells
from repro.util.errors import ValidationError

requires_cext = pytest.mark.skipif(
    "cext" not in available_backends(), reason="cext backend unavailable"
)


def _wrong(x, how):
    """``x``'s values as an int64 array, or as a non-contiguous int32
    view of the same length."""
    if how == "int64":
        return x.astype(np.int64)
    strided = np.zeros(2 * len(x), dtype=np.int32)[::2]
    strided[:] = x
    return strided


class TestDtypes:
    def test_layouts_and_batch_streams_are_int32(self):
        assert INDEX_DTYPE == np.int32 and INDEX_LIMIT == 2**31
        lay = RowBands(8)
        lay.reserve(5)
        assert {x.dtype for x in (lay.a, lay.b, lay.key)} == {np.dtype(np.int32)}
        assert {x.dtype for x in (lay.rstart, lay.rcap, lay.fill)} == {
            np.dtype(np.int64)
        }
        system, grid = build_dataset((3, 3, 3), particles_per_cell=4, seed=5)
        engine = BatchedEngine()
        engine.add(system, grid)
        engine.prime()
        assert engine._g_a.dtype == engine._g_b.dtype == np.int32


@requires_cext
class TestCompiledWrappersRefuse:
    """One refusal per wrapper; a control call with the int32 streams
    shows the refusal is the dtype's (or the contiguity's) alone."""

    @pytest.mark.parametrize("how", ["int64", "strided"])
    @pytest.mark.parametrize("which", ["ia", "ib", "srow"])
    def test_lj_flat_seg(self, which, how):
        system, grid = build_dataset((3, 3, 3), particles_per_cell=4, seed=9)
        pos = system.positions
        n = len(pos)
        ia, ib = (np.asarray(x, dtype=np.int32) for x in np.triu_indices(n, 1))
        srow = np.full(len(ia), -1, dtype=np.int32)
        args = dict(
            psx=np.ascontiguousarray(pos[:, 0]),
            psy=np.ascontiguousarray(pos[:, 1]),
            psz=np.ascontiguousarray(pos[:, 2]),
            ia=ia, ib=ib, srow=srow, stab=np.zeros((1, 3)),
            spc=np.zeros(n, dtype=np.int32), lj=system.lj_table,
            cutoff2=float(grid.cell_edge) ** 2, shift_e=0.0,
            fx=np.zeros(n), fy=np.zeros(n), fz=np.zeros(n),
            seg_lo=[0], seg_hi=[len(ia)],
            pieces=SegPieces(np.array([[0, len(ia)]]), np.array([0, n])),
        )
        kern = resolve_backend("cext").lj_flat_seg
        energies = kern(**args)
        assert np.isfinite(energies).all() and args["fx"].any()
        args[which] = _wrong(args[which], how)
        with pytest.raises(ValidationError, match="int32"):
            kern(**args)

    @pytest.mark.parametrize("field", ["a", "b", "key"])
    def test_datapath_pass(self, field):
        system, _ = build_dataset((3, 3, 3), particles_per_cell=8, seed=25)
        m = FasdaMachine(MachineConfig((3, 3, 3)), system=system)
        m.compute_forces(collect_traffic=False)
        state = m.ensure_cell_state()
        lay, tables = state.pairs, state.artifacts["machine"].tables
        n = system.n
        frac = np.tile(np.arange(n, dtype=np.float32)[:, None] * 10, (1, 3))

        def out():
            z = np.zeros((n, 3), dtype=np.float32)
            return _Pass(z, z.copy(), m._plan, _StepArena())

        plan = resolve_backend("cext").plan_passes()
        plan(frac, lay, _OFFS14, tables, out())
        setattr(lay, field, _wrong(getattr(lay, field), "int64"))
        with pytest.raises(ValidationError, match="int32"):
            plan(frac, lay, _OFFS14, tables, out())

    @pytest.mark.parametrize("field", ["a", "b", "key"])
    def test_band_rows(self, field):
        system, grid = build_dataset((3, 3, 3), particles_per_cell=4, seed=3)
        plan = plan_for_grid(grid)
        clist = CellList(grid, system.positions)
        skin = 0.15 * grid.cell_edge
        packed, offs, band = engine_pack_fn(grid, plan, skin)(system.positions)
        lay = RowBands(plan.n_rows, slack=False)
        lay.stride = key_stride(int(clist.counts.max()))
        lay.pad = system.n
        rows = np.arange(plan.n_rows)
        kern = resolve_backend("cext").band_rows
        assert kern(plan, clist, packed, offs, band, rows, lay, True) > 0
        setattr(lay, field, _wrong(getattr(lay, field), "int64"))
        with pytest.raises(ValidationError, match="int32"):
            kern(plan, clist, packed, offs, band, rows, lay, True)

    def test_band_rows_bank(self):
        """The search and the merge index per-bank-row scratch: a
        binning with a row past the layout's bank rows, or fewer packed
        vectors than bank rows, is refused (a cached binning too)."""
        system, grid = build_dataset((3, 3, 3), particles_per_cell=4, seed=3)
        plan = plan_for_grid(grid)
        clist = CellList(grid, system.positions)
        skin = 0.15 * grid.cell_edge
        packed, offs, band = engine_pack_fn(grid, plan, skin)(system.positions)
        lay = RowBands(plan.n_rows)
        lay.stride = key_stride(int(clist.counts.max()))
        lay.pad = system.n
        rows = np.arange(plan.n_rows)
        kern = resolve_backend("cext").band_rows
        assert kern(plan, clist, packed, offs, band, rows, lay, True) > 0
        assert kern(plan, clist, packed, offs, band, rows, lay, False) == 0
        with pytest.raises(ValidationError, match="packed vector"):
            kern(plan, clist, packed[:-1], offs, band, rows, lay, False)
        lay.pad = system.n - 1
        with pytest.raises(ValidationError, match="past the bank"):
            kern(plan, clist, packed, offs, band, rows, lay, False)


class TestRangeGuard:
    def test_limits(self):
        check_index_range(2**31, 2**31)  # row and key 2**31 - 1 fit
        for rows, keys in ((2**31 + 1, 0), (1, 2**31 + 1), (2**40, 2**40)):
            with pytest.raises(ValidationError, match="int32"):
                check_index_range(rows, keys)

    @pytest.mark.parametrize("backend", available_backends())
    def test_every_build_checks_its_rows_and_keys(self, monkeypatch, backend):
        """A build checks its bank rows, the pad row included, and its
        keys ``n_cells * stride``; a node view's bank rows are the
        arena's, global particle ids and any rows past them."""
        seen = []
        real = cellstate_mod.check_index_range

        def record(rows, keys=0, what="layout"):
            seen.append((rows, keys))
            real(rows, keys, what)

        monkeypatch.setattr(cellstate_mod, "check_index_range", record)
        system, grid = build_dataset((3, 3, 3), particles_per_cell=4, seed=4)
        compute_forces_cells(system, grid, force_impl=backend)
        stride = key_stride(int(CellList(grid, system.positions).counts.max()))
        assert seen == [(system.n + 1, grid.n_cells * stride)]

        seen.clear()
        system, _ = build_dataset((3, 3, 4), particles_per_cell=6, seed=13)
        d = DistributedMachine(MachineConfig((3, 3, 4), (1, 1, 2)), system=system)
        d.force_impl = backend
        d.step()
        assert len(seen) >= 2  # the two node views
        assert all(rows >= system.n + 1 for rows, _ in seen)

    @pytest.mark.parametrize("backend", available_backends())
    def test_layout_build_refuses(self, monkeypatch, backend):
        system, grid = build_dataset((3, 3, 3), particles_per_cell=4, seed=4)
        compute_forces_cells(system, grid, force_impl=backend)
        monkeypatch.setattr(cellstate_mod, "INDEX_LIMIT", system.n)
        with pytest.raises(ValidationError, match="layout"):
            compute_forces_cells(system, grid, force_impl=backend)

    def test_batch_stream_refuses(self, monkeypatch):
        # Every segment's own layout fits; the stream's rows (all
        # particles plus two ghosts) do not.
        engine = BatchedEngine()
        n = 0
        for seed in range(6):
            system, grid = build_dataset((3, 3, 3), particles_per_cell=4, seed=seed)
            engine.add(system, grid)
            n += system.n
        monkeypatch.setattr(cellstate_mod, "INDEX_LIMIT", n + 1)
        with pytest.raises(ValidationError, match="batch pair stream"):
            engine.prime()
