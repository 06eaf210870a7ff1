"""fasda-checkpoint-v2: three-layer round trips, corruption, manager."""

import os

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointManager,
    _npz_bytes as npz_bytes,
    load_checkpoint_v2,
    save_checkpoint_v2,
)
from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.faults import (
    FaultInjector,
    FaultPlan,
    NodeFaultEvent,
    NodeFaultPlan,
    TransportConfig,
)
from repro.md import build_dataset
from repro.md.cells import CellGrid
from repro.md.engine import ReferenceEngine
from repro.util.errors import CheckpointError, ValidationError

CFG = MachineConfig((4, 4, 4), (2, 2, 2))


def _flip_middle_byte(path):
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(path, "wb").write(bytes(raw))


def _tamper(path, mutate):
    """Rewrite a v2 container with ``mutate(meta, arrays)`` applied.

    Re-serializes the inner payload through the writer's own archive
    function and recomputes the CRC, so the corruption detector stays
    green and only the loader's semantic checks see the change.
    """
    import io
    import json
    import zlib

    with np.load(path, allow_pickle=False) as outer:
        kind = str(outer["kind"])
        payload = outer["payload"].tobytes()
    with np.load(io.BytesIO(payload), allow_pickle=False) as inner:
        meta = json.loads(str(inner["meta"]))
        arrays = {k: inner[k] for k in inner.files if k != "meta"}
    mutate(meta, arrays)

    new_payload = npz_bytes(meta=np.array(json.dumps(meta)), **arrays)
    container = npz_bytes(
        format=np.array("fasda-checkpoint-v2"),
        kind=np.array(kind),
        crc32=np.array(zlib.crc32(new_payload), dtype=np.int64),
        payload=np.frombuffer(new_payload, dtype=np.uint8),
    )
    open(path, "wb").write(container)


def _paper_machine():
    return FasdaMachine(CFG)


def _charged_machine():
    system, _ = build_dataset(
        (3, 3, 3), particles_per_cell=8, species=("Na", "Cl"),
        charged=True, min_distance=2.4, seed=7,
    )
    cfg = MachineConfig((3, 3, 3), force_model="lj+coulomb", dt_fs=0.5)
    return FasdaMachine(cfg, system=system)


class TestMachineRoundTrip:
    #: (label, factory, steps run before the save): the paper box, a
    #: charged lj+coulomb box, and a machine saved before its first pass.
    CASES = [
        ("paper", _paper_machine, 4),
        ("charged", _charged_machine, 3),
        ("unprimed", _paper_machine, 0),
    ]

    def test_trajectory_continues_bitwise(self, tmp_path):
        for label, make, steps in self.CASES:
            m = make()
            if steps:
                m.run(steps)
            path = save_checkpoint_v2(m, str(tmp_path / f"{label}.npz"))
            m2, step = load_checkpoint_v2(path)
            assert step == steps, label
            assert m2._primed == bool(steps), label
            assert m2.config == m.config, label
            np.testing.assert_array_equal(m2.system.charges, m.system.charges)
            m.run(3)
            m2.run(3)
            np.testing.assert_array_equal(
                m.system.positions, m2.system.positions, err_msg=label
            )
            np.testing.assert_array_equal(m._forces32, m2._forces32)
            assert [(r.step, r.kinetic, r.potential) for r in m.history] == [
                (r.step, r.kinetic, r.potential) for r in m2.history
            ], label

    def test_knobs_and_cellstate_meta_restored(self, tmp_path):
        m = FasdaMachine(CFG)
        m.force_impl = "numpy"
        m.reuse_skin = 0.5
        m.run(4)
        builds_before = m._cell_state.builds
        path = save_checkpoint_v2(m, str(tmp_path / "m.npz"))
        m2, _ = load_checkpoint_v2(path)
        assert m2.force_impl == "numpy"
        assert m2.reuse_skin == 0.5
        assert m2._cell_state.builds == builds_before
        assert m2._cell_state.skin == 0.5


class TestEngineRoundTrip:
    def test_trajectory_continues_bitwise(self, tmp_path):
        system, _ = build_dataset((4, 4, 4), cutoff=8.0, seed=11)
        grid = CellGrid((4, 4, 4), 8.0)
        e = ReferenceEngine(system=system.copy(), grid=grid)
        e.run(4)
        path = save_checkpoint_v2(e, str(tmp_path / "e.npz"))
        e2, step = load_checkpoint_v2(path)
        assert step == 4
        e.run(3, start_step=step)
        e2.run(3, start_step=step)
        np.testing.assert_array_equal(e.system.positions, e2.system.positions)
        np.testing.assert_array_equal(
            e.system.velocities, e2.system.velocities
        )
        assert e2.state_builds >= 1


class TestDistributedRoundTrip:
    def _make(self):
        return DistributedMachine(
            CFG,
            injector=FaultInjector(FaultPlan(seed=5, drop_rate=0.02)),
            transport=TransportConfig(retry_budget=6),
            node_faults=NodeFaultPlan(
                seed=7, events=(NodeFaultEvent(node=1, iteration=2),)
            ),
            shadow_interval=2,
        )

    def test_trajectory_continues_bitwise_with_active_faults(self, tmp_path):
        """The hardest case: every fault subsystem mid-flight at save time."""
        d = self._make()
        d.run(4)
        path = save_checkpoint_v2(d, str(tmp_path / "d.npz"))
        d2, step = load_checkpoint_v2(path)
        assert step == 4
        d.run(3)
        d2.run(3)
        np.testing.assert_array_equal(d.system.positions, d2.system.positions)
        # Restored == uninterrupted run of the same plans.
        ref = self._make()
        ref.run(7)
        np.testing.assert_array_equal(
            ref.system.positions, d2.system.positions
        )

    def test_fault_state_restored(self, tmp_path):
        d = self._make()
        d.run(4)
        path = save_checkpoint_v2(d, str(tmp_path / "d.npz"))
        d2, _ = load_checkpoint_v2(path)
        assert d2._iteration == d._iteration
        assert d2.transport_stats == d.transport_stats
        assert d2.recovery_log == d.recovery_log
        assert d2.degradation_log == d.degradation_log
        assert d2._down_until == d._down_until
        assert d2._shadow_iteration == d._shadow_iteration
        assert d2.shadow_traffic_records == d.shadow_traffic_records
        assert set(d2._stale_halo) == set(d._stale_halo)
        for key, (it, data) in d._stale_halo.items():
            it2, data2 = d2._stale_halo[key]
            assert it2 == it
            np.testing.assert_array_equal(data2.particle_ids, data.particle_ids)
            np.testing.assert_array_equal(data2.fractions, data.fractions)
        assert d2.node_injector.plan == d.node_injector.plan
        assert d2.injector.plan == d.injector.plan
        assert d2.transport == d.transport


class TestCorruptionDetection:
    def test_bit_flip_rejected(self, tmp_path):
        m = FasdaMachine(CFG)
        m.run(2)
        path = save_checkpoint_v2(m, str(tmp_path / "m.npz"))
        _flip_middle_byte(path)
        with pytest.raises(CheckpointError):
            load_checkpoint_v2(path)

    def test_truncation_rejected(self, tmp_path):
        m = FasdaMachine(CFG)
        m.run(2)
        path = save_checkpoint_v2(m, str(tmp_path / "m.npz"))
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 3])
        with pytest.raises(CheckpointError, match="corrupt or unreadable"):
            load_checkpoint_v2(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = str(tmp_path / "v1like.npz")
        np.savez(path, format=np.array("fasda-checkpoint-v1"), x=np.zeros(2))
        with pytest.raises(CheckpointError, match="lacks"):
            load_checkpoint_v2(path)

    def test_unsupported_object_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot checkpoint"):
            save_checkpoint_v2(object(), str(tmp_path / "x.npz"))


class TestCheckpointManager:
    def test_interval_saves_and_pruning(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ck"), interval=2, keep=3)
        m = FasdaMachine(CFG)
        for step in range(1, 9):
            m.run(1)
            mgr.maybe_save(m, step)
        assert [s for s, _ in mgr.checkpoints()] == [4, 6, 8]

    def test_quarantine_and_fallback(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ck"), interval=2, keep=3)
        m = FasdaMachine(CFG)
        for step in range(1, 9):
            m.run(1)
            mgr.maybe_save(m, step)
        newest = mgr.checkpoints()[-1][1]
        _flip_middle_byte(newest)
        obj, step, path = mgr.load_latest()
        assert step == 6
        assert path.endswith("0000000006.npz")
        assert len(mgr.quarantined) == 1
        assert mgr.quarantined[0].endswith(".corrupt")
        assert os.path.exists(mgr.quarantined[0])
        # The corrupt file no longer shadows good state.
        assert [s for s, _ in mgr.checkpoints()] == [4, 6]

    def test_all_corrupt_raises(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ck"), interval=1, keep=2)
        m = FasdaMachine(CFG)
        m.run(1)
        mgr.save(m, 1)
        mgr.save(m, 2)
        for _, p in mgr.checkpoints():
            _flip_middle_byte(p)
        with pytest.raises(CheckpointError, match="no loadable checkpoint"):
            mgr.load_latest()

    def test_empty_directory_raises(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ck"))
        with pytest.raises(CheckpointError, match="none written yet"):
            mgr.load_latest()

    def test_no_tmp_leftovers(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path / "ck"), interval=1, keep=2)
        m = FasdaMachine(CFG)
        for step in range(1, 4):
            m.run(1)
            mgr.save(m, step)
        assert [
            f for f in os.listdir(tmp_path / "ck") if ".tmp." in f
        ] == []

    def test_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            CheckpointManager(str(tmp_path), interval=0)
        with pytest.raises(ValidationError):
            CheckpointManager(str(tmp_path), keep=0)


class TestSystemKind:
    def test_bare_system_round_trip(self, tmp_path):
        system, _ = build_dataset((3, 3, 3), particles_per_cell=3, seed=9)
        path = str(tmp_path / "sys.npz")
        save_checkpoint_v2(system, path)
        back, step = load_checkpoint_v2(path)
        assert step == 0
        assert np.array_equal(back.positions, system.positions)
        assert np.array_equal(back.velocities, system.velocities)
        assert np.array_equal(back.forces, system.forces)
        assert np.array_equal(back.species, system.species)


class TestPoisonedStateRejected:
    """Finite-array validation on load: a poisoned checkpoint (however
    it got poisoned) must never be resumed silently."""

    def _poison_saved_system(self, tmp_path, field):
        system, _ = build_dataset((3, 3, 3), particles_per_cell=3, seed=10)
        getattr(system, field)[1, 2] = np.nan
        path = str(tmp_path / "bad.npz")
        # Bypass any in-memory screening: write the arrays as they are.
        save_checkpoint_v2(system, path)
        return path

    @pytest.mark.parametrize("field", ["positions", "velocities", "forces"])
    def test_system_kind_rejects_nonfinite(self, tmp_path, field):
        path = self._poison_saved_system(tmp_path, field)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint_v2(path)

    def test_engine_kind_rejects_nonfinite(self, tmp_path):
        system, grid = build_dataset((3, 3, 3), particles_per_cell=3, seed=11)
        eng = ReferenceEngine(system, grid)
        eng.run(2, record_every=0)
        eng.system.velocities[0, 0] = np.inf
        path = str(tmp_path / "eng.npz")
        save_checkpoint_v2(eng, path)
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint_v2(path)

    def test_batch_kind_rejects_nonfinite_naming_segment(self, tmp_path):
        from repro.md.batch import BatchedEngine

        be = BatchedEngine()
        handles = []
        for i in range(3):
            s, g = build_dataset((3, 3, 3), particles_per_cell=2,
                                 seed=12 + i)
            handles.append(be.add(s, g))
        be.step(2)
        seg = be._by_handle[handles[1]]
        be._vel[seg.base, 0] = np.nan
        path = str(tmp_path / "batch.npz")
        save_checkpoint_v2(be, path)
        with pytest.raises(CheckpointError, match="handle=1"):
            load_checkpoint_v2(path)


class TestPartitionValidation:
    """Satellite: reject payloads whose node count disagrees with the map."""

    def _elastic_machine(self, n_nodes):
        from repro.core.elasticity import fpga_grid_for

        dims = (12, 3, 3)
        cfg = MachineConfig(dims, fpga_grid_for(dims, n_nodes))
        system, _ = build_dataset(dims, particles_per_cell=2, seed=5)
        m = DistributedMachine(cfg, system=system)
        m.step()
        return m

    def test_cell_node_mismatch_rejected(self, tmp_path):
        # Written at 6 nodes, then the config is doctored to claim a
        # 4-node grid: the stored partition map no longer matches the
        # config-derived one and must be rejected by name, up front.
        m = self._elastic_machine(6)
        path = save_checkpoint_v2(m, str(tmp_path / "m.npz"))

        def mutate(meta, arrays):
            meta["config"]["fpga_grid"] = [4, 1, 1]

        _tamper(path, mutate)
        with pytest.raises(CheckpointError, match="cell_node"):
            load_checkpoint_v2(path)

    def test_down_until_out_of_range_rejected(self, tmp_path):
        m = self._elastic_machine(4)
        path = save_checkpoint_v2(m, str(tmp_path / "m.npz"))

        def mutate(meta, arrays):
            meta["down_until"] = {"9": 5}

        _tamper(path, mutate)
        with pytest.raises(CheckpointError, match="down_until"):
            load_checkpoint_v2(path)

    def test_shadow_records_out_of_range_rejected(self, tmp_path):
        m = self._elastic_machine(4)
        path = save_checkpoint_v2(m, str(tmp_path / "m.npz"))

        def mutate(meta, arrays):
            meta["shadow_records"] = {"-1": 7}

        _tamper(path, mutate)
        with pytest.raises(CheckpointError, match="shadow_records"):
            load_checkpoint_v2(path)

    def test_non_round_tripping_config_rejected(self, tmp_path):
        path = save_checkpoint_v2(FasdaMachine(CFG), str(tmp_path / "m.npz"))

        def mutate(meta, arrays):
            meta["config"]["no_such_field"] = 1

        _tamper(path, mutate)
        with pytest.raises(CheckpointError, match="does not reconstruct"):
            load_checkpoint_v2(path)

    def test_untampered_elastic_round_trip(self, tmp_path):
        # Control: the validator passes a healthy elastic checkpoint,
        # including one written after a committed rescale.
        m = self._elastic_machine(4)
        assert m.rescale(6)
        m.step()
        path = save_checkpoint_v2(m, str(tmp_path / "m.npz"))
        m2, _ = load_checkpoint_v2(path)
        assert m2.config.fpga_grid == (6, 1, 1)
        assert len(m2.rescale_log) == 1
        assert m2.rescale_log[0].flows == m.rescale_log[0].flows


class TestRetiredKnobMeta:
    """Checkpoints written while the machine layers still had
    path-selection knobs carry them in their meta; they load, the keys
    are ignored, and the run continues bitwise."""

    RETIRED = dict(
        pair_path="chunked",
        traffic_impl="loop",
        exchange_impl="loop",
        reuse_state=False,
    )

    @pytest.mark.parametrize("kind", ["machine", "distributed"])
    def test_old_meta_loads_and_continues_bitwise(self, tmp_path, kind):
        system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=3)

        def make():
            cls = FasdaMachine if kind == "machine" else DistributedMachine
            return cls(CFG, system=system.copy())

        m = make()
        m.run(3)
        path = save_checkpoint_v2(m, str(tmp_path / "old.npz"))

        def mutate(meta, arrays):
            meta.update(self.RETIRED)

        _tamper(path, mutate)
        m2, step = load_checkpoint_v2(path)
        assert step == 3
        for key in self.RETIRED:
            assert not hasattr(m2, key)
        m.run(4)
        m2.run(4)
        np.testing.assert_array_equal(m.system.positions, m2.system.positions)
        np.testing.assert_array_equal(m.forces, m2.forces)
        assert [(r.step, r.kinetic, r.potential) for r in m.history] == [
            (r.step, r.kinetic, r.potential) for r in m2.history
        ]


class TestRetiredBackendMeta:
    """Payloads saved on the retired ``soa`` backend load as ``numpy``.

    ``soa``'s machine-layer kernels were the numpy kernels the machines
    now call, and its batched kernel is numpy's segmented one, so those
    runs continue bitwise.  Its engine ran one flat pass over the whole
    stream, whose accumulation order differs from numpy's, which cuts a
    dense box per half-shell offset, so an engine continues within the
    documented round-off bounds.  Engine payloads also carry the
    retired ``reuse_state`` key.
    """

    @staticmethod
    def _as_soa(path, **extra):
        def mutate(meta, arrays):
            meta["force_impl"] = "soa"
            meta.update(extra)

        _tamper(path, mutate)

    @pytest.mark.parametrize("kind", ["machine", "distributed"])
    def test_machine_payloads_continue_bitwise(self, tmp_path, kind):
        system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=8)
        cls = FasdaMachine if kind == "machine" else DistributedMachine
        m = cls(CFG, system=system.copy())
        m.force_impl = "numpy"
        m.run(3)
        path = save_checkpoint_v2(m, str(tmp_path / "soa.npz"))
        self._as_soa(path)
        m2, _ = load_checkpoint_v2(path)
        assert m2.force_impl == "numpy"
        m.run(4)
        m2.run(4)
        np.testing.assert_array_equal(m.system.positions, m2.system.positions)
        np.testing.assert_array_equal(m.forces, m2.forces)
        assert [(r.kinetic, r.potential) for r in m.history] == [
            (r.kinetic, r.potential) for r in m2.history
        ]

    def test_batch_payload_continues_bitwise(self, tmp_path):
        from repro.md.batch import BatchedEngine

        be = BatchedEngine(force_impl="numpy")
        handles = [
            be.add(*build_dataset((3, 3, 3), particles_per_cell=4, seed=s))
            for s in (81, 82)
        ]
        be.step(6)
        path = save_checkpoint_v2(be, str(tmp_path / "soa.npz"))
        self._as_soa(path)
        be2, _ = load_checkpoint_v2(path)
        assert be2.backend_name == "numpy"
        be.step(8)
        be2.step(8)
        for h in handles:
            a, b = be.extract(h), be2.extract(h)
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.velocities, b.velocities)
            np.testing.assert_array_equal(a.forces, b.forces)

    def test_engine_payload_continues_within_bounds(
        self, tmp_path, monkeypatch
    ):
        import repro.md.batch as batch_mod
        from repro.md.backends import ENERGY_RTOL, FORCE_ATOL

        system, grid = build_dataset((4, 4, 4), particles_per_cell=16, seed=9)
        # The saving run steps on the flat one-piece pass ``soa`` ran.
        with monkeypatch.context() as patch:
            patch.setattr(batch_mod, "CUT_OCCUPANCY", np.inf)
            e = ReferenceEngine(system=system.copy(), grid=grid,
                                force_impl="numpy")
            e.run(3)
            path = save_checkpoint_v2(e, str(tmp_path / "soa.npz"))
            e.run(4, start_step=3)
        self._as_soa(path, reuse_state=True)
        e2, step = load_checkpoint_v2(path)
        assert e2.force_impl == "numpy"
        e2.run(4, start_step=step)
        assert np.abs(e.system.forces - e2.system.forces).max() < FORCE_ATOL
        assert np.abs(e.system.positions - e2.system.positions).max() < 1e-10
        for ra, rb in zip(e.history, e2.history):
            assert ra.step == rb.step
            assert abs(ra.potential - rb.potential) <= ENERGY_RTOL * abs(
                ra.potential
            )

    def test_engine_payload_without_reuse_restores_and_steps(self, tmp_path):
        system, grid = build_dataset((3, 3, 3), particles_per_cell=8, seed=10)
        e = ReferenceEngine(system=system.copy(), grid=grid)
        e.run(2)
        path = save_checkpoint_v2(e, str(tmp_path / "fresh.npz"))

        def mutate(meta, arrays):
            # A payload saved by an engine that rebuilt every step.
            meta["reuse_state"] = False
            meta["cellstate"] = None

        _tamper(path, mutate)
        e2, step = load_checkpoint_v2(path)
        e2.run(3, start_step=step)
        e.run(3, start_step=step)
        np.testing.assert_array_equal(e.system.positions, e2.system.positions)
        assert e2.state_builds >= 1


def _three_segment_batch():
    from repro.md.batch import BatchedEngine

    be = BatchedEngine(force_impl="numpy")
    handles = [
        be.add(*build_dataset((3, 3, 3), particles_per_cell=ppc, seed=s))
        for s, ppc in ((91, 2), (92, 3), (93, 2))
    ]
    be.step(3)
    return be, handles


def _assert_segments_equal(be_a, be_b, handles):
    for h in handles:
        a, b = be_a.extract(h), be_b.extract(h)
        for field in ("positions", "velocities", "forces", "species", "box"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


class TestBatchPackedLayout:
    """A batch payload is one array per field over all segments plus a
    ``seg_n`` row-count array, with stored (not deflated) members."""

    def test_members_stored_and_packed(self, tmp_path):
        import io
        import zipfile

        be, _ = _three_segment_batch()
        path = save_checkpoint_v2(be, str(tmp_path / "b.npz"))
        with zipfile.ZipFile(path) as outer:
            assert {i.compress_type for i in outer.infolist()} == {
                zipfile.ZIP_STORED
            }
            with np.load(path) as npz:
                payload = npz["payload"].tobytes()
        with zipfile.ZipFile(io.BytesIO(payload)) as inner:
            assert {i.compress_type for i in inner.infolist()} == {
                zipfile.ZIP_STORED
            }
            names = sorted(n[:-4] for n in inner.namelist())
        assert names == sorted([
            "meta", "species_names", "positions", "velocities", "forces",
            "species", "box", "seg_n",
        ])
        with np.load(io.BytesIO(payload)) as npz:
            assert npz["seg_n"].tolist() == [54, 81, 54]
            assert npz["positions"].shape == (189, 3)
            assert npz["box"].shape == (3, 3)

    def test_snapshot_saves_what_the_engine_saves(self, tmp_path):
        be, handles = _three_segment_batch()
        snap = be.snapshot()
        for h in handles:
            a, b = be.extract(h), snap.system(h)
            for field in ("positions", "velocities", "forces", "species",
                          "box", "charges"):
                np.testing.assert_array_equal(
                    getattr(a, field), getattr(b, field)
                )
        from_snap, step = load_checkpoint_v2(
            save_checkpoint_v2(snap, str(tmp_path / "snap.npz"))
        )
        from_engine, _ = load_checkpoint_v2(
            save_checkpoint_v2(be, str(tmp_path / "engine.npz"))
        )
        assert step == be.step_count
        _assert_segments_equal(from_snap, from_engine, handles)
        for restored in (from_snap, from_engine):
            restored.step(5)
        be.step(5)
        _assert_segments_equal(be, from_snap, handles)
        _assert_segments_equal(be, from_engine, handles)

    def test_snapshot_is_a_copy(self):
        be, handles = _three_segment_batch()
        snap = be.snapshot()
        before = snap.positions.copy()
        be.step(2)
        np.testing.assert_array_equal(snap.positions, before)

    def test_snapshot_after_remove_and_add(self):
        """The boundary shapes of the job service: a segment swapped out
        and a fresh one admitted, neither packed yet."""
        be, handles = _three_segment_batch()
        be.remove(handles[1])
        new = be.add(*build_dataset((3, 3, 3), particles_per_cell=2, seed=94))
        expected = {h: be.extract(h) for h in (handles[0], handles[2])}
        snap = be.snapshot()
        assert snap.handles == [handles[0], handles[2], new]
        for h, a in expected.items():
            np.testing.assert_array_equal(a.positions, snap.system(h).positions)
            np.testing.assert_array_equal(a.velocities, snap.system(h).velocities)

    @pytest.mark.parametrize(
        "seg_n, match",
        [
            ([54, 135], "the payload lists 3 segment"),
            ([54, -27, 162], "negative row count"),
            ([54, 81, 53], "sums to 188 rows"),
        ],
        ids=["wrong-length", "negative", "wrong-sum"],
    )
    def test_bad_seg_n_rejected(self, tmp_path, seg_n, match):
        be, _ = _three_segment_batch()
        path = save_checkpoint_v2(be, str(tmp_path / "b.npz"))

        def mutate(meta, arrays):
            arrays["seg_n"] = np.array(seg_n, dtype=np.int64)

        _tamper(path, mutate)
        with pytest.raises(CheckpointError, match="seg_n") as info:
            load_checkpoint_v2(path)
        assert match in str(info.value)
        assert path in str(info.value)

    def test_row_count_mismatch_rejected(self, tmp_path):
        be, _ = _three_segment_batch()
        path = save_checkpoint_v2(be, str(tmp_path / "b.npz"))

        def mutate(meta, arrays):
            arrays["forces"] = arrays["forces"][:-1]

        _tamper(path, mutate)
        with pytest.raises(CheckpointError, match="'forces' holds 188 rows"):
            load_checkpoint_v2(path)

    def test_field_that_does_not_restore_is_a_checkpoint_error(self, tmp_path):
        be, _ = _three_segment_batch()
        path = save_checkpoint_v2(be, str(tmp_path / "b.npz"))

        def mutate(meta, arrays):
            meta["segments"][1]["handle"] = meta["segments"][0]["handle"]

        _tamper(path, mutate)
        with pytest.raises(CheckpointError, match="does not restore") as info:
            load_checkpoint_v2(path)
        assert path in str(info.value)
