"""Tests for the selectable compiled force backends (PR 6 tentpole).

The contract under test, per layer:

* registry — numpy always available; unknown names raise, and the
  retired ``soa`` raises naming its successor; an unavailable
  *optional* backend (no cffi, no compiler) resolves to numpy instead
  of failing; ``REPRO_FORCE_IMPL`` selects the process default, and an
  unknown or retired name keeps the default with a warning.
* engine — every available backend reproduces the per-cell float64
  loop oracle and the O(N^2) brute-force golden model within the
  documented ``FORCE_ATOL``/``ENERGY_RTOL`` bounds, on both the
  stateless and the cell-state paths, at small/medium/paper-density
  sizes and on sparse and skewed boxes; positions outside the box are
  refused on every backend.
* machine — admissions run through the exact float64 recheck on every
  backend, so ``StepStats`` and the float32 force banks are **bitwise
  identical** across backends (band lists on a dense box and on a
  skewed one); same for :class:`DistributedMachine` per node.
* persistence — checkpoint v2 round-trips the ``force_impl`` knob for
  engine, machine and distributed payloads, and pre-knob checkpoints
  (no ``force_impl`` key) still restore.
* rate timers — the perf gate's timers record which backend produced
  each number.
"""

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint_v2, save_checkpoint_v2
from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.md.backends import (
    ENERGY_RTOL,
    ENV_VAR,
    FORCE_ATOL,
    ForceBackend,
    _REGISTRY,
    _apply_env_default,
    available_backends,
    backend_names,
    backend_status,
    compiled_backends,
    get_force_backend,
    register_backend,
    resolve_backend,
    set_force_backend,
)
from repro.md.cells import CellGrid
from repro.md.dataset import PAPER_CUTOFF_A, build_dataset
from repro.md.engine import ReferenceEngine
from repro.md.system import ParticleSystem
from repro.md.reference import compute_forces_bruteforce, compute_forces_cells
from repro.util.errors import ValidationError
from tests.oracles import compute_forces_cells_loop, rebuild_state_every_step

BACKENDS = available_backends()


@pytest.fixture(autouse=True)
def _restore_default_backend():
    """Every test leaves the process default where it found it."""
    before = get_force_backend()
    yield
    set_force_backend(before)


# ---------------------------------------------------------------------------
# Registry, probing, fallback
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in BACKENDS
        assert resolve_backend("numpy").name == "numpy"

    def test_soa_retired_into_numpy(self):
        for select in (resolve_backend, set_force_backend):
            with pytest.raises(ValidationError, match="retired into 'numpy'"):
                select("soa")
        assert get_force_backend() != "soa"

    def test_numpy_carries_every_numpy_kernel(self):
        # One implementation per contract: the consumers call these
        # without a fallback, so the default backend must carry them.
        b = resolve_backend("numpy")
        for kernel in ("datapath_pass", "lj_flat_seg", "traffic_flat",
                       "ring_charge"):
            assert getattr(b, kernel) is not None, kernel
        # The machine pass is one kernel: no staged admission, pipeline
        # or scatter entry points beside it; the float64 pass is one
        # segmented kernel, with no solo entry beside it.
        for gone in ("admit_flat", "rom_eval", "scatter_cols", "screen_dr",
                     "lj_flat"):
            assert not hasattr(b, gone), gone

    def test_all_backends_registered(self):
        # Registered regardless of availability — status says why.
        assert backend_names() == ["cext", "numpy"]
        status = backend_status()
        for name in backend_names():
            assert status[name] == "available" or status[name].startswith(
                "unavailable: "
            )

    def test_unknown_backend_raises(self):
        with pytest.raises(ValidationError, match="unknown force backend"):
            resolve_backend("fortran77")
        with pytest.raises(ValidationError):
            set_force_backend("fortran77")

    def test_unavailable_optional_falls_back_to_numpy(self):
        fake = register_backend(
            ForceBackend("fake-jit", available=False, why="not installed")
        )
        try:
            assert resolve_backend("fake-jit").name == "numpy"
            assert set_force_backend("fake-jit") == "numpy"
            assert get_force_backend() == "numpy"
        finally:
            del _REGISTRY[fake.name]

    def test_cext_resolution_matches_probe(self):
        resolved = resolve_backend("cext")
        if "cext" in BACKENDS:
            assert resolved.name == "cext"
        else:
            assert resolved.name == "numpy"  # gated, never an error

    @pytest.mark.skipif("cext" not in BACKENDS, reason="cext unavailable")
    def test_cext_compiles_out_of_process(self, tmp_path):
        """A cold cache compiles in a child interpreter: the process
        that resolves ``cext`` only loads the built module and never
        imports setuptools or distutils (whose import alone would raise
        its peak RSS)."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys\n"
            "from repro.md.backends import resolve_backend\n"
            "assert resolve_backend('cext').name == 'cext'\n"
            "bad = sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('setuptools', 'distutils'))\n"
            "assert not bad, bad\n"
        )
        env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=src)
        env.pop(ENV_VAR, None)
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        built = os.listdir(tmp_path / "repro-cext-cache")
        assert len(built) == 1 and built[0].startswith("_repro_force_cext_")

    def test_set_get_roundtrip(self):
        expect = resolve_backend("cext").name
        assert set_force_backend("cext") == expect
        assert get_force_backend() == expect
        assert resolve_backend(None).name == expect
        assert resolve_backend().name == expect
        assert set_force_backend("numpy") == "numpy"
        assert resolve_backend().name == "numpy"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        set_force_backend("cext")
        assert _apply_env_default() == "numpy"
        assert get_force_backend() == "numpy"

    def test_env_unknown_name_ignored(self, monkeypatch):
        # The default stays, but a stale setting (numba was retired)
        # must say so instead of silently running another backend.
        set_force_backend("numpy")
        monkeypatch.setenv(ENV_VAR, "numba")
        with pytest.warns(RuntimeWarning) as rec:
            assert _apply_env_default() == "numpy"
        msg = str(rec[0].message)
        assert "'numba'" in msg
        assert "['cext', 'numpy']" in msg

    def test_env_retired_name_ignored(self, monkeypatch):
        set_force_backend("numpy")
        monkeypatch.setenv(ENV_VAR, "soa")
        with pytest.warns(RuntimeWarning, match="retired into 'numpy'"):
            assert _apply_env_default() == "numpy"

    def test_compiled_backends_subset(self):
        assert set(compiled_backends()) <= {"cext"}
        assert set(compiled_backends()) <= set(BACKENDS)


# ---------------------------------------------------------------------------
# Engine layer: bounded equivalence vs the float64 oracles
# ---------------------------------------------------------------------------

#: (dims, particles_per_cell) -> ~54 / ~1k / ~9.6k particles.
SIZES = [((3, 3, 3), 2), ((4, 4, 4), 16), ((5, 5, 6), 64)]


class TestEngineEquivalence:
    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("dims,per_cell", SIZES[:2])
    def test_forces_match_loop_and_bruteforce(self, name, dims, per_cell):
        system, grid = build_dataset(
            dims, particles_per_cell=per_cell, seed=2023
        )
        f_b, e_b = compute_forces_cells(system, grid, force_impl=name)
        f_loop, e_loop = compute_forces_cells_loop(system, grid)
        f_ref, e_ref = compute_forces_bruteforce(system, grid.cell_edge)
        assert np.abs(f_b - f_loop).max() < FORCE_ATOL
        assert np.abs(f_b - f_ref).max() < FORCE_ATOL
        assert abs(e_b - e_loop) <= ENERGY_RTOL * max(abs(e_loop), 1.0)
        assert abs(e_b - e_ref) <= ENERGY_RTOL * max(abs(e_ref), 1.0)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_paper_density_vs_loop_oracle(self, name):
        system, grid = build_dataset(SIZES[2][0],
                                     particles_per_cell=SIZES[2][1], seed=2023)
        f_b, e_b = compute_forces_cells(system, grid, force_impl=name)
        f_loop, e_loop = compute_forces_cells_loop(system, grid)
        assert np.abs(f_b - f_loop).max() < FORCE_ATOL
        assert abs(e_b - e_loop) <= ENERGY_RTOL * max(abs(e_loop), 1.0)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_state_reuse_path(self, name):
        system, grid = build_dataset((4, 4, 4), particles_per_cell=16,
                                     seed=7)
        eng = ReferenceEngine(system=system.copy(), grid=grid,
                              force_impl=name)
        eng.run(5)
        ref = rebuild_state_every_step(
            ReferenceEngine(system=system.copy(), grid=grid,
                            force_impl="numpy")
        )
        ref.run(5)
        # Same admitted pairs, different accumulation order: the
        # trajectories agree to round-off over a short run.
        assert np.abs(
            eng.system.positions - ref.system.positions
        ).max() < 1e-8
        assert abs(
            eng.history[-1].potential - ref.history[-1].potential
        ) <= 1e-7 * abs(ref.history[-1].potential)

    def test_multi_species_bucket_gather(self):
        from repro.md import CellGrid, LJTable, ParticleSystem

        rng = np.random.default_rng(5)
        grid = CellGrid((3, 3, 4), 4.0)
        n = 150
        pos = rng.uniform(0, grid.box, size=(n, 3))
        keep = [0]
        for i in range(1, n):
            dr = pos[keep] - pos[i]
            dr -= grid.box * np.rint(dr / grid.box)
            if np.min(np.sum(dr * dr, axis=1)) > 1.8 ** 2:
                keep.append(i)
        pos = pos[keep]
        lj = LJTable(("Na", "Cl", "Ar"))
        system = ParticleSystem(
            positions=pos,
            velocities=np.zeros_like(pos),
            species=(np.arange(len(pos)) % 3).astype(np.int32),
            lj_table=lj,
            box=grid.box,
        )
        f_loop, e_loop = compute_forces_cells_loop(system, grid)
        for name in BACKENDS:
            f_b, e_b = compute_forces_cells(system, grid, force_impl=name)
            assert np.abs(f_b - f_loop).max() < FORCE_ATOL, name
            assert abs(e_b - e_loop) <= ENERGY_RTOL * max(abs(e_loop), 1.0)

    def test_default_backend_is_used_when_knob_is_none(self):
        system, grid = build_dataset((3, 3, 3), particles_per_cell=4,
                                     seed=3)
        for name in BACKENDS:
            f_b, _ = compute_forces_cells(system, grid, force_impl=name)
            set_force_backend(name)
            f_def, _ = compute_forces_cells(system, grid, force_impl=None)
            np.testing.assert_array_equal(f_def, f_b)

    @pytest.mark.parametrize("box", ["skewed", "half-in-one-cell", "sparse"])
    @pytest.mark.parametrize("name", BACKENDS)
    def test_sparse_and_skewed_boxes_vs_loop_oracle(self, name, box):
        """Boxes the retired padded-viability gate sent to the chunked
        path: the stateless call and the engine's persistent state both
        list bands and match the loop oracle.  The half-in-one-cell box
        piles overlapping particles into one cell (forces ~1e18), where
        one float64 ulp already exceeds ``FORCE_ATOL``: the bound there
        is a few ulps of the largest force."""
        system, grid = _GATED_BOXES[box]()
        f_loop, e_loop = compute_forces_cells_loop(system, grid)
        atol = max(FORCE_ATOL, 4 * float(np.spacing(np.abs(f_loop).max())))
        engine = ReferenceEngine(system.copy(), grid, force_impl=name)
        engine.potential_energy()
        assert engine._segment().state.pairs is not None
        for f_b, e_b in (
            compute_forces_cells(system, grid, force_impl=name),
            (engine.system.forces, engine.potential_energy()),
        ):
            assert np.abs(f_b - f_loop).max() <= atol
            assert abs(e_b - e_loop) <= ENERGY_RTOL * max(abs(e_loop), 1.0)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_positions_outside_the_box_raise(self, name):
        """A finite position outside ``[0, box]`` is refused, not binned
        under the wrong image; the wrapped twin evaluates, and so does a
        position exactly on the upper face (``np.mod`` can return it)."""
        system, grid = build_dataset((5, 5, 5), particles_per_cell=8, seed=3)
        f_wrapped, _ = compute_forces_cells(system, grid, force_impl=name)
        for shift in (system.box, -system.box):
            unwrapped = system.copy()
            unwrapped.positions[0] += shift
            with pytest.raises(ValidationError, match="outside the box"):
                compute_forces_cells(unwrapped, grid, force_impl=name)
            engine = ReferenceEngine(unwrapped, grid, force_impl=name)
            with pytest.raises(ValidationError, match="outside the box"):
                engine.potential_energy()
        on_face = system.copy()
        on_face.positions[0, 0] = system.box[0]
        f_face, _ = compute_forces_cells(on_face, grid, force_impl=name)
        assert np.isfinite(f_face).all()


# ---------------------------------------------------------------------------
# Machine layer: bitwise identity across backends
# ---------------------------------------------------------------------------


def _stats_signature(stats):
    return (
        stats.position_records,
        stats.force_records,
        stats.candidates_per_cell.tobytes(),
        stats.accepted_per_cell.tobytes(),
        stats.neighbor_force_records_per_cell.tobytes(),
        float(stats.potential_energy),
    )


def _skewed_system(seed=11):
    """The 4x4x4 paper box with one full cell and every other cell
    thinned to ~1/8: too skewed for the padded band search."""
    system, grid = build_dataset((4, 4, 4), seed=seed)
    first = np.all(system.positions < grid.cell_edge, axis=1)
    keep = first | (np.arange(system.n) % 8 == 0)
    return ParticleSystem(
        positions=system.positions[keep],
        velocities=system.velocities[keep],
        species=system.species[keep],
        lj_table=system.lj_table,
        box=system.box,
    )


def _half_in_one_cell_box():
    """The 4x4x4 box at 8 per cell with half its particles piled into
    cell 0 (uniform, so some overlap)."""
    system, grid = build_dataset((4, 4, 4), particles_per_cell=8, seed=5)
    half = system.n // 2
    system.positions[:half] = np.random.default_rng(1).uniform(
        0.0, grid.cell_edge, size=(half, 3)
    )
    return system, grid


def _sparse_box():
    """``tests/test_machine.py::TestSparseSystems``' box: a 3x3x3 grid
    with its few particles clustered in one octant."""
    from tests.test_machine import TestSparseSystems

    return TestSparseSystems()._sparse_system()


_GATED_BOXES = {
    "skewed": lambda: (_skewed_system(), CellGrid((4, 4, 4), PAPER_CUTOFF_A)),
    "half-in-one-cell": _half_in_one_cell_box,
    "sparse": _sparse_box,
}


class TestMachineBitwise:
    @pytest.mark.parametrize("pair_path", ["auto", "chunked"])
    @pytest.mark.parametrize("reuse", [False, True])
    def test_stats_and_forces_identical_across_backends(
        self, pair_path, reuse
    ):
        # ``auto`` is the dense paper box, ``chunked`` the skewed box
        # the retired chunked enumeration used to take: both run the
        # band lists now.  Without reuse the cell state is dropped, so
        # the second pass rebuilds.
        ref_sig = ref_forces = None
        for name in BACKENDS:
            system = _skewed_system() if pair_path == "chunked" else None
            machine = FasdaMachine(MachineConfig((4, 4, 4)), system, seed=11)
            machine.force_impl = name
            stats = machine.compute_forces(collect_traffic=True)
            if not reuse:
                machine._cell_state = None
            stats = machine.compute_forces(collect_traffic=True)
            assert machine._cell_state.pairs is not None
            assert stats.state_reused == reuse
            sig = _stats_signature(stats)
            forces = machine.forces.copy()
            if ref_sig is None:
                ref_sig, ref_forces = sig, forces
            else:
                assert sig == ref_sig, (name, pair_path, reuse)
                np.testing.assert_array_equal(forces, ref_forces)

    def test_step_trajectory_bitwise(self):
        ref = None
        for name in BACKENDS:
            machine = FasdaMachine(MachineConfig((3, 3, 3)), seed=4)
            machine.force_impl = name
            for _ in range(3):
                machine.step()
            pos = machine.system.positions.copy()
            if ref is None:
                ref = pos
            else:
                np.testing.assert_array_equal(pos, ref)

    def test_distributed_bitwise_across_backends(self):
        ref_forces = ref_pot = None
        for name in BACKENDS:
            m = DistributedMachine(MachineConfig((4, 4, 4), (1, 1, 2)),
                                   seed=9)
            m.force_impl = name
            potential = m.compute_forces()
            if ref_forces is None:
                ref_forces = m.forces.copy()
                ref_pot = potential
            else:
                np.testing.assert_array_equal(m.forces, ref_forces)
                assert potential == ref_pot


# ---------------------------------------------------------------------------
# Checkpoint v2 round-trip
# ---------------------------------------------------------------------------


class TestCheckpointKnob:
    def test_engine_roundtrip(self, tmp_path):
        system, grid = build_dataset((3, 3, 3), particles_per_cell=4,
                                     seed=1)
        eng = ReferenceEngine(system=system, grid=grid, force_impl="cext")
        eng.run(2)
        path = save_checkpoint_v2(eng, str(tmp_path / "e.npz"))
        eng2, _ = load_checkpoint_v2(path)
        assert eng2.force_impl == "cext"
        # And the restored engine keeps integrating identically.
        eng.run(2)
        eng2.run(2)
        np.testing.assert_array_equal(
            eng.system.positions, eng2.system.positions
        )

    def test_machine_roundtrip(self, tmp_path):
        m = FasdaMachine(MachineConfig((3, 3, 3)), seed=2)
        m.force_impl = "cext"
        m.step()
        path = save_checkpoint_v2(m, str(tmp_path / "m.npz"))
        m2, _ = load_checkpoint_v2(path)
        assert m2.force_impl == "cext"

    def test_distributed_roundtrip(self, tmp_path):
        d = DistributedMachine(MachineConfig((4, 4, 4), (1, 1, 2)), seed=3)
        d.force_impl = "cext"
        d.step()
        path = save_checkpoint_v2(d, str(tmp_path / "d.npz"))
        d2, _ = load_checkpoint_v2(path)
        assert d2.force_impl == "cext"

    def test_missing_key_restores_as_default(self):
        # Old checkpoints predate the knob: restore must not require it.
        import json

        from repro.core.checkpoint import _machine_payload, _restore_machine

        m = FasdaMachine(MachineConfig((3, 3, 3)), seed=2)
        m.force_impl = "cext"
        m.step()
        meta, arrays = _machine_payload(m)
        meta = json.loads(json.dumps(meta))  # same round-trip as the file
        meta.pop("force_impl")
        m2, _ = _restore_machine(meta, arrays)
        assert m2.force_impl is None


# ---------------------------------------------------------------------------
# The perf gate's rate timers
# ---------------------------------------------------------------------------


class TestCampaignBackends:
    def test_engine_rate_records_backend(self):
        from repro.harness.bench import engine_rate

        res = engine_rate(seed=2023, dims=(3, 3, 3), steps=2,
                          force_impl="cext")
        assert res["backend"] == resolve_backend("cext").name
        res_default = engine_rate(seed=2023, dims=(3, 3, 3), steps=2)
        assert res_default["backend"] == get_force_backend()
        # Deterministic payload (timing aside) is backend-independent
        # at engine tolerance.
        assert abs(
            res["final_potential"] - res_default["final_potential"]
        ) <= 1e-7 * abs(res_default["final_potential"])

    def test_machine_rate_identical_across_backends(self):
        from repro.harness.bench import machine_rate

        base = machine_rate(seed=2023, dims=(3, 3, 3), steps=2)
        for name in BACKENDS:
            res = machine_rate(seed=2023, dims=(3, 3, 3), steps=2,
                               force_impl=name)
            assert res["backend"] == name
            assert res["potential_energy"] == base["potential_energy"]
            for key in ("state_builds", "state_updates", "update_rate"):
                assert res[key] == base[key]
            assert res["update_rate"] == res["state_updates"] / 3

