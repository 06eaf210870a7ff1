"""Tests for the phase-timed, allocation-free step (PR 9 tentpole).

The contract under test, per layer:

* degenerate traffic — ``_account_traffic`` (vectorized + compiled
  ``traffic_flat``) vs the per-row loop oracle on configurations
  the group-by passes can get wrong: a single-node fpga grid, a system
  with exactly one occupied cell, a mostly-empty lattice, and a system
  whose pair filter admits zero pairs.
* accounting kernels — every available backend's ``traffic_flat`` /
  ``ring_charge`` is bitwise the numpy oracle, including empty inputs.
* the machine datapath pass — the compiled ``datapath_pass`` drives a
  multi-step machine trajectory bitwise identical to numpy's, and
  equals :func:`~repro.md.backends.datapath_pass_numpy` pass for pass
  (banks, counts, remote records, potential) on whole-box and node-view
  passes, multi-species Coulomb boxes, a non-power-of-two table, a
  pass that admits nothing and the small-r guard.
* phase timings — ``StepTimings`` counts every machine phase and every
  distributed phase once armed, and ``StepStats.timings`` carries them.
* satellites — the pairplan LRU evicts and counts; oversized jobs are
  routed solo by ``batch_max_n``; ``run_profile`` assembles its
  document with its in-run bitwise asserts green, and
  ``format_profile`` prints a machine phase table whose rows add up to
  the step wall it prints as their total.
"""

import copy
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import _OFFS14, FasdaMachine, _Pass, _StepArena
from repro.harness.jobs import JobQueue, run_jobs
from repro.harness.profiling import (
    DISTRIBUTED_PHASES,
    MACHINE_PHASES,
    check_accounting_kernels,
    format_profile,
    run_profile,
)
from repro.md import CellGrid, LJTable, ParticleSystem
from repro.md.backends import (
    available_backends,
    compiled_backends,
    datapath_pass_numpy,
    resolve_backend,
    ring_charge_numpy,
    traffic_flat_numpy,
)
from repro.md.dataset import build_dataset
from repro.md.pairplan import (
    clear_plan_cache,
    plan_cache_info,
    plan_for_grid,
    set_plan_cache_maxsize,
)
from repro.util.errors import ValidationError
from tests.oracles import fresh_path, loop_traffic

DIMS = (3, 3, 3)


def _stats_signature(stats):
    """Everything StepStats carries, in comparable form."""
    return dict(
        position_records=stats.position_records,
        force_records=stats.force_records,
        pr_load={n: asdict(s) for n, s in stats.pr_load.items()},
        fr_load={n: asdict(s) for n, s in stats.fr_load.items()},
        candidates=stats.candidates_per_cell.tolist(),
        accepted=stats.accepted_per_cell.tolist(),
        occupancy=stats.occupancy_per_cell.tolist(),
        nbr_frc=stats.neighbor_force_records_per_cell.tolist(),
    )


def _subset(system, keep):
    """A ParticleSystem restricted to the ``keep`` particle mask."""
    return ParticleSystem(
        positions=system.positions[keep],
        velocities=system.velocities[keep],
        species=system.species[keep],
        lj_table=system.lj_table,
        box=system.box,
        charges=None if system.charges is None else system.charges[keep],
    )


def _signatures_match(system, fpga_grid=(1, 1, 1)):
    """Production step vs the chunked + loop-traffic oracle on one
    system."""
    cfg = MachineConfig(DIMS, fpga_grid)
    vec = FasdaMachine(cfg, system=system)
    loop = loop_traffic(fresh_path(FasdaMachine(cfg, system=system), "chunked"))
    sv = vec.compute_forces()
    sl = loop.compute_forces()
    assert _stats_signature(sv) == _stats_signature(sl)
    return sv


class TestDegenerateTrafficConfigs:
    """_account_traffic vs the loop oracle where group-bys go wrong."""

    @pytest.mark.parametrize("fpga_grid", [(1, 1, 1), (3, 1, 1), (3, 3, 3)])
    def test_dense_lattice(self, fpga_grid):
        system, _ = build_dataset(DIMS, particles_per_cell=4, seed=5)
        _signatures_match(system, fpga_grid)

    def test_single_occupied_cell(self):
        system, grid = build_dataset(DIMS, particles_per_cell=6, seed=7)
        keep = np.all(system.positions < grid.cell_edge, axis=1)
        assert 2 <= keep.sum() < system.n
        stats = _signatures_match(_subset(system, keep))
        assert (stats.occupancy_per_cell > 0).sum() == 1

    def test_mostly_empty_lattice(self):
        system, _ = build_dataset(DIMS, particles_per_cell=4, seed=9)
        keep = np.zeros(system.n, dtype=bool)
        keep[::7] = True
        _signatures_match(_subset(system, keep))

    def test_zero_admitted_pairs(self):
        # Two particles at maximum min-image separation: every candidate
        # pair fails the cutoff filter, so the traffic passes see empty
        # admission arrays on every offset.
        _, grid = build_dataset(DIMS, particles_per_cell=1, seed=1)
        e = grid.cell_edge
        pos = np.array([[0.1, 0.1, 0.1], [1.5 * e, 1.5 * e, 1.5 * e]])
        system = ParticleSystem(
            positions=pos,
            velocities=np.zeros_like(pos),
            species=np.zeros(2, dtype=np.int32),
            lj_table=LJTable(("Ar",)),
            box=grid.box,
        )
        stats = _signatures_match(system)
        assert int(stats.accepted_per_cell.sum()) == 0
        assert sum(stats.force_records.values()) == 0


class TestAccountingKernelContracts:
    """Compiled traffic_flat / ring_charge vs the numpy oracles."""

    def _compiled(self):
        names = [
            n for n in available_backends()
            if resolve_backend(n).traffic_flat is not None
        ]
        if not names:
            pytest.skip("no backend provides compiled accounting kernels")
        return names

    def test_traffic_flat_matches_numpy(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 50, size=4096).astype(np.int64)
        weights = rng.random(4096)
        aux = rng.integers(-3, 900, size=4096).astype(np.int64)
        cases = [
            (keys, weights, aux),
            (keys, weights, None),
            (keys, None, aux),
            (keys, None, None),
            (np.empty(0, dtype=np.int64), np.empty(0), None),
            (np.full(16, 7, dtype=np.int64), weights[:16], aux[:16]),
        ]
        for name in self._compiled():
            kern = resolve_backend(name).traffic_flat
            for k, w, a in cases:
                got = kern(k, w, a)
                ref = traffic_flat_numpy(k, w, a)
                for g, r in zip(got, ref):
                    if r is None:
                        assert g is None
                    else:
                        assert np.array_equal(g, r), name

    def test_ring_charge_matches_numpy(self):
        rng = np.random.default_rng(1)
        n = 13
        src = rng.integers(0, n, size=64).astype(np.int64)
        hops = rng.integers(1, n, size=64).astype(np.int64)
        counts = rng.integers(1, 40, size=64).astype(np.int64)
        for name in self._compiled():
            kern = resolve_backend(name).ring_charge
            if kern is None:
                continue
            for direction in (+1, -1):
                a = np.zeros(n, dtype=np.int64)
                b = np.zeros(n, dtype=np.int64)
                kern(a, direction, src, hops, counts)
                ring_charge_numpy(b, direction, src, hops, counts)
                assert np.array_equal(a, b), (name, direction)
                # Conservation: every (src, hops) span lands in full.
                assert a.sum() == int((hops * counts).sum())

    def test_check_accounting_kernels_reports_coverage(self):
        # The checker raises on any bitwise mismatch; its return value
        # records which contracts the backend actually carries.
        for name in available_backends():
            backend = resolve_backend(name)
            doc = check_accounting_kernels(name)
            assert doc["traffic_flat"] == (backend.traffic_flat is not None)
            assert doc["ring_charge"] == (backend.ring_charge is not None)


def _bits(x):
    """``x`` as raw integers, so -0.0 and 0.0 (and NaNs) compare apart."""
    x = np.ascontiguousarray(x)
    return x.view({4: np.uint32, 8: np.uint64}[x.dtype.itemsize])


class TestFusedKernelBitwise:
    """The compiled datapath pass against its numpy statement, pass for
    pass: banks, acceptance and record counts, remote records and the
    potential, bit for bit.  Every pass runs through the backend's
    :meth:`~repro.md.backends.ForceBackend.plan_passes`, the one entry
    into the compiled kernel."""

    def _compiled(self):
        names = compiled_backends()
        if not names:
            pytest.skip("no compiled backend")
        return names

    def _trajectory(self, force_impl, steps=5):
        system, _ = build_dataset((3, 3, 4), particles_per_cell=6, seed=13)
        m = FasdaMachine(MachineConfig((3, 3, 4), (1, 1, 2)), system=system)
        m.force_impl = force_impl
        last = None
        for _ in range(steps):
            last = m.step(collect_traffic=False)  # returns the potential
        return m, last

    def test_reuse_trajectory_matches_numpy_sequence(self):
        ref, ref_e = self._trajectory("numpy")
        for name in self._compiled():
            m, e = self._trajectory(name)
            assert np.array_equal(
                m.system.positions, ref.system.positions
            ), name
            assert np.array_equal(m.forces, ref.forces), name
            assert e == ref_e, name

    def _check_passes(self, monkeypatch, run):
        """Run ``run()`` on the numpy backend with every datapath pass
        repeated on each compiled backend over copies of its outputs;
        returns the numpy passes' outputs."""
        compiled = [resolve_backend(n) for n in self._compiled()]
        seen = []

        def both(fs, lay, offs, tables, out):
            frac = fs[:, :-1].T
            twins = []
            for _ in compiled:
                twin = copy.copy(out)
                for f in ("home_bank", "nbr_bank", "accepted", "uniq_per_row"):
                    setattr(twin, f, getattr(out, f).copy())
                twin.records = list(out.records)
                twin.arena = _StepArena()
                twins.append(twin)
            pot = datapath_pass_numpy(fs, lay, offs, tables, out)
            for backend, twin in zip(compiled, twins):
                got = backend.plan_passes()(frac, lay, offs, tables, twin)
                assert _bits(np.float32(got)) == _bits(np.float32(pot))
                for f in ("home_bank", "nbr_bank", "accepted", "uniq_per_row"):
                    assert np.array_equal(
                        _bits(getattr(twin, f)), _bits(getattr(out, f))
                    ), f
                assert len(twin.records) == len(out.records)
                for rec, ref in zip(twin.records, out.records):
                    for x, y in zip(rec, ref):
                        assert x.dtype == y.dtype
                        assert np.array_equal(_bits(x), _bits(y))
            seen.append((tables, list(out.records)))
            return pot

        monkeypatch.setattr(resolve_backend("numpy"), "datapath_pass", both)
        run()
        assert seen, "no band-list pass ran"
        return seen

    def _machine_steps(self, config, system, steps=4):
        m = FasdaMachine(config, system=system)
        m.force_impl = "numpy"
        for _ in range(steps):
            m.step(collect_traffic=False)
        return m

    def test_whole_box_pass(self, monkeypatch):
        system, _ = build_dataset(DIMS, particles_per_cell=16, seed=21)
        seen = self._check_passes(
            monkeypatch,
            lambda: self._machine_steps(MachineConfig(DIMS), system),
        )
        assert all(t.coef.ndim == 1 and t.qq is None for t, _ in seen)

    def test_node_view_pass_with_remote_records(self, monkeypatch):
        system, _ = build_dataset((3, 3, 4), particles_per_cell=12, seed=22)

        def run():
            d = DistributedMachine(
                MachineConfig((3, 3, 4), (1, 1, 2)), system=system
            )
            d.force_impl = "numpy"
            for _ in range(3):
                d.step()

        seen = self._check_passes(monkeypatch, run)
        assert any(records for _, records in seen)

    def test_multi_species_coulomb_pass(self, monkeypatch):
        system, _ = build_dataset(
            DIMS, particles_per_cell=16, species=("Na", "Cl"),
            charged=True, min_distance=2.4, seed=23,
        )
        config = MachineConfig(DIMS, force_model="lj+coulomb")
        seen = self._check_passes(
            monkeypatch, lambda: self._machine_steps(config, system)
        )
        assert all(t.coef.ndim == 2 and t.qq is not None for t, _ in seen)

    def test_non_power_of_two_table(self, monkeypatch):
        system, _ = build_dataset(DIMS, particles_per_cell=16, seed=24)
        config = MachineConfig(DIMS, table_nb=96)
        seen = self._check_passes(
            monkeypatch, lambda: self._machine_steps(config, system)
        )
        assert all(t.n_b == 96 for t, _ in seen)

    def _pass_inputs(self):
        """A built whole-box state and the pass operands over it."""
        system, _ = build_dataset(DIMS, particles_per_cell=16, seed=25)
        m = FasdaMachine(MachineConfig(DIMS), system=system)
        m.compute_forces(collect_traffic=False)
        state = m.ensure_cell_state()
        n = system.n
        tables = state.artifacts["machine"].tables

        def out():
            z = np.zeros((n, 3), dtype=np.float32)
            return _Pass(z, z.copy(), m._plan, _StepArena())

        return state.pairs, tables, n, out

    @pytest.mark.parametrize("name", available_backends())
    def test_zero_admitted_pass(self, name):
        # Every bank row ten cell edges from the next: the band lists
        # hold pairs, the filter admits none.
        lay, tables, n, out = self._pass_inputs()
        frac = np.tile(np.arange(n, dtype=np.float32)[:, None] * 10, (1, 3))
        o = out()
        pot = resolve_backend(name).plan_passes()(frac, lay, _OFFS14, tables, o)
        assert _bits(np.float32(pot)) == _bits(np.float32(0.0))
        assert not o.home_bank.any() and not o.nbr_bank.any()
        assert not o.accepted.any() and not o.uniq_per_row.any()
        assert o.records == []

    def test_small_r_guard_on_both_backends(self):
        # Every particle on one point: all home-row pairs are admitted
        # at r2 = 0, below the tables' r2_min, and no pass decodes them.
        lay, tables, n, out = self._pass_inputs()
        frac = np.full((n, 3), 0.5, dtype=np.float32)
        messages = set()
        for name in available_backends():
            with pytest.raises(ValidationError, match="excluded small-r") as exc:
                resolve_backend(name).plan_passes()(
                    frac, lay, _OFFS14, tables, out()
                )
            messages.add(str(exc.value))
        assert len(messages) == 1


    def test_compiled_potential_sum_is_numpys(self):
        # The compiled pass sums each offset's energy stream as numpy's
        # float32 reduction does (pairwise, in blocks of 8 up to 128),
        # on streams long enough to split several times.
        self._compiled()
        from repro.md.backends import _build_cext, _offset_energy

        ffi, lib = _build_cext()
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(0, 3000))
            e = (rng.standard_normal(n) * 10 ** rng.uniform(-4, 4, n)).astype(
                np.float32
            )
            bounds = np.sort(rng.integers(0, n + 1, 15)).astype(np.int64)
            bounds[0], bounds[-1] = 0, n
            got = lib.offset_energy_f32(
                ffi.from_buffer("float[]", e),
                ffi.from_buffer("int64_t[]", bounds), 14,
            )
            assert _bits(np.float32(got)) == _bits(_offset_energy(e, bounds))

    def test_compiled_pass_refuses_mismatched_operands(self):
        # The compiled pass indexes by these shapes; a mismatch must be
        # refused before the kernel runs.
        lay, tables, n, out = self._pass_inputs()
        frac = np.zeros((n, 3), dtype=np.float32)
        for name in self._compiled():
            strided = out()
            strided.home_bank = np.zeros((n, 6), dtype=np.float32)[:, ::2]
            bad = [
                (frac, tables, strided),
                (frac[:-1], tables, out()),
                (frac, tables._replace(qq=np.ones(lay.size, np.float32)), out()),
                (frac, tables._replace(coef=tables.coef[:3]), out()),
            ]
            for f, t, o in bad:
                plan = resolve_backend(name).plan_passes()
                with pytest.raises(ValidationError, match="operands"):
                    plan(f, lay, _OFFS14, t, o)


class TestStepTimings:
    """Phase counters on the machine and distributed steps."""

    def test_machine_phase_counters(self):
        system, _ = build_dataset(DIMS, particles_per_cell=2, seed=4)
        m = FasdaMachine(MachineConfig(DIMS, (1, 1, 1)), system=system)
        stats = m.compute_forces(collect_traffic=True)
        assert stats.timings is None  # off by default: zero overhead
        m.timings.enabled = True
        m.step(collect_traffic=True)  # integrate only runs in step()
        snap = m.timings.snapshot()
        for name in MACHINE_PHASES:
            assert snap[f"{name}_calls"] >= 1, name
            assert snap[name] >= 0.0
        # StepStats carries the counters, monotonic until reset.
        stats = m.compute_forces(collect_traffic=True)
        assert stats.timings["force_calls"] > snap["force_calls"]
        m.timings.reset()
        assert m.timings.snapshot() == {}

    def test_distributed_phase_counters(self):
        system, _ = build_dataset(DIMS, particles_per_cell=2, seed=4)
        d = DistributedMachine(
            MachineConfig(DIMS, (3, 1, 1)), system=system
        )
        d.timings.enabled = True
        d.step()
        snap = d.timings.snapshot()
        for name in DISTRIBUTED_PHASES:
            assert snap[f"{name}_calls"] >= 1, name


class TestPlanCacheEviction:
    """The bounded pairplan LRU evicts oldest and counts it."""

    def test_evictions_counted_and_bounded(self):
        info0 = plan_cache_info()
        clear_plan_cache()
        set_plan_cache_maxsize(2)
        try:
            g = [CellGrid(DIMS, 4.0 + 0.5 * i) for i in range(4)]
            plans = [plan_for_grid(gr) for gr in g]
            info = plan_cache_info()
            assert info.maxsize == 2
            assert info.currsize == 2
            assert info.evictions == 2
            # Newest two still cached; oldest was evicted and rebuilds.
            assert plan_for_grid(g[3]) is plans[3]
            assert plan_for_grid(g[0]) is not plans[0]
        finally:
            clear_plan_cache()
            set_plan_cache_maxsize(info0.maxsize)

    def test_shrinking_evicts_immediately(self):
        info0 = plan_cache_info()
        clear_plan_cache()
        set_plan_cache_maxsize(8)
        try:
            for i in range(5):
                plan_for_grid(CellGrid(DIMS, 4.0 + 0.5 * i))
            set_plan_cache_maxsize(1)
            info = plan_cache_info()
            assert info.currsize == 1
            assert info.evictions == 4
            with pytest.raises(Exception):
                set_plan_cache_maxsize(0)
        finally:
            clear_plan_cache()
            set_plan_cache_maxsize(info0.maxsize)


class TestJobsSoloRouting:
    """batch_max_n sends oversized systems through a solo engine."""

    def _queue(self):
        q = JobQueue()
        big, gb = build_dataset(DIMS, particles_per_cell=8, seed=30)
        q.submit(big, gb, steps=4)  # 216 particles: over the threshold
        for i in range(3):
            s, g = build_dataset(DIMS, particles_per_cell=2, seed=31 + i)
            q.submit(s, g, steps=4)
        return q

    def test_big_job_owns_the_engine(self):
        summary = run_jobs(self._queue(), chunk_steps=2, batch_max_n=100)
        assert summary["jobs_done"] == 4
        assert summary["batches_formed"] == 2  # {big} then {3 small}

    def test_threshold_none_cobatches_everything(self):
        summary = run_jobs(self._queue(), chunk_steps=2, batch_max_n=None)
        assert summary["jobs_done"] == 4
        assert summary["batches_formed"] == 1


class TestRunProfileDocument:
    """End-to-end smoke of the profile harness."""

    @pytest.fixture(scope="class")
    def doc(self):
        return run_profile(smoke=True, reps=1)

    def test_bitwise_asserts_ran_green(self, doc):
        assert doc["machine"]["forces_match_numpy_sequence"] is True
        assert doc["distributed"]["thread_trajectory_bitwise"] is True
        assert doc["kernel_checks"]["traffic_flat"] is True

    def test_phase_tables_cover_every_phase(self, doc):
        for name in MACHINE_PHASES:
            assert name in doc["machine"]["phases_s"]
        for name in DISTRIBUTED_PHASES:
            assert name in doc["distributed"]["phases_s"]


class TestFormatProfile:
    """The printed machine phase table adds up to its printed total."""

    DOC = {
        "machine": {
            "n_particles": 1728,
            "force_impl": "cext",
            "machine_step_s": 0.0096,
            "machine_step_per_s": 1 / 0.0096,
            "phase_step_wall_s": 0.0140,
            "phases_s": {
                "build": 0.0010, "force": 0.0080, "traffic": 0.0020,
                "ring": 0.0005, "integrate": 0.0010,
            },
        },
        "distributed": {
            "n_particles": 1728,
            "fpga_grid": [2, 1, 1],
            "force_impl": "numpy",
            "distributed_step_s": 0.02,
            "distributed_step_thread_s": 0.015,
            "thread_speedup": 1.33,
            "cpu_count": 2,
            "phases_s": {name: 0.001 for name in DISTRIBUTED_PHASES},
        },
    }

    def _rows(self, text):
        rows = {}
        for line in text.splitlines():
            parts = line.split()
            if len(parts) == 4 and parts[2] == "ms" and parts[3].endswith("%"):
                rows[parts[0]] = (float(parts[1]), float(parts[3][:-1]))
        return rows

    def test_total_is_the_step_wall_and_rows_add_up(self):
        text = format_profile(self.DOC)
        assert "phase breakdown of one step(): 14.00 ms" in text
        assert "9.6 ms (104.2/s)" in text  # the force-pass rate, unchanged
        rows = self._rows(text)
        assert set(rows) == set(MACHINE_PHASES) | {"unaccounted"}
        assert rows["unaccounted"] == (2.0, pytest.approx(14.3, abs=0.05))
        additive = [n for n in rows if n != "ring"]
        assert sum(rows[n][0] for n in additive) == pytest.approx(14.0)
        # Each printed share rounds by at most 0.05 points.
        assert sum(rows[n][1] for n in additive) == pytest.approx(
            100.0, abs=0.05 * len(additive)
        )
        # No phase exceeds the total it is a share of.
        assert all(ms <= 14.0 for ms, _ in rows.values())
