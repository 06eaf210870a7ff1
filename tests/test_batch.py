"""Tests for many-system batched stepping (PR 7 tentpole).

The contract under test, per layer:

* kernel — every registered backend's ``lj_flat_seg`` returns
  per-segment energies and scatters per-slot forces equal to
  evaluating each segment alone.
* engine — each packed system's trajectory is **bitwise identical** to
  a solo ``ReferenceEngine`` run (a one-segment batch) on the same
  backend, on every available backend, including across mid-run
  swap-out/swap-in of *other* segments and with per-segment
  thermostats.
* persistence — checkpoint v2 round-trips a ``BatchedEngine`` (handles,
  thermostats, aux payloads, cell-state counters), and the continued
  run stays bitwise equal to an uninterrupted one.
* queue — jobs finish exactly on their step budgets in priority order,
  bin-packed within ``max_systems``/``max_particles``, each result
  bitwise equal to its solo run.
* pair enumeration — the ``rows=None`` fast path of
  ``iter_pair_chunks`` honors empty and short-count systems (the
  zero-occupancy regression).
"""

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint_v2, save_checkpoint_v2
from repro.md.backends import available_backends, resolve_backend
from repro.md.batch import BatchedEngine, solo_oracle_impl
from repro.md.cells import CellGrid, CellList
from repro.md.dataset import build_dataset
from repro.md.engine import ReferenceEngine
from repro.md.pairplan import iter_pair_chunks, plan_for_grid
from repro.md.thermostat import (
    BerendsenThermostat,
    VelocityRescaleThermostat,
    thermostat_from_meta,
    thermostat_meta,
)
from repro.util.errors import ValidationError

BACKENDS = available_backends()


def small_case(seed, ppc=4, dims=(3, 3, 3)):
    return build_dataset(dims, cutoff=8.5, particles_per_cell=ppc, seed=seed)


def solo_run(system, grid, name, steps, thermostat=None):
    """``system`` stepped alone on the solo oracle of batched ``name``."""
    eng = ReferenceEngine(
        system.copy(), grid, dt_fs=2.0, shift=False,
        force_impl=solo_oracle_impl(name),
    )
    if thermostat is None:
        eng.run(steps, record_every=0)
    else:
        for _ in range(steps):
            eng.run(1, record_every=0)
            thermostat.apply(eng.system)
    return eng.system


def assert_states_equal(got, want, label=""):
    assert np.array_equal(got.positions, want.positions), f"{label} positions"
    assert np.array_equal(got.velocities, want.velocities), f"{label} velocities"
    assert np.array_equal(got.forces, want.forces), f"{label} forces"


class TestSoloOracle:
    def test_numpy_is_its_own_solo_oracle(self):
        # The solo engine is a one-segment batch on every backend.
        assert solo_oracle_impl("numpy") == "numpy"

    def test_compiled_backends_map_to_themselves(self):
        for name in BACKENDS:
            assert solo_oracle_impl(name) == name

    def test_default_resolves(self):
        assert solo_oracle_impl(None) == resolve_backend(None).name


class TestSegKernel:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_segmented_matches_solo_segments(self, name):
        """One fused call over K segments == K independent evaluations."""
        cases = [small_case(80 + i, ppc=3 + i) for i in range(3)]
        be = BatchedEngine(force_impl=name)
        handles = [be.add(s.copy(), g) for s, g in cases]
        be.prime()
        pots = be.potentials()
        for h, (s, g) in zip(handles, cases):
            solo = ReferenceEngine(s.copy(), g, force_impl=name)
            solo.run(0, record_every=0)  # prime only
            got = be.extract(h)
            assert np.array_equal(got.forces, solo.system.forces), name
            assert pots[h] == solo.history[-1].potential, name


class TestBitwiseTrajectories:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_mixed_sizes_match_solo(self, name):
        cases = [
            small_case(11, ppc=4, dims=(3, 3, 3)),
            small_case(12, ppc=6, dims=(3, 4, 3)),
            small_case(13, ppc=3, dims=(4, 3, 3)),
        ]
        be = BatchedEngine(force_impl=name)
        handles = [be.add(s.copy(), g) for s, g in cases]
        be.step(30)
        for h, (s, g) in zip(handles, cases):
            assert_states_equal(
                be.extract(h), solo_run(s, g, name, 30), f"{name}/{h}"
            )

    def test_swap_out_and_in_mid_run(self):
        """Removing/adding segments never perturbs the others."""
        cases = [small_case(20 + i, ppc=3 + i % 3) for i in range(4)]
        name = BACKENDS[-1]
        be = BatchedEngine(force_impl=name)
        handles = [be.add(s.copy(), g) for s, g in cases[:3]]
        be.step(12)
        removed = be.remove(handles[1])
        h3 = be.add(cases[3][0].copy(), cases[3][1])
        be.step(18)
        # Undisturbed segments: full 30 steps, bitwise.
        for idx in (0, 2):
            s, g = cases[idx]
            assert_states_equal(
                be.extract(handles[idx]), solo_run(s, g, name, 30),
                f"undisturbed {idx}",
            )
        # Swapped-out segment: identical to a 12-step solo run.
        assert_states_equal(
            removed, solo_run(cases[1][0], cases[1][1], name, 12),
            "swap-out",
        )
        # Swapped-in segment: identical to an 18-step solo run.
        assert_states_equal(
            be.extract(h3), solo_run(cases[3][0], cases[3][1], name, 18),
            "swap-in",
        )

    def test_per_segment_thermostats(self):
        cases = [small_case(31), small_case(32, ppc=5)]
        name = BACKENDS[0]
        be = BatchedEngine(force_impl=name)
        ha = be.add(
            cases[0][0].copy(), cases[0][1],
            thermostat=BerendsenThermostat(300.0, 100.0, 2.0),
        )
        hb = be.add(
            cases[1][0].copy(), cases[1][1],
            thermostat=VelocityRescaleThermostat(250.0),
        )
        be.step(15)
        want_a = solo_run(
            *cases[0], name, 15,
            thermostat=BerendsenThermostat(300.0, 100.0, 2.0),
        )
        want_b = solo_run(
            *cases[1], name, 15,
            thermostat=VelocityRescaleThermostat(250.0),
        )
        assert np.array_equal(be.extract(ha).velocities, want_a.velocities)
        assert np.array_equal(be.extract(hb).velocities, want_b.velocities)

    def test_reuse_counters_match_solo(self):
        s, g = small_case(44)
        name = BACKENDS[-1]
        be = BatchedEngine(force_impl=name)
        h = be.add(s.copy(), g)
        be.step(25)
        solo = ReferenceEngine(s.copy(), g, force_impl=name)
        solo.run(25, record_every=0)
        for engine in (be, solo._batch):
            engine._sync_segment_stats()
        seg, solo_state = be._by_handle[h], solo._segment().state
        assert seg.state.builds == solo_state.builds
        assert seg.state.reuse_steps == solo_state.reuse_steps


class TestAdmission:
    def test_empty_system_rejected(self):
        s, g = small_case(1)
        be = BatchedEngine()
        empty = s.copy()
        object.__setattr__(empty, "positions", empty.positions[:0])
        with pytest.raises(ValidationError):
            be.add(empty, g)

    def test_mismatched_cell_edge_rejected(self):
        s1, g1 = small_case(2)
        s2, g2 = build_dataset((3, 3, 3), cutoff=9.0, particles_per_cell=4,
                               seed=3)
        be = BatchedEngine()
        be.add(s1, g1)
        with pytest.raises(ValidationError, match="cutoff"):
            be.add(s2, g2)

    def test_duplicate_handle_rejected(self):
        s, g = small_case(4)
        be = BatchedEngine()
        be.add(s.copy(), g, handle=7)
        with pytest.raises(ValidationError, match="already in use"):
            be.add(s.copy(), g, handle=7)

    def test_unknown_handle_raises(self):
        be = BatchedEngine()
        with pytest.raises(ValidationError):
            be.extract(0)

    def test_backend_without_seg_kernel_rejected(self):
        from repro.md import backends as B

        crippled = B.ForceBackend(
            name="crippled", available=True, why="test", lj_flat_seg=None
        )
        B._REGISTRY["crippled"] = crippled
        try:
            with pytest.raises(ValidationError, match="lj_flat_seg"):
                BatchedEngine(force_impl="crippled")
        finally:
            del B._REGISTRY["crippled"]


class TestCheckpointBatch:
    def test_roundtrip_and_bitwise_continuation(self, tmp_path):
        cases = [small_case(60 + i) for i in range(3)]
        be = BatchedEngine(force_impl=BACKENDS[-1])
        handles = []
        for i, (s, g) in enumerate(cases):
            th = BerendsenThermostat(300.0, 100.0, 2.0) if i == 1 else None
            handles.append(
                be.add(s.copy(), g, thermostat=th,
                       aux={"rng_seed": 60 + i, "lead": f"mol{i}"})
            )
        be.step(17)
        path = str(tmp_path / "batch.npz")
        save_checkpoint_v2(be, path)
        be2, step = load_checkpoint_v2(path)
        assert step == 17
        assert be2.handles() == handles
        assert be2.backend_name == be.backend_name
        # Per-segment metadata restored exactly.
        seg1 = be2._by_handle[handles[1]]
        assert thermostat_meta(seg1.thermostat) == {
            "kind": "berendsen", "target_k": 300.0,
            "ratio": BerendsenThermostat(300.0, 100.0, 2.0).ratio,
        }
        assert be2._by_handle[handles[2]].aux == {
            "rng_seed": 62, "lead": "mol2"
        }
        assert [be2.segment_steps(h) for h in handles] == [17, 17, 17]
        # Continued trajectories bitwise equal to the uninterrupted run.
        be.step(20)
        be2.step(20)
        for h in handles:
            assert_states_equal(be.extract(h), be2.extract(h), f"seg {h}")

    def test_restored_counters_continue(self, tmp_path):
        s, g = small_case(71)
        be = BatchedEngine()
        h = be.add(s.copy(), g)
        be.step(10)
        be._sync_segment_stats()
        builds_before = be.state_builds(h)
        path = str(tmp_path / "b.npz")
        save_checkpoint_v2(be, path)
        be2, _ = load_checkpoint_v2(path)
        be2.step(1)
        # Restoration costs exactly one extra build (the re-prime).
        assert be2.state_builds(h) >= builds_before + 1
        assert be2.segment_steps(h) == 11

    def test_thermostat_meta_roundtrip(self):
        for th in (
            None,
            VelocityRescaleThermostat(123.0),
            BerendsenThermostat(310.0, 50.0, 2.0),
        ):
            back = thermostat_from_meta(thermostat_meta(th))
            if th is None:
                assert back is None
            else:
                assert type(back) is type(th)
                assert back.target_k == th.target_k


class TestJobQueue:
    def test_priority_and_budgets_bitwise(self):
        from repro.harness.jobs import DONE, JobQueue, run_jobs

        q = JobQueue()
        cases = [small_case(40 + i, ppc=3 + i % 2) for i in range(6)]
        ids = [
            q.submit(s.copy(), g, steps=8 + 5 * i,
                     priority=1 if i % 3 == 0 else 0)
            for i, (s, g) in enumerate(cases)
        ]
        # Priority-first admission order.
        pend = [j.job_id for j in q.pending()]
        assert pend == [0, 3, 1, 2, 4, 5]
        name = BACKENDS[-1]
        summary = run_jobs(q, force_impl=name, max_systems=3, chunk_steps=6)
        assert summary["jobs_done"] == 6
        assert summary["swaps"] == 6
        for i, jid in enumerate(ids):
            assert q.status(jid) == DONE
            want = solo_run(*cases[i], name, 8 + 5 * i)
            assert_states_equal(q.result(jid), want, f"job {jid}")

    def test_result_before_done_raises(self):
        from repro.harness.jobs import JobQueue

        q = JobQueue()
        s, g = small_case(50)
        jid = q.submit(s, g, steps=5)
        with pytest.raises(ValidationError, match="queued"):
            q.result(jid)

    def test_max_particles_first_fit(self):
        from repro.harness.jobs import JobQueue, run_jobs

        q = JobQueue()
        big = small_case(51, ppc=8)
        small = small_case(52, ppc=3)
        q.submit(big[0], big[1], steps=4)
        q.submit(small[0], small[1], steps=4)
        summary = run_jobs(
            q, max_systems=2, max_particles=big[0].n + 10, chunk_steps=4
        )
        # Both finish; the big one cannot share a batch with the small.
        assert summary["jobs_done"] == 2
        assert summary["batches_formed"] >= 2

    def test_bad_budget_rejected(self):
        from repro.harness.jobs import JobQueue

        q = JobQueue()
        s, g = small_case(53)
        with pytest.raises(ValidationError):
            q.submit(s, g, steps=0)


class TestBenchAndCampaign:
    def test_batch_rate_worker(self):
        from repro.harness.bench import batch_rate

        result = batch_rate(seed=2023, k_systems=4, steps=5)
        assert result["k_systems"] == 4
        assert result["backend"] in BACKENDS
        assert result["timing"]["aggregate_steps_per_s"] > 0

    def test_bench_doc_reports_each_size(self):
        from repro.harness.jobs import format_batch, run_batch_bench

        doc = run_batch_bench(
            k_systems=6, steps=5, warm_steps=2, serial_sample=2, smoke=True
        )
        assert doc["smoke"] is True
        (point,) = doc["sizes"]
        assert point["label"] == "k6_ppc2"
        assert point["plan_cache_cold"]["misses"] >= 1
        assert point["backend"] == doc["backend"] in BACKENDS
        assert point["serial_sampled"] == 2
        assert point["aggregate_steps_per_s"] > 0
        assert "k6_ppc2" in format_batch(doc)

class TestPairChunkEmptyCells:
    """Regression: the rows=None fast path with short/empty bincounts."""

    def test_empty_system_yields_nothing(self):
        grid = CellGrid((3, 3, 3), 8.5)
        plan = plan_for_grid(grid)
        counts = np.zeros(0, dtype=np.int64)  # np.bincount([]) shape
        start = np.zeros(1, dtype=np.int64)
        order = np.zeros(0, dtype=np.int64)
        chunks = list(iter_pair_chunks(plan, counts, start, order))
        assert chunks == []

    def test_short_counts_match_full_length(self):
        """Occupancy only in low cells: short bincount == padded one."""
        grid = CellGrid((3, 3, 3), 8.5)
        plan = plan_for_grid(grid)
        # A handful of particles clustered in the first two cells, so
        # trailing cells are empty and a minlength-less bincount is
        # short.
        rng = np.random.default_rng(90)
        positions = rng.uniform(0.5, 8.0, size=(6, 3))
        positions[3:, 2] += 8.5  # cell (0, 0, 1)
        clist = CellList(grid, positions)
        nz = np.flatnonzero(clist.counts)
        hi = int(nz[-1]) + 1
        assert hi < plan.n_cells  # the regression precondition
        short_counts = clist.counts[:hi]
        short_start = clist.start[:hi + 1]

        def pairs(counts, start):
            out = []
            for chunk in iter_pair_chunks(plan, counts, start, clist.order):
                out.extend(zip(chunk.row, chunk.ii, chunk.jj))
            return out

        assert pairs(short_counts, short_start) == pairs(
            clist.counts, clist.start
        )
