"""The benchmark's own tests: metric catalogue, percentile rule, checks.

Run from the repository root with ``python -m pytest perfbench/tests``.
Every output check is shown to accept a correct result and to refuse a
deliberately perturbed one.
"""

import json
import os

import numpy as np
import pytest

import checks
import metrics
import workloads
from tracing import JobLayerTrace

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.faults import JobChaosPlan
from repro.harness.acceptance import ENERGY_REL_TOLERANCE, FORCE_REL_TOLERANCE
from repro.md.dataset import build_dataset
from repro.md.forcefield import LennardJonesKernel, compute_forces_kernel

BACKEND = workloads.BACKEND


# -- catalogue ----------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, *_ in metrics.END_TO_END + metrics.PER_LAYER:
        assert metrics.NAME_RE.match(name), name
        assert metrics.UNIT_RE.match(unit), (name, unit)
    for name, _ in metrics.WORKLOADS + metrics.HAND_WORKLOADS:
        assert metrics.NAME_RE.match(name), name
    listed = {w["name"] for w in metrics.manifest()["workloads"]}
    assert listed.isdisjoint(n for n, _ in metrics.HAND_WORKLOADS)


def test_end_to_end_bounds():
    bounds = {n: b for n, _, _, b in metrics.END_TO_END}
    setup = [m for m in metrics.END_TO_END if m[0] == "setup_s"]
    assert setup == [("setup_s", "s", "lower", bounds["setup_s"])]
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_manifest_matches_benchmark_json():
    path = os.path.join(os.path.dirname(workloads.__file__), os.pardir,
                        "BENCHMARK.json")
    with open(path) as fh:
        assert json.load(fh) == metrics.manifest()


def test_metric_block_requires_exactly_the_named_metrics():
    names = metrics.end_to_end_names()
    values = {n: 1.0 for n in names}
    block = metrics.metric_block(values, names)
    assert block["setup_s"] == {"value": 1.0, "unit": "s"}
    with pytest.raises(KeyError):
        metrics.metric_block({n: 1.0 for n in names[1:]}, names)
    with pytest.raises(KeyError):
        metrics.metric_block(dict(values, extra=1.0), names)


# -- percentile rule ----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert metrics.percentile(list(range(99)), 90) is None
    assert metrics.percentile(list(range(100)), 90) == 89
    assert metrics.percentile([], 90) is None


def test_p50_needs_ten_samples_beyond_it():
    assert metrics.percentile(list(range(19)), 50) is None
    assert metrics.percentile(list(range(20)), 50) == 9


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(ValueError):
        metrics.percentile([1.0] * 200, 100)


def test_fast_tail_is_the_nearest_rank_fifth_percentile():
    assert metrics.FAST_TAIL == 0.05
    assert metrics.fast_tail([5.0]) == 5.0
    assert metrics.fast_tail(list(range(1, 20))) == 1
    assert metrics.fast_tail(list(range(40, 0, -1))) == 2
    with pytest.raises(ValueError):
        metrics.fast_tail([])


def test_median():
    assert metrics.median([3.0, 1.0, 2.0]) == 2.0
    assert metrics.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_best_pass_takes_the_fastest_sample_at_each_position():
    assert metrics.best_pass([[3.0, 1.0, 5.0], [2.0, 4.0, 6.0]]) == 8.0
    assert metrics.best_pass([[1.5, 2.5]]) == 4.0
    with pytest.raises(ValueError):
        metrics.best_pass([])
    with pytest.raises(ValueError):
        metrics.best_pass([[1.0, 2.0], [1.0]])


def test_setups_time_every_build_and_space_the_spares():
    builds = []
    setups = workloads.Setups(lambda: builds.append(1) or len(builds), 3600.0)
    assert setups.timed() == 1
    setups.tick()
    assert len(builds) == 1 and len(setups.seconds) == 1
    setups.every = 0.0
    setups.tick()
    assert len(builds) == 2 and len(setups.seconds) == 2
    assert all(s >= 0.0 for s in setups.seconds)


# -- machine-paper check --------------------------------------------------------


def test_machine_check_accepts_machine_and_refuses_perturbation():
    system, grid = build_dataset((3, 3, 3), particles_per_cell=16, seed=3)
    m = FasdaMachine(MachineConfig((3, 3, 3)), system=system)
    m.reuse_state, m.force_impl = True, BACKEND
    m.run(3, record_every=0)
    ref_f, ref_e = compute_forces_kernel(m.system, grid, LennardJonesKernel())
    potential = m.last_stats.potential_energy
    tol = (FORCE_REL_TOLERANCE, ENERGY_REL_TOLERANCE)
    assert checks.check_machine_forces(m.forces, potential, ref_f, ref_e, *tol) == []

    bad = m.forces.copy()
    bad[5, 1] += np.float32(0.01 * np.abs(ref_f).max())
    assert checks.check_machine_forces(bad, potential, ref_f, ref_e, *tol)
    assert checks.check_machine_forces(
        m.forces, potential * 1.01, ref_f, ref_e, *tol
    )


# -- distributed-paper check ------------------------------------------------------


@pytest.fixture(scope="module")
def distributed_pass():
    system, _ = build_dataset((4, 4, 4), particles_per_cell=8, seed=4)
    d = DistributedMachine(MachineConfig((4, 4, 4), (2, 2, 2)), system=system)
    d.reuse_state, d.force_impl = True, BACKEND
    d.run(2, record_every=0)
    return workloads.distributed_vs_machine(d)


def test_distributed_check_accepts_the_machine_pass(distributed_pass):
    bank, packets, ref, expected = distributed_pass
    assert packets > 0
    assert checks.check_distributed_forces(bank, packets, ref, expected, 1e-5) == []


def test_distributed_check_refuses_a_perturbed_bank(distributed_pass):
    bank, packets, ref, expected = distributed_pass
    bad = bank.copy()
    bad[7, 2] += np.float32(1e-3 * np.abs(ref).max())
    assert checks.check_distributed_forces(bad, packets, ref, expected, 1e-5)
    bad = bank.copy()
    bad[0, 0] = np.nan
    assert checks.check_distributed_forces(bad, packets, ref, expected, 1e-5)


def test_distributed_check_refuses_a_packet_count_mismatch(distributed_pass):
    bank, packets, ref, expected = distributed_pass
    assert checks.check_distributed_forces(bank, packets + 1, ref, expected, 1e-5)


# -- distributed-chaos check ------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_run():
    seed = 3
    system, _ = build_dataset((4, 4, 4), particles_per_cell=2, seed=seed)
    ep = workloads.chaos_episode(
        workloads.chaos_machine(system, True, seed), steps=40, every=10
    )
    return system, seed, ep


def test_chaos_check_accepts_replay(chaos_run):
    system, seed, ep = chaos_run
    assert ep["committed"], "the episode should commit a rescale"
    replay = workloads.chaos_episode(
        workloads.chaos_machine(system, False, seed), ep["committed"],
        steps=40, every=10,
    )
    assert checks.check_chaos_replay(ep["final"], replay["final"]) == []
    assert checks.check_rollbacks(ep["aborts"]) == []


def test_chaos_check_refuses_a_skipped_rescale_replay(chaos_run):
    system, seed, ep = chaos_run
    schedule = dict(ep["committed"])
    del schedule[max(schedule)]
    replay = workloads.chaos_episode(
        workloads.chaos_machine(system, False, seed), schedule,
        steps=40, every=10,
    )
    assert checks.check_chaos_replay(ep["final"], replay["final"])


def test_chaos_check_refuses_a_flipped_bit(chaos_run):
    _, _, ep = chaos_run
    other = dict(ep["final"])
    vel = other["velocities"].copy()
    vel.view(np.uint32)[0, 0] ^= 1
    other["velocities"] = vel
    assert checks.check_chaos_replay(ep["final"], other)


def test_rollback_check_refuses_a_state_left_changed():
    system, _ = build_dataset((4, 4, 4), particles_per_cell=2, seed=5)
    m = workloads.chaos_machine(system, False, 5)
    before = workloads.machine_state(m)
    after = workloads.machine_state(m)
    assert checks.check_rollbacks([(before, after)]) == []
    after["positions"][0, 0] += 1e-9
    assert checks.check_rollbacks([(before, after)])
    assert checks.check_rollbacks([(before, dict(before, fpga_grid=(2, 2, 1)))])


# -- jobs-durable check ---------------------------------------------------------


@pytest.fixture(scope="module")
def job_round(tmp_path_factory):
    jobs = []
    for i in range(5):
        system, grid = build_dataset(
            (3, 3, 3), particles_per_cell=2 if i < 4 else 16, seed=40 + i
        )
        jobs.append(workloads.JobSpec(system, grid, 6 + i, i % 2, False))
    plan = JobChaosPlan(seed=1, poison_rate=1.0, modes=("kick",))
    system, grid = build_dataset((3, 3, 3), particles_per_cell=2, seed=50)
    jobs.append(workloads.JobSpec(plan.poison(system, 0), grid, 6, 0, True))
    tracer = JobLayerTrace()
    with tracer.active():
        rnd = workloads.jobs_round(jobs, str(tmp_path_factory.mktemp("jobs")))
    return jobs, rnd, tracer


def test_jobs_check_accepts_round(job_round):
    jobs, rnd, _ = job_round
    expected = {i: "quarantined" if j.poisoned else "done" for i, j in enumerate(jobs)}
    assert checks.check_job_outcomes(rnd["statuses"], expected) == []
    solo = workloads.solo_results(jobs, [0, 4])
    assert checks.check_job_results(rnd["results"], solo) == []


def test_jobs_check_refuses_a_flipped_bit(job_round):
    jobs, rnd, _ = job_round
    solo = workloads.solo_results(jobs, [0, 4])
    results = dict(rnd["results"])
    pos, vel = results[4]
    pos = pos.copy()
    pos.view(np.uint64)[3, 2] ^= 1
    results[4] = (pos, vel)
    assert checks.check_job_results(results, solo) == [4]


def test_jobs_check_refuses_wrong_outcomes(job_round):
    jobs, rnd, _ = job_round
    expected = {i: "quarantined" if j.poisoned else "done" for i, j in enumerate(jobs)}
    statuses = dict(rnd["statuses"])
    statuses[0] = "quarantined"
    assert checks.check_job_outcomes(statuses, expected) == [0]
    assert checks.check_job_results({}, workloads.solo_results(jobs, [1])) == [1]


def test_job_round_segments_follow_the_chunks(job_round):
    _, rnd, _ = job_round
    assert len(rnd["segments"]) == rnd["summary"]["chunks"] + 1
    assert 0.0 < sum(rnd["segments"]) <= rnd["wall"]


def test_job_layer_trace_counts_and_restores(job_round):
    from repro.md.batch import BatchedEngine
    import repro.core.checkpoint as checkpoint

    _, rnd, tracer = job_round
    assert tracer.spans["step"].calls == rnd["summary"]["chunks"]
    assert tracer.spans["save"].calls > 0 and tracer.bytes_written > 0
    assert tracer.journal_fsync.calls > 0
    assert tracer.segments_stepped >= tracer.spans["step"].calls
    assert not hasattr(BatchedEngine.step, "__wrapped__")
    assert not hasattr(checkpoint.save_checkpoint_v2, "__wrapped__")
    assert os.fsync.__module__ in ("posix", "nt", "os")


# -- runner -----------------------------------------------------------------------


def test_runner_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    import run

    monkeypatch.chdir(tmp_path)
    rc = run.main(["--workload", "machine-paper", "--seed", "1", "--seconds", "1"])
    assert rc != 0
    assert "{" not in capsys.readouterr().out
