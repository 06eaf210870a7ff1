"""Hot-path timing: batched pair-plan force path vs the per-cell loop.

Times the two implementations of the cell-list force evaluation
(`compute_forces_cells` batched vs the per-cell loop oracle
`compute_forces_cells_loop` from ``tests/oracles.py``) and one
`FasdaMachine` timestep at N ~ {2k, 10k, 50k} (paper-density boxes, 64
particles per cell), and writes machine-readable
``benchmarks/results/BENCH_hotpath.json`` so future PRs have a perf
trajectory.  Plan-build time is measured separately from steady-state
force time (the plan is cached per grid geometry and amortizes to zero).

Two further sections cover the simulated machine step:

* ``machine_step`` — one `FasdaMachine.compute_forces` pass with traffic
  accounting on and off (its StepStats are asserted against the
  chunked/loop oracles by ``tests/test_machine_vectorized.py`` at these
  sizes, not here);
* ``distributed_step`` — one `DistributedMachine` step, serial vs
  thread-pooled node evaluation, with a bitwise force comparison
  between the modes.

A ``backends`` section (PR 6) times every *available* force backend
(``numpy`` always; ``cext`` when buildable — see
`repro.md.backends`): engine reuse steps/s and one
machine force pass per backend, each validated in-bench against the
float64 loop oracle (forces/energy within the documented bounds) and
against the numpy backend's `StepStats` (exact).  Every record carries
a ``backend`` field and the payload records ``backend_status`` so the
JSON says which backend produced each number and why any are missing.

A ``batched`` section (PR 7) times the fused K-system ``BatchedEngine``
per available backend — cold formation (empty plan cache + priming)
separate from warm steady-state aggregate steps/s, with in-bench
*bitwise* trajectory asserts against solo oracle runs (``cext`` solo
for ``cext``, the flat pure-numpy oracle of ``tests/oracles.py`` for
``numpy``) and ``plan_cache_info`` recorded for cold and warm phases.

Run standalone (not under pytest); the script puts the repository root
on ``sys.path`` so the oracles in ``tests/`` import:

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--smoke]

``--smoke`` runs only the smallest size with one repetition — the CI
sanity check that the script and the equivalence assertions still work
— and writes ``BENCH_hotpath_smoke.json``, leaving the committed record
alone.  The machine phase breakdown is ``repro profile``'s.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

# The float64 oracles live with the tests, one directory up.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.harness.profiling import median_time, split_grid, stats_signature
from repro.md.backends import (
    ENERGY_RTOL,
    FORCE_ATOL,
    available_backends,
    backend_status,
)
from repro.md.cells import CellGrid, CellList
from repro.md.dataset import build_dataset
from repro.md.pairplan import clear_plan_cache, plan_for_grid
from repro.md.reference import compute_forces_bruteforce, compute_forces_cells
from tests.oracles import compute_forces_cells_loop, solo_oracle

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: (label, cell dims) — 64 particles/cell paper density: ~2k / ~10k / ~50k.
SIZES = [
    ("2k", (3, 3, 3)),
    ("10k", (5, 5, 6)),
    ("50k", (9, 9, 10)),
]


def bench_size(label: str, dims, reps: int, check_brute: bool) -> dict:
    system, grid = build_dataset(dims, seed=2023)

    # Plan build, cold (cache cleared) — reported separately because the
    # steady state never pays it.
    clear_plan_cache()
    t0 = time.perf_counter()
    plan = plan_for_grid(grid)
    plan_build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan_for_grid(grid)
    plan_warm_s = time.perf_counter() - t0

    # The padded-shape decode tables now live on the cached plan (they
    # used to be recomputed from the flat index on every padded force
    # pass): cold pays the O(C*cap^2) arange/divmod once per occupancy
    # cap, warm is a tuple return.
    clist = CellList(grid, system.positions)
    cap = int(clist.counts.max())
    t0 = time.perf_counter()
    plan.padded_decode(cap)
    padded_decode_cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    plan.padded_decode(cap)
    padded_decode_warm_s = time.perf_counter() - t0

    # Correctness before speed: batched path vs the per-cell loop, and
    # (small sizes only) vs the O(N^2) brute-force golden model.
    f_new, e_new = compute_forces_cells(system, grid)
    f_old, e_old = compute_forces_cells_loop(system, grid)
    err_loop = float(np.abs(f_new - f_old).max())
    assert err_loop < 1e-10, f"batched vs loop forces differ: {err_loop}"
    assert abs(e_new - e_old) <= 1e-10 * max(abs(e_old), 1.0)
    err_brute = None
    if check_brute:
        f_ref, e_ref = compute_forces_bruteforce(system, grid.cell_edge)
        err_brute = float(np.abs(f_new - f_ref).max())
        assert err_brute < 1e-10, f"batched vs brute forces differ: {err_brute}"
        assert abs(e_new - e_ref) <= 1e-10 * max(abs(e_ref), 1.0)

    t_batched = median_time(lambda: compute_forces_cells(system, grid), reps)
    t_loop = median_time(lambda: compute_forces_cells_loop(system, grid), reps)

    machine = FasdaMachine(MachineConfig(dims), system=system.copy())
    machine.step()  # prime force banks + warm caches
    t_step = median_time(lambda: machine.step(), reps)

    result = {
        "label": label,
        "dims": list(dims),
        "n_particles": int(system.n),
        "reps": reps,
        "backend": "numpy",
        "plan_build_s": plan_build_s,
        "plan_warm_s": plan_warm_s,
        "padded_decode_cold_s": padded_decode_cold_s,
        "padded_decode_warm_s": padded_decode_warm_s,
        "forces_cells_batched_s": t_batched,
        "forces_cells_loop_s": t_loop,
        "speedup_vs_loop": t_loop / t_batched,
        "machine_step_s": t_step,
        "max_force_err_vs_loop": err_loop,
        "max_force_err_vs_bruteforce": err_brute,
    }
    print(
        f"[{label}] N={system.n}: batched {t_batched * 1e3:.1f} ms, "
        f"loop {t_loop * 1e3:.1f} ms ({result['speedup_vs_loop']:.1f}x), "
        f"machine step {t_step * 1e3:.1f} ms, "
        f"plan build {plan_build_s * 1e3:.2f} ms"
    )
    return result


def bench_backends(label: str, dims, reps: int, steps: int) -> list:
    """Engine steps/s and machine force pass per available force backend.

    Every backend is validated in-bench before it is timed: engine
    forces/energy against the per-cell float64 loop oracle within the
    documented ``FORCE_ATOL``/``ENERGY_RTOL`` bounds, machine
    ``StepStats`` exactly against the numpy backend (the float64
    recheck keeps admissions bitwise identical on every backend).
    """
    from repro.md.engine import ReferenceEngine

    system, grid = build_dataset(dims, seed=2023)
    f_ref, e_ref = compute_forces_cells_loop(system, grid)

    machine0 = FasdaMachine(MachineConfig(dims), system=system.copy())
    sig_ref = None

    out = []
    for name in available_backends():
        f_b, e_b = compute_forces_cells(system, grid, force_impl=name)
        err_f = float(np.abs(f_b - f_ref).max())
        assert err_f < FORCE_ATOL, f"{name}: forces vs loop oracle: {err_f}"
        assert abs(e_b - e_ref) <= ENERGY_RTOL * max(abs(e_ref), 1.0), (
            f"{name}: energy vs loop oracle: {e_b} != {e_ref}"
        )

        machine0.force_impl = name
        sig = stats_signature(machine0.compute_forces(collect_traffic=True))
        if sig_ref is None:
            sig_ref = sig
        assert sig == sig_ref, f"{name}: machine StepStats diverged from numpy"

        eng = ReferenceEngine(system=system.copy(), grid=grid, force_impl=name)
        eng.run(1)  # prime + warm caches / JIT / cext build
        t0 = time.perf_counter()
        eng.run(steps)
        engine_steps_per_s = steps / (time.perf_counter() - t0)

        t_machine = median_time(
            lambda: machine0.compute_forces(collect_traffic=True), reps
        )

        out.append({
            "label": label,
            "backend": name,
            "dims": list(dims),
            "n_particles": int(system.n),
            "steps": steps,
            "reps": reps,
            "engine_reuse_steps_per_s": engine_steps_per_s,
            "machine_force_pass_s": t_machine,
            "max_force_err_vs_loop": err_f,
            "stats_match_numpy": True,
        })
        print(
            f"[{label}] backend {name}: engine reuse "
            f"{engine_steps_per_s:.2f} steps/s, machine force pass "
            f"{t_machine * 1e3:.1f} ms (force err {err_f:.1e})"
        )
    machine0.force_impl = None
    return out


def bench_batched(reps: int, smoke: bool) -> list:
    """Fused K-system stepping vs K solo engines, per available backend.

    Validated in-bench before timing: two of the K systems are stepped
    solo on the batched run's oracle backend (see
    ``tests.oracles.solo_oracle``) and their trajectories must be
    *bitwise* identical to the batched segments.  Cold batch formation
    (empty plan cache, priming) is reported separately from warm
    steady-state stepping, with ``plan_cache_info`` recorded for both.
    """
    from repro.md.batch import BatchedEngine
    from repro.md.engine import ReferenceEngine
    from repro.md.pairplan import plan_cache_info

    k_systems = 16 if smoke else 64
    steps = 10 if smoke else 30
    out = []
    for name in available_backends():
        cases = [
            build_dataset((3, 3, 3), particles_per_cell=4, seed=3000 + i)
            for i in range(k_systems)
        ]
        clear_plan_cache()
        engine = BatchedEngine(force_impl=name)
        t0 = time.perf_counter()
        for sysv, grid in cases:
            engine.add(sysv.copy(), grid)
        engine.prime()
        formation_s = time.perf_counter() - t0
        cold_cache = plan_cache_info()._asdict()
        engine.step(5)  # past the post-build honeymoon
        t0 = time.perf_counter()
        engine.step(steps)
        wall = time.perf_counter() - t0
        warm_cache = plan_cache_info()._asdict()
        agg = k_systems * steps / wall

        # Guarded twin: same campaign with the health guards armed.
        # Guards are read-only, so the trajectories must stay bitwise
        # identical.  The healthy-path overhead (DESIGN.md §12 budgets
        # < 2%) is measured by timing the guard pass itself against the
        # per-step wall — a twin-run wall delta at this workload size is
        # dominated by run-to-run noise, not by the guards.
        from repro.faults.health import GuardConfig

        guarded = BatchedEngine(force_impl=name, guard=GuardConfig())
        for sysv, grid in cases:
            guarded.add(sysv.copy(), grid)
        guarded.prime()
        guarded.step(5)
        t0 = time.perf_counter()
        guarded.step(steps)
        guard_wall = time.perf_counter() - t0
        reps = 30 if smoke else 100
        t0 = time.perf_counter()
        for _ in range(reps):
            guarded._guard_displacement()
            guarded._guard_forces(guarded._energies)
            guarded._step_tripped.clear()
        guard_pass_s = (time.perf_counter() - t0) / reps
        guard_overhead = guard_pass_s / (wall / steps)
        # The <2% budget is stated for the default K=64 workload; the
        # K=16 smoke batch steps so fast that the guard pass's fixed
        # numpy-call overhead (~15 us) alone exceeds 2% of a cext step,
        # so smoke gates at a looser bound.
        budget = 0.06 if smoke else 0.02
        assert guard_overhead < budget, (
            f"{name}: guard pass {guard_pass_s * 1e6:.0f} us/step is "
            f"{100 * guard_overhead:.2f}% of the step — over the "
            f"<{100 * budget:.0f}% budget"
        )
        for h_plain, h_guard in zip(engine.handles(), guarded.handles()):
            a = engine.extract(h_plain)
            b = guarded.extract(h_guard)
            assert np.array_equal(a.positions, b.positions) and np.array_equal(
                a.velocities, b.velocities
            ), f"{name}: guarded run diverged from unguarded (handle {h_plain})"
        assert not guarded.poison_log, f"{name}: healthy run tripped a guard"

        # Bitwise oracle: two sample systems stepped solo.
        for i in (0, k_systems - 1):
            sysv, grid = cases[i]
            with solo_oracle(name) as oracle:
                solo = ReferenceEngine(sysv.copy(), grid, force_impl=oracle)
                solo.run(5 + steps, record_every=0)
            got = engine.extract(engine.handles()[i])
            assert np.array_equal(got.positions, solo.system.positions), (
                f"{name}: batched segment {i} diverged from solo {oracle}"
            )
            assert np.array_equal(got.velocities, solo.system.velocities), (
                f"{name}: batched segment {i} velocities diverged"
            )

        out.append({
            "backend": name,
            "solo_oracle": oracle,
            "k_systems": k_systems,
            "n_per_system": int(cases[0][0].n),
            "steps": steps,
            "formation_s": formation_s,
            "aggregate_steps_per_s": agg,
            "plan_cache_cold": cold_cache,
            "plan_cache_warm": warm_cache,
            "bitwise_vs_solo": True,
            "guarded_aggregate_steps_per_s": k_systems * steps / guard_wall,
            "guard_pass_s_per_step": guard_pass_s,
            "guard_overhead_frac": guard_overhead,
            "guarded_bitwise_vs_unguarded": True,
        })
        print(
            f"[batched] backend {name}: K={k_systems} aggregate "
            f"{agg:.0f} steps/s (formation {formation_s * 1e3:.0f} ms, "
            f"bitwise vs solo {oracle}: ok, guard overhead "
            f"{100 * guard_overhead:+.1f}%)"
        )
    return out


def bench_machine_step(label: str, dims, reps: int) -> dict:
    """One compute_forces pass on the numpy backend, traffic on and off."""
    fpga_grid = split_grid(dims)
    machine = FasdaMachine(MachineConfig(dims, fpga_grid))
    machine.compute_forces()  # warm plan/table caches + band lists

    t_traffic = median_time(
        lambda: machine.compute_forces(collect_traffic=True), reps
    )
    t_no_traffic = median_time(
        lambda: machine.compute_forces(collect_traffic=False), reps
    )

    result = {
        "label": label,
        "dims": list(dims),
        "fpga_grid": list(fpga_grid),
        "n_particles": int(machine.system.n),
        "reps": reps,
        "machine_step_s": t_traffic,
        "machine_step_no_traffic_s": t_no_traffic,
    }
    print(
        f"[{label}] machine step: {t_traffic * 1e3:.1f} ms "
        f"(traffic off {t_no_traffic * 1e3:.1f} ms)"
    )
    return result


def bench_distributed_step(label: str, dims, reps: int) -> dict:
    """One distributed force pass: serial vs thread-pooled nodes."""
    fpga_grid = split_grid(dims)
    system, _ = build_dataset(dims, seed=2023)

    serial = DistributedMachine(
        MachineConfig(dims, fpga_grid), system=system.copy(), parallel=False
    )
    pooled = DistributedMachine(
        MachineConfig(dims, fpga_grid), system=system.copy(), parallel=True
    )
    try:
        serial.compute_forces()
        pooled.compute_forces()
        assert np.array_equal(serial.forces, pooled.forces), (
            "parallel node evaluation diverged from serial"
        )

        t_serial = median_time(serial.compute_forces, reps)
        t_parallel = median_time(pooled.compute_forces, reps)
    finally:
        pooled.close()

    result = {
        "label": label,
        "dims": list(dims),
        "fpga_grid": list(fpga_grid),
        "n_particles": int(system.n),
        "reps": reps,
        "distributed_step_s": t_serial,
        "distributed_step_parallel_s": t_parallel,
        "parallel_speedup": t_serial / t_parallel,
        "parallel_bitwise_identical": True,
    }
    print(
        f"[{label}] distributed step ({np.prod(fpga_grid)} nodes): "
        f"serial {t_serial * 1e3:.1f} ms, "
        f"parallel {t_parallel * 1e3:.1f} ms "
        f"({result['parallel_speedup']:.2f}x)"
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest size, 1 rep — CI sanity check",
    )
    parser.add_argument("--reps", type=int, default=5, help="repetitions (median)")
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "output JSON path (default: results/BENCH_hotpath.json, or "
            "results/BENCH_hotpath_smoke.json with --smoke)"
        ),
    )
    args = parser.parse_args()
    out = args.out or os.path.join(
        RESULTS_DIR,
        "BENCH_hotpath_smoke.json" if args.smoke else "BENCH_hotpath.json",
    )

    sizes = SIZES[:1] if args.smoke else SIZES
    reps = 1 if args.smoke else max(args.reps, 5)
    results = [
        bench_size(label, dims, reps, check_brute=(label == "2k"))
        for label, dims in sizes
    ]
    machine_results = [
        bench_machine_step(label, dims, reps) for label, dims in sizes
    ]
    # Per-backend engine/machine rates; the 50k box would triple wall
    # time for the same ranking, so backends stop at the 10k box.
    backend_sizes = sizes[:1] if args.smoke else sizes[:2]
    backend_steps = 2 if args.smoke else 10
    backend_results = []
    for label, dims in backend_sizes:
        backend_results.extend(bench_backends(label, dims, reps, backend_steps))
    batched_results = bench_batched(reps, args.smoke)
    # The distributed step adds exchange and merge work to the machine
    # pass; the largest size would dominate wall time for no extra
    # signal.
    dist_sizes = sizes[:1] if args.smoke else sizes[:2]
    dist_reps = 1 if args.smoke else max(args.reps // 2, 2)
    distributed_results = [
        bench_distributed_step(label, dims, dist_reps)
        for label, dims in dist_sizes
    ]

    payload = {
        "benchmark": "hotpath",
        "smoke": args.smoke,
        "backend_status": backend_status(),
        "sizes": results,
        "backends": backend_results,
        "batched": batched_results,
        "machine_step": machine_results,
        "distributed_step": distributed_results,
    }
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
