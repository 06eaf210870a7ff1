"""Parallel campaign runner: process-pool fan-out over design points.

Sweeps and ablations are embarrassingly parallel — each design point is
an independent, seeded computation — yet until this module every harness
loop ran them one after another.  :func:`run_campaign` takes an ordered
list of :class:`CampaignPoint` descriptors, evaluates them either inline
or on a :class:`~concurrent.futures.ProcessPoolExecutor`, and returns
the per-point payloads **in submission order** regardless of completion
order.

Determinism contract
--------------------
A campaign's merged result is a pure function of its points:

* every worker is a module-level function registered by name (pickle
  travels by reference, so serial and parallel modes execute the exact
  same code object);
* every point carries its own seed, and the runner reseeds NumPy's
  legacy global RNG before each evaluation, so a worker sees the same
  random state whether it runs first in the parent or alone in a child;
* payloads are collected by submission index, never by completion order.

Consequently ``run_campaign(points, parallel=True).deterministic()``
equals ``run_campaign(points, parallel=False).deterministic()`` bit for
bit — the property ``tests/test_campaign.py`` locks down.  Wall-clock
derived metrics (measured steps/s) live under each payload's reserved
``result["timing"]`` key, which the deterministic view strips, so
timing noise can never break the contract.

Crash resumability
------------------
With ``journal=``, every completed point is appended (one fsynced JSONL
line) the moment it lands; with ``resume=`` pointing at such a journal,
a re-run adopts the recorded payloads instead of re-executing — matched
by :func:`point_fingerprint`, so only identical computations replay.
Combined with per-point ``retries`` (which survive even SIGKILLed pool
children), a campaign killed at any instant resumes to the same
deterministic result with no point executed twice.

The rate workers (:func:`engine_rate`, :func:`machine_rate`,
:func:`batch_rate`) are also the timers behind ``repro bench``
(:mod:`repro.harness.bench`), the perf gate.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import CampaignError, ValidationError

# ---------------------------------------------------------------------------
# Worker registry and point descriptors
# ---------------------------------------------------------------------------

_WORKERS: Dict[str, Callable[..., Dict[str, Any]]] = {}


def register_worker(name: str):
    """Register a module-level campaign worker under ``name``.

    Workers must be importable (module level) so child processes can
    resolve them; they take ``seed`` plus keyword parameters and return
    a JSON-able dict.
    """

    def deco(fn):
        if name in _WORKERS:
            raise ValidationError(f"duplicate campaign worker {name!r}")
        _WORKERS[name] = fn
        return fn

    return deco


def worker_names() -> List[str]:
    """Registered worker names (sorted)."""
    return sorted(_WORKERS)


@dataclass(frozen=True)
class CampaignPoint:
    """One design point: a worker name, its parameters, and a seed."""

    worker: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 2023
    label: str = ""


def point(worker: str, seed: int = 2023, label: str = "", **params) -> CampaignPoint:
    """Convenience constructor with params normalized to a sorted tuple."""
    return CampaignPoint(
        worker, tuple(sorted(params.items())), seed, label or worker
    )


def _execute(pt: CampaignPoint) -> Tuple[Dict[str, Any], float]:
    """Evaluate one point; returns (deterministic payload, wall seconds)."""
    fn = _WORKERS.get(pt.worker)
    if fn is None:
        raise ValidationError(
            f"unknown campaign worker {pt.worker!r}; have {worker_names()}"
        )
    np.random.seed(pt.seed % (2 ** 32))
    t0 = time.perf_counter()
    out = fn(seed=pt.seed, **dict(pt.params))
    wall = time.perf_counter() - t0
    payload = {
        "label": pt.label or pt.worker,
        "worker": pt.worker,
        "seed": pt.seed,
        "params": {k: v for k, v in pt.params},
        "result": out,
    }
    return payload, wall


# ---------------------------------------------------------------------------
# The completion journal (crash-resumable campaigns)
# ---------------------------------------------------------------------------


def point_fingerprint(pt: CampaignPoint) -> str:
    """Canonical identity of a design point for journal matching.

    Sorted-keys JSON over everything that determines the payload (the
    worker, its parameters, the seed, the label) — so a journal entry is
    only ever replayed against the *same* computation, and editing a
    sweep invalidates exactly the points that changed.
    """
    return json.dumps(
        {
            "worker": pt.worker,
            "seed": pt.seed,
            "label": pt.label or pt.worker,
            "params": [[k, v] for k, v in pt.params],
        },
        sort_keys=True,
    )


def load_journal(path: str) -> Dict[str, Dict[str, Any]]:
    """Parse a campaign journal into fingerprint -> entry.

    Tolerates a torn final line (the writer may have been killed
    mid-append); later entries for the same fingerprint win.
    """
    entries: Dict[str, Dict[str, Any]] = {}
    if not os.path.exists(path):
        return entries
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a killed writer
            if isinstance(entry, dict) and "key" in entry and "payload" in entry:
                entries[entry["key"]] = entry
    return entries


class _Journal:
    """Append-only JSONL of completed points, durable per line."""

    def __init__(self, path: str):
        dirname = os.path.dirname(path)
        if dirname:
            os.makedirs(dirname, exist_ok=True)
        self.path = path
        self._fh = open(path, "a")

    def append(self, key: str, payload: Dict[str, Any], wall: float) -> None:
        self._fh.write(
            json.dumps(
                {"key": key, "label": payload["label"], "payload": payload,
                 "wall_s": wall},
                sort_keys=True,
            )
            + "\n"
        )
        # One completed point survives any subsequent crash: flush the
        # line and push it to disk before reporting success.
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class CampaignResult:
    """Per-point payloads in submission order plus timing metadata."""

    points: List[CampaignPoint]
    results: List[Dict[str, Any]]
    point_wall_s: List[float]
    wall_s: float
    mode: str
    n_workers: int
    #: Points satisfied from a resume journal instead of executed.
    n_resumed: int = 0

    def merged(self) -> Dict[str, Dict[str, Any]]:
        """Label -> payload, including measured-timing metrics."""
        return {p["label"]: p for p in self.results}

    def deterministic(self) -> Dict[str, Dict[str, Any]]:
        """Label -> payload with wall-clock metrics stripped.

        This is the view the serial==parallel identity holds over; the
        reserved ``result["timing"]`` subdict is the only part of a
        payload allowed to vary between runs.
        """
        out = {}
        for p in self.results:
            res = {k: v for k, v in p["result"].items() if k != "timing"}
            out[p["label"]] = {**p, "result": res}
        return out


def _execute_with_retry(
    pt: CampaignPoint, retries: int, retry_backoff_s: float
) -> Tuple[Dict[str, Any], float]:
    """Serial-path execution with exponential-backoff retries."""
    attempt = 0
    while True:
        try:
            return _execute(pt)
        except Exception as exc:
            if attempt >= retries:
                raise CampaignError(
                    f"campaign point {pt.label or pt.worker!r} failed after "
                    f"{attempt + 1} attempt(s): {type(exc).__name__}: {exc}"
                )
            time.sleep(retry_backoff_s * (2 ** attempt))
            attempt += 1


def _pool_context():
    """Prefer fork so test-registered workers exist in children."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-POSIX


def _run_parallel(
    points: List[CampaignPoint],
    pending: List[int],
    pairs: List[Optional[Tuple[Dict[str, Any], float]]],
    journal: Optional[_Journal],
    keys: List[str],
    n_workers: int,
    retries: int,
    retry_backoff_s: float,
) -> None:
    """Fan ``pending`` out over a process pool, surviving worker death.

    A SIGKILLed child takes the whole :class:`ProcessPoolExecutor` down
    (every in-flight future raises :class:`BrokenProcessPool`), so the
    retry unit is the pool: unfinished points are resubmitted on a fresh
    pool after a backoff, each point charged one attempt per broken
    round it was in flight for, until its retry budget runs out.
    Completions are journaled as they land, never re-executed.
    """
    attempts = {i: 0 for i in pending}
    todo = list(pending)
    while todo:
        ctx = _pool_context()
        broken = False
        failures: Dict[int, str] = {}
        with ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx) as pool:
            futures = {pool.submit(_execute, points[i]): i for i in todo}
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for fut in done:
                    i = futures[fut]
                    try:
                        payload, w = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    except Exception as exc:  # worker raised, pool survives
                        failures[i] = f"{type(exc).__name__}: {exc}"
                        continue
                    pairs[i] = (payload, w)
                    if journal is not None:
                        journal.append(keys[i], payload, w)
                if broken:
                    break
        todo = [i for i in todo if pairs[i] is None]
        for i in todo:
            attempts[i] += 1
            if attempts[i] > retries:
                pt = points[i]
                reason = failures.get(i, "worker process died")
                raise CampaignError(
                    f"campaign point {pt.label or pt.worker!r} failed after "
                    f"{attempts[i]} attempt(s): {reason}"
                )
        if todo:
            time.sleep(retry_backoff_s * (2 ** (min(attempts[i] for i in todo) - 1)))


def run_campaign(
    points: Sequence[CampaignPoint],
    parallel: bool = False,
    max_workers: Optional[int] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
    retries: int = 0,
    retry_backoff_s: float = 0.05,
) -> CampaignResult:
    """Evaluate every point, inline or fanned out over processes.

    Results are returned in submission order in both modes, so the
    merged payloads are identical; only the timing fields differ.

    Parameters
    ----------
    journal:
        Path of an append-only JSONL journal; every completed point is
        written (flushed and fsynced) the moment it finishes, so a
        killed campaign leaves a durable record of exactly what is done.
    resume:
        Path of a journal from an earlier (killed) run of the *same*
        campaign; journaled points are adopted verbatim instead of
        re-executed (matched by :func:`point_fingerprint`, so edited
        points re-run).  ``resume`` and ``journal`` may name the same
        file — resumed entries are not re-appended.
    retries:
        Extra attempts per point after a failure (a raising worker, or
        a killed child process in parallel mode).  ``0`` fails fast.
    retry_backoff_s:
        Base of the exponential backoff between attempts.

    Serial, parallel, and killed-then-resumed runs of the same points
    all yield identical :meth:`CampaignResult.deterministic` views.
    """
    points = list(points)
    labels = [p.label or p.worker for p in points]
    if len(set(labels)) != len(labels):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        raise ValidationError(f"campaign labels must be unique, duplicated: {dupes}")
    for p in points:
        if p.worker not in _WORKERS:
            raise ValidationError(
                f"unknown campaign worker {p.worker!r}; have {worker_names()}"
            )
    if retries < 0:
        raise ValidationError(f"retries must be >= 0, got {retries}")

    keys = [point_fingerprint(p) for p in points]
    pairs: List[Optional[Tuple[Dict[str, Any], float]]] = [None] * len(points)
    n_resumed = 0
    if resume:
        journaled = load_journal(resume)
        for i, key in enumerate(keys):
            entry = journaled.get(key)
            if entry is not None:
                pairs[i] = (entry["payload"], float(entry["wall_s"]))
                n_resumed += 1
    pending = [i for i, pr in enumerate(pairs) if pr is None]

    jnl = None
    if journal:
        jnl = _Journal(journal)
        if resume and os.path.abspath(resume) != os.path.abspath(journal):
            # Carry adopted completions into the new journal so it is
            # a self-contained record of the whole campaign.
            for i in range(len(points)):
                if pairs[i] is not None:
                    jnl.append(keys[i], pairs[i][0], pairs[i][1])

    # Resolve the worker count before choosing a mode: spinning up a
    # process pool for one worker only adds pickling overhead (a
    # campaign measured parallel_speedup 0.956 on a 1-core host), so
    # workers == 1 takes the serial path — journal
    # appends and resume fingerprints are identical either way.
    n_workers = max_workers or os.cpu_count() or 1
    n_workers = max(1, min(n_workers, max(1, len(pending))))
    t0 = time.perf_counter()
    try:
        if not parallel or len(pending) <= 1 or n_workers <= 1:
            for i in pending:
                payload, w = _execute_with_retry(
                    points[i], retries, retry_backoff_s
                )
                pairs[i] = (payload, w)
                if jnl is not None:
                    jnl.append(keys[i], payload, w)
            mode, n_workers = "serial", 1
        else:
            _run_parallel(
                points, pending, pairs, jnl, keys,
                n_workers, retries, retry_backoff_s,
            )
            mode = "parallel"
    finally:
        if jnl is not None:
            jnl.close()
    wall = time.perf_counter() - t0
    return CampaignResult(
        points=points,
        results=[p for p, _ in pairs],
        point_wall_s=[w for _, w in pairs],
        wall_s=wall,
        mode=mode,
        n_workers=n_workers,
        n_resumed=n_resumed,
    )


# ---------------------------------------------------------------------------
# Workers: reuse-amortization rate measurements
# ---------------------------------------------------------------------------


@register_worker("engine_rate")
def engine_rate(
    seed: int,
    dims: Tuple[int, int, int] = (5, 5, 6),
    particles_per_cell: int = 64,
    steps: int = 30,
    force_impl: Optional[str] = None,
) -> Dict[str, Any]:
    """ReferenceEngine steps/s over its persistent CellState.

    The final potential energy ships in the payload so the campaign
    determinism test doubles as a trajectory-equivalence check.
    ``force_impl`` selects the force backend (see
    :mod:`repro.md.backends`); the payload records which backend
    actually produced the number under ``"backend"`` (an unavailable
    optional backend falls back to ``"numpy"``).
    """
    from repro.md.backends import resolve_backend
    from repro.md.dataset import build_dataset
    from repro.md.engine import ReferenceEngine

    system, grid = build_dataset(
        dims, particles_per_cell=particles_per_cell, seed=seed
    )
    eng = ReferenceEngine(system=system, grid=grid, force_impl=force_impl)
    eng.run(1)  # prime forces and warm the plan/state caches
    t0 = time.perf_counter()
    eng.run(steps)
    wall = time.perf_counter() - t0
    return {
        "n_particles": int(system.n),
        "steps": steps,
        "backend": resolve_backend(force_impl).name,
        "state_builds": eng.state_builds,
        "rebuild_rate": eng.state_builds / (steps + 2),
        "final_potential": float(eng.history[-1].potential),
        "timing": {"steps_per_s": steps / wall},
    }


@register_worker("machine_rate")
def machine_rate(
    seed: int,
    dims: Tuple[int, int, int] = (5, 5, 6),
    fpga_grid: Tuple[int, int, int] = (1, 1, 1),
    particles_per_cell: int = 64,
    steps: int = 30,
    traffic: bool = True,
    mode: str = "run",
    force_impl: Optional[str] = None,
) -> Dict[str, Any]:
    """FasdaMachine steps/s over its step-persistent cell state.

    ``mode="run"`` integrates (migrations update the cell state in
    place and the skin/2 trigger rebuilds it — the honest end-to-end
    number; ``rebuild_rate`` and ``update_rate`` are their shares of the
    passes); ``mode="eval"`` re-evaluates forces on a frozen
    configuration (the steady-state amortization ceiling).
    ``force_impl`` selects the force backend; machine results are
    bitwise identical across backends (the float64 recheck through
    ``PairFilter.admit_r2`` stays authoritative), so only the timing
    and the recorded ``"backend"`` differ.
    """
    from repro.core.config import MachineConfig
    from repro.core.machine import FasdaMachine
    from repro.md.backends import resolve_backend
    from repro.md.dataset import build_dataset

    cfg = MachineConfig(dims, fpga_grid)
    system, _ = build_dataset(
        dims, particles_per_cell=particles_per_cell, seed=seed
    )
    machine = FasdaMachine(cfg, system=system)
    machine.force_impl = force_impl
    last = machine.compute_forces(collect_traffic=traffic)  # warm-up
    t0 = time.perf_counter()
    if mode == "eval":
        for _ in range(steps):
            last = machine.compute_forces(collect_traffic=traffic)
    elif mode == "run":
        for _ in range(steps):
            machine.step(collect_traffic=traffic)
        last = machine.last_stats
    else:
        raise ValidationError(f"machine_rate mode must be run/eval, got {mode!r}")
    wall = time.perf_counter() - t0
    return {
        "n_particles": int(system.n),
        "steps": steps,
        "mode": mode,
        "traffic": traffic,
        "backend": resolve_backend(force_impl).name,
        "state_builds": int(last.state_builds),
        "rebuild_rate": int(last.state_builds) / (steps + 1),
        "state_updates": int(last.state_updates),
        "update_rate": int(last.state_updates) / (steps + 1),
        "potential_energy": float(last.potential_energy),
        "timing": {"steps_per_s": steps / wall},
    }


@register_worker("batch_rate")
def batch_rate(
    seed: int,
    k_systems: int = 8,
    particles_per_cell: int = 4,
    steps: int = 30,
    force_impl: Optional[str] = None,
) -> Dict[str, Any]:
    """Aggregate steps/s of the fused K-system BatchedEngine.

    A small K keeps the default campaign quick; ``repro batch`` runs
    the full K=256 sweep with its serial baseline (see
    :func:`repro.harness.jobs.run_batch_bench`).  The summed final
    potential makes the determinism check double as a per-segment
    trajectory-equivalence check.
    """
    from repro.md.batch import BatchedEngine
    from repro.md.dataset import build_dataset

    engine = BatchedEngine(force_impl=force_impl)
    for i in range(k_systems):
        sysv, grid = build_dataset(
            (3, 3, 3), particles_per_cell=particles_per_cell, seed=seed + i
        )
        engine.add(sysv, grid)
    engine.prime()
    engine.step(2)  # warm past formation
    t0 = time.perf_counter()
    engine.step(steps)
    wall = time.perf_counter() - t0
    pots = engine.potentials()
    return {
        "k_systems": k_systems,
        "n_particles": int(engine.n_particles),
        "steps": steps,
        "backend": engine.backend_name,
        "state_builds": sum(
            engine.state_builds(h) for h in engine.handles()
        ),
        "final_potential_sum": float(sum(pots.values())),
        "timing": {"aggregate_steps_per_s": k_systems * steps / wall},
    }


# ---------------------------------------------------------------------------
# Workers: sweep / ablation design points
# ---------------------------------------------------------------------------


@register_worker("fpga_scaling")
def fpga_scaling_point(
    seed: int,
    global_cells: Tuple[int, int, int] = (4, 4, 4),
    n_fpgas: int = 1,
    margin: float = 0.9,
) -> Dict[str, Any]:
    """One node count of the FPGA-scaling sweep (sweeps.run_fpga_scaling)."""
    from repro.core.cycles import estimate_performance
    from repro.core.machine import FasdaMachine
    from repro.harness.sweeps import best_fitting_config

    cfg = best_fitting_config(tuple(global_cells), n_fpgas, margin=margin)
    if cfg is None:
        return {"n_fpgas": n_fpgas, "fits": False}
    machine = FasdaMachine(cfg, seed=seed)
    perf = estimate_performance(cfg, machine.measure_workload())
    return {
        "n_fpgas": n_fpgas,
        "fits": True,
        "pes_per_spe": cfg.pes_per_spe,
        "spes_per_cbb": cfg.spes_per_cbb,
        "pes_per_cbb": cfg.pes_per_cbb,
        "rate_us_per_day": perf.rate_us_per_day,
    }


@lru_cache(maxsize=4)
def _sensitivity_inputs(seed: int):
    """Workload stats shared by every sensitivity point at this seed.

    Cached per process: the serial path measures once for all nine
    perturbations (matching the historical loop), and each pool child
    measures once for however many points it is handed.  The stats are
    deterministic in the seed, so the cache never changes a result.
    """
    from repro.core.config import MachineConfig, strong_scaling_configs
    from repro.core.machine import FasdaMachine

    cfg_small = MachineConfig((3, 3, 3))
    stats_small = FasdaMachine(cfg_small, seed=seed).measure_workload()
    strong = strong_scaling_configs()
    stats_strong = FasdaMachine(strong["4x4x4-A"], seed=seed).measure_workload()
    return cfg_small, stats_small, strong, stats_strong


@register_worker("sensitivity")
def sensitivity_point(
    seed: int, pf: float = 1.0, pb: float = 1.0
) -> Dict[str, Any]:
    """One perturbation pair of the model-constant sensitivity study."""
    from repro.core.cycles import (
        PE_BUSY_FRACTION,
        PE_FILTER_EFFICIENCY,
        estimate_performance,
    )

    cfg_small, stats_small, strong, stats_strong = _sensitivity_inputs(seed)
    fe = min(1.0, PE_FILTER_EFFICIENCY * pf)
    bf = min(1.0, PE_BUSY_FRACTION * pb)
    rate_small = estimate_performance(
        cfg_small, stats_small, filter_efficiency=fe, busy_fraction=bf
    ).rate_us_per_day
    rate_a = estimate_performance(
        strong["4x4x4-A"], stats_strong, filter_efficiency=fe, busy_fraction=bf
    ).rate_us_per_day
    rate_c = estimate_performance(
        strong["4x4x4-C"], stats_strong, filter_efficiency=fe, busy_fraction=bf
    ).rate_us_per_day
    return {
        "filter_efficiency": fe,
        "busy_fraction": bf,
        "rate_3x3x3_us_per_day": rate_small,
        "strong_gain_c_over_a": rate_c / rate_a,
    }


@lru_cache(maxsize=4)
def _filter_sweep_stats(seed: int):
    """The one workload measurement the whole filter sweep shares."""
    from repro.core.config import MachineConfig
    from repro.core.machine import FasdaMachine

    return FasdaMachine(MachineConfig((3, 3, 3)), seed=seed).measure_workload()


@register_worker("filter_ablation")
def filter_ablation_point(seed: int, filters: int = 6) -> Dict[str, Any]:
    """One filter count of the filters-per-pipeline ablation."""
    from repro.core.config import MachineConfig
    from repro.core.cycles import estimate_performance

    cfg = MachineConfig((3, 3, 3), filters_per_pipeline=filters)
    perf = estimate_performance(cfg, _filter_sweep_stats(seed))
    return {
        "filters": filters,
        "rate_us_per_day": perf.rate_us_per_day,
        "filter_hw_utilization": perf.utilization["filter"].hardware,
        "pe_hw_utilization": perf.utilization["pe"].hardware,
        "bound": perf.bound,
    }


# ---------------------------------------------------------------------------
# The standard campaign and its JSON document
# ---------------------------------------------------------------------------


def build_default_campaign(
    seed: int = 2023,
    steps: int = 30,
    dims: Tuple[int, int, int] = (5, 5, 6),
) -> List[CampaignPoint]:
    """The default campaign's design points.

    The reference engine's step rate over its persistent state and the
    simulated machine's step rates (end-to-end and steady-state), plus
    the FPGA-scaling sweep and a slice of the sensitivity study so the
    campaign exercises heterogeneous workers.

    Force-backend points: the three rate points above run on the
    process-wide backend (``--force-impl``), and one extra
    engine/machine reuse pair is added per *available* backend beyond
    numpy (``cext`` when buildable).
    """
    from repro.md.backends import available_backends

    pts = [
        point("engine_rate", seed=seed, label="engine/reuse",
              dims=dims, steps=steps),
        point("machine_rate", seed=seed, label="machine/reuse",
              dims=dims, steps=steps, mode="run"),
        point("machine_rate", seed=seed, label="machine/reuse-eval",
              dims=dims, steps=steps, mode="eval"),
    ]
    for name in available_backends():
        if name == "numpy":
            continue
        pts.append(
            point("engine_rate", seed=seed, label=f"engine/reuse-{name}",
                  dims=dims, steps=steps, force_impl=name)
        )
        pts.append(
            point("machine_rate", seed=seed, label=f"machine/reuse-{name}",
                  dims=dims, steps=steps, mode="run", force_impl=name)
        )
    pts.append(
        point("batch_rate", seed=seed, label="batch/k8", steps=steps)
    )
    for n in (1, 2, 4, 8):
        pts.append(
            point("fpga_scaling", seed=seed, label=f"scaling/{n}-fpga",
                  n_fpgas=n)
        )
    for pf, pb in ((0.9, 1.0), (1.0, 1.0), (1.1, 1.0)):
        pts.append(
            point("sensitivity", seed=seed, label=f"sensitivity/pf={pf}",
                  pf=pf, pb=pb)
        )
    return pts


def run_default_campaign(
    seed: int = 2023,
    steps: int = 30,
    dims: Tuple[int, int, int] = (5, 5, 6),
    compare_serial: bool = True,
    max_workers: Optional[int] = None,
    journal: Optional[str] = None,
    resume: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the standard campaign and assemble its JSON document.

    Runs the campaign in parallel and (optionally) serially, verifies
    the merged payloads agree exactly, and returns the JSON-able
    document with both wall times, the rebuild rates and the backend
    speedups.  ``journal``/``resume`` are forwarded to
    :func:`run_campaign`: a resumed campaign adopts the journaled
    completions and produces the same points/summary content as an
    uninterrupted run.
    """
    pts = build_default_campaign(seed=seed, steps=steps, dims=dims)
    par = run_campaign(
        pts, parallel=True, max_workers=max_workers,
        journal=journal, resume=resume,
    )
    doc: Dict[str, Any] = {
        "seed": seed,
        "steps": steps,
        "dims": list(dims),
        "cpu_count": os.cpu_count(),
        "n_points": len(pts),
        "n_resumed": par.n_resumed,
        "parallel_wall_s": par.wall_s,
        "parallel_workers": par.n_workers,
        "points": par.merged(),
    }
    if compare_serial:
        ser = run_campaign(pts, parallel=False)
        if ser.deterministic() != par.deterministic():
            raise ValidationError(
                "campaign determinism violated: serial and parallel "
                "merged payloads differ"
            )
        doc["serial_wall_s"] = ser.wall_s
        doc["parallel_speedup"] = ser.wall_s / max(par.wall_s, 1e-12)
    merged = doc["points"]

    def rate(label):
        return merged[label]["result"]["timing"]["steps_per_s"]

    doc["summary"] = {
        "engine_rebuild_rate": merged["engine/reuse"]["result"]["rebuild_rate"],
        "machine_rebuild_rate": merged["machine/reuse"]["result"]["rebuild_rate"],
    }
    backend_speedups: Dict[str, Dict[str, float]] = {}
    for label, payload in merged.items():
        backend = payload["result"].get("backend")
        if backend in (None, "numpy") or not label.endswith(f"-{backend}"):
            continue
        base_label = label[: -len(f"-{backend}")]
        if base_label in merged:
            backend_speedups.setdefault(backend, {})[
                f"{base_label.split('/')[0]}_speedup"
            ] = rate(label) / rate(base_label)
    if backend_speedups:
        doc["summary"]["backend_speedups"] = backend_speedups
    return doc


def write_campaign_json(doc: Dict[str, Any], path: str) -> str:
    """Write a campaign document; returns the path."""
    dirname = os.path.dirname(path)
    if dirname:
        os.makedirs(dirname, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_campaign_json(path: str) -> Dict[str, Any]:
    """Load a campaign document."""
    with open(path) as fh:
        return json.load(fh)


#: The value each worker's row shows, by payload key.
_HEADLINE = (
    "steps_per_s", "aggregate_steps_per_s", "rate_us_per_day",
    "rate_3x3x3_us_per_day",
)


def format_campaign(doc: Dict[str, Any]) -> str:
    """Human-readable summary table of a campaign document."""
    from repro.harness.report import format_table

    rows = []
    for label in sorted(doc["points"]):
        res = doc["points"][label]["result"]
        values = {**res, **res.get("timing", {})}
        metric = next((k for k in _HEADLINE if k in values), "-")
        value = values.get(metric, float("nan"))
        extra = ""
        if "rebuild_rate" in res:
            extra = f"rebuilds {100 * res['rebuild_rate']:.0f}%"
        if "update_rate" in res:
            extra += f", updates {100 * res['update_rate']:.0f}%"
        rows.append([label, metric, value, extra])
    table = format_table(
        ["point", "metric", "value", "notes"],
        rows,
        precision=3,
        title=(
            f"Campaign: {doc['n_points']} points, "
            f"parallel {doc['parallel_wall_s']:.2f}s "
            f"on {doc['parallel_workers']} workers (cpu_count="
            f"{doc['cpu_count']})"
        ),
    )
    s = doc.get("summary", {})
    lines = [table]
    if s:
        lines.append(
            "rebuild rates — engine {:.0%}, machine {:.0%}".format(
                s["engine_rebuild_rate"], s["machine_rebuild_rate"]
            )
        )
    if "serial_wall_s" in doc:
        lines.append(
            "serial {:.2f}s vs parallel {:.2f}s ({:.2f}x)".format(
                doc["serial_wall_s"], doc["parallel_wall_s"],
                doc["parallel_speedup"],
            )
        )
    return "\n".join(lines)
