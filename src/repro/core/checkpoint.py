"""Crash-consistent checkpoint / restore for every simulation layer.

Long-timescale campaigns (the drug-discovery workloads of the paper's
introduction run for days) need restartable state.  One format lives
here:

``fasda-checkpoint-v2``
    A versioned container covering :class:`FasdaMachine`,
    :class:`~repro.md.engine.ReferenceEngine`,
    :class:`~repro.core.distributed.DistributedMachine`,
    :class:`~repro.md.batch.BatchedEngine` and a bare
    :class:`~repro.md.system.ParticleSystem` — including CellState
    reuse metadata, transport retry counters, stale-halo snapshots,
    fault plans and the recovery log.  The dynamic state is an inner
    ``.npz`` byte blob carried inside an outer ``.npz`` alongside its
    CRC-32, so corruption anywhere in the payload is detected at load
    time before any object is constructed.  Both archives store their
    members uncompressed; files whose members are deflated (the layout
    written before) load through the same reader.  The loader validates
    format, digest and config round-trip *before* constructing
    anything, raising :class:`~repro.util.errors.CheckpointError` on
    truncated / bit-flipped / wrong-format files instead of leaking
    ``zipfile``/``KeyError`` internals.

The writer is crash-consistent: bytes go to a same-directory temp
file, ``fsync``, then ``os.replace`` — a reader never observes a torn
file, and a crash mid-write leaves the previous checkpoint intact.

Fault-plan determinism note: the injectors
(:class:`~repro.faults.FaultInjector`,
:class:`~repro.faults.NodeFaultInjector`) are *stateless* keyed-RNG
constructions — every decision is a pure function of (plan, event key).
Persisting the plans plus the iteration counter therefore fully
determines all post-restore fault decisions; there is no RNG stream
position to serialize.

:class:`CheckpointManager` adds interval policy on top: periodic saves,
pruning, and a ``load_latest`` that quarantines corrupt files (renamed
``*.corrupt``) and falls back to the previous interval checkpoint.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import MachineConfig
from repro.core.machine import FasdaMachine
from repro.md.backends import RETIRED_BACKENDS
from repro.md.params import LJTable
from repro.md.system import ParticleSystem
from repro.util.errors import CheckpointError, ValidationError

#: Format identifier of the container format.
CHECKPOINT_FORMAT_V2 = "fasda-checkpoint-v2"

#: Meta keys of retired path-selection knobs.  Machine, distributed and
#: engine payloads written before those layers had one production path
#: carry them; the loader drops them (a restored run takes the one path
#: whatever the key chose: bitwise-equal on the machines, equal to
#: round-off in the engine's recorded potentials).
_RETIRED_META_KEYS = ("pair_path", "traffic_impl", "exchange_impl", "reuse_state")

#: Object kinds a v2 checkpoint can hold.  ``system`` is a bare
#: :class:`~repro.md.system.ParticleSystem` — the job service uses it
#: for per-job result and preemption checkpoints.
V2_KINDS = ("machine", "engine", "distributed", "batch", "system")


# ---------------------------------------------------------------------------
# Atomic byte persistence
# ---------------------------------------------------------------------------


def _atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` crash-consistently.

    Temp file in the same directory (same filesystem, so the final
    ``os.replace`` is atomic), ``fsync`` before the rename so the bytes
    are durable when the name appears, then a directory ``fsync`` so the
    rename itself survives a power cut.
    """
    dirname = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(
        dirname, f".{os.path.basename(path)}.tmp.{os.getpid()}"
    )
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CheckpointError(f"could not write checkpoint {path!r}: {exc}")
    try:
        dfd = os.open(dirname, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)


def _npz_bytes(**arrays: Any) -> bytes:
    """An ``.npz`` archive of ``arrays`` with stored (not deflated) members.

    Deflate cost more than the rest of a save put together; the CRC-32
    over the payload covers the raw bytes either way, and ``np.load``
    reads stored and deflated members alike.
    """
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# v2: the container format
# ---------------------------------------------------------------------------


def _config_from_dict(cfg_dict: Dict[str, Any], path: str) -> MachineConfig:
    """Reconstruct and round-trip-validate a checkpointed MachineConfig."""
    d = dict(cfg_dict)
    try:
        # Tuples arrive as lists from JSON.
        d["global_cells"] = tuple(d["global_cells"])
        d["fpga_grid"] = tuple(d["fpga_grid"])
        config = MachineConfig(**d)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path!r} carries a config that does not "
            f"reconstruct: {exc}"
        )
    if dataclasses.asdict(config) != d:
        raise CheckpointError(
            f"checkpoint {path!r} carries a config that does not "
            "round-trip (fields changed meaning between versions?)"
        )
    return config


def _history_arrays(history) -> Dict[str, np.ndarray]:
    return {
        "hist_step": np.array([r.step for r in history], dtype=np.int64),
        "hist_kin": np.array([r.kinetic for r in history], dtype=np.float64),
        "hist_pot": np.array([r.potential for r in history], dtype=np.float64),
    }


def _history_from_arrays(inner) -> List[Any]:
    from repro.md.engine import EnergyRecord

    return [
        EnergyRecord(int(s), float(k), float(p))
        for s, k, p in zip(
            inner["hist_step"], inner["hist_kin"], inner["hist_pot"]
        )
    ]


def _system_arrays(system: ParticleSystem) -> Dict[str, np.ndarray]:
    return {
        "species_names": np.array(system.lj_table.species),
        "positions": system.positions,
        "velocities": system.velocities,
        "forces": system.forces,
        "species": system.species,
        "charges": system.charges,
        "box": system.box,
    }


def _validate_finite_state(arrays: Dict[str, Any], context: str) -> None:
    """Refuse to resume NaN/Inf-poisoned dynamic state.

    The CRC catches bit rot, but a checkpoint *written* from an already
    poisoned run is internally consistent — this is the semantic check
    on top.  Shared by every kind (each batch segment passes through
    here too).
    """
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            bad = int(np.count_nonzero(~np.isfinite(arr)))
            raise CheckpointError(
                f"checkpoint {context} carries {bad} non-finite {name} "
                "component(s); refusing to resume poisoned state"
            )


def _system_from_arrays(inner, context: str = "<v2 payload>") -> ParticleSystem:
    _validate_finite_state(
        {
            "positions": inner["positions"],
            "velocities": inner["velocities"],
            "forces": inner["forces"],
        },
        context,
    )
    return ParticleSystem(
        positions=inner["positions"],
        velocities=inner["velocities"],
        species=inner["species"],
        lj_table=LJTable(tuple(str(s) for s in inner["species_names"])),
        box=inner["box"],
        forces=inner["forces"],
        charges=inner["charges"],
    )


def _opt_asdict(obj) -> Optional[Dict[str, Any]]:
    return None if obj is None else dataclasses.asdict(obj)


# -- per-kind payload builders ------------------------------------------------


def _machine_payload(m: FasdaMachine) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    meta = {
        "config": dataclasses.asdict(m.config),
        "step": m.history[-1].step if m.history else 0,
        "primed": bool(m._primed),
        "last_potential": float(m._last_potential),
        "force_impl": m.force_impl,
        "reuse_skin": float(m.reuse_skin),
        "cellstate": m._cell_state.meta() if m._cell_state is not None else None,
    }
    arrays = _system_arrays(m.system)
    arrays["velocities32"] = m._velocities32
    arrays["forces32"] = m._forces32
    arrays.update(_history_arrays(m.history))
    return meta, arrays


def _restore_machine(meta, inner) -> Tuple[FasdaMachine, int]:
    config = _config_from_dict(meta["config"], "<v2 payload>")
    machine = FasdaMachine(config, system=_system_from_arrays(inner))
    machine._velocities32 = inner["velocities32"].copy()
    machine._forces32 = inner["forces32"].copy()
    machine._primed = bool(meta["primed"])
    machine._last_potential = float(meta["last_potential"])
    # Absent on pre-backend checkpoints: None = process-wide default.
    machine.force_impl = meta.get("force_impl")
    machine.reuse_skin = float(meta["reuse_skin"])
    machine.history = _history_from_arrays(inner)
    if meta.get("cellstate") is not None:
        machine.ensure_cell_state().restore_meta(meta["cellstate"])
    return machine, int(meta["step"])


def _engine_payload(e) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    seg = e._segment()
    primed = seg is not None and seg.primed
    if seg is not None:
        e._batch._sync_segment_stats()
    meta = {
        "grid_dims": list(e.grid.dims),
        "cell_edge": float(e.grid.cell_edge),
        "dt_fs": float(e.dt_fs),
        "shift": bool(e.shift),
        "reuse_skin": None if e.reuse_skin is None else float(e.reuse_skin),
        "force_impl": e.force_impl,
        "step": e.history[-1].step if e.history else 0,
        "primed": bool(primed),
        "prime_recorded": bool(e._prime_recorded),
        "last_potential": e._potential() if primed else 0.0,
        "cellstate": seg.state.meta() if seg is not None else None,
    }
    arrays = _system_arrays(e.system)
    arrays.update(_history_arrays(e.history))
    return meta, arrays


def _restore_engine(meta, inner):
    """Rebuild a :class:`~repro.md.engine.ReferenceEngine` from its payload.

    The system is admitted to the engine's batch with the saved
    cell-state counters; the first call primes it afresh (one build,
    as a restored batch segment pays), which reproduces the saved
    forces bitwise.  ``primed`` and ``last_potential`` are kept in the
    payload for readers of the format and need no restoring.
    """
    from repro.md.cells import CellGrid
    from repro.md.engine import ReferenceEngine

    engine = ReferenceEngine(
        system=_system_from_arrays(inner),
        grid=CellGrid(tuple(meta["grid_dims"]), meta["cell_edge"]),
        dt_fs=float(meta["dt_fs"]),
        shift=bool(meta["shift"]),
        reuse_skin=meta["reuse_skin"],
        force_impl=meta.get("force_impl"),
    )
    engine._prime_recorded = bool(meta["prime_recorded"])
    engine.history = _history_from_arrays(inner)
    if meta.get("cellstate") is not None:
        engine._load().state.restore_meta(meta["cellstate"])
    return engine, int(meta["step"])


def _stale_halo_arrays(m) -> Dict[str, np.ndarray]:
    """Pack the (dst, cid) -> (iteration, cell data) snapshot cache."""
    keys, pids, fracs, specs = [], [], [], []
    for (dst, cid), (it, data) in sorted(m._stale_halo.items()):
        keys.append((dst, cid, it, len(data.particle_ids)))
        pids.append(data.particle_ids)
        fracs.append(data.fractions.reshape(-1, 3))
        specs.append(data.species)
    return {
        "halo_keys": np.array(keys, dtype=np.int64).reshape(-1, 4),
        "halo_pids": (
            np.concatenate(pids) if pids else np.empty(0, dtype=np.int64)
        ),
        "halo_frac": (
            np.concatenate(fracs) if fracs else np.empty((0, 3))
        ),
        "halo_species": (
            np.concatenate(specs) if specs else np.empty(0, dtype=np.int32)
        ),
    }


def _restore_stale_halo(m, inner) -> None:
    from repro.core.distributed import _CellData

    keys = inner["halo_keys"]
    offset = 0
    for dst, cid, it, count in keys:
        lo, hi = offset, offset + int(count)
        offset = hi
        m._stale_halo[(int(dst), int(cid))] = (
            int(it),
            _CellData(
                particle_ids=inner["halo_pids"][lo:hi].copy(),
                fractions=inner["halo_frac"][lo:hi].copy(),
                species=inner["halo_species"][lo:hi].copy(),
            ),
        )


def _distributed_payload(m) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    node_plan = None
    if m.node_injector is not None:
        d = dataclasses.asdict(m.node_injector.plan)
        d["events"] = [dataclasses.asdict(e) for e in m.node_injector.plan.events]
        node_plan = d
    meta = {
        "config": dataclasses.asdict(m.config),
        "step": m.history[-1].step if m.history else 0,
        "primed": bool(m._primed),
        "iteration": int(m._iteration),
        "last_potential": float(m._last_potential),
        "force_impl": m.force_impl,
        "state_builds": int(m.state_builds),
        "state_reused_steps": int(m.state_reused_steps),
        "degradation": m.degradation,
        "total_position_packets": int(m.total_position_packets),
        "total_force_packets": int(m.total_force_packets),
        "last_degraded_records": int(m.last_degraded_records),
        "lipschitz": m._lipschitz,
        "fault_plan": _opt_asdict(m.injector.plan if m.injector else None),
        "transport": _opt_asdict(m.transport),
        "transport_stats": dataclasses.asdict(m.transport_stats),
        "degradation_log": [dataclasses.asdict(r) for r in m.degradation_log],
        "node_plan": node_plan,
        "shadow_interval": int(m.shadow_interval),
        "watchdog_timeout_cycles": float(m.watchdog_timeout_cycles),
        "recovery_log": [dataclasses.asdict(r) for r in m.recovery_log],
        "down_until": {str(k): int(v) for k, v in m._down_until.items()},
        "shadow_iteration": m._shadow_iteration,
        "shadow_records": {str(k): int(v) for k, v in m._shadow_records.items()},
        "shadow_traffic_records": int(m.shadow_traffic_records),
        "node_slowdown_log": [list(t) for t in m.node_slowdown_log],
        "rescale_log": [dataclasses.asdict(r) for r in m.rescale_log],
        "rescale_aborted_log": [
            dataclasses.asdict(r) for r in m.rescale_aborted_log
        ],
        "migration_switch": dataclasses.asdict(m.migration_switch_stats),
        "migration_transport_stats": dataclasses.asdict(
            m.migration_transport_stats
        ),
        "balancer": m.balancer.meta() if m.balancer is not None else None,
    }
    arrays = _system_arrays(m.system)
    arrays["velocities32"] = m._velocities32
    arrays["forces32"] = m._forces32
    # The partition map the machine was actually running — the restore
    # validator replays the config-derived map against it, so a payload
    # whose node count disagrees with its partition is rejected up front.
    arrays["cell_node"] = m._cell_node
    arrays.update(_history_arrays(m.history))
    arrays.update(_stale_halo_arrays(m))
    return meta, arrays


def _validate_distributed_partition(config, meta, inner) -> None:
    """Reject payloads whose partition disagrees with their config.

    Runs *before* the machine is constructed, raising a
    :class:`~repro.util.errors.CheckpointError` that names the offending
    field — the alternative is an index error deep inside the first
    force pass after restore.  Pre-elasticity checkpoints carry no
    ``cell_node`` array; only the fields present are checked.
    """
    n = config.n_fpgas
    if "cell_node" in inner:
        from repro.core.cellids import cell_node_ids
        from repro.md.cells import CellGrid

        grid = CellGrid(config.global_cells, config.cutoff)
        coords = grid.cell_coords(np.arange(grid.n_cells, dtype=np.int64))
        expected = cell_node_ids(coords, config.local_cells, config.fpga_grid)
        stored = np.asarray(inner["cell_node"], dtype=np.int64)
        if stored.shape != expected.shape or not np.array_equal(
            stored, expected
        ):
            raise CheckpointError(
                "checkpoint field 'cell_node' disagrees with the restored "
                f"config's partition map ({n} node(s), fpga_grid "
                f"{tuple(config.fpga_grid)}); the payload was written at a "
                "different cluster size"
            )
    for field_name in ("down_until", "shadow_records"):
        bad = [
            k
            for k in meta.get(field_name, {})
            if not 0 <= int(k) < n
        ]
        if bad:
            raise CheckpointError(
                f"checkpoint field {field_name!r} references node(s) "
                f"{sorted(int(k) for k in bad)} outside the restored "
                f"config's {n}-node partition"
            )


def _restore_distributed(meta, inner):
    from repro.core.distributed import DistributedMachine
    from repro.faults import (
        DegradationRecord,
        FaultInjector,
        FaultPlan,
        NodeFaultEvent,
        NodeFaultPlan,
        RecoveryRecord,
        TransportConfig,
        TransportStats,
    )

    config = _config_from_dict(meta["config"], "<v2 payload>")
    _validate_distributed_partition(config, meta, inner)
    injector = None
    if meta["fault_plan"] is not None:
        injector = FaultInjector(FaultPlan(**meta["fault_plan"]))
    transport = None
    if meta["transport"] is not None:
        transport = TransportConfig(**meta["transport"])
    node_faults = None
    if meta["node_plan"] is not None:
        d = dict(meta["node_plan"])
        events = tuple(NodeFaultEvent(**e) for e in d.pop("events"))
        node_faults = NodeFaultPlan(events=events, **d)
    m = DistributedMachine(
        config,
        system=_system_from_arrays(inner),
        injector=injector,
        transport=transport,
        degradation=meta["degradation"],
        node_faults=node_faults,
        shadow_interval=int(meta["shadow_interval"]),
        watchdog_timeout_cycles=float(meta["watchdog_timeout_cycles"]),
    )
    m._velocities32 = inner["velocities32"].copy()
    m._forces32 = inner["forces32"].copy()
    m._primed = bool(meta["primed"])
    m._iteration = int(meta["iteration"])
    m._last_potential = float(meta["last_potential"])
    # Absent on pre-backend checkpoints: None = process-wide default.
    m.force_impl = meta.get("force_impl")
    m.state_builds = int(meta["state_builds"])
    m.state_reused_steps = int(meta["state_reused_steps"])
    m.total_position_packets = int(meta["total_position_packets"])
    m.total_force_packets = int(meta["total_force_packets"])
    m.last_degraded_records = int(meta["last_degraded_records"])
    m._lipschitz = meta["lipschitz"]
    m.transport_stats = TransportStats(**meta["transport_stats"])
    m.degradation_log = [
        DegradationRecord(**r) for r in meta["degradation_log"]
    ]
    m.recovery_log = [RecoveryRecord(**r) for r in meta["recovery_log"]]
    m._down_until = {int(k): int(v) for k, v in meta["down_until"].items()}
    m._shadow_iteration = meta["shadow_iteration"]
    m._shadow_records = {
        int(k): int(v) for k, v in meta["shadow_records"].items()
    }
    m.shadow_traffic_records = int(meta["shadow_traffic_records"])
    m.node_slowdown_log = [
        (int(a), int(b), float(c)) for a, b, c in meta["node_slowdown_log"]
    ]
    # Elasticity state (absent on pre-elasticity checkpoints).  JSON
    # round-trips turn tuples into lists and int dict keys into strings;
    # rebuild the exact record types.
    from repro.core.elasticity import LoadBalancer
    from repro.faults import RescaleAbortedRecord, RescaleRecord
    from repro.network.netsim import SwitchStats

    for r in meta.get("rescale_log", []):
        d = dict(r)
        d["grid_old"] = tuple(d["grid_old"])
        d["grid_new"] = tuple(d["grid_new"])
        d["flows"] = tuple(tuple(f) for f in d["flows"])
        m.rescale_log.append(RescaleRecord(**d))
    m.rescale_aborted_log = [
        RescaleAbortedRecord(**r) for r in meta.get("rescale_aborted_log", [])
    ]
    if meta.get("migration_switch") is not None:
        d = dict(meta["migration_switch"])
        d["max_occupancy"] = {
            int(k): int(v) for k, v in d["max_occupancy"].items()
        }
        m.migration_switch_stats = SwitchStats(**d)
    if meta.get("migration_transport_stats") is not None:
        m.migration_transport_stats = TransportStats(
            **meta["migration_transport_stats"]
        )
    if meta.get("balancer") is not None:
        m.balancer = LoadBalancer.from_meta(meta["balancer"])
    m.history = _history_from_arrays(inner)
    _restore_stale_halo(m, inner)
    return m, int(meta["step"])


def _batch_payload(batch) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Packed layout: one array per field over all segments, in order.

    ``seg_n`` holds each segment's row count; its per-segment metadata
    (handle, steps, thermostat, aux, cell-state counters) is in the JSON
    meta.  Takes an engine or a :class:`~repro.md.batch.BatchSnapshot`
    already taken at this boundary.
    """
    from repro.md.batch import BatchSnapshot

    snap = batch if isinstance(batch, BatchSnapshot) else batch.snapshot()
    meta = dict(snap.settings, segments=snap.segments)
    arrays = {
        "species_names": np.array(
            snap.lj_table.species if snap.lj_table is not None else (), dtype=str
        ),
        "positions": snap.positions,
        "velocities": snap.velocities,
        "forces": snap.forces,
        "species": snap.species,
        "box": snap.boxes,
        "seg_n": np.diff(snap.bases),
    }
    return meta, arrays


def _batch_segment_arrays(meta, inner) -> List[Dict[str, Any]]:
    """Per-segment ``_system_from_arrays`` inputs of a batch payload.

    Slices the packed arrays by the ``seg_n`` offsets after checking
    them against the segment list and the row count.  Payloads without
    ``seg_n`` carry the earlier layout, one ``seg{i}_*`` member per
    field and segment.
    """
    n_segs = len(meta["segments"])
    if "seg_n" not in inner:
        return [
            {
                key[len(prefix):]: value
                for key, value in inner.items()
                if key.startswith(prefix)
            }
            for prefix in (f"seg{i}_" for i in range(n_segs))
        ]
    seg_n = np.asarray(inner["seg_n"])
    rows = len(inner["positions"])
    if seg_n.shape != (n_segs,) or seg_n.dtype.kind not in "iu":
        raise CheckpointError(
            f"checkpoint field 'seg_n' has shape {seg_n.shape}, dtype "
            f"{seg_n.dtype}; the payload lists {n_segs} segment(s)"
        )
    if (seg_n < 0).any():
        raise CheckpointError(
            f"checkpoint field 'seg_n' holds a negative row count: {seg_n.tolist()}"
        )
    if int(seg_n.sum()) != rows:
        raise CheckpointError(
            f"checkpoint field 'seg_n' sums to {int(seg_n.sum())} rows; "
            f"the packed arrays hold {rows}"
        )
    for name in ("velocities", "forces", "species"):
        if len(inner[name]) != rows:
            raise CheckpointError(
                f"checkpoint field {name!r} holds {len(inner[name])} rows; "
                f"'positions' holds {rows}"
            )
    if inner["box"].shape != (n_segs, 3):
        raise CheckpointError(
            f"checkpoint field 'box' has shape {inner['box'].shape}; the "
            f"payload lists {n_segs} segment(s)"
        )
    bases = np.concatenate(([0], np.cumsum(seg_n)))
    return [
        {
            "positions": inner["positions"][lo:hi],
            "velocities": inner["velocities"][lo:hi],
            "forces": inner["forces"][lo:hi],
            "species": inner["species"][lo:hi],
            "species_names": inner["species_names"],
            "box": inner["box"][k],
            "charges": None,
        }
        for k, (lo, hi) in enumerate(zip(bases[:-1], bases[1:]))
    ]


def _restore_batch(meta, inner):
    """Rebuild a :class:`~repro.md.batch.BatchedEngine` from its payload.

    Segments are re-admitted with their saved handles, thermostats and
    auxiliary payloads; cell-state counters are restored before the
    first force pass re-primes each segment (one extra build per
    segment — the same restart cost a restored solo engine pays, and
    bitwise-safe for the continued trajectory).
    """
    from repro.md.batch import BatchedEngine
    from repro.md.cells import CellGrid
    from repro.md.thermostat import thermostat_from_meta

    segment_arrays = _batch_segment_arrays(meta, inner)
    be = BatchedEngine(
        dt_fs=float(meta["dt_fs"]),
        shift=bool(meta["shift"]),
        force_impl=meta.get("force_impl"),
        reuse_skin=meta["reuse_skin"],
    )
    be.step_count = int(meta["step_count"])
    edge = meta["cell_edge"]
    for sm, seg_inner in zip(meta["segments"], segment_arrays):
        system = _system_from_arrays(
            seg_inner, context=f"<batch segment handle={sm['handle']}>"
        )
        handle = be.add(
            system,
            CellGrid(tuple(sm["grid_dims"]), edge),
            thermostat=thermostat_from_meta(sm["thermostat"]),
            aux=sm["aux"],
            handle=int(sm["handle"]),
        )
        seg = be._by_handle[handle]
        seg.steps_base = int(sm["steps"])
        seg.last_potential = float(sm["last_potential"])
        seg.state.restore_meta(sm["cellstate"])
    return be, int(meta["step_count"])


def _system_payload(s: ParticleSystem) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Bare-system payload: the job service's result/preemption unit.

    Scheduling metadata (steps done, attempt number) lives in the job
    journal lines that reference the file, not in the checkpoint — the
    checkpoint is exactly the arrays whose bitwise round-trip the
    resume contract needs.
    """
    return {"n": int(s.n)}, _system_arrays(s)


def _restore_system(meta, inner) -> Tuple[ParticleSystem, int]:
    return _system_from_arrays(inner, context="<system payload>"), 0


_KIND_DISPATCH = {
    "machine": (_machine_payload, _restore_machine),
    "engine": (_engine_payload, _restore_engine),
    "distributed": (_distributed_payload, _restore_distributed),
    "batch": (_batch_payload, _restore_batch),
    "system": (_system_payload, _restore_system),
}


def _kind_of(obj) -> str:
    from repro.core.distributed import DistributedMachine
    from repro.md.batch import BatchedEngine, BatchSnapshot
    from repro.md.engine import ReferenceEngine

    if isinstance(obj, DistributedMachine):
        return "distributed"
    if isinstance(obj, FasdaMachine):
        return "machine"
    if isinstance(obj, ReferenceEngine):
        return "engine"
    if isinstance(obj, (BatchedEngine, BatchSnapshot)):
        return "batch"
    if isinstance(obj, ParticleSystem):
        return "system"
    raise ValidationError(
        f"cannot checkpoint a {type(obj).__name__}; supported: "
        "FasdaMachine, ReferenceEngine, DistributedMachine, BatchedEngine "
        "(or a BatchSnapshot of one), ParticleSystem"
    )


def save_checkpoint_v2(obj, path: str) -> str:
    """Write any supported simulation object to ``path``, atomically.

    The dynamic state is serialized to an inner ``.npz`` whose bytes are
    digested with CRC-32 and embedded in the outer container — so any
    corruption of the payload (or of the container's own zip members) is
    detected at load time before construction.  Returns ``path``.
    """
    kind = _kind_of(obj)
    build, _ = _KIND_DISPATCH[kind]
    meta, arrays = build(obj)
    payload = _npz_bytes(meta=np.array(json.dumps(meta)), **arrays)
    container = _npz_bytes(
        format=np.array(CHECKPOINT_FORMAT_V2),
        kind=np.array(kind),
        crc32=np.array(zlib.crc32(payload), dtype=np.int64),
        payload=np.frombuffer(payload, dtype=np.uint8),
    )
    _atomic_write_bytes(path, container)
    return path


def load_checkpoint_v2(path: str):
    """Restore a v2 checkpoint.

    Returns ``(obj, step)`` where ``obj`` is the restored machine /
    engine / distributed machine / batched engine / system.  Raises
    :class:`~repro.util.errors.CheckpointError` on any unreadable,
    wrong-format, or digest-mismatching file — before any simulation
    object is constructed — and on a digest-valid payload that does not
    restore (a field tampered with before the digest was taken).  No
    other exception escapes.
    """
    try:
        with np.load(path, allow_pickle=False) as outer:
            for key in ("format", "kind", "crc32", "payload"):
                if key not in outer.files:
                    raise CheckpointError(
                        f"not a FASDA checkpoint: {path!r} lacks {key!r}"
                    )
            if str(outer["format"]) != CHECKPOINT_FORMAT_V2:
                raise CheckpointError(
                    f"not a FASDA checkpoint (format {outer['format']!r} "
                    f"in {path!r}, expected {CHECKPOINT_FORMAT_V2!r})"
                )
            kind = str(outer["kind"])
            if kind not in V2_KINDS:
                raise CheckpointError(
                    f"checkpoint {path!r} holds unknown kind {kind!r}"
                )
            payload = outer["payload"].tobytes()
            expect = int(outer["crc32"])
        actual = zlib.crc32(payload)
        if actual != expect:
            raise CheckpointError(
                f"checkpoint {path!r} failed its CRC-32 digest "
                f"(stored {expect:#010x}, computed {actual:#010x}): "
                "refusing to load corrupt state"
            )
        with np.load(io.BytesIO(payload), allow_pickle=False) as inner_npz:
            meta = json.loads(str(inner_npz["meta"]))
            inner = {
                k: inner_npz[k] for k in inner_npz.files if k != "meta"
            }
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(
            f"corrupt or unreadable checkpoint {path!r}: "
            f"{type(exc).__name__}: {exc}"
        )
    _, restore = _KIND_DISPATCH[kind]
    try:
        if kind in ("machine", "distributed", "engine"):
            for key in _RETIRED_META_KEYS:
                meta.pop(key, None)
        # Payloads saved on a retired backend restore onto its successor.
        if meta.get("force_impl") in RETIRED_BACKENDS:
            meta["force_impl"] = RETIRED_BACKENDS[meta["force_impl"]]
        return restore(meta, inner)
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path!r}: {exc}") from exc
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path!r} does not restore: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Interval checkpointing with quarantine + fallback
# ---------------------------------------------------------------------------

_CKPT_NAME = re.compile(r"^(?P<prefix>.+)-(?P<step>\d{10})\.npz$")


class CheckpointManager:
    """Interval checkpoints in a directory, newest-first recovery.

    Parameters
    ----------
    directory:
        Where checkpoints live (created if missing).
    interval:
        :meth:`maybe_save` writes when ``step % interval == 0``.
    keep:
        Checkpoints retained; older ones are pruned after each save (a
        crash between write and prune only ever leaves *extra* files).
    prefix:
        Filename prefix (``{prefix}-{step:010d}.npz``).
    """

    def __init__(
        self,
        directory: str,
        interval: int = 10,
        keep: int = 3,
        prefix: str = "ckpt",
    ):
        if interval < 1:
            raise ValidationError(f"interval must be >= 1, got {interval}")
        if keep < 1:
            raise ValidationError(f"keep must be >= 1, got {keep}")
        self.directory = directory
        self.interval = int(interval)
        self.keep = int(keep)
        self.prefix = prefix
        #: Paths quarantined (renamed ``*.corrupt``) by :meth:`load_latest`.
        self.quarantined: List[str] = []
        os.makedirs(directory, exist_ok=True)

    def path_for(self, step: int) -> str:
        return os.path.join(
            self.directory, f"{self.prefix}-{int(step):010d}.npz"
        )

    def checkpoints(self) -> List[Tuple[int, str]]:
        """(step, path) of every live checkpoint, ascending by step."""
        out = []
        for name in os.listdir(self.directory):
            m = _CKPT_NAME.match(name)
            if m and m.group("prefix") == self.prefix:
                out.append(
                    (int(m.group("step")), os.path.join(self.directory, name))
                )
        return sorted(out)

    def maybe_save(self, obj, step: int) -> Optional[str]:
        """Save when ``step`` lands on the interval; returns the path."""
        if step % self.interval != 0:
            return None
        return self.save(obj, step)

    def save(self, obj, step: int) -> str:
        path = save_checkpoint_v2(obj, self.path_for(step))
        live = self.checkpoints()
        for _, old in live[: max(0, len(live) - self.keep)]:
            try:
                os.unlink(old)
            except OSError:  # pragma: no cover - concurrent prune
                pass
        return path

    def load_latest(self):
        """Restore from the newest loadable checkpoint.

        A corrupt file is quarantined (renamed ``*.corrupt`` so it never
        shadows good state again, but stays on disk for forensics) and
        the previous interval checkpoint is tried — the fallback the
        crash-consistency contract promises.  Returns
        ``(obj, step, path)``; raises
        :class:`~repro.util.errors.CheckpointError` when no checkpoint
        survives.
        """
        errors = []
        for step, path in reversed(self.checkpoints()):
            try:
                obj, loaded_step = load_checkpoint_v2(path)
                return obj, loaded_step, path
            except CheckpointError as exc:
                quarantine = path + ".corrupt"
                try:
                    os.replace(path, quarantine)
                    self.quarantined.append(quarantine)
                except OSError:  # pragma: no cover - rename race
                    pass
                errors.append(f"{path}: {exc}")
        raise CheckpointError(
            f"no loadable checkpoint under {self.directory!r}"
            + (
                "; quarantined: " + "; ".join(errors)
                if errors
                else " (none written yet)"
            )
        )
