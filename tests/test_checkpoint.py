"""Machine checkpoint/restore through the fasda-checkpoint-v2 format.

The container, partition and manager contracts live in
``test_checkpoint_v2``; this module pins the single-machine cases.
"""

import os

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint_v2, save_checkpoint_v2
from repro.core.config import MachineConfig
from repro.core.machine import FasdaMachine
from repro.md import build_dataset
from repro.util.errors import CheckpointError


@pytest.fixture()
def short_run_machine():
    system, _ = build_dataset((3, 3, 3), particles_per_cell=8, seed=6)
    machine = FasdaMachine(MachineConfig((3, 3, 3)), system=system)
    machine.run(5, record_every=5)
    return machine


def test_roundtrip_state_identical(short_run_machine, tmp_path):
    machine = short_run_machine
    path = save_checkpoint_v2(machine, str(tmp_path / "ckpt.npz"))
    restored, step = load_checkpoint_v2(path)
    assert step == 5
    np.testing.assert_array_equal(restored.system.positions, machine.system.positions)
    np.testing.assert_array_equal(restored.velocities, machine.velocities)
    np.testing.assert_array_equal(restored.forces, machine.forces)
    assert restored.config == machine.config


def test_restored_trajectory_continues_identically(short_run_machine, tmp_path):
    """The acid test: restore must be bit-transparent to the dynamics."""
    machine = short_run_machine
    path = save_checkpoint_v2(machine, str(tmp_path / "ckpt.npz"))
    restored, _ = load_checkpoint_v2(path)
    machine.run(5, record_every=0)
    restored.run(5, record_every=0)
    np.testing.assert_array_equal(
        restored.system.positions, machine.system.positions
    )
    np.testing.assert_array_equal(restored.velocities, machine.velocities)


def test_charged_machine_roundtrip(tmp_path):
    system, _ = build_dataset(
        (3, 3, 3), particles_per_cell=8, species=("Na", "Cl"),
        charged=True, min_distance=2.4, seed=7,
    )
    cfg = MachineConfig((3, 3, 3), force_model="lj+coulomb", dt_fs=0.5)
    machine = FasdaMachine(cfg, system=system)
    machine.run(3, record_every=0)
    path = save_checkpoint_v2(machine, str(tmp_path / "salt.npz"))
    restored, _ = load_checkpoint_v2(path)
    assert restored.config.force_model == "lj+coulomb"
    np.testing.assert_array_equal(restored.system.charges, machine.system.charges)
    machine.run(3, record_every=0)
    restored.run(3, record_every=0)
    np.testing.assert_array_equal(restored.velocities, machine.velocities)


def test_unprimed_machine_roundtrip(tmp_path):
    system, _ = build_dataset((3, 3, 3), particles_per_cell=4, seed=8)
    machine = FasdaMachine(MachineConfig((3, 3, 3)), system=system)
    path = save_checkpoint_v2(machine, str(tmp_path / "fresh.npz"))
    restored, step = load_checkpoint_v2(path)
    assert step == 0
    assert not restored._primed


def test_bad_file_rejected(tmp_path):
    path = str(tmp_path / "bogus.npz")
    np.savez(path, format=np.array("something-else"), x=np.zeros(3))
    with pytest.raises(CheckpointError, match="not a FASDA checkpoint"):
        load_checkpoint_v2(path)


def test_truncated_file_rejected(short_run_machine, tmp_path):
    path = save_checkpoint_v2(short_run_machine, str(tmp_path / "trunc.npz"))
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="corrupt or unreadable"):
        load_checkpoint_v2(path)


def test_bit_flipped_file_rejected(short_run_machine, tmp_path):
    """A single flipped payload byte is refused with a clear error."""
    path = save_checkpoint_v2(short_run_machine, str(tmp_path / "flip.npz"))
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match=r"flip\.npz"):
        load_checkpoint_v2(path)


def test_save_is_atomic_no_tmp_leftovers(short_run_machine, tmp_path):
    """Overwriting an existing checkpoint never leaves a torn/partial file."""
    path = str(tmp_path / "atomic.npz")
    first = save_checkpoint_v2(short_run_machine, path)
    short_run_machine.run(2)
    second = save_checkpoint_v2(short_run_machine, path)
    assert first == second == path
    assert [f for f in os.listdir(tmp_path) if ".tmp." in f] == []
    restored, step = load_checkpoint_v2(path)
    assert step == 7
    np.testing.assert_array_equal(
        restored.system.positions, short_run_machine.system.positions
    )
