"""Write the checkpoint fixtures kept in this directory.

The fixtures pin loading of files in the layout that preceded the stored
format: every zip member deflated, and a ``batch`` payload with one
``seg{i}_*`` member per field and segment.  The committed files were
written by commit 68f4216, the last one to write that layout; to write
them again, run this script against a checkout of that commit::

    PYTHONPATH=<checkout>/src python tests/data/make_checkpoint_fixtures.py

The system fixture holds the state :func:`build_system` gives since the
engine became a one-segment batch (its final forces moved by float64
round-off): saved by the current code, loaded and written again by
68f4216's writer::

    PYTHONPATH=src python -c "from tests.data import \
        make_checkpoint_fixtures as f; from repro.core.checkpoint import \
        save_checkpoint_v2; save_checkpoint_v2(f.build_system()[0], 'new.npz')"
    PYTHONPATH=<checkout>/src python -c "from repro.core.checkpoint import \
        load_checkpoint_v2 as l, save_checkpoint_v2 as s; \
        s(l('new.npz')[0], 'tests/data/ckpt-v2-deflated-system.npz')"

The machine fixture pins cell-state metadata written before states
counted in-place updates (no ``updates`` key).  The committed file was
written by commit cb81ee9, the last one without that counter; to write
it again, run from the root of this checkout::

    PYTHONPATH=<checkout of cb81ee9>/src python -c \
        "from tests.data import make_checkpoint_fixtures as f; f.save_machine()"

The engine fixture pins an ``engine`` payload written while
:class:`~repro.md.engine.ReferenceEngine` still stepped through its own
per-offset numpy pass, before it became a one-segment batch.  The
committed file was written by commit fc2dc9d; to write it again, run
from the root of this checkout::

    PYTHONPATH=<checkout of fc2dc9d>/src python -c \
        "from tests.data import make_checkpoint_fixtures as f; f.save_engine()"

``tests/test_checkpoint_fixtures.py`` rebuilds the same states with
:func:`build_system`, :func:`build_batch`, :func:`build_machine` and
:func:`build_engine` on the current code and checks that each fixture loads and continues
bitwise against a fresh save of them.  Everything runs on the ``numpy``
backend, so the states do not depend on ``REPRO_FORCE_IMPL``.
"""

import os

from repro.core.checkpoint import save_checkpoint_v2
from repro.core.config import MachineConfig
from repro.core.machine import FasdaMachine
from repro.md.batch import BatchedEngine
from repro.md.dataset import build_dataset
from repro.md.engine import ReferenceEngine
from repro.md.thermostat import BerendsenThermostat

HERE = os.path.dirname(os.path.abspath(__file__))
SYSTEM_FILE = "ckpt-v2-deflated-system.npz"
BATCH_FILE = "ckpt-v2-deflated-batch.npz"
MACHINE_FILE = "ckpt-v2-machine-no-updates.npz"
MACHINE_STEPS = 5
ENGINE_FILE = "ckpt-v2-engine-per-offset.npz"
ENGINE_STEPS = 24
FORCE_IMPL = "numpy"
DIMS = (3, 3, 3)
CUTOFF = 8.5


def build_system():
    """A 54-particle box after three engine steps (non-zero forces)."""
    system, grid = build_dataset(
        DIMS, cutoff=CUTOFF, particles_per_cell=2, seed=71
    )
    ReferenceEngine(system, grid, force_impl=FORCE_IMPL).run(3, record_every=0)
    return system, grid


def build_batch():
    """Three segments of different sizes, one thermostatted, four steps."""
    be = BatchedEngine(force_impl=FORCE_IMPL)
    for seed, ppc in ((72, 2), (73, 3), (74, 2)):
        system, grid = build_dataset(
            DIMS, cutoff=CUTOFF, particles_per_cell=ppc, seed=seed
        )
        thermostat = (
            BerendsenThermostat(300.0, 100.0, be.dt_fs) if seed == 73 else None
        )
        be.add(system, grid, thermostat=thermostat, aux={"seed": seed})
    be.step(4)
    return be


def build_machine():
    """A dense 432-particle machine after five steps, on a box the
    engine first carried 60 steps past the lattice transient, so its
    particles have started to change cell."""
    system, grid = build_dataset(
        DIMS, cutoff=CUTOFF, particles_per_cell=16, seed=75
    )
    ReferenceEngine(system, grid, force_impl=FORCE_IMPL).run(60, record_every=0)
    m = FasdaMachine(MachineConfig(DIMS, cutoff=CUTOFF), system=system)
    m.force_impl = FORCE_IMPL
    m.run(MACHINE_STEPS)
    return m


def build_engine():
    """A 216-particle engine primed and 24 steps in, recording every
    fourth step, so its payload holds a history and cell-state counters
    past a rebuild.  At 8 particles a cell the numpy pass is cut per
    half-shell offset, as the engine's own pass was."""
    system, grid = build_dataset(
        DIMS, cutoff=CUTOFF, particles_per_cell=8, seed=76
    )
    engine = ReferenceEngine(system, grid, force_impl=FORCE_IMPL)
    engine.run(ENGINE_STEPS, record_every=4)
    return engine


def save_engine(out_dir: str = HERE) -> None:
    save_checkpoint_v2(build_engine(), os.path.join(out_dir, ENGINE_FILE))


def save_machine(out_dir: str = HERE) -> None:
    save_checkpoint_v2(build_machine(), os.path.join(out_dir, MACHINE_FILE))


def main(out_dir: str = HERE) -> None:
    system, _ = build_system()
    save_checkpoint_v2(system, os.path.join(out_dir, SYSTEM_FILE))
    save_checkpoint_v2(build_batch(), os.path.join(out_dir, BATCH_FILE))


if __name__ == "__main__":
    main()
