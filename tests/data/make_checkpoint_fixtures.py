"""Write the checkpoint fixtures kept in this directory.

The fixtures pin loading of files in the layout that preceded the stored
format: every zip member deflated, and a ``batch`` payload with one
``seg{i}_*`` member per field and segment.  The committed files were
written by commit 68f4216, the last one to write that layout; to write
them again, run this script against a checkout of that commit::

    PYTHONPATH=<checkout>/src python tests/data/make_checkpoint_fixtures.py

``tests/test_checkpoint_fixtures.py`` rebuilds the same states with
:func:`build_system` and :func:`build_batch` on the current code and
checks that each fixture loads and continues bitwise against a fresh
save of them.  Everything runs on the ``numpy`` backend, so the states
do not depend on ``REPRO_FORCE_IMPL``.
"""

import os

from repro.core.checkpoint import save_checkpoint_v2
from repro.md.batch import BatchedEngine
from repro.md.dataset import build_dataset
from repro.md.engine import ReferenceEngine
from repro.md.thermostat import BerendsenThermostat

HERE = os.path.dirname(os.path.abspath(__file__))
SYSTEM_FILE = "ckpt-v2-deflated-system.npz"
BATCH_FILE = "ckpt-v2-deflated-batch.npz"
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


def main(out_dir: str = HERE) -> None:
    system, _ = build_system()
    save_checkpoint_v2(system, os.path.join(out_dir, SYSTEM_FILE))
    save_checkpoint_v2(build_batch(), os.path.join(out_dir, BATCH_FILE))


if __name__ == "__main__":
    main()
