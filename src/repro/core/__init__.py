"""The FASDA accelerator model — the paper's primary contribution.

Layers:

* :mod:`repro.core.config` — design-point configuration and the paper's
  named configurations.
* :mod:`repro.core.cellids` — two-level cell-ID conversion (Sec. 4.2).
* :mod:`repro.core.datapath` — functional filter and force pipeline
  (Secs. 3.3-3.4).
* :mod:`repro.core.packets` — the communication interface (Sec. 4.3).
* :mod:`repro.core.rings` — on-chip ring structure and load accounting
  (Sec. 3.2).
* :mod:`repro.core.sync` — chained synchronization vs. BSP (Sec. 4.4).
* :mod:`repro.core.machine` — :class:`FasdaMachine`, the functional
  multi-node simulator.
* :mod:`repro.core.cycles` — the cycle/utilization performance model
  (Figs. 16-17).
* :mod:`repro.core.resources` — the FPGA resource model (Table 1).
"""

from repro.core.blocks import build_scbb, interleave_particles
from repro.core.checkpoint import (
    CheckpointManager,
    load_checkpoint_v2,
    save_checkpoint_v2,
)
from repro.core.clustersim import ClusterTrace, simulate_cluster
from repro.core.commsim import CommOverlapResult, simulate_comm_overlap
from repro.core.config import (
    MachineConfig,
    all_paper_configs,
    simulated_scaling_configs,
    strong_scaling_configs,
    weak_scaling_configs,
)
from repro.core.cycles import CyclePerformance, estimate_from_config, estimate_performance
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine, StepStats
from repro.core.migration import count_migrations, expected_migration_rate
from repro.core.resources import ResourceUsage, estimate_resources
from repro.core.ringsim import RingSimulator
from repro.core.sync import run_bulk_sync, run_chained_sync

__all__ = [
    "MachineConfig",
    "weak_scaling_configs",
    "strong_scaling_configs",
    "simulated_scaling_configs",
    "all_paper_configs",
    "FasdaMachine",
    "DistributedMachine",
    "StepStats",
    "CyclePerformance",
    "estimate_performance",
    "estimate_from_config",
    "ResourceUsage",
    "estimate_resources",
    "run_chained_sync",
    "run_bulk_sync",
    "build_scbb",
    "interleave_particles",
    "count_migrations",
    "expected_migration_rate",
    "RingSimulator",
    "save_checkpoint_v2",
    "load_checkpoint_v2",
    "CheckpointManager",
    "simulate_cluster",
    "ClusterTrace",
    "simulate_comm_overlap",
    "CommOverlapResult",
]
