"""Experiment harness: one driver per paper table/figure.

Each ``run_*`` function returns a plain-data result object; each
``format_*`` renders it as the text table the corresponding benchmark
prints.  The mapping to the paper:

========== ==========================================================
fig16      Scalability comparison (weak, strong, simulated large)
fig17      Hardware/time utilization breakdown per design variant
fig18      Communication bandwidth demand and per-neighbor breakdown
table1     FPGA resource utilization per design variant
fig19      Energy relative error vs. the float64 reference
========== ==========================================================
"""

from repro.harness.acceptance import run_acceptance
from repro.harness.experiments import (
    run_fig16,
    run_fig17,
    run_fig18,
    run_fig19,
    run_table1,
)
from repro.harness.report import format_bar_chart, format_csv, format_table
from repro.harness.sweeps import (
    run_fpga_scaling,
    run_imbalance_study,
    run_sensitivity,
    run_weak_scaling_extension,
)

__all__ = [
    "run_fig16",
    "run_fig17",
    "run_fig18",
    "run_fig19",
    "run_table1",
    "run_acceptance",
    "run_fpga_scaling",
    "run_weak_scaling_extension",
    "run_imbalance_study",
    "run_sensitivity",
    "format_table",
    "format_csv",
    "format_bar_chart",
]
