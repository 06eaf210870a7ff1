"""Committed model-output artifacts equal a fresh regeneration.

These tables come from the deterministic resource, cycle and
communication models (no wall-clock numbers), so each committed file
under ``benchmarks/results/`` must equal its ``run_*``/``format_*``
regeneration byte for byte, as the benchmark that saves it writes it.
Fig 19 (about 40 s of MD) stays with the benchmark suite.
"""

import os

import pytest

from repro.harness.ablations import format_filter_sweep, run_filter_sweep
from repro.harness.experiments import (
    format_fig16,
    format_fig17,
    format_fig18,
    format_table1,
    run_fig16,
    run_fig17,
    run_fig18,
    run_table1,
)
from repro.harness.sweeps import (
    format_fpga_scaling,
    format_sensitivity,
    run_fpga_scaling,
    run_sensitivity,
)

RESULTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "results",
)

REGENERATE = {
    "table1_resources": lambda: format_table1(run_table1()),
    "fig16_scalability": lambda: format_fig16(run_fig16()),
    "fig17_utilization": lambda: format_fig17(run_fig17()),
    "fig18_communication": lambda: format_fig18(run_fig18()),
    "scaling_fpga_count": lambda: format_fpga_scaling(run_fpga_scaling()),
    "sensitivity": lambda: format_sensitivity(run_sensitivity()),
    "ablation_filters": lambda: format_filter_sweep(run_filter_sweep()),
}


@pytest.mark.parametrize("name", sorted(REGENERATE))
def test_committed_artifact_equals_regeneration(name):
    with open(os.path.join(RESULTS, f"{name}.txt")) as fh:
        committed = fh.read()
    assert REGENERATE[name]() + "\n" == committed, (
        f"benchmarks/results/{name}.txt differs from a regeneration"
    )
