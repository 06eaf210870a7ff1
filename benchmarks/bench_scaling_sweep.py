"""Bench: FPGA-count scaling with resource-constrained auto-organization.

Quantifies the abstract's "nearly linear scaling on an eight FPGA
cluster": at each node count the sweep instantiates the strongest PE/SPE
organization fitting a U280 (one FPGA must host all 64 cells and can
afford only 1 PE/cell; eight FPGAs host 8 cells each and fit 8 PEs/cell)
and measures the resulting rate.  Also regenerates the cycle-model
sensitivity table cited by EXPERIMENTS.md.
"""

import pytest

from repro.harness.sweeps import (
    format_fpga_scaling,
    format_sensitivity,
    format_weak_scaling_extension,
    run_fpga_scaling,
    run_sensitivity,
    run_weak_scaling_extension,
)


@pytest.fixture(scope="module")
def scaling():
    return run_fpga_scaling()


def test_fpga_scaling_nearly_linear(benchmark, scaling, save_artifact):
    from repro.harness.sweeps import best_fitting_config

    cfg = benchmark.pedantic(
        best_fitting_config, args=((4, 4, 4), 8), rounds=5, iterations=1
    )
    assert cfg is not None

    save_artifact("scaling_fpga_count", format_fpga_scaling(scaling))

    by_nodes = {r.n_fpgas: r for r in scaling.rows}
    # Monotone speedup, near-linear at the 8-node cluster.
    speedups = [by_nodes[n].speedup for n in (1, 2, 4, 8)]
    assert speedups == sorted(speedups)
    assert by_nodes[8].speedup > 6.5  # "nearly linear" on 8 FPGAs
    # The mechanism: node count buys PEs per cell under the resource cap.
    assert by_nodes[1].config.pes_per_cbb == 1
    assert by_nodes[8].config.pes_per_cbb >= 6


def test_weak_scaling_extends_to_27_boards(benchmark, save_artifact):
    """Beyond the paper's 8 boards: the ~50K-particle drug-discovery
    scale (9x9x9 cells, 46656 Na) on 27 FPGAs holds the ~2 us/day rate —
    weak scaling stays flat within 3%."""
    result = benchmark.pedantic(run_weak_scaling_extension, rounds=1, iterations=1)
    save_artifact("scaling_weak_extension", format_weak_scaling_extension(result))
    assert result.flatness < 1.05
    biggest = result.rows[-1]
    assert biggest.n_fpgas == 27
    assert biggest.n_particles > 45_000
    assert 1.8 < biggest.rate_us_per_day < 2.3


def test_sensitivity_of_calibrated_constants(benchmark, save_artifact):
    result = benchmark.pedantic(run_sensitivity, rounds=1, iterations=1)
    save_artifact("sensitivity", format_sensitivity(result))

    rates = [r.rate_3x3x3 for r in result.rows]
    gains = [r.strong_gain_c_over_a for r in result.rows]
    # +-10% on the constants moves absolute rates by ~+-20%...
    assert max(rates) / min(rates) < 1.6
    # ...but the comparative headline barely moves.
    assert max(gains) - min(gains) < 0.5
    assert all(4.5 < g < 6.0 for g in gains)

