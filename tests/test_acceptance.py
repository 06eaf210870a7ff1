"""Tests for the acceptance-matrix harness."""

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.harness.acceptance import (
    ENERGY_REL_TOLERANCE,
    FORCE_REL_TOLERANCE,
    AcceptanceCase,
    default_cases,
    format_acceptance,
    run_acceptance,
    run_case,
)
from repro.md import build_dataset
from repro.md.ewald import ewald_real_energy_scalar
from repro.md.forcefield import (
    CompositeKernel,
    EwaldRealKernel,
    LennardJonesKernel,
    PairKernel,
    compute_forces_kernel,
)
from repro.md.kernels import lj_scalar_energy


class TestCases:
    def test_default_matrix_covers_key_axes(self):
        cases = default_cases()
        names = {c.name for c in cases}
        assert "ionic" in names
        assert "multi-species" in names
        assert "narrow-positions" in names
        assert any(c.charged for c in cases)
        assert any(c.frac_bits != 23 for c in cases)


class TestRunCase:
    def test_paper_workload_passes(self):
        outcome = run_case(AcceptanceCase("paper"))
        assert outcome.passed
        assert outcome.force_rel_error < 2e-3

    def test_ionic_case_passes(self):
        outcome = run_case(
            AcceptanceCase(
                "salt", species=("Na", "Cl"), charged=True, min_distance=2.4
            )
        )
        assert outcome.passed

    def test_very_coarse_positions_fail(self):
        """The budget is a real gate: 4-bit positions must fail it."""
        outcome = run_case(AcceptanceCase("coarse", frac_bits=4))
        assert not outcome.passed


class TestFullMatrix:
    @pytest.fixture(scope="class")
    def report(self):
        return run_acceptance()

    def test_everything_passes(self, report):
        failing = [o.case.name for o in report.outcomes if not o.passed]
        assert report.all_passed, f"failing cases: {failing}"

    def test_report_format(self, report):
        txt = format_acceptance(report)
        assert "PASS" in txt
        assert "0 of 8 failed" in txt


class _PairEnergyMagnitude(PairKernel):
    """Sum over pairs of ``|LJ energy| + |Ewald energy|`` (no forces)."""

    def __init__(self, beta):
        self.beta = beta

    def evaluate(self, system, dr, r2, idx_i, idx_j):
        spc = system.species
        _, e = lj_scalar_energy(r2, spc[idx_i], spc[idx_j], system.lj_table)
        mag = float(np.abs(e).sum())
        if self.beta is not None:
            qq = system.charges[idx_i] * system.charges[idx_j]
            mag += float(np.abs(qq * ewald_real_energy_scalar(r2, self.beta)).sum())
        return np.zeros_like(dr), mag


#: Force passes of a reuse trajectory that are gated.
PASSES = (0, 10, 50)


def _case_system(case):
    return build_dataset(
        case.dims,
        particles_per_cell=case.particles_per_cell,
        species=case.species,
        charged=case.charged,
        min_distance=case.min_distance,
        seed=case.seed,
    )


def _case_config(case, fpga_grid=(1, 1, 1)):
    return MachineConfig(
        case.dims,
        fpga_grid,
        frac_bits=case.frac_bits,
        table_nb=case.table_nb,
        force_model="lj+coulomb" if case.charged else "lj",
    )


def _gate_failures(machine, grid, case, step, passes=PASSES):
    """``(pass, force error, energy error)`` of every force pass in
    ``passes`` of ``machine``'s trajectory that misses a budget; ``step``
    advances it one timestep.  Forces use :data:`FORCE_REL_TOLERANCE`
    exactly as ``run_case``; the energy error is relative to the summed
    pair-energy magnitudes (see :class:`TestDistributedGate`)."""
    beta = machine.ewald_beta if case.charged else None
    kernels = [LennardJonesKernel()] + (
        [EwaldRealKernel(beta)] if case.charged else []
    )
    failing = []
    machine.run(0)
    for p in range(passes[-1] + 1):
        if p:
            step()
        if p not in passes:
            continue
        f_ref, e_ref = compute_forces_kernel(
            machine.system, grid, CompositeKernel(kernels)
        )
        _, e_mag = compute_forces_kernel(
            machine.system, grid, _PairEnergyMagnitude(beta)
        )
        f_err = np.abs(machine.forces - f_ref).max() / np.abs(f_ref).max()
        e_err = abs(machine._last_potential - e_ref) / e_mag
        if f_err >= FORCE_REL_TOLERANCE or e_err >= ENERGY_REL_TOLERANCE:
            failing.append((p, f_err, e_err))
    return failing


class TestMachineGate:
    """Every default case through ``FasdaMachine``'s reuse trajectory —
    the persistent whole-box band lists, updated in place when particles
    only change cell — gated against the float64 reference at force
    passes 0, 10 and 50, with :class:`TestDistributedGate`'s
    normalisation.  Distributed == machine bitwise, so this gate and
    that one see the same numbers; this one moves first when the
    machine's force pass changes."""

    @pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.name)
    def test_trajectory_within_budgets(self, case):
        system, grid = _case_system(case)
        machine = FasdaMachine(_case_config(case), system=system)
        failing = _gate_failures(
            machine, grid, case, lambda: machine.step(collect_traffic=False)
        )
        # The band-list pass is the one gated: no case falls back to
        # the chunked enumeration.
        assert machine.ensure_cell_state().pairs is not None, case.name
        assert not failing, f"{case.name}: {failing}"


class TestDistributedGate:
    """Every default case through the distributed machine, serial and on
    the thread pool, gated against the float64 reference at force passes
    0, 10 and 50 of one trajectory on its persistent node states.

    Forces use :data:`FORCE_REL_TOLERANCE` exactly as ``run_case``.  The
    energy error is relative to the summed pair-energy magnitudes, not
    to ``|E|``: along a trajectory pair energies cancel until ``|E|`` is
    a small fraction of them (the ``ionic`` box after 50 steps: 32 of an
    LJ term near 6000 kcal/mol), and relative to ``|E|`` even the single
    machine misses :data:`ENERGY_REL_TOLERANCE` there.
    """

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.name)
    def test_trajectory_within_budgets(self, case, parallel):
        system, grid = _case_system(case)
        odd = any(d % 2 for d in case.dims)
        config = _case_config(case, (3, 1, 1) if odd else (2, 2, 2))
        machine = DistributedMachine(config, system=system, parallel=parallel)
        try:
            failing = _gate_failures(machine, grid, case, machine.step)
        finally:
            machine.close()
        assert not failing, f"{case.name}: {failing}"

    #: Force pass after which the mid-run rescale moves to each grid.
    RESCALES = {10: (2, 1, 1), 30: (2, 2, 2)}

    @pytest.mark.parametrize("parallel", [False, True])
    def test_mid_run_rescale_within_budgets(self, parallel):
        """The ``larger-space`` trajectory rescaled (2,2,2) -> (2,1,1)
        after pass 10 and back after pass 30, gated at the first pass on
        each new partition and at pass 50."""
        case = next(c for c in default_cases() if c.name == "larger-space")
        system, grid = _case_system(case)
        machine = DistributedMachine(
            _case_config(case, (2, 2, 2)), system=system, parallel=parallel
        )
        done = []

        def step():
            machine.step()
            done.append(tuple(machine.config.fpga_grid))
            target = self.RESCALES.get(len(done))
            if target is not None:
                assert machine.rescale(fpga_grid=target)

        try:
            failing = _gate_failures(
                machine, grid, case, step, passes=(11, 31, 50)
            )
        finally:
            machine.close()
        assert not failing, f"{case.name}: {failing}"
        assert [r.grid_new for r in machine.rescale_log] == list(
            self.RESCALES.values()
        )
        assert done[10] == (2, 1, 1) and done[30] == (2, 2, 2)
