"""Tests for the double-precision reference engine."""

import numpy as np
import pytest

from repro.md import CellGrid, ReferenceEngine, build_dataset
from repro.util.errors import ValidationError


@pytest.fixture(scope="module")
def small_run():
    """A short shared run on a small, cooler system."""
    sys_, grid = build_dataset((3, 3, 3), particles_per_cell=16, temperature_k=100.0, seed=1)
    engine = ReferenceEngine(sys_, grid, dt_fs=2.0)
    records = engine.run(60, record_every=10)
    return engine, records


def test_grid_box_mismatch_rejected():
    sys_, _ = build_dataset((3, 3, 3), particles_per_cell=8, seed=0)
    with pytest.raises(ValidationError):
        ReferenceEngine(sys_, CellGrid((4, 4, 4), 8.5))


def test_reuse_state_knob_retired():
    # One stepping path: the knob selects nothing, so it is no field;
    # True is still accepted for existing callers, False is refused.
    import dataclasses

    sys_, grid = build_dataset((3, 3, 3), particles_per_cell=8, seed=0)
    names = {f.name for f in dataclasses.fields(ReferenceEngine)}
    assert "reuse_state" not in names
    engine = ReferenceEngine(sys_.copy(), grid, reuse_state=True)
    engine.run(1)
    assert engine.state_builds == 1
    with pytest.raises(ValidationError, match="retired"):
        ReferenceEngine(sys_.copy(), grid, reuse_state=False)


def test_negative_steps_rejected():
    sys_, grid = build_dataset((3, 3, 3), particles_per_cell=8, seed=0)
    with pytest.raises(ValidationError):
        ReferenceEngine(sys_, grid).run(-1)


def test_history_recording(small_run):
    engine, records = small_run
    # Initial record (step 0) plus one per record_every.
    assert [r.step for r in records] == [0, 10, 20, 30, 40, 50, 60]
    assert engine.history == records


def test_energy_conservation(small_run):
    _, records = small_run
    e0 = records[0].total
    for rec in records:
        assert abs(rec.total - e0) / abs(e0) < 5e-3


def test_total_is_kinetic_plus_potential(small_run):
    _, records = small_run
    for rec in records:
        assert rec.total == rec.kinetic + rec.potential


def test_run_continues_without_repriming(small_run):
    engine, records = small_run
    more = engine.run(10, record_every=10, start_step=60)
    assert [r.step for r in more] == [70]
    assert abs(more[0].total - records[0].total) / abs(records[0].total) < 5e-3


def test_positions_stay_wrapped(small_run):
    engine, _ = small_run
    assert np.all(engine.system.positions >= 0.0)
    assert np.all(engine.system.positions < engine.system.box)


def test_potential_energy_query_is_pure():
    sys_, grid = build_dataset((3, 3, 3), particles_per_cell=8, seed=2)
    engine = ReferenceEngine(sys_, grid)
    before = sys_.positions.copy()
    engine.potential_energy()
    np.testing.assert_array_equal(sys_.positions, before)
