"""Checkpoints in the earlier layout still load and continue bitwise.

The files under ``tests/data/`` were written by the code that deflated
every member and stored a batch as one ``seg{i}_*`` member per field
and segment (``tests/data/make_checkpoint_fixtures.py`` wrote them).
Each must load, hold exactly the state the current code builds from the
same recipe, and continue bitwise against that state resumed from a
fresh save in the current layout.
"""

import io
import os
import zipfile

import numpy as np

from repro.core.checkpoint import load_checkpoint_v2, save_checkpoint_v2
from repro.md.engine import ReferenceEngine
from tests.data import make_checkpoint_fixtures as fixtures

FIELDS = ("positions", "velocities", "forces", "species", "box", "charges")


def _fixture(name):
    return os.path.join(fixtures.HERE, name)


def _payload_members(path):
    with np.load(path) as outer:
        payload = outer["payload"].tobytes()
    with zipfile.ZipFile(path) as z:
        outer_types = {i.compress_type for i in z.infolist()}
    with zipfile.ZipFile(io.BytesIO(payload)) as z:
        inner = {i.filename[:-4]: i.compress_type for i in z.infolist()}
    return outer_types, inner


def _assert_systems_equal(a, b):
    for field in FIELDS:
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def test_fixtures_are_in_the_earlier_layout():
    for name in (fixtures.SYSTEM_FILE, fixtures.BATCH_FILE):
        outer, inner = _payload_members(_fixture(name))
        assert outer == {zipfile.ZIP_DEFLATED}, name
        assert set(inner.values()) == {zipfile.ZIP_DEFLATED}, name
    _, inner = _payload_members(_fixture(fixtures.BATCH_FILE))
    assert "seg_n" not in inner
    assert {k for k in inner if k.startswith("seg2_")}


def test_system_fixture_continues_bitwise(tmp_path):
    old, step = load_checkpoint_v2(_fixture(fixtures.SYSTEM_FILE))
    assert step == 0
    system, grid = fixtures.build_system()
    fresh, _ = load_checkpoint_v2(
        save_checkpoint_v2(system, str(tmp_path / "system.npz"))
    )
    _assert_systems_equal(old, fresh)
    for s in (old, fresh):
        ReferenceEngine(s, grid, force_impl=fixtures.FORCE_IMPL).run(
            5, record_every=0
        )
    _assert_systems_equal(old, fresh)


def test_batch_fixture_continues_bitwise(tmp_path):
    old, step = load_checkpoint_v2(_fixture(fixtures.BATCH_FILE))
    be = fixtures.build_batch()
    assert step == be.step_count
    fresh, _ = load_checkpoint_v2(
        save_checkpoint_v2(be, str(tmp_path / "batch.npz"))
    )
    assert old.handles() == fresh.handles() == be.handles()
    for h in be.handles():
        a, b = old._by_handle[h], fresh._by_handle[h]
        assert a.aux == b.aux
        assert type(a.thermostat) is type(b.thermostat)
        assert old.segment_steps(h) == fresh.segment_steps(h)
        _assert_systems_equal(old.extract(h), fresh.extract(h))
    old.step(6)
    fresh.step(6)
    for h in be.handles():
        _assert_systems_equal(old.extract(h), fresh.extract(h))
    assert old.potentials() == fresh.potentials()
