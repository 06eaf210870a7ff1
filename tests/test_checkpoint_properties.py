"""Property-based checks of the checkpoint-v2 loader (``system`` and ``batch``).

The writer stores its zip members uncompressed, so a flipped bit lands
in raw bytes rather than in a deflate stream that would fail to
inflate.  These properties show that the digests still cover every
byte that reaches a restored object:

* a truncated file raises :class:`CheckpointError`;
* a file with one bit flipped anywhere raises :class:`CheckpointError`
  or, when the bit sits in zip bookkeeping the reader never uses (a
  timestamp, a local-header copy of a central-directory field), loads
  the very state that was saved;
* a payload field tampered with before the CRC was recomputed raises
  :class:`CheckpointError` or loads; no other exception escapes.
"""

import functools
import io
import json
import os
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    CHECKPOINT_FORMAT_V2,
    _npz_bytes,
    load_checkpoint_v2,
    save_checkpoint_v2,
)
from repro.md.batch import BatchedEngine
from repro.md.dataset import build_dataset
from repro.md.engine import ReferenceEngine
from repro.md.system import ParticleSystem
from repro.util.errors import CheckpointError

KINDS = ("system", "batch")
FIELDS = ("positions", "velocities", "forces", "species", "box")
PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _build(kind):
    if kind == "system":
        system, grid = build_dataset((3, 3, 3), particles_per_cell=2, seed=51)
        ReferenceEngine(system, grid, force_impl="numpy").run(2, record_every=0)
        return system
    be = BatchedEngine(force_impl="numpy")
    for seed, ppc in ((52, 2), (53, 3)):
        be.add(*build_dataset((3, 3, 3), particles_per_cell=ppc, seed=seed),
               aux={"seed": seed})
    be.step(2)
    return be


@functools.lru_cache(maxsize=None)
def _saved(kind) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = save_checkpoint_v2(_build(kind), os.path.join(d, "c.npz"))
        with open(path, "rb") as fh:
            return fh.read()


def _state(obj):
    """Every array a restored object carries, keyed for comparison."""
    if isinstance(obj, ParticleSystem):
        return {f: getattr(obj, f) for f in FIELDS + ("charges",)}
    out = {"handles": np.array(obj.handles()), "step": np.array(obj.step_count)}
    for h in obj.handles():
        s = obj.extract(h)
        out.update({f"{h}/{f}": getattr(s, f) for f in FIELDS})
    return out


@functools.lru_cache(maxsize=None)
def _reference(kind):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.npz")
        with open(path, "wb") as fh:
            fh.write(_saved(kind))
        return _state(load_checkpoint_v2(path)[0])


def _load_bytes(tmp_path, raw):
    path = str(tmp_path / "probe.npz")
    with open(path, "wb") as fh:
        fh.write(raw)
    return load_checkpoint_v2(path)[0]


def _assert_state_is_reference(kind, obj):
    got, ref = _state(obj), _reference(kind)
    assert got.keys() == ref.keys()
    for key in ref:
        np.testing.assert_array_equal(got[key], ref[key], err_msg=key)


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_truncation_raises_checkpoint_error(tmp_path, kind, data):
    raw = _saved(kind)
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    with pytest.raises(CheckpointError):
        _load_bytes(tmp_path, raw[:cut])


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_bit_flip_raises_or_is_harmless(tmp_path, kind, data):
    raw = bytearray(_saved(kind))
    byte = data.draw(st.integers(0, len(raw) - 1), label="byte")
    bit = data.draw(st.integers(0, 7), label="bit")
    raw[byte] ^= 1 << bit
    try:
        obj = _load_bytes(tmp_path, bytes(raw))
    except CheckpointError:
        return
    _assert_state_is_reference(kind, obj)


def test_payload_bit_flips_all_raise(tmp_path):
    """Every byte of the stored payload member is digest-covered.

    Exhaustive over one bit per byte of the ``system`` payload's data
    (the ``payload`` member's raw bytes, located in the outer archive).
    """
    raw = _saved("system")
    with np.load(io.BytesIO(raw)) as outer:
        payload = outer["payload"].tobytes()
    start = raw.find(payload)
    assert start > 0
    for offset in range(0, len(payload), 7):
        flipped = bytearray(raw)
        flipped[start + offset] ^= 0x10
        with pytest.raises(CheckpointError):
            _load_bytes(tmp_path, bytes(flipped))


def _unpack(raw):
    with np.load(io.BytesIO(raw)) as outer:
        kind = str(outer["kind"])
        payload = outer["payload"].tobytes()
    with np.load(io.BytesIO(payload)) as inner:
        meta = json.loads(str(inner["meta"]))
        arrays = {k: inner[k] for k in inner.files if k != "meta"}
    return kind, meta, arrays


def _repack(kind, meta, arrays):
    payload = _npz_bytes(meta=np.array(json.dumps(meta)), **arrays)
    return _npz_bytes(
        format=np.array(CHECKPOINT_FORMAT_V2),
        kind=np.array(kind),
        crc32=np.array(zlib.crc32(payload), dtype=np.int64),
        payload=np.frombuffer(payload, dtype=np.uint8),
    )


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
    st.lists(st.integers(-3, 300), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)

ARRAYS = st.one_of(
    st.builds(
        np.zeros,
        st.lists(st.integers(0, 5), min_size=0, max_size=3).map(tuple),
        st.sampled_from([np.float64, np.int64, np.int32, np.uint8]),
    ),
    st.just(np.array(["x", "yz"])),
    st.just(np.array(np.nan)),
)


def _meta_paths(meta, prefix=()):
    """Key path of every node of a JSON document, the root's () first."""
    yield prefix
    if isinstance(meta, dict):
        for k, v in meta.items():
            yield from _meta_paths(v, prefix + (k,))
    elif isinstance(meta, list):
        for i, v in enumerate(meta):
            yield from _meta_paths(v, prefix + (i,))


@st.composite
def tampers(draw, kind):
    """One field-level change to a saved payload (CRC recomputed)."""
    _, meta, arrays = _unpack(_saved(kind))
    action = draw(st.sampled_from(
        ["drop-array", "replace-array", "slice-array", "set-meta", "drop-meta"]
    ))
    if action in ("drop-array", "replace-array", "slice-array"):
        name = draw(st.sampled_from(sorted(arrays)))
        if action == "drop-array":
            del arrays[name]
        elif action == "replace-array":
            arrays[name] = draw(ARRAYS)
        else:
            arr = arrays[name]
            if arr.ndim:
                stop = draw(st.integers(0, max(len(arr) - 1, 0)))
                arrays[name] = arr[:stop]
        return meta, arrays
    paths = [p for p in _meta_paths(meta) if p]
    path = draw(st.sampled_from(paths))
    parent = meta
    for key in path[:-1]:
        parent = parent[key]
    if action == "set-meta":
        parent[path[-1]] = draw(JSON_VALUES)
    elif isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent.pop(path[-1])
    return meta, arrays


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@PROPERTY
@given(data=st.data())
def test_tampered_fields_raise_only_checkpoint_error(tmp_path, kind, data):
    meta, arrays = data.draw(tampers(kind), label="tamper")
    raw = _repack(kind, meta, arrays)
    try:
        _load_bytes(tmp_path, raw)
    except CheckpointError:
        pass
