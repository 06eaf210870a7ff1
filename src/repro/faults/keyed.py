"""Keyed random draws: every fault decision is a pure function of its key.

A decision's stream is ``default_rng(SeedSequence(entropy))`` with
``entropy = (seed & 0xFFFFFFFF, salt, *key)``, salt and key fields taken
modulo 2**64, so it never depends on call order, thread scheduling, or
how many other decisions were drawn before it.  :func:`keyed_rng` builds
that generator for one key; :func:`keyed_draws` draws the first uniforms
of many keys' streams in one ``keyed_uniforms`` kernel call (see
:mod:`repro.md.backends`), bit for bit the same numbers.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def keyed_rng(seed: int, salt: int, *key: int) -> np.random.Generator:
    """The generator of one key ``(salt, *key)`` under root ``seed``."""
    entropy = (int(seed) & _MASK32,) + tuple(
        int(k) & _MASK64 for k in (salt,) + key
    )
    return np.random.default_rng(np.random.SeedSequence(entropy))


def key_words(seed: int, keys) -> Tuple[np.ndarray, np.ndarray]:
    """``SeedSequence`` entropy words of ``(seed & 0xFFFFFFFF, *row)``
    for each row of the int64 matrix ``keys`` (rows ``(salt, *key)``).

    Returns the flat uint32 words and the per-key word offsets.  Each
    field is split the way ``SeedSequence`` splits a Python int: its
    low 32-bit word, then its high word only when nonzero (a negative
    int64 is read as its two's complement, i.e. modulo 2**64).
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    n = len(keys)
    cols = np.empty((n, keys.shape[1] + 1), dtype=np.uint64)
    cols[:, 0] = int(seed) & _MASK32
    cols[:, 1:] = keys.view(np.uint64)
    if not np.any(cols >> np.uint64(32)):
        # Every field is one word: the fixed-width common case.
        width = cols.shape[1]
        return cols.astype(np.uint32).ravel(), np.arange(
            0, n * width + 1, width, dtype=np.int64
        )
    hi = (cols >> np.uint64(32)).astype(np.uint32)
    words = np.stack([cols.astype(np.uint32), hi], axis=2).reshape(n, -1)
    keep = np.stack([np.ones_like(hi, dtype=bool), hi != 0], axis=2)
    keep = keep.reshape(n, -1)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=offsets[1:])
    return words[keep], offsets


def keyed_draws(seed: int, keys, counts, backend=None) -> np.ndarray:
    """The first ``counts[k]`` uniforms of key ``k``'s stream, for every
    row of ``keys``, concatenated in key order.

    Key ``k`` draws exactly ``keyed_rng(seed, *keys[k]).random(
    counts[k])``.  ``backend`` is a
    :class:`~repro.md.backends.ForceBackend` whose ``keyed_uniforms``
    runs the draw; ``None`` runs the numpy statement.
    """
    words, word_offsets = key_words(seed, keys)
    out_offsets = np.zeros(len(word_offsets), dtype=np.int64)
    np.cumsum(counts, out=out_offsets[1:])
    if backend is None:
        # Imported here: repro.md imports this package at load time.
        from repro.md.backends import keyed_uniforms_numpy as kernel
    else:
        kernel = backend.keyed_uniforms
    return kernel(words, word_offsets, out_offsets)


__all__ = ["key_words", "keyed_draws", "keyed_rng"]
