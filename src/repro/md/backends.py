"""Selectable force backends: ``numpy | cext``.

PR 4's step-persistent cell state left the per-step force *kernel* as
the wall: every hot path still walks the flat band lists with ~25
full-length numpy passes (gathers, displacement, cutoff test, LJ,
bincount scatters).  The FPGA designs this repo reproduces get their
throughput from a single fused filter->force pipeline over SoA particle
buckets; this module gives the software reproduction the same shape — a
flat ``(i_idx, j_idx)`` pair stream driven through one fused
distance-filter + LJ + scatter-accumulate loop — behind a small
registry whose pure-numpy kernels are the default and the oracles.

Backends
--------
``numpy``
    The pure-numpy kernels below — bitwise-stable, dependency-free, the
    default and the CI-green path.  Every contract that has a numpy
    implementation has exactly one, here; consumers call it without
    branching.  ``lj_flat`` is the exception: the engine's per-offset
    numpy path (:mod:`repro.md.reference`) is faster than a flat numpy
    pass, so ``numpy`` registers none and the engine keeps that path.
``cext``
    The fused loops as a tiny C extension built on demand with cffi and
    the system compiler (both optional; never required).  Compiled with
    ``-ffp-contract=off`` so the float32 machine-layer arithmetic is
    bit-for-bit numpy's.  Falls back to ``numpy`` when unavailable.

The ``soa`` backend (pure-numpy flat kernels) was retired into
``numpy``: selecting it raises, and checkpoints that name it load as
``numpy`` (:data:`RETIRED_BACKENDS`).

Kernel contracts (see DESIGN.md §10)
------------------------------------
* ``lj_flat`` (engine layer, float64): fused cutoff test + LJ +
  Newton-pair scatter over a flat pair stream.  Admissions are exact
  (the same float64 ``r2 < cutoff2`` test as the reference), but the
  *accumulation order* differs from the bincount-grouped reference, so
  forces and energy agree to the documented round-off bound
  (:data:`FORCE_ATOL` / :data:`ENERGY_RTOL`) rather than bitwise.
* ``admit_flat`` (machine layer, float32): the band-list admission
  phase of ``FasdaMachine._eval_reuse`` — float32 displacement,
  conservative float32 prescreen, exact float64 recheck of the float32
  diffs, float32 cast, ``r2 < 1`` admission.  Every per-pair operation
  is order-independent and restated with identical rounding, so the
  admitted index stream, r2 values and displacements are **bitwise
  identical** to numpy's; all downstream statistics, traffic and the
  potential energy follow bitwise.  One scratch convention serves every
  backend: ``scratch=(idx, r2, dx, dy, dz)``, band-length int64 and
  four float32 arrays that each kernel may use as work space or as its
  compacted outputs (with ``copy=False`` the results may be views into
  them).
* ``screen_dr`` (chunked/distributed layer, float64): fused gather +
  displacement over one candidate chunk.  The kernel produces ``dr``
  (bitwise identical to the numpy gather/subtract — elementwise, one
  rounding per op); ``r2`` is then computed with the *same*
  ``np.einsum`` as the reference for every backend (einsum's SIMD
  accumulation order is not portably replicable in C), so the values
  feeding :meth:`~repro.core.datapath.PairFilter.admit_r2` — and hence
  every admission — are bitwise identical by construction.
* ``traffic_flat`` (accounting layer, int64 keys): one stable
  group-reduce serving every group-by in
  ``FasdaMachine._account_traffic`` — sorted unique keys with per-key
  float64 weight sums, int64 aux maxima, and first-occurrence row
  indices.  Sums accumulate rows of each key in input order (a stable
  sort by ``key*n + row``), which is exactly ``np.bincount(inv,
  weights)``'s order, so the results are **bitwise identical** to the
  ``np.unique`` + ``bincount`` + ``np.maximum.at`` reference.
* ``ring_charge`` (accounting layer, int64): in-place circular
  range-add of ``counts[k]`` onto the ``hops[k]`` ring links leaving
  ``src[k]`` — the hot loop of
  :meth:`~repro.core.rings.RingLoadModel._charge_spans`.  Pure integer
  adds, order-free, bitwise by construction.
* ``band_rows`` (build phase, float32): the skin-band search of every
  :class:`~repro.md.cellstate.CellState`, ``(plan, clist, packed,
  offsets, band, rows, lay, fresh) -> int``.  It searches the listed
  regions (plan row of cell ``c`` at offset ``k`` is region ``k *
  n_cells + c``; ``rows`` strictly ascending) per home slot and
  neighbour slot with a float32 direct-difference ``r2`` against the
  widened band, keyed by bank row, into the
  :class:`~repro.md.cellstate.RowBands` ``lay``: a full build lays the
  listed regions out anew (compact, or with slack on the machine's
  whole-box state), fitting the buffers to the layout when it outgrows
  them, and returns its length; an in-place update re-searches the
  listed ones where they lie and returns 0, or 1 when a region finds
  no room.  **Bitwise** equal to
  :func:`~repro.md.cellstate.band_rows_numpy`, its numpy statement and
  oracle: same hits, same region starts, capacities and pads.

The active default is ``numpy``; override per consumer via their
``force_impl`` knob, globally via :func:`set_force_backend`, or with the
``REPRO_FORCE_IMPL`` environment variable (read at import).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.md.params import LJTable
from repro.util.errors import ValidationError

#: Documented engine-layer equivalence bounds vs the float64 oracles:
#: compiled/SoA backends admit the exact same pairs but accumulate in a
#: different order, so forces agree to FORCE_ATOL (absolute, kcal/mol/A)
#: and energies to ENERGY_RTOL (relative).  Enforced by
#: tests/test_backends.py and the in-bench asserts of bench_hotpath.
FORCE_ATOL = 1e-8
ENERGY_RTOL = 1e-9

#: Environment variable that selects the process-wide default backend.
ENV_VAR = "REPRO_FORCE_IMPL"


@dataclass
class ForceBackend:
    """One registered force-kernel implementation.

    The kernel entry points are described in the module docstring.
    ``admit_flat``, ``screen_dr``, ``lj_flat_seg``, ``traffic_flat``
    and ``ring_charge`` are present on every available backend, so
    consumers call them unconditionally.  For ``lj_flat``, ``rom_eval``,
    ``scatter_cols`` and ``band_rows``, ``None`` means "run the
    consumer's numpy code", which stays the oracle the compiled kernel
    mirrors.  ``available`` is probed once at registration; ``why``
    records the probe outcome for diagnostics.
    """

    name: str
    available: bool
    why: str = ""
    #: Fused flat LJ pass (engine layer).  ``None`` = the engine's
    #: per-offset numpy path in :mod:`repro.md.reference`.
    lj_flat: Optional[Callable] = None
    admit_flat: Optional[Callable] = None
    screen_dr: Optional[Callable] = None
    #: Segmented variant of ``lj_flat`` for the batched engine: one call
    #: serves K independent systems packed into one global pair stream,
    #: returning a ``(K,)`` per-segment energy vector (see
    #: :mod:`repro.md.batch`).  ``numpy`` carries the pure-numpy
    #: segmented kernel: batching has no per-offset shape.
    lj_flat_seg: Optional[Callable] = None
    #: Stable group-reduce over int64 keys (accounting layer): see
    #: :func:`traffic_flat_numpy` for the contract.
    traffic_flat: Optional[Callable] = None
    #: In-place ring link range-add (accounting layer): see
    #: :func:`ring_charge_numpy`.
    ring_charge: Optional[Callable] = None
    #: Fused ROM-pipeline evaluation over the admitted pair stream
    #: (machine layer, float32): section/bin decode from the r2 bit
    #: fields, the twelve coefficient-ROM gathers and the elementwise
    #: force/energy polynomial restated in one loop with numpy's
    #: rounding at every step (``-ffp-contract=off``); fills the
    #: per-pair ``fx/fy/fz/e`` arrays bitwise identical to the numpy
    #: op sequence in ``FasdaMachine._eval_reuse``.  ``None`` = keep
    #: the numpy pipeline (which remains the oracle).
    rom_eval: Optional[Callable] = None
    #: Per-column bank scatter (machine layer): mirrors the
    #: ``bank[:, k] += np.bincount(idx, weights=w_k,
    #: minlength=n).astype(float32)`` sequence — float64 accumulation
    #: in input row order, one float32 rounding per row, a float32 add
    #: onto every bank row (including the +0.0 adds on untouched
    #: rows).  Bitwise identical by construction.  ``None`` = keep the
    #: three-bincount numpy helper.
    scatter_cols: Optional[Callable] = None
    #: Skin-band search of a :class:`~repro.md.cellstate.CellState`
    #: (build phase, float32): searches listed plan rows into per-row
    #: regions keyed by bank row, for a full build or an in-place update.
    #: Bitwise identical to :func:`~repro.md.cellstate.band_rows_numpy`,
    #: which ``None`` runs and which stays the oracle.
    band_rows: Optional[Callable] = None


_REGISTRY: Dict[str, ForceBackend] = {}
_active: str = "numpy"

#: Retired backend names and the backend each was folded into.
#: Selecting one raises; checkpoints that name one load as its
#: successor (``soa`` ran the ``numpy`` kernels' arithmetic).
RETIRED_BACKENDS: Dict[str, str] = {"soa": "numpy"}


def register_backend(backend: ForceBackend) -> ForceBackend:
    """Add a backend to the registry (test hooks use this too)."""
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> List[str]:
    """All registered backend names, available or not."""
    return sorted(_REGISTRY)


def available_backends() -> List[str]:
    """Names of the backends whose probe succeeded."""
    return sorted(n for n, b in _REGISTRY.items() if b.available)


def compiled_backends() -> List[str]:
    """Available backends that actually compile the kernel (no numpy)."""
    return [
        n
        for n in ("cext",)
        if n in _REGISTRY and _REGISTRY[n].available
    ]


def backend_status() -> Dict[str, str]:
    """``name -> probe outcome`` for every registered backend."""
    return {
        n: ("available" if b.available else f"unavailable: {b.why}")
        for n, b in sorted(_REGISTRY.items())
    }


def resolve_backend(name: Optional[str] = None) -> ForceBackend:
    """The backend to use for ``force_impl=name``.

    ``None`` resolves to the process-wide active default.  Requesting an
    *unavailable* optional backend (no cffi or no compiler)
    falls back to the ``numpy`` reference backend rather than failing —
    pure numpy must always work.  Unknown and retired names raise.
    """
    if name is None:
        name = _active
    if name in RETIRED_BACKENDS:
        raise ValidationError(
            f"force backend {name!r} was retired into "
            f"{RETIRED_BACKENDS[name]!r}; select {RETIRED_BACKENDS[name]!r}"
        )
    try:
        backend = _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown force backend {name!r}; registered: {backend_names()}"
        ) from None
    if not backend.available:
        return _REGISTRY["numpy"]
    return backend


def set_force_backend(name: str) -> str:
    """Set the process-wide default backend; returns the *resolved* name.

    Falls back to ``"numpy"`` when the requested optional backend is
    unavailable (mirroring :func:`resolve_backend`), so callers can
    request ``cext`` unconditionally and still run everywhere.
    """
    global _active
    resolved = resolve_backend(name)
    _active = resolved.name
    return _active


def get_force_backend() -> str:
    """The process-wide default backend name."""
    return _active


# ---------------------------------------------------------------------------
# Pure-numpy kernels: the ``numpy`` backend, and the oracles the compiled
# kernels mirror.
# ---------------------------------------------------------------------------

def _lj_tables(lj: LJTable) -> Tuple[np.ndarray, ...]:
    return (
        np.ascontiguousarray(lj.c14, dtype=np.float64),
        np.ascontiguousarray(lj.c8, dtype=np.float64),
        np.ascontiguousarray(lj.c12, dtype=np.float64),
        np.ascontiguousarray(lj.c6, dtype=np.float64),
    )


#: Super-chunk budget of the pure-numpy segmented kernel: segments are
#: grouped into spans of at most this many stream rows so the scratch
#: arrays stay ~250 MB even when the whole batch holds 100M+ pairs.
#: Segments are never split across spans, so each particle's bincount
#: accumulation subsequence — and hence its force — is bitwise the same
#: as a single-pass (or solo) evaluation.
DEFAULT_SEG_CHUNK_PAIRS = 4_000_000


def lj_flat_seg_numpy(
    psx: np.ndarray,
    psy: np.ndarray,
    psz: np.ndarray,
    ia: np.ndarray,
    ib: np.ndarray,
    srow: np.ndarray,
    stab: np.ndarray,
    spc: np.ndarray,
    lj: LJTable,
    cutoff2: float,
    shift_e: float,
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
    seg_lo: np.ndarray,
    seg_hi: np.ndarray,
    target_pairs: int = DEFAULT_SEG_CHUNK_PAIRS,
) -> np.ndarray:
    """Segmented flat LJ pass in pure numpy (batched ``numpy``).

    One exact float64 cutoff test over the flat pair stream, a
    compaction to the admitted pairs, then LJ and six bincount scatters
    over the *global* pair stream of a
    :class:`~repro.md.batch.BatchedEngine`, with per-segment energies:
    ``seg_lo[k]:seg_hi[k]`` delimits system ``k``'s live pairs in the
    stream.  The numpy path slices whole contiguous spans — pad rows
    between segments reference the two ghost slots (placed farther than
    the cutoff apart) so the exact float64 cutoff test rejects them for
    free; no pad ever reaches the LJ evaluation or the scatters.

    Per-particle forces are bitwise identical to evaluating each
    segment alone with the same flat arithmetic (the solo oracle
    ``lj_flat_numpy`` in ``tests/oracles.py``): every elementwise op sees
    the same operands, and a particle's bincount accumulation
    subsequence is exactly its solo stream (its index never appears in
    another segment's pairs).  Per-segment *energies* are reduced with a
    segmented bincount rather than one ``np.sum``, so they agree with
    the solo energy to float64 round-off (:data:`ENERGY_RTOL`), not
    bitwise — the engine-layer bound that already applies across
    backends.  Returns the ``(K,)`` energy vector.
    """
    from repro.md.kernels import lj_scalar_energy

    n = len(psx)
    n_seg = len(seg_lo)
    energies = np.zeros(n_seg, dtype=np.float64)
    s = 0
    while s < n_seg:
        e = s + 1
        lo = int(seg_lo[s])
        while e < n_seg and int(seg_hi[e]) - lo <= target_pairs:
            e += 1
        hi = int(seg_hi[e - 1])
        s_next = e
        if hi == lo:
            s = s_next
            continue
        span = slice(lo, hi)
        ia_c = ia[span]
        ib_c = ib[span]
        srow_c = srow[span]
        dx = psx.take(ia_c)
        dx -= psx.take(ib_c)
        dy = psy.take(ia_c)
        dy -= psy.take(ib_c)
        dz = psz.take(ia_c)
        dz -= psz.take(ib_c)
        shifted = np.flatnonzero(srow_c >= 0)
        if shifted.size:
            rows = srow_c.take(shifted)
            dx[shifted] -= stab[rows, 0]
            dy[shifted] -= stab[rows, 1]
            dz[shifted] -= stab[rows, 2]
        r2 = dx * dx
        tmp = dy * dy
        r2 += tmp
        np.multiply(dz, dz, out=tmp)
        r2 += tmp
        keep = np.flatnonzero(r2 < cutoff2)
        s = s_next
        if keep.size == 0:
            continue
        a = ia_c.take(keep)
        b = ib_c.take(keep)
        dx = dx.take(keep)
        dy = dy.take(keep)
        dz = dz.take(keep)
        r2 = r2.take(keep)
        if lj.n_species == 1:
            si = sj = None
        else:
            si = spc.take(a)
            sj = spc.take(b)
        scalar, evec = lj_scalar_energy(r2, si, sj, lj)
        seg_ids = np.searchsorted(seg_hi, lo + keep, side="right")
        energies += np.bincount(seg_ids, weights=evec, minlength=n_seg)
        energies -= shift_e * np.bincount(seg_ids, minlength=n_seg)
        w = scalar * dx
        fx += np.bincount(a, weights=w, minlength=n)
        fx -= np.bincount(b, weights=w, minlength=n)
        np.multiply(scalar, dy, out=w)
        fy += np.bincount(a, weights=w, minlength=n)
        fy -= np.bincount(b, weights=w, minlength=n)
        np.multiply(scalar, dz, out=w)
        fz += np.bincount(a, weights=w, minlength=n)
        fz -= np.bincount(b, weights=w, minlength=n)
    return energies


def admit_flat_numpy(
    fsx: np.ndarray,
    fsy: np.ndarray,
    fsz: np.ndarray,
    ia: np.ndarray,
    ib: np.ndarray,
    segs: np.ndarray,
    offs: np.ndarray,
    scratch: Optional[Tuple[np.ndarray, ...]] = None,
    copy: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Band-list admission phase of ``FasdaMachine._eval_reuse`` in numpy.

    Float32 fraction differences, per-segment float32 offset
    subtraction, the ``r2 < 1 + 1e-5`` float32 prescreen, the exact
    float64 recheck of the float32 diffs associated ``(dx^2 + dy^2) +
    dz^2``, the float32 cast and the ``r2 < 1`` admission.  Returns
    ``(idx, r2, dx, dy, dz)`` — admitted flat band indices (ascending)
    with their float32 r2 and displacements.  The compiled kernels
    restate it bitwise.  ``scratch`` follows the shared convention (see
    the module docstring): ``r2``/``dx``/``dy``/``dz`` hold the
    whole-band work, and the first half of the int64 ``idx`` buffer's
    bytes serves as the float32 temporary.  The returned arrays are
    fresh compactions whatever ``copy`` says.
    """
    L = len(ia)
    if scratch is None:
        scratch = (np.empty(L, dtype=np.int64),) + tuple(
            np.empty(L, dtype=np.float32) for _ in range(4)
        )
    idx_buf, r2s, dx, dy, dz = scratch
    tf = idx_buf.view(np.float32)[:L]
    np.take(fsx, ia, out=dx)
    np.take(fsx, ib, out=tf)
    dx -= tf
    np.take(fsy, ia, out=dy)
    np.take(fsy, ib, out=tf)
    dy -= tf
    np.take(fsz, ia, out=dz)
    np.take(fsz, ib, out=tf)
    dz -= tf
    n_segs = len(segs) - 1
    for k in range(1, n_segs):
        lo, hi = int(segs[k]), int(segs[k + 1])
        if lo == hi:
            continue
        ox, oy, oz = offs[k]
        if ox:
            dx[lo:hi] -= np.float32(ox)
        if oy:
            dy[lo:hi] -= np.float32(oy)
        if oz:
            dz[lo:hi] -= np.float32(oz)
    # Conservative float32 prescreen before the exact recheck.  The
    # all-f32 r2 differs from the exact value by < 3 products' worth of
    # rounding (rel. error < 2e-7), so any pair with f32 r2 >= 1 + 1e-5
    # provably fails the exact f64 -> f32 cutoff test too; the recheck
    # then only runs over the near-admitted shell.
    np.multiply(dx, dx, out=r2s)
    np.multiply(dy, dy, out=tf)
    r2s += tf
    np.multiply(dz, dz, out=tf)
    r2s += tf
    cand = np.flatnonzero(r2s < np.float32(1.0 + 1e-5))
    empty32 = np.empty(0, dtype=np.float32)
    if cand.size == 0:
        return cand, empty32, empty32, empty32, empty32
    dxc = dx.take(cand)
    dyc = dy.take(cand)
    dzc = dz.take(cand)
    # Exact float64 squared distance of the exact float32 diffs, in the
    # filter's einsum association (dtype= forces the float64 product
    # loop), then the filter's f64 -> f32 rounding.  ``cand`` is
    # ascending and the mask keeps order, so admitted indices stay in
    # band order: per offset, ascending flat (cell, slot_i, slot_j).
    r2c = np.multiply(dxc, dxc, dtype=np.float64)
    t64 = np.multiply(dyc, dyc, dtype=np.float64)
    r2c += t64
    np.multiply(dzc, dzc, out=t64, dtype=np.float64)
    r2c += t64
    r2fc = r2c.astype(np.float32)
    keep = r2fc < np.float32(1.0)
    idx = cand[keep]
    return idx, r2fc[keep], dxc[keep], dyc[keep], dzc[keep]


def screen_dr_numpy(
    frac: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    offset: np.ndarray,
    row: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Chunk displacement + squared distance in numpy.

    ``dr = frac[ii] - frac[jj] - offset[row]`` (exact in float64 for
    quantized fractions) and its einsum inner product, the inputs of
    :meth:`~repro.core.datapath.PairFilter.admit_r2` on the chunked
    machine and distributed paths.  The same arithmetic as
    :meth:`~repro.core.datapath.PairFilter.check` on that ``dr``.
    """
    dr = frac[ii] - frac[jj] - offset[row]
    return dr, _screen_r2(dr)


def _screen_r2(dr: np.ndarray) -> np.ndarray:
    """The reference r2 reduction — shared by *every* backend.

    numpy's einsum accumulates with SIMD partial sums whose order is not
    portably replicable in scalar C, so compiled ``screen_dr`` kernels
    only fuse the gather/displacement (bitwise exact elementwise) and
    delegate the reduction here.  One einsum over identical ``dr``
    values gives identical ``r2`` values for all backends.
    """
    return np.einsum("ij,ij->i", dr, dr)


def traffic_flat_numpy(
    keys: np.ndarray,
    weights: Optional[np.ndarray] = None,
    aux: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], np.ndarray]:
    """Stable group-reduce over int64 ``keys`` (the traffic oracle).

    Returns ``(uniq, sums, amax, first)``: sorted unique keys; per-key
    float64 sums of ``weights`` accumulated in input-row order (exactly
    ``np.bincount(inv, weights)``'s order — bitwise); per-key int64
    maxima of ``aux``; and the input row index of each key's first
    occurrence (for gathering values that are constant per key).
    ``sums``/``amax`` are ``None`` when the corresponding input is.
    """
    keys = np.asarray(keys, dtype=np.int64)
    uniq, first, inv = np.unique(
        keys, return_index=True, return_inverse=True
    )
    sums = None
    if weights is not None:
        sums = np.bincount(inv, weights=weights, minlength=len(uniq))
    amax = None
    if aux is not None:
        amax = np.full(len(uniq), np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(amax, inv, np.asarray(aux, dtype=np.int64))
    return uniq, sums, amax, first.astype(np.int64, copy=False)


def ring_charge_numpy(
    link_load: np.ndarray,
    direction: int,
    src: np.ndarray,
    hops: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Circular range-add on ``link_load`` (the ring-charge oracle).

    Adds ``counts[k]`` to every link on the ``hops[k]``-link span
    leaving ``src[k]`` in ring ``direction`` — the difference-array +
    cumsum formulation.  Callers pre-filter to ``counts > 0`` and
    ``hops > 0`` rows.  Integer adds: any implementation ordering is
    bitwise identical.
    """
    n = len(link_load)
    first = src if direction == +1 else (src - hops + 1) % n
    end = first + hops
    diff = np.bincount(first, weights=counts, minlength=n + 1)
    diff -= np.bincount(np.minimum(end, n), weights=counts, minlength=n + 1)
    wrap = end > n
    if np.any(wrap):
        cw = counts[wrap]
        diff[0] += cw.sum()
        diff -= np.bincount(end[wrap] - n, weights=cw, minlength=n + 1)
    link_load += np.cumsum(diff[:n]).astype(np.int64)


def _traffic_flat_empty(
    weights: Optional[np.ndarray], aux: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], np.ndarray]:
    return (
        np.empty(0, dtype=np.int64),
        None if weights is None else np.empty(0, dtype=np.float64),
        None if aux is None else np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )


def checked_regions(rows, n_regions: int) -> np.ndarray:
    """``rows`` as a contiguous int64 array, or :class:`ValidationError`
    unless it is strictly ascending within ``[0, n_regions)``.  The
    compiled ``band_rows`` indexes its per-region arrays by every entry,
    so a list that fails this never reaches it."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if rows.size and (
        rows[0] < 0 or rows[-1] >= n_regions or np.any(rows[1:] <= rows[:-1])
    ):
        raise ValidationError(
            "band_rows: regions must be strictly ascending and in range"
        )
    return rows


# ---------------------------------------------------------------------------
# cext backend: the fused kernels as a tiny cffi-built C extension
# ---------------------------------------------------------------------------

_CDEF = r"""
double lj_flat_f64(const double *px, const double *py, const double *pz,
                   const int64_t *ia, const int64_t *ib,
                   const int32_t *srow, const double *stab,
                   const int32_t *spc, int64_t ns,
                   const double *c14t, const double *c8t,
                   const double *c12t, const double *c6t,
                   int64_t n_pairs, double cutoff2, double shift_e,
                   double *fx, double *fy, double *fz);
void lj_flat_seg_f64(const double *px, const double *py, const double *pz,
                     const int64_t *ia, const int64_t *ib,
                     const int32_t *srow, const double *stab,
                     const int32_t *spc, int64_t ns,
                     const double *c14t, const double *c8t,
                     const double *c12t, const double *c6t,
                     const int64_t *seg_lo, const int64_t *seg_hi,
                     int64_t n_seg, double cutoff2, double shift_e,
                     double *fx, double *fy, double *fz, double *energies);
int64_t admit_flat_f32(const float *fsx, const float *fsy, const float *fsz,
                       const int64_t *ia, const int64_t *ib,
                       const int64_t *segs, int64_t n_segs,
                       const double *offs, float pre,
                       int64_t *idx_out, float *r2_out,
                       float *dx_out, float *dy_out, float *dz_out);
void screen_dr_f64(const double *frac, const int64_t *ii, const int64_t *jj,
                   const double *offs, const int64_t *row, int64_t n,
                   double *dr_out);
int64_t traffic_groupby_i64(int64_t *skey, int64_t n, int64_t div,
                            const double *w, const int64_t *aux,
                            int64_t *uniq_out, double *sum_out,
                            int64_t *max_out, int64_t *first_out);
void ring_charge_i64(int64_t *link_load, int64_t n, int64_t direction,
                     const int64_t *src, const int64_t *hops,
                     const int64_t *counts, int64_t k);
void rom_eval_f32(const float *r2, const float *dx, const float *dy,
                  const float *dz, const int64_t *idx, int64_t m,
                  int64_t bias, int64_t nb, int64_t shift_bits,
                  const float *a14, const float *b14,
                  const float *a8, const float *b8,
                  const float *a12, const float *b12,
                  const float *a6, const float *b6,
                  int scalar_coeffs,
                  const float *c14, const float *c8,
                  const float *c12, const float *c6,
                  const float *af, const float *bf,
                  const float *ae, const float *be, const float *qq,
                  float *fx, float *fy, float *fz, float *e_out);
void scatter_cols_f32(float *bank, const int64_t *idx,
                      const float *wx, const float *wy, const float *wz,
                      int64_t m, int64_t n, double *acc);
int64_t band_rows_f32(const float *ps, const int64_t *order,
                      const int64_t *start, const int64_t *counts,
                      const int64_t *nbr, int64_t n_cells, int64_t n_rows,
                      const float *offs, float band,
                      const int64_t *rows, int64_t n_sel,
                      int64_t *rstart, int64_t *rcap, int64_t *fill,
                      int64_t stride, int64_t pad, int64_t shift,
                      int64_t slack_min, int fresh, int64_t size,
                      int64_t *a_out, int64_t *b_out, int64_t *key_out,
                      float *qx, float *qy, float *qz, int32_t *in,
                      int64_t *hit);
"""

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Fused cutoff test + LJ + Newton-pair scatter over a flat pair
 * stream (engine layer, float64).  Sequential accumulation: admitted
 * pairs are exact, totals agree with the bincount-grouped reference to
 * float64 round-off. */
double lj_flat_f64(const double *px, const double *py, const double *pz,
                   const int64_t *ia, const int64_t *ib,
                   const int32_t *srow, const double *stab,
                   const int32_t *spc, int64_t ns,
                   const double *c14t, const double *c8t,
                   const double *c12t, const double *c6t,
                   int64_t n_pairs, double cutoff2, double shift_e,
                   double *fx, double *fy, double *fz)
{
    double energy = 0.0;
    for (int64_t p = 0; p < n_pairs; p++) {
        int64_t i = ia[p], j = ib[p];
        double dx = px[i] - px[j];
        double dy = py[i] - py[j];
        double dz = pz[i] - pz[j];
        int32_t r = srow[p];
        if (r >= 0) {
            dx -= stab[3 * r];
            dy -= stab[3 * r + 1];
            dz -= stab[3 * r + 2];
        }
        double r2 = dx * dx + dy * dy + dz * dz;
        if (r2 >= cutoff2)
            continue;
        int64_t sij = (int64_t)spc[i] * ns + spc[j];
        double inv_r2 = 1.0 / r2;
        double inv_r4 = inv_r2 * inv_r2;
        double inv_r6 = inv_r4 * inv_r2;
        double inv_r8 = inv_r4 * inv_r4;
        double scalar = (c14t[sij] * inv_r6 - c8t[sij]) * inv_r8;
        energy += (c12t[sij] * inv_r6 - c6t[sij]) * inv_r6 - shift_e;
        double fxx = scalar * dx, fyy = scalar * dy, fzz = scalar * dz;
        fx[i] += fxx; fy[i] += fyy; fz[i] += fzz;
        fx[j] -= fxx; fy[j] -= fyy; fz[j] -= fzz;
    }
    return energy;
}

/* Segmented variant of lj_flat_f64 for the batched engine: one call
 * walks K per-system pair ranges of one global stream, accumulating
 * into the shared force columns (particle indices are disjoint across
 * segments) with a per-segment energy accumulator.  Each segment sees
 * exactly the pair order, operands and accumulator start (0.0) of a
 * solo lj_flat_f64 call, so per-system forces AND energies are bitwise
 * the solo run's.  Pad rows between seg_hi[k] and seg_lo[k+1] are
 * never touched. */
void lj_flat_seg_f64(const double *px, const double *py, const double *pz,
                     const int64_t *ia, const int64_t *ib,
                     const int32_t *srow, const double *stab,
                     const int32_t *spc, int64_t ns,
                     const double *c14t, const double *c8t,
                     const double *c12t, const double *c6t,
                     const int64_t *seg_lo, const int64_t *seg_hi,
                     int64_t n_seg, double cutoff2, double shift_e,
                     double *fx, double *fy, double *fz, double *energies)
{
    for (int64_t k = 0; k < n_seg; k++) {
        double energy = 0.0;
        for (int64_t p = seg_lo[k]; p < seg_hi[k]; p++) {
            int64_t i = ia[p], j = ib[p];
            double dx = px[i] - px[j];
            double dy = py[i] - py[j];
            double dz = pz[i] - pz[j];
            int32_t r = srow[p];
            if (r >= 0) {
                dx -= stab[3 * r];
                dy -= stab[3 * r + 1];
                dz -= stab[3 * r + 2];
            }
            double r2 = dx * dx + dy * dy + dz * dz;
            if (r2 >= cutoff2)
                continue;
            int64_t sij = (int64_t)spc[i] * ns + spc[j];
            double inv_r2 = 1.0 / r2;
            double inv_r4 = inv_r2 * inv_r2;
            double inv_r6 = inv_r4 * inv_r2;
            double inv_r8 = inv_r4 * inv_r4;
            double scalar = (c14t[sij] * inv_r6 - c8t[sij]) * inv_r8;
            energy += (c12t[sij] * inv_r6 - c6t[sij]) * inv_r6 - shift_e;
            double fxx = scalar * dx, fyy = scalar * dy, fzz = scalar * dz;
            fx[i] += fxx; fy[i] += fyy; fz[i] += fzz;
            fx[j] -= fxx; fy[j] -= fyy; fz[j] -= fzz;
        }
        energies[k] = energy;
    }
}

/* Band-list admission phase (machine layer).  Compiled with
 * -ffp-contract=off this restates numpy's float32 arithmetic with
 * identical rounding at every step: f32 differences, per-segment f32
 * offset subtraction, the f32 prescreen, the exact f64 recheck of the
 * f32 diffs associated (dx^2 + dy^2) + dz^2 (each product of two
 * floats is exact in double), the f32 cast and the r2 < 1 admission —
 * so the emitted (idx, r2, dx, dy, dz) stream is bitwise numpy's. */
int64_t admit_flat_f32(const float *fsx, const float *fsy, const float *fsz,
                       const int64_t *ia, const int64_t *ib,
                       const int64_t *segs, int64_t n_segs,
                       const double *offs, float pre,
                       int64_t *idx_out, float *r2_out,
                       float *dx_out, float *dy_out, float *dz_out)
{
    int64_t m = 0;
    for (int64_t k = 0; k < n_segs; k++) {
        float ox = (float)offs[3 * k];
        float oy = (float)offs[3 * k + 1];
        float oz = (float)offs[3 * k + 2];
        for (int64_t p = segs[k]; p < segs[k + 1]; p++) {
            float dx = fsx[ia[p]] - fsx[ib[p]];
            float dy = fsy[ia[p]] - fsy[ib[p]];
            float dz = fsz[ia[p]] - fsz[ib[p]];
            if (ox != 0.0f) dx -= ox;
            if (oy != 0.0f) dy -= oy;
            if (oz != 0.0f) dz -= oz;
            float r2s = dx * dx;
            r2s += dy * dy;
            r2s += dz * dz;
            if (r2s < pre) {
                double r2 = (double)dx * (double)dx;
                r2 += (double)dy * (double)dy;
                r2 += (double)dz * (double)dz;
                float r2f = (float)r2;
                if (r2f < 1.0f) {
                    idx_out[m] = p;
                    r2_out[m] = r2f;
                    dx_out[m] = dx;
                    dy_out[m] = dy;
                    dz_out[m] = dz;
                    m++;
                }
            }
        }
    }
    return m;
}

/* Fused gather + displacement over one candidate chunk (chunked
 * machine path, distributed per-node path).  Matches numpy's
 * (frac[ii] - frac[jj]) - offset[row] bitwise — elementwise, one
 * rounding per subtraction.  The r2 reduction is left to the caller's
 * einsum so it is the reference reduction for every backend. */
void screen_dr_f64(const double *frac, const int64_t *ii, const int64_t *jj,
                   const double *offs, const int64_t *row, int64_t n,
                   double *dr_out)
{
    for (int64_t p = 0; p < n; p++) {
        const double *a = frac + 3 * ii[p];
        const double *b = frac + 3 * jj[p];
        const double *o = offs + 3 * row[p];
        dr_out[3 * p] = a[0] - b[0] - o[0];
        dr_out[3 * p + 1] = a[1] - b[1] - o[1];
        dr_out[3 * p + 2] = a[2] - b[2] - o[2];
    }
}

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Stable group-reduce over int64 keys (accounting layer).  The caller
 * precomputes skey[i] = key[i] * div + i with div = n, so one plain
 * sort of skey is a stable (key, row) sort; a single walk then emits
 * sorted unique keys, per-key float64 weight sums accumulated in input
 * row order (bitwise np.bincount's accumulation sequence), per-key
 * int64 aux maxima, and the first-occurrence row index.  w/aux may be
 * NULL.  skey is clobbered.  Returns the unique-key count. */
int64_t traffic_groupby_i64(int64_t *skey, int64_t n, int64_t div,
                            const double *w, const int64_t *aux,
                            int64_t *uniq_out, double *sum_out,
                            int64_t *max_out, int64_t *first_out)
{
    if (n == 0)
        return 0;
    qsort(skey, (size_t)n, sizeof(int64_t), cmp_i64);
    int64_t m = -1;
    int64_t prev = -1;  /* keys are non-negative (wrapper-enforced) */
    for (int64_t p = 0; p < n; p++) {
        int64_t key = skey[p] / div;
        int64_t idx = skey[p] % div;
        if (m < 0 || key != prev) {
            m++;
            prev = key;
            uniq_out[m] = key;
            if (w)
                sum_out[m] = 0.0;
            if (aux)
                max_out[m] = aux[idx];
            first_out[m] = idx;
        } else if (aux && aux[idx] > max_out[m]) {
            max_out[m] = aux[idx];
        }
        if (w)
            sum_out[m] += w[idx];
    }
    return m + 1;
}

/* In-place circular range-add (ring-load charging).  Adds counts[p] to
 * the hops[p] links leaving src[p] in ring direction.  Callers
 * pre-filter to counts > 0 && hops > 0; integer adds make any visit
 * order bitwise identical to the numpy difference-array path. */
void ring_charge_i64(int64_t *link_load, int64_t n, int64_t direction,
                     const int64_t *src, const int64_t *hops,
                     const int64_t *counts, int64_t k)
{
    for (int64_t p = 0; p < k; p++) {
        int64_t h = hops[p], c = counts[p];
        int64_t s = src[p];
        if (direction != 1) {
            s = (s - h + 1) % n;
            if (s < 0)
                s += n;
        }
        for (int64_t q = 0; q < h; q++) {
            link_load[s] += c;
            s++;
            if (s == n)
                s = 0;
        }
    }
}

/* Fused ROM-pipeline evaluation over the admitted pair stream (machine
 * layer, float32).  Restates, with -ffp-contract=off so every multiply
 * and add rounds exactly once like the numpy ufunc sequence:
 * the section/bin decode straight from the float32 bit fields
 * (power-of-two n_b only; bias = 127 - n_s, shift_bits =
 * 23 - log2(n_b)), the per-term ROM interpolation a[lin]*r2 + b[lin],
 * the coefficient products (scalar broadcast when scalar_coeffs, else
 * gathered per band index idx[p]), scalar = c14-term - c8-term,
 * f = scalar * d, e = c12-term - c6-term, and the optional Coulomb
 * terms (af/ae NULL-able; qq is the per-band charge product gathered
 * by idx[p]).  Output f/e streams are bitwise numpy's; the
 * order-sensitive per-offset energy sums and bank scatters stay with
 * the caller. */
void rom_eval_f32(const float *r2, const float *dx, const float *dy,
                  const float *dz, const int64_t *idx, int64_t m,
                  int64_t bias, int64_t nb, int64_t shift_bits,
                  const float *a14, const float *b14,
                  const float *a8, const float *b8,
                  const float *a12, const float *b12,
                  const float *a6, const float *b6,
                  int scalar_coeffs,
                  const float *c14, const float *c8,
                  const float *c12, const float *c6,
                  const float *af, const float *bf,
                  const float *ae, const float *be, const float *qq,
                  float *fx, float *fy, float *fz, float *e_out)
{
    for (int64_t p = 0; p < m; p++) {
        float r2a = r2[p];
        int32_t bits;
        memcpy(&bits, &r2a, sizeof bits);
        int64_t lin = ((int64_t)(bits >> 23) - bias) * nb
                      + (int64_t)((bits >> shift_bits) & (int32_t)(nb - 1));
        float inv14 = a14[lin] * r2a + b14[lin];
        float inv8 = a8[lin] * r2a + b8[lin];
        float inv12 = a12[lin] * r2a + b12[lin];
        float inv6 = a6[lin] * r2a + b6[lin];
        float scalar, e;
        if (scalar_coeffs) {
            scalar = inv14 * c14[0];
            inv8 = inv8 * c8[0];
            e = inv12 * c12[0];
            inv6 = inv6 * c6[0];
        } else {
            int64_t q = idx[p];
            scalar = c14[q] * inv14;
            inv8 = inv8 * c8[q];
            e = c12[q] * inv12;
            inv6 = inv6 * c6[q];
        }
        scalar = scalar - inv8;
        e = e - inv6;
        float fxp = scalar * dx[p];
        float fyp = scalar * dy[p];
        float fzp = scalar * dz[p];
        if (qq) {
            float q32 = qq[idx[p]];
            float invf = af[lin] * r2a + bf[lin];
            float sc = invf * q32;
            fxp = fxp + sc * dx[p];
            fyp = fyp + sc * dy[p];
            fzp = fzp + sc * dz[p];
            float inve = ae[lin] * r2a + be[lin];
            inve = inve * q32;
            e = e + inve;
        }
        fx[p] = fxp;
        fy[p] = fyp;
        fz[p] = fzp;
        e_out[p] = e;
    }
}

/* Per-column bank scatter (machine layer).  Mirrors, per column k:
 * bank[:, k] += np.bincount(idx, weights=w_k, minlength=n)
 *                  .astype(float32)
 * i.e. float64 accumulation of the (exactly cast) float32 weights in
 * input row order, one f64 -> f32 rounding per row, then a float32 add
 * onto EVERY bank row — including +0.0 onto untouched rows, which
 * (like numpy's full-length add) turns -0.0 entries into +0.0.  acc is
 * caller-provided scratch of 3*n doubles; bank is C-contiguous
 * (n, 3). */
void scatter_cols_f32(float *bank, const int64_t *idx,
                      const float *wx, const float *wy, const float *wz,
                      int64_t m, int64_t n, double *acc)
{
    for (int64_t i = 0; i < 3 * n; i++)
        acc[i] = 0.0;
    for (int64_t p = 0; p < m; p++) {
        int64_t i = idx[p] * 3;
        acc[i] += (double)wx[p];
        acc[i + 1] += (double)wy[p];
        acc[i + 2] += (double)wz[p];
    }
    for (int64_t i = 0; i < 3 * n; i++)
        bank[i] = bank[i] + (float)acc[i];
}

/* Band test of one home vector against n neighbour vectors: the
 * float32 direct-difference r2 = (dx*dx + dy*dy) + dz*dz, rounded per
 * operation as numpy rounds it, below `band`.  A separate loop so the
 * compiler can vectorize it; that changes no element's rounding. */
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("tree-vectorize")))
#endif
static void row_hits(float px, float py, float pz, const float *restrict qx,
                     const float *restrict qy, const float *restrict qz,
                     float band, int32_t *restrict in, int64_t n)
{
    for (int64_t j = 0; j < n; j++) {
        float dx = px - qx[j];
        float dy = py - qy[j];
        float dz = pz - qz[j];
        in[j] = dx * dx + dy * dy + dz * dz < band;
    }
}

/* One region (offset k, home cell c) of band_rows_f32: hits written
 * from entry `base` while they fit in `cap`; returns the hit count. */
static int64_t band_row(const float *ps, const int64_t *order,
                        const int64_t *start, const int64_t *counts,
                        const int64_t *nbr, int64_t n_rows,
                        const float *offs, float band, int64_t k, int64_t c,
                        int64_t stride, int64_t base, int64_t cap,
                        int64_t *a_out, int64_t *b_out, int64_t *key_out,
                        float *qx, float *qy, float *qz, int32_t *in,
                        int64_t *hit)
{
    int64_t ni = counts[c];
    int64_t nc = nbr[c * n_rows + k];
    int64_t nj = counts[nc];
    if (ni == 0 || nj == 0)
        return 0;
    float ox = offs[3 * k], oy = offs[3 * k + 1], oz = offs[3 * k + 2];
    const int64_t *oc = order + start[c];
    const int64_t *on = order + start[nc];
    for (int64_t j = 0; j < nj; j++) {
        qx[j] = ps[3 * on[j]] + ox;
        qy[j] = ps[3 * on[j] + 1] + oy;
        qz[j] = ps[3 * on[j] + 2] + oz;
    }
    int64_t m = 0;
    for (int64_t i = 0; i < ni; i++) {
        const float *p = ps + 3 * oc[i];
        int64_t j0 = k == 0 ? i + 1 : 0;
        row_hits(p[0], p[1], p[2], qx + j0, qy + j0, qz + j0, band, in,
                 nj - j0);
        int64_t h = 0;
        for (int64_t j = j0; j < nj; j++) {
            hit[h] = j;
            h += in[j - j0];
        }
        if (m + h <= cap) {
            int64_t *a = a_out + base + m, *b = b_out + base + m;
            int64_t *key = key_out + base + m;
            for (int64_t t = 0; t < h; t++) {
                a[t] = oc[i];
                b[t] = on[hit[t]];
                key[t] = c * stride + hit[t];
            }
        }
        m += h;
    }
    return m;
}

static void pad_row(int64_t lo, int64_t hi, int64_t pad, int64_t *a_out,
                    int64_t *b_out, int64_t *key_out)
{
    for (int64_t t = lo; t < hi; t++) {
        a_out[t] = pad;
        b_out[t] = 0;
        key_out[t] = 0;
    }
}

/* Lengthen region r by `need` entries: the regions after it shift
 * right up to the first region t with `need` spare entries, which
 * gives them up, or up to the layout end when none has, if the end
 * stays within `size`.  Region contents move with them; pads carry no
 * position.  Returns 0 when there is no room. */
static int grow_region(int64_t r, int64_t need, int64_t n_reg,
                       int64_t *rstart, int64_t *rcap, const int64_t *fill,
                       int64_t size, int64_t *a_out, int64_t *b_out,
                       int64_t *key_out)
{
    int64_t t = r + 1;
    while (t < n_reg && rcap[t] - fill[t] < need)
        t++;
    int64_t lo = rstart[r + 1], hi;
    if (t < n_reg) {
        hi = rstart[t] + fill[t];
        rcap[t] -= need;
    } else {
        if (rstart[n_reg] + need > size)
            return 0;
        hi = rstart[n_reg];
        rstart[n_reg] += need;
    }
    if (hi > lo) {
        int64_t nb = (hi - lo) * sizeof(int64_t);
        memmove(a_out + lo + need, a_out + lo, nb);
        memmove(b_out + lo + need, b_out + lo, nb);
        memmove(key_out + lo + need, key_out + lo, nb);
    }
    for (int64_t s = r + 1; s <= t && s < n_reg; s++)
        rstart[s] += need;
    rcap[r] += need;
    return 1;
}

/* Skin-band search of a CellState row layout (build phase).  Region
 * r = k * n_cells + c holds the plan row of home cell c at offset k;
 * each region listed strictly ascending in rows[0..n_sel) is searched
 * per home slot i and neighbour slot j (i < j on k = 0) with the
 * float32 direct-difference r2 < band, keyed by bank row: ps holds one
 * packed vector per bank row, and slot i of cell c is bank row
 * order[start[c] + i].  A hit writes a = home bank row, b = neighbour
 * bank row, key = c * stride + j.  Region r
 * spans [rstart[r], rstart[r] + rcap[r]), the regions back to back;
 * its entries past fill[r] are pads (a = pad, b = 0, key = 0), which
 * the consumer makes inadmissible.  A region of f hits
 * is given f + (f >> shift) + slack_min entries.
 *
 * fresh == 0, an in-place update: each listed region is re-searched in
 * place and padded.  A region that outgrows its entries is lengthened
 * to its new hits plus slack_min by grow_region and searched again.
 * Returns
 * 0, or 1 when a region found no room (the layout is then unspecified
 * and the caller rebuilds).
 * fresh != 0, a full build: the listed regions are searched compactly
 * from entry 0 (writing only below `size`), every other region gets no
 * entries, and the hits move backward into that layout and are
 * padded.  Returns the layout length rstart[n_cells * n_rows]; when it
 * exceeds `size` the outputs are unspecified and the caller retries
 * with more room.
 * qx/qy/qz, in and hit are caller scratch of max(counts) entries
 * each. */
int64_t band_rows_f32(const float *ps, const int64_t *order,
                      const int64_t *start, const int64_t *counts,
                      const int64_t *nbr, int64_t n_cells, int64_t n_rows,
                      const float *offs, float band,
                      const int64_t *rows, int64_t n_sel,
                      int64_t *rstart, int64_t *rcap, int64_t *fill,
                      int64_t stride, int64_t pad, int64_t shift,
                      int64_t slack_min, int fresh, int64_t size,
                      int64_t *a_out, int64_t *b_out, int64_t *key_out,
                      float *qx, float *qy, float *qz, int32_t *in,
                      int64_t *hit)
{
    int64_t n_reg = n_cells * n_rows;
    if (!fresh) {
        for (int64_t s = 0; s < n_sel; s++) {
            int64_t r = rows[s], k = r / n_cells, c = r % n_cells;
            int64_t m = band_row(ps, order, start, counts, nbr, n_rows, offs,
                                 band, k, c, stride, rstart[r], rcap[r],
                                 a_out, b_out, key_out, qx, qy, qz, in, hit);
            if (m > rcap[r]) {
                int64_t need = m + slack_min - rcap[r];
                if (!grow_region(r, need, n_reg, rstart, rcap, fill, size,
                                 a_out, b_out, key_out))
                    return 1;
                band_row(ps, order, start, counts, nbr, n_rows, offs, band,
                         k, c, stride, rstart[r], rcap[r],
                         a_out, b_out, key_out, qx, qy, qz, in, hit);
            }
            fill[r] = m;
            pad_row(rstart[r] + m, rstart[r] + rcap[r], pad,
                    a_out, b_out, key_out);
        }
        return 0;
    }
    memset(fill, 0, n_reg * sizeof(int64_t));
    int64_t m = 0;
    for (int64_t s = 0; s < n_sel; s++) {
        int64_t r = rows[s];
        int64_t room = m < size ? size - m : 0;
        fill[r] = band_row(ps, order, start, counts, nbr, n_rows, offs, band,
                           r / n_cells, r % n_cells, stride, m, room,
                           a_out, b_out, key_out, qx, qy, qz, in, hit);
        m += fill[r];
    }
    int64_t total = 0;
    for (int64_t r = 0, s = 0; r < n_reg; r++) {
        int64_t listed = s < n_sel && rows[s] == r;
        s += listed;
        rstart[r] = total;
        rcap[r] = listed ? fill[r] + (fill[r] >> shift) + slack_min : 0;
        total += rcap[r];
    }
    rstart[n_reg] = total;
    if (total > size)
        return total;
    int64_t src = m;
    for (int64_t r = n_reg - 1; r >= 0; r--) {
        int64_t f = fill[r], dst = rstart[r];
        src -= f;
        if (f && dst != src) {
            memmove(a_out + dst, a_out + src, f * sizeof(int64_t));
            memmove(b_out + dst, b_out + src, f * sizeof(int64_t));
            memmove(key_out + dst, key_out + src, f * sizeof(int64_t));
        }
        pad_row(dst + f, dst + rcap[r], pad, a_out, b_out, key_out);
    }
    return total;
}
"""

#: No-FMA, no-fast-math: the float32 machine kernel must round exactly
#: like numpy's elementwise ops.
_C_FLAGS = ["-O2", "-ffp-contract=off", "-fno-fast-math"]


#: Compiles the extension in a child interpreter: cffi's compile step
#: imports setuptools, whose import alone adds over 10 MB to the peak
#: resident set of every simulating process that hits a cold cache.
#: Reads ``{cdef, source, flags, modname, tmpdir, final}`` as JSON on
#: stdin and installs the built module at ``final`` by atomic rename.
_COMPILE_SCRIPT = r"""
import json, os, sys
import cffi
spec = json.load(sys.stdin)
ffi = cffi.FFI()
ffi.cdef(spec["cdef"])
ffi.set_source(spec["modname"], spec["source"],
               extra_compile_args=spec["flags"])
os.replace(ffi.compile(tmpdir=spec["tmpdir"]), spec["final"])
"""


def _build_cext():
    """Build (or load from the on-disk cache) the C kernel module.

    The built extension is keyed by a hash of source + flags in a
    directory under the system temp dir, so repeated processes (test
    runs, campaign pool children) reuse one compilation.  A cache miss
    compiles in a child interpreter (:data:`_COMPILE_SCRIPT`) into a
    per-pid scratch dir and installs with an atomic rename, so
    concurrent builders never see a partial module and this process
    only ever loads the finished ``.so``.
    """
    tag = hashlib.sha1(
        (_CDEF + _C_SOURCE + " ".join(_C_FLAGS)).encode()
    ).hexdigest()[:12]
    modname = f"_repro_force_cext_{tag}"
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    cache = os.path.join(tempfile.gettempdir(), "repro-cext-cache")
    final = os.path.join(cache, modname + suffix)
    if not os.path.exists(final):
        scratch = os.path.join(cache, f"build-{os.getpid()}")
        os.makedirs(scratch, exist_ok=True)
        spec = {
            "cdef": _CDEF, "source": _C_SOURCE, "flags": _C_FLAGS,
            "modname": modname, "tmpdir": scratch, "final": final,
        }
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _COMPILE_SCRIPT],
                input=json.dumps(spec), capture_output=True, text=True,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(f"cext compile failed: {tail}")
    spec = importlib.util.spec_from_file_location(modname, final)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ffi, mod.lib


def _make_cext_backend() -> ForceBackend:
    try:
        ffi, lib = _build_cext()
    except Exception as exc:  # cffi missing, no compiler, sandboxed tmp...
        return ForceBackend(
            name="cext", available=False, why=f"{type(exc).__name__}: {exc}"
        )

    def ptr(ctype, arr):
        # A fifth of ``arr.ctypes.data``'s cost; C-contiguous only.
        return ffi.cast(ctype, ffi.from_buffer(arr))

    def lj_flat(psx, psy, psz, ia, ib, srow, stab, spc, lj, cutoff2,
                shift_e, fx, fy, fz):
        c14, c8, c12, c6 = _lj_tables(lj)
        return lib.lj_flat_f64(
            ptr("double *", psx), ptr("double *", psy), ptr("double *", psz),
            ptr("int64_t *", ia), ptr("int64_t *", ib),
            ptr("int32_t *", srow), ptr("double *", stab),
            ptr("int32_t *", spc), int(lj.n_species),
            ptr("double *", c14), ptr("double *", c8),
            ptr("double *", c12), ptr("double *", c6),
            int(len(ia)), float(cutoff2), float(shift_e),
            ptr("double *", fx), ptr("double *", fy), ptr("double *", fz),
        )

    def lj_flat_seg(psx, psy, psz, ia, ib, srow, stab, spc, lj, cutoff2,
                    shift_e, fx, fy, fz, seg_lo, seg_hi):
        c14, c8, c12, c6 = _lj_tables(lj)
        lo64 = np.ascontiguousarray(seg_lo, dtype=np.int64)
        hi64 = np.ascontiguousarray(seg_hi, dtype=np.int64)
        energies = np.zeros(len(lo64), dtype=np.float64)
        lib.lj_flat_seg_f64(
            ptr("double *", psx), ptr("double *", psy), ptr("double *", psz),
            ptr("int64_t *", ia), ptr("int64_t *", ib),
            ptr("int32_t *", srow), ptr("double *", stab),
            ptr("int32_t *", spc), int(lj.n_species),
            ptr("double *", c14), ptr("double *", c8),
            ptr("double *", c12), ptr("double *", c6),
            ptr("int64_t *", lo64), ptr("int64_t *", hi64),
            int(len(lo64)), float(cutoff2), float(shift_e),
            ptr("double *", fx), ptr("double *", fy), ptr("double *", fz),
            ptr("double *", energies),
        )
        return energies

    def admit_flat(fsx, fsy, fsz, ia, ib, segs, offs, scratch=None,
                   copy=True):
        L = len(ia)
        if scratch is not None:
            idx_out, r2_out, dx_out, dy_out, dz_out = scratch
        else:
            idx_out = np.empty(L, dtype=np.int64)
            r2_out = np.empty(L, dtype=np.float32)
            dx_out = np.empty(L, dtype=np.float32)
            dy_out = np.empty(L, dtype=np.float32)
            dz_out = np.empty(L, dtype=np.float32)
        segs64 = np.ascontiguousarray(segs, dtype=np.int64)
        offs64 = np.ascontiguousarray(offs, dtype=np.float64)
        m = lib.admit_flat_f32(
            ptr("float *", fsx), ptr("float *", fsy), ptr("float *", fsz),
            ptr("int64_t *", ia), ptr("int64_t *", ib),
            ptr("int64_t *", segs64), int(len(segs64) - 1),
            ptr("double *", offs64), np.float32(1.0 + 1e-5),
            ptr("int64_t *", idx_out), ptr("float *", r2_out),
            ptr("float *", dx_out), ptr("float *", dy_out),
            ptr("float *", dz_out),
        )
        m = int(m)
        if not copy:
            # Views into the caller's scratch: valid until the next
            # admit over the same scratch, which the machine's one-pass
            # consumption respects; spares five compacted-array copies.
            return (
                idx_out[:m], r2_out[:m],
                dx_out[:m], dy_out[:m], dz_out[:m],
            )
        return (
            idx_out[:m].copy(), r2_out[:m].copy(),
            dx_out[:m].copy(), dy_out[:m].copy(), dz_out[:m].copy(),
        )

    def screen_dr(frac, ii, jj, offset, row):
        n = len(ii)
        frac = np.ascontiguousarray(frac, dtype=np.float64)
        offset = np.ascontiguousarray(offset, dtype=np.float64)
        ii = np.ascontiguousarray(ii, dtype=np.int64)
        jj = np.ascontiguousarray(jj, dtype=np.int64)
        row = np.ascontiguousarray(row, dtype=np.int64)
        dr = np.empty((n, 3), dtype=np.float64)
        lib.screen_dr_f64(
            ptr("double *", frac),
            ptr("int64_t *", ii), ptr("int64_t *", jj),
            ptr("double *", offset), ptr("int64_t *", row),
            int(n),
            ptr("double *", dr),
        )
        return dr, _screen_r2(dr)

    def traffic_flat(keys, weights=None, aux=None):
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        n = len(keys)
        if n == 0:
            return _traffic_flat_empty(weights, aux)
        # The composite skey = key * n + row must fit in int64; the
        # traffic keys are tiny (cell * fpga products), but fall back
        # to the oracle rather than overflow on adversarial inputs.
        if int(keys.min()) < 0 or int(keys.max()) > (2 ** 62) // n:
            return traffic_flat_numpy(keys, weights, aux)
        skey = keys * np.int64(n)
        skey += np.arange(n, dtype=np.int64)
        uniq = np.empty(n, dtype=np.int64)
        first = np.empty(n, dtype=np.int64)
        w64 = sums = a64 = amax = None
        if weights is not None:
            w64 = np.ascontiguousarray(weights, dtype=np.float64)
            sums = np.empty(n, dtype=np.float64)
        if aux is not None:
            a64 = np.ascontiguousarray(aux, dtype=np.int64)
            amax = np.empty(n, dtype=np.int64)
        m = int(
            lib.traffic_groupby_i64(
                ptr("int64_t *", skey), n, n,
                ffi.NULL if w64 is None else ptr("double *", w64),
                ffi.NULL if a64 is None else ptr("int64_t *", a64),
                ptr("int64_t *", uniq),
                ffi.NULL if sums is None else ptr("double *", sums),
                ffi.NULL if amax is None else ptr("int64_t *", amax),
                ptr("int64_t *", first),
            )
        )
        return (
            uniq[:m].copy(),
            None if sums is None else sums[:m].copy(),
            None if amax is None else amax[:m].copy(),
            first[:m].copy(),
        )

    def ring_charge(link_load, direction, src, hops, counts):
        k = len(src)
        if k == 0:
            return
        src = np.ascontiguousarray(src, dtype=np.int64)
        hops = np.ascontiguousarray(hops, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        lib.ring_charge_i64(
            ptr("int64_t *", link_load), int(len(link_load)),
            int(direction),
            ptr("int64_t *", src), ptr("int64_t *", hops),
            ptr("int64_t *", counts), int(k),
        )

    def rom_eval(r2, dx, dy, dz, idx, n_s, n_b, lj_roms, coeffs, coul,
                 fx, fy, fz, e_out):
        m = int(len(idx))
        if m == 0:
            return
        a14, b14, a8, b8, a12, b12, a6, b6 = lj_roms
        c14, c8, c12, c6 = coeffs
        scalar = np.ndim(c14) == 0
        if scalar:
            c14 = np.asarray([c14], dtype=np.float32)
            c8 = np.asarray([c8], dtype=np.float32)
            c12 = np.asarray([c12], dtype=np.float32)
            c6 = np.asarray([c6], dtype=np.float32)
        if coul is None:
            afp = bfp = aep = bep = qqp = ffi.NULL
        else:
            af, bf, ae, be, qq = coul
            afp, bfp = ptr("float *", af), ptr("float *", bf)
            aep, bep = ptr("float *", ae), ptr("float *", be)
            qqp = ptr("float *", qq)
        shift_bits = 24 - int(n_b).bit_length()
        lib.rom_eval_f32(
            ptr("float *", r2),
            ptr("float *", dx), ptr("float *", dy), ptr("float *", dz),
            ptr("int64_t *", idx), m,
            int(127 - n_s), int(n_b), int(shift_bits),
            ptr("float *", a14), ptr("float *", b14),
            ptr("float *", a8), ptr("float *", b8),
            ptr("float *", a12), ptr("float *", b12),
            ptr("float *", a6), ptr("float *", b6),
            int(scalar),
            ptr("float *", c14), ptr("float *", c8),
            ptr("float *", c12), ptr("float *", c6),
            afp, bfp, aep, bep, qqp,
            ptr("float *", fx), ptr("float *", fy), ptr("float *", fz),
            ptr("float *", e_out),
        )

    def scatter_cols(bank, idx, wx, wy, wz, n, acc):
        m = int(len(idx))
        lib.scatter_cols_f32(
            ptr("float *", bank), ptr("int64_t *", idx),
            ptr("float *", wx), ptr("float *", wy), ptr("float *", wz),
            m, int(n), ptr("double *", acc),
        )

    def band_rows(plan, clist, packed, offsets, band, rows, lay, fresh):
        offs32 = np.ascontiguousarray(offsets, dtype=np.float32)
        n_rows = len(offs32)
        if offs32.shape != (n_rows, 3) or plan.nbr.size != plan.n_cells * n_rows:
            raise ValidationError(
                f"band_rows: {n_rows} offsets do not match the plan rows"
            )
        rows = checked_regions(rows, plan.n_rows)
        ps = np.ascontiguousarray(packed, dtype=np.float32)
        cap = max(int(clist.counts.max(initial=0)), 1)
        qx, qy, qz = np.empty((3, cap), dtype=np.float32)
        inb = np.empty(cap, dtype=np.int32)
        hit = np.empty(cap, dtype=np.int64)
        i64 = [
            np.ascontiguousarray(x, dtype=np.int64)
            for x in (clist.order, clist.start, clist.counts, plan.nbr)
        ]

        def search():
            return int(lib.band_rows_f32(
                ptr("float *", ps), *(ptr("int64_t *", x) for x in i64),
                plan.n_cells, n_rows, ptr("float *", offs32), np.float32(band),
                ptr("int64_t *", rows), len(rows),
                ptr("int64_t *", lay.rstart), ptr("int64_t *", lay.rcap),
                ptr("int64_t *", lay.fill),
                lay.stride, lay.pad, lay.shift, lay.slack_min,
                int(bool(fresh)), len(lay.a),
                ptr("int64_t *", lay.a), ptr("int64_t *", lay.b),
                ptr("int64_t *", lay.key),
                ptr("float *", qx), ptr("float *", qy), ptr("float *", qz),
                ptr("int32_t *", inb), ptr("int64_t *", hit),
            ))

        # A fresh layout that outgrows the buffers (a compact state's
        # first build, or a larger band) is counted, not written: fit
        # the buffers to it and search again.
        size = search()
        if fresh and size > len(lay.a):
            lay.fit(size)
            size = search()
        return size

    return ForceBackend(
        name="cext",
        available=True,
        why="compiled with cffi",
        lj_flat=lj_flat,
        admit_flat=admit_flat,
        screen_dr=screen_dr,
        lj_flat_seg=lj_flat_seg,
        traffic_flat=traffic_flat,
        ring_charge=ring_charge,
        rom_eval=rom_eval,
        scatter_cols=scatter_cols,
        band_rows=band_rows,
    )


# ---------------------------------------------------------------------------
# Registration and the environment default
# ---------------------------------------------------------------------------

register_backend(
    ForceBackend(
        name="numpy",
        available=True,
        why="pure-numpy kernels",
        admit_flat=admit_flat_numpy,
        screen_dr=screen_dr_numpy,
        lj_flat_seg=lj_flat_seg_numpy,
        traffic_flat=traffic_flat_numpy,
        ring_charge=ring_charge_numpy,
    )
)
register_backend(_make_cext_backend())


def _apply_env_default() -> str:
    """Honor ``REPRO_FORCE_IMPL`` (called at import; test hook).

    An unknown or retired name leaves the default unchanged and emits a
    :class:`RuntimeWarning` naming it, so a stale setting never
    silently runs a different backend than the one asked for.
    """
    name = os.environ.get(ENV_VAR, "").strip()
    if name:
        try:
            return set_force_backend(name)
        except ValidationError as exc:
            warnings.warn(
                f"{ENV_VAR}={name!r} names no force backend ({exc}); "
                f"registered: {backend_names()}; keeping "
                f"{get_force_backend()!r}",
                RuntimeWarning,
                stacklevel=2,
            )
    return get_force_backend()


_apply_env_default()
