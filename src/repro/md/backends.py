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
    branching.
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
* ``lj_flat_seg`` (engine layer, float64): the one float64 force
  pass, of :class:`~repro.md.batch.BatchedEngine` and so of the solo
  :class:`~repro.md.engine.ReferenceEngine` (a one-segment batch):
  fused cutoff test + LJ + Newton-pair scatter over K segments of one
  flat pair stream, ``(..., seg_lo, seg_hi, pieces) -> (K,) energies``.
  Admissions are exact (float64 ``r2 < cutoff2``) and each segment's
  forces and energy depend only on its own pairs, so a segment is
  bitwise its solo run and a stale band list gives a fresh one's
  result, on each backend.  The compiled kernel accumulates pair by
  pair; :func:`lj_flat_seg_numpy` by bincount over the pieces of
  :class:`SegPieces`.  The two orders differ, so backends agree to the
  documented round-off bound (:data:`FORCE_ATOL` / :data:`ENERGY_RTOL`)
  rather than bitwise.
* ``datapath_pass`` (machine layer, float32): one force pass of the
  machine datapath over a :class:`~repro.md.cellstate.RowBands`
  layout, entered through :meth:`ForceBackend.plan_passes`,
  ``plan(frac, lay, offs, tables, out) -> potential`` — per region
  admit (float32 prescreen, exact float64 recheck, ``r2 < 1``),
  decode, evaluate the LJ (+ Ewald) ROM pipeline and accumulate into
  the float32 banks, with the acceptance counts, the distinct-record
  counts per plan row and, on a node view's remote rows, the coalesced
  reaction records.  Nothing per pair is kept but the float32 energy
  stream the per-offset sums read.  Every per-pair operation is
  elementwise with one rounding per op, and every order-sensitive
  reduction (the float64 bank accumulators, the record coalescing, the
  per-offset float32 energy sums) sees its operands in the same order,
  so banks, counts, records and the potential are **bitwise
  identical** to :func:`datapath_pass_numpy`, its numpy statement and
  oracle, which is also the ``numpy`` backend's production path.
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
* ``keyed_uniforms`` (fault layer, uint32 entropy -> float64): the
  keyed draws of many keys in one call, ``(words, word_offsets,
  out_offsets) -> out``.  Per key it runs numpy's ``SeedSequence``
  mixing (pool of four words) over the key's entropy words, seeds a
  ``PCG64`` with the generated state and emits ``(next64 >> 11) *
  2**-53``: integer hashing and one exact conversion per draw, so the
  stream is **bitwise** ``default_rng(SeedSequence(words)).random(n)``,
  which :func:`keyed_uniforms_numpy` calls key by key as its statement
  and oracle.
* ``flow_rounds`` (fault layer, int64 flows -> masks and counts): every
  flow's retry rounds of one reliable-transport call, ``(src, dst,
  counts, offsets, key, rates, waits, packet_cycles, acks) ->
  (delivered, retransmits, n_delivered, tallies, overhead)``, with
  ``key = (seed, salt, channel, ACK channel, iteration)``, ``rates =
  (drop, corrupt, ACK drop)`` (a zero rate draws nothing), ``waits``
  the timer wait before each retry round and ``acks`` false for bare
  UDP (one round, nothing acknowledged).  Per flow and attempt it
  builds each key's entropy words with
  :func:`~repro.faults.keyed.key_words`' split rule and draws with the
  ``keyed_uniforms`` stream code; ``tallies`` are the
  :class:`~repro.faults.transport.TransportStats` integer fields in
  declaration order and ``overhead`` the flows' cycles, each flow's
  summed in round order and the flows in flow order.  Integer
  bookkeeping and the same float operations in the same order, so it
  is **bitwise** the vectorized round loop of
  :func:`~repro.faults.transport.send_flows`, which ``None`` runs and
  which stays the oracle.
* ``band_rows`` (build phase, float32): the skin-band search of every
  :class:`~repro.md.cellstate.CellState`, ``(plan, clist, packed,
  offsets, band, rows, lay, fresh) -> int``.  It searches the listed
  regions (plan row of cell ``c`` at offset ``k`` is region ``k *
  n_cells + c``; ``rows`` strictly ascending) per home slot and
  neighbour slot with a float32 direct-difference ``r2`` against the
  widened band, keyed by bank row, into the
  :class:`~repro.md.cellstate.RowBands` ``lay``: a full build lays the
  listed regions out anew (compact, or with slack on an updatable
  state), fitting the buffers to the layout when it outgrows them, and
  returns its length; an in-place update merges the rows that changed
  cell since the binning the layout lists into the listed regions
  (searching only the pairs a moved row takes part in) and returns 0,
  or 1 when a region finds no room.  **Bitwise** equal to
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
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.md.cellstate import INDEX_DTYPE, check_mergeable
from repro.md.params import LJTable
from repro.util.errors import ValidationError

#: Documented engine-layer equivalence bounds vs the float64 oracles:
#: compiled/SoA backends admit the exact same pairs but accumulate in a
#: different order, so forces agree to FORCE_ATOL (absolute, kcal/mol/A)
#: and energies to ENERGY_RTOL (relative).  Enforced by
#: tests/test_backends.py.
FORCE_ATOL = 1e-8
ENERGY_RTOL = 1e-9

#: Environment variable that selects the process-wide default backend.
ENV_VAR = "REPRO_FORCE_IMPL"


@dataclass
class ForceBackend:
    """One registered force-kernel implementation.

    The kernel entry points are described in the module docstring.
    ``lj_flat_seg``, ``traffic_flat``, ``ring_charge`` and
    ``keyed_uniforms`` are present on every available backend, so
    consumers call them unconditionally.  The machine datapath pass is
    entered through :meth:`plan_passes` alone: a backend gives either
    ``datapath_pass``, which the generic :class:`PassPlan` runs, or its
    own ``pass_plan``.  For ``band_rows`` and ``flow_rounds``, ``None``
    means "run the consumer's numpy code", which stays the oracle the
    compiled kernel mirrors.
    ``available`` is probed once at registration; ``why`` records the
    probe outcome for diagnostics.
    """

    name: str
    available: bool
    why: str = ""
    #: One machine force pass over a row layout, run by the generic
    #: :class:`PassPlan`: see :func:`datapath_pass_numpy` for the
    #: contract.  ``None`` on a backend with its own ``pass_plan``.
    datapath_pass: Optional[Callable] = None
    #: The float64 force pass (engine layer): one call serves K
    #: independent systems packed into one pair stream, a solo engine
    #: being K = 1, and returns a ``(K,)`` per-segment energy vector
    #: (see :func:`lj_flat_seg_numpy` and :mod:`repro.md.batch`).
    lj_flat_seg: Optional[Callable] = None
    #: Stable group-reduce over int64 keys (accounting layer): see
    #: :func:`traffic_flat_numpy` for the contract.
    traffic_flat: Optional[Callable] = None
    #: In-place ring link range-add (accounting layer): see
    #: :func:`ring_charge_numpy`.
    ring_charge: Optional[Callable] = None
    #: Keyed uniform draws of many keys (fault layer): see
    #: :func:`keyed_uniforms_numpy`.
    keyed_uniforms: Optional[Callable] = None
    #: Every flow's retry rounds of one transport call (fault layer),
    #: ``(src, dst, counts, offsets, key, rates, waits, packet_cycles,
    #: acks) -> (delivered, retransmits, n_delivered, tallies,
    #: overhead)``: see the module docstring.  ``None`` runs the
    #: vectorized round loop of :func:`~repro.faults.transport.send_flows`,
    #: which stays the oracle.
    flow_rounds: Optional[Callable] = None
    #: Skin-band search of a :class:`~repro.md.cellstate.CellState`
    #: (build phase, float32): searches listed plan rows into per-row
    #: regions keyed by bank row, for a full build or an in-place update.
    #: Bitwise identical to :func:`~repro.md.cellstate.band_rows_numpy`,
    #: which ``None`` runs and which stays the oracle.
    band_rows: Optional[Callable] = None
    #: ``() -> PassPlan``: the backend's own plan for the datapath
    #: passes of one consumer.  ``None`` = the generic
    #: :class:`PassPlan` over ``datapath_pass``.
    pass_plan: Optional[Callable] = None

    def plan_passes(self) -> "PassPlan":
        """A new :class:`PassPlan` for one consumer's passes."""
        return PassPlan(self) if self.pass_plan is None else self.pass_plan()


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


#: Stream rows one pass of :func:`lj_flat_seg_numpy` covers: pieces are
#: grouped by the block of this many rows they start in, so a pass
#: spans about this many rows plus its last piece (a longer piece is a
#: pass of its own).  Bounds the scratch arrays and amortises numpy's
#: per-call cost over the pieces of small segments.
SPAN_PAIRS = 1 << 17


class SegPieces(NamedTuple):
    """How the pure-numpy segmented kernel cuts a packed pair stream.

    ``cuts`` is ``(K, S + 1)`` int64: piece ``j`` of segment ``k`` is
    stream rows ``cuts[k, j]:cuts[k, j + 1]`` (``cuts[k, 0]`` and
    ``cuts[k, S]`` are the segment's ``seg_lo``/``seg_hi``).  An engine
    segment's pieces are its half-shell offsets (``S = 14``): the blocks
    of ``n_cells`` regions of its band layout.  ``bases`` is ``(K + 1,)``
    int64: segment ``k`` owns particle rows ``bases[k]:bases[k + 1]``.
    The compiled kernel walks pairs one at a time and ignores both.
    """

    cuts: np.ndarray
    bases: np.ndarray


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
    pieces: SegPieces,
) -> np.ndarray:
    """Segmented flat LJ pass in pure numpy (the ``numpy`` ``lj_flat_seg``).

    Evaluates the packed pair stream of a
    :class:`~repro.md.batch.BatchedEngine` (``seg_lo[k]:seg_hi[k]`` are
    system ``k``'s live pairs in the int32 ``ia``/``ib`` stream; the
    compiled kernel refuses any other dtype, here any integer dtype
    indexes alike) and returns the ``(K,)`` energy vector.

    Each segment is cut into the pieces of ``pieces.cuts``.  A numpy
    pass runs the exact float64 cutoff test over a run of pieces,
    compacts to the admitted pairs (pad pairs between segments
    reference two ghost rows farther apart than the cutoff, so none is
    admitted), and evaluates LJ and the bincount scatters over the
    particle rows ``pieces.bases`` gives its segments.  A particle's
    force is the fold, piece by piece in stream order, of ``+=`` its
    ``a``-side bincount sum and ``-=`` its ``b``-side one; the
    bincounts are keyed by (piece slot, particle row), so pieces
    sharing a pass keep their own sums.  A piece's energy is
    ``np.add.reduceat`` over its admitted pairs minus ``shift_e`` per
    pair, folded into its segment's in stream order.  Hence, bitwise,
    in forces and energies:

    * a segment's result depends only on its own pieces, not on which
      other segments are packed with it (the solo contract);
    * a band list many steps old gives the result of a fresh one: its
      extra pairs are rejected, leaving the same admitted pairs in the
      same order, as long as the cuts fall between the same pairs —
      which is why cuts come from the segment's fixed shape (its
      half-shell offsets), never from its band length;
    * cut per half-shell offset, the forces are those of the
      per-offset pass the engine took before it ran through this
      kernel (its energies summed with ``np.sum``: round-off apart).
    """
    from repro.md.kernels import lj_scalar_energy

    energies = np.zeros(len(seg_lo), dtype=np.float64)
    cuts, bases = pieces
    n_slots = cuts.shape[1] - 1
    lo_p = cuts[:, :-1].ravel()
    hi_p = cuts[:, 1:].ravel()
    live = np.flatnonzero(hi_p > lo_p)
    if not live.size:
        return energies
    lo_p, hi_p = lo_p[live], hi_p[live]
    seg_p, slot_p = np.divmod(live, n_slots)
    multi = lj.n_species > 1
    # One pass per run of pieces starting in one SPAN_PAIRS block.
    edges = np.flatnonzero(np.diff(lo_p // SPAN_PAIRS)) + 1
    bounds = np.concatenate(([0], edges, [len(lo_p)])).tolist()
    for grp in map(slice, bounds[:-1], bounds[1:]):
        lo, hi = int(lo_p[grp.start]), int(hi_p[grp.stop - 1])
        k0, k1 = int(seg_p[grp.start]), int(seg_p[grp.stop - 1]) + 1
        row_lo, m = int(bases[k0]), int(bases[k1] - bases[k0])
        # Widened once per pass: numpy's gathers and bincounts cast
        # int32 indices to intp on every call.
        a = ia[lo:hi].astype(np.intp)
        b = ib[lo:hi].astype(np.intp)
        dx = psx.take(a)
        dx -= psx.take(b)
        dy = psy.take(a)
        dy -= psy.take(b)
        dz = psz.take(a)
        dz -= psz.take(b)
        sr = srow[lo:hi]
        shifted = np.flatnonzero(sr >= 0)
        if shifted.size:
            rows = sr.take(shifted)
            dx[shifted] -= stab[rows, 0]
            dy[shifted] -= stab[rows, 1]
            dz[shifted] -= stab[rows, 2]
        r2 = dx * dx
        tmp = dy * dy
        r2 += tmp
        np.multiply(dz, dz, out=tmp)
        r2 += tmp
        # Not ``r2 < cutoff2``: a NaN distance is kept, as the compiled
        # kernel keeps it, so a poisoned segment's forces show it.
        keep = np.flatnonzero(~(r2 >= cutoff2))
        if not keep.size:
            continue
        if keep.size != r2.size:
            a, b, r2 = a.take(keep), b.take(keep), r2.take(keep)
            dx, dy, dz = dx.take(keep), dy.take(keep), dz.take(keep)
        # The admitted pairs of each piece, and their bincount keys:
        # (slot - j0) * m + row - row_lo.
        starts = np.searchsorted(keep, lo_p[grp] - lo)
        counts = np.diff(starts, append=keep.size)
        j0 = int(slot_p[grp].min())
        n_j = int(slot_p[grp].max()) - j0 + 1
        key = (slot_p[grp] - j0) * m - row_lo
        if (key != key[0]).any():
            off = np.repeat(key, counts)
            a_key, b_key = a + off, b + off
        elif row_lo:
            a_key, b_key = a - row_lo, b - row_lo
        else:
            a_key, b_key = a, b
        if multi:
            scalar, evec = lj_scalar_energy(r2, spc.take(a), spc.take(b), lj)
        else:
            scalar, evec = lj_scalar_energy(r2, None, None, lj)
        size = n_j * m
        rows_f = slice(row_lo, row_lo + m)
        w = scalar * dx
        for f, d in ((fx, dx), (fy, dy), (fz, dz)):
            if d is not dx:
                np.multiply(scalar, d, out=w)
            plus = np.bincount(a_key, weights=w, minlength=size).reshape(n_j, m)
            minus = np.bincount(b_key, weights=w, minlength=size).reshape(n_j, m)
            fr = f[rows_f]
            for j in range(n_j):
                fr += plus[j]
                fr -= minus[j]
        full = counts > 0
        e_piece = np.add.reduceat(evec, starts[full])
        e_piece -= shift_e * counts[full]
        np.add.at(energies, seg_p[grp][full], e_piece)
    return energies


class DatapathTables(NamedTuple):
    """The float32 operands of one machine datapath pass besides the
    layout: the section/bin geometry and small-r bound of the force
    tables, the flattened coefficient ROM images and the per-pair
    coefficients.

    ``rom`` interleaves the ROM images: row ``lin`` (section * n_b +
    bin) holds ``a14, b14, a8, b8, a12, b12, a6, b6`` of the LJ
    pipeline, then ``af, bf, ae, be`` of the Ewald pipeline when ``qq``
    is given, so one lookup reads one row.
    ``coef`` holds ``c14, c8, c12, c6``: shape ``(4,)`` when every pair
    shares them (one species), else ``(4, L)`` per layout entry; ``qq``
    is the per-entry float32 charge product (``None`` without Coulomb).
    """

    n_s: int
    n_b: int
    r2_min: float
    rom: np.ndarray
    coef: np.ndarray
    qq: Optional[np.ndarray]


def _small_r_error(count: int, r2_min: float) -> ValidationError:
    """The pair filter's small-r guard: ``count`` admitted pairs lie
    inside the excluded region ``r2 < r2_min``."""
    return ValidationError(
        f"{count} pair(s) inside the excluded small-r region "
        f"(r2 < {r2_min}); the simulation has collapsed or the dataset "
        "violates the minimum distance"
    )


def _offset_energy(e: np.ndarray, bounds: np.ndarray) -> np.float32:
    """The pass potential: the float32 sum of each non-empty offset's
    energy stream ``e[bounds[k]:bounds[k + 1]]`` (numpy's pairwise
    float32 sum), added in offset order."""
    potential = np.float32(0.0)
    for k in range(len(bounds) - 1):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        if lo < hi:
            potential += e[lo:hi].sum(dtype=np.float32)
    return potential


def _scatter_cols(bank, idx, wx, wy, wz, n):
    """``bank[:, d] += bincount(idx, w_d).astype(float32)`` per column:
    float64 accumulation in stream order, one float32 rounding per row,
    a float32 add onto every bank row."""
    for d, w in enumerate((wx, wy, wz)):
        bank[:, d] += np.bincount(idx, weights=w, minlength=n).astype(
            np.float32, copy=False
        )


def datapath_pass_numpy(
    fs: np.ndarray,
    lay,
    offs: np.ndarray,
    tables: DatapathTables,
    out,
) -> np.float32:
    """One machine datapath pass over a row layout in numpy: the numpy
    backend's ``datapath_pass`` and the oracle of the compiled one.

    ``fs`` is the ``(3, n + 1)`` float32 fraction of every bank row,
    row ``n`` (the layout's pad row) a vector no admission passes;
    ``lay`` a :class:`~repro.md.cellstate.RowBands` whose region ``r =
    k * n_cells + c`` is the plan row of cell ``c`` at offset ``k``;
    ``offs`` the ``(n_off, 3)`` integer cell offsets.  ``out`` carries
    ``home_bank`` / ``nbr_bank`` (C-contiguous ``(n, 3)`` float32),
    ``accepted`` (per cell), ``uniq_per_row`` (per plan row ``c * n_off
    + k``), ``remote`` (a plan-row mask or ``None``), the ``records``
    list and the scratch ``arena``.

    Admission runs over each region's hits ``[rstart, rstart + fill)``,
    not its pads: float32 fraction differences minus the offset, the
    conservative float32 prescreen ``r2 < 1 + 1e-5``, the exact float64
    recheck of the float32 diffs associated ``(dx^2 + dy^2) + dz^2``,
    its float32 cast and ``r2 < 1``.  An admitted pair below
    ``tables.r2_min`` is never decoded: the pass raises the pair
    filter's small-r :class:`ValidationError`, with their count.  Decode: ``lin = s * n_b + ((mant23 * n_b)
    >> 23)`` from the float32 bit fields, exactly
    :func:`~repro.arith.interp.section_bin_indices` for every ``n_b``.
    The ROM interpolations and coefficient products follow the float32
    op order of :class:`~repro.core.datapath.ForcePipeline`.
    Accumulation, per non-empty offset: ``+f`` scattered by home row,
    then ``-f`` by neighbour row, each a float64 bincount rounded to
    float32 and added onto its whole bank (``home_bank`` both on offset
    0).  The neighbour offsets' distinct ``(row, neighbour slot)`` keys
    count into ``uniq_per_row``; on ``remote`` rows each key appends one
    record ``(plan row, neighbour bank row, float32 reaction)`` in
    ascending ``(k, c, j)`` order, its ``-f`` coalesced in float64 in
    admitted order.  Returns the potential (:func:`_offset_energy`).
    """
    ar = out.arena
    n_off = len(offs)
    n_cells = len(lay.fill) // n_off
    # The hits, ascending: entry ``t`` of the admission arrays is layout
    # entry ``ent[t]`` (``ent`` is None when the layout has no pads);
    # region ``r`` spans ``[cum[r], cum[r + 1])`` of them.
    cum = np.zeros(len(lay.fill) + 1, dtype=np.int64)
    np.cumsum(lay.fill, out=cum[1:])
    L = int(cum[-1])
    ent = None
    if L == lay.size:
        A, B = lay.a[:L], lay.b[:L]
    else:
        ent = np.repeat(lay.rstart[:-1] - cum[:-1], lay.fill)
        ent += np.arange(L)
        A, B = lay.a.take(ent), lay.b.take(ent)
    fsx, fsy, fsz = fs
    # Admission in arena scratch.
    r2s, dx, dy, dz, tf = (
        ar.get(name, L, np.float32)
        for name in ("adm_r2", "adm_dx", "adm_dy", "adm_dz", "adm_tmp")
    )
    for f, d in ((fsx, dx), (fsy, dy), (fsz, dz)):
        np.take(f, A, out=d)
        np.take(f, B, out=tf)
        d -= tf
    segs = cum[::n_cells]
    for k in range(1, n_off):
        lo, hi = int(segs[k]), int(segs[k + 1])
        if lo == hi:
            continue
        for d, o in zip((dx, dy, dz), offs[k]):
            if o:
                d[lo:hi] -= np.float32(o)
    # The all-float32 r2 is within three roundings (rel. < 2e-7) of the
    # exact value, so a pair at or above 1 + 1e-5 fails the exact test
    # too; the recheck only runs over the near-admitted shell.
    np.multiply(dx, dx, out=r2s)
    np.multiply(dy, dy, out=tf)
    r2s += tf
    np.multiply(dz, dz, out=tf)
    r2s += tf
    cand = np.flatnonzero(r2s < np.float32(1.0 + 1e-5))
    if cand.size == 0:
        return np.float32(0.0)
    dxc, dyc, dzc = dx.take(cand), dy.take(cand), dz.take(cand)
    r2c = np.multiply(dxc, dxc, dtype=np.float64)
    t64 = np.multiply(dyc, dyc, dtype=np.float64)
    r2c += t64
    np.multiply(dzc, dzc, out=t64, dtype=np.float64)
    r2c += t64
    r2fc = r2c.astype(np.float32)
    keep = r2fc < np.float32(1.0)
    # Admitted hits, ascending: per offset, the layout order; ``lidx``
    # their layout entries.
    idx = cand[keep]
    if idx.size == 0:
        return np.float32(0.0)
    lidx = idx if ent is None else ent.take(idx)
    r2a, dxa, dya, dza = r2fc[keep], dxc[keep], dyc[keep], dzc[keep]
    bounds = np.searchsorted(idx, cum)
    out.accepted += np.diff(bounds).reshape(n_off, -1).sum(axis=0)
    bounds = bounds[::n_cells]
    below = int(np.count_nonzero(r2a < np.float32(tables.r2_min)))
    if below:
        raise _small_r_error(below, tables.r2_min)

    m = idx.size
    n_s, n_b = tables.n_s, tables.n_b
    bits = r2a.view(np.int32)
    t32 = ar.get("dec32", m, np.int32)
    lin = ar.get("lin", m, np.int64)
    t64i = ar.get("dec64", m, np.int64)
    np.right_shift(bits, np.int32(23), out=t32)
    lin[:] = t32
    lin -= 127 - n_s
    lin *= n_b
    np.bitwise_and(bits, np.int32(0x7FFFFF), out=t32)
    t64i[:] = t32
    t64i *= n_b
    t64i >>= 23
    lin += t64i

    rom = np.ascontiguousarray(tables.rom.T)
    coef = tables.coef
    scalar_coef = coef.ndim == 1
    tb = ar.get("romb", m, np.float32)

    def interp(name, t):
        # ROM row pair (a, b) of term t: a[lin] * r2 + b[lin].
        v = ar.get(name, m, np.float32)
        np.take(rom[2 * t], lin, out=v)
        v *= r2a
        np.take(rom[2 * t + 1], lin, out=tb)
        v += tb
        return v

    inv14 = interp("inv14", 0)
    inv8 = interp("inv8", 1)
    if scalar_coef:
        scalar = inv14
        scalar *= coef[0]
        inv8 *= coef[1]
    else:
        scalar = ar.get("scal", m, np.float32)
        np.take(coef[0], lidx, out=scalar)
        scalar *= inv14
        np.take(coef[1], lidx, out=tb)
        inv8 *= tb
    scalar -= inv8
    fxa, fya, fza = (ar.get(x, m, np.float32) for x in ("fxa", "fya", "fza"))
    np.multiply(scalar, dxa, out=fxa)
    np.multiply(scalar, dya, out=fya)
    np.multiply(scalar, dza, out=fza)
    inv12 = interp("inv12", 2)
    inv6 = interp("inv6", 3)
    if scalar_coef:
        e = inv12
        e *= coef[2]
        inv6 *= coef[3]
    else:
        e = ar.get("ener", m, np.float32)
        np.take(coef[2], lidx, out=e)
        e *= inv12
        np.take(coef[3], lidx, out=tb)
        inv6 *= tb
    e -= inv6
    if tables.qq is not None:
        qq = ar.get("qq", m, np.float32)
        np.take(tables.qq, lidx, out=qq)
        sc = interp("invf", 4)
        sc *= qq
        for d, f in ((dxa, fxa), (dya, fya), (dza, fza)):
            np.multiply(sc, d, out=tb)
            f += tb
        inve = interp("inve", 5)
        inve *= qq
        e += inve

    home_bank, nbr_bank = out.home_bank, out.nbr_bank
    n = len(home_bank)
    II = ar.get("II", m, A.dtype)
    JJ = ar.get("JJ", m, B.dtype)
    np.take(A, idx, out=II)
    np.take(B, idx, out=JJ)
    for k in range(n_off):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        if lo == hi:
            continue
        sl = slice(lo, hi)
        _scatter_cols(home_bank, II[sl], fxa[sl], fya[sl], fza[sl], n)
        for f in (fxa, fya, fza):
            np.negative(f[sl], out=f[sl])
        bank = home_bank if k == 0 else nbr_bank
        _scatter_cols(bank, JJ[sl], fxa[sl], fya[sl], fza[sl], n)
    potential = _offset_energy(e, bounds)
    # Distinct (row, neighbour slot) keys of the neighbour offsets:
    # presence bits over (offset, cell, slot), each offset owning its
    # rows outright.
    lo = int(bounds[1])
    if lo == m:
        return potential
    stride = lay.stride
    ccap = n_cells * stride
    keys = np.arange(1, n_off, dtype=np.int64) * ccap
    keys = np.repeat(keys, np.diff(bounds[1:]))
    keys += lay.key.take(lidx[lo:])
    present = ar.get("present", n_off * ccap, bool)
    present[:] = False
    present[keys] = True
    touched = np.flatnonzero(present)
    k_of, cj = np.divmod(touched, ccap)
    rows = (cj // stride) * n_off + k_of
    out.uniq_per_row += np.bincount(rows, minlength=len(out.uniq_per_row))
    rem = None if out.remote is None else out.remote[rows]
    if rem is not None and rem.any():
        # One record per key: its bank row (every entry of a key has
        # the same one) and its already negated reactions, coalesced.
        touched, rows = touched[rem], rows[rem]
        bank_of = ar.get("rec_bank", present.size, np.int64)
        bank_of[keys] = JJ[lo:]
        fr = np.empty((len(touched), 3), dtype=np.float32)
        for d, w in enumerate((fxa, fya, fza)):
            fr[:, d] = np.bincount(
                keys, weights=w[lo:], minlength=present.size
            )[touched]
        out.records.append((rows, bank_of[touched], fr))
    return potential


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


def keyed_operands(
    words, word_offsets, out_offsets
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``keyed_uniforms`` operands as contiguous uint32 / int64
    arrays, or :class:`ValidationError` unless both offset arrays have
    one entry per key plus one, start at 0, never decrease, and
    ``word_offsets`` ends at ``len(words)``."""
    words = np.ascontiguousarray(words, dtype=np.uint32)
    wo = np.ascontiguousarray(word_offsets, dtype=np.int64)
    oo = np.ascontiguousarray(out_offsets, dtype=np.int64)
    if not (
        wo.ndim == oo.ndim == 1 and len(wo) == len(oo) >= 1
        and wo[0] == 0 and oo[0] == 0 and wo[-1] == len(words)
        and (wo[1:] >= wo[:-1]).all() and (oo[1:] >= oo[:-1]).all()
    ):
        raise ValidationError("keyed_uniforms: malformed key offsets")
    return words, wo, oo


def keyed_uniforms_numpy(
    words: np.ndarray, word_offsets: np.ndarray, out_offsets: np.ndarray
) -> np.ndarray:
    """Uniform doubles of many keyed streams (the keyed-draw oracle).

    Key ``k``'s ``SeedSequence`` entropy is ``words[word_offsets[k]:
    word_offsets[k + 1]]`` and its draws fill ``out[out_offsets[k]:
    out_offsets[k + 1]]`` with the first doubles of
    ``default_rng(SeedSequence(entropy)).random`` — one generator per
    key, built and drawn here key by key.
    """
    words, wo, oo = keyed_operands(words, word_offsets, out_offsets)
    out = np.empty(int(oo[-1]), dtype=np.float64)
    for k in range(len(wo) - 1):
        lo, hi = int(oo[k]), int(oo[k + 1])
        if hi > lo:
            seq = np.random.SeedSequence(words[wo[k]:wo[k + 1]])
            out[lo:hi] = np.random.default_rng(seq).random(hi - lo)
    return out


def _traffic_flat_empty(
    weights: Optional[np.ndarray], aux: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray], np.ndarray]:
    return (
        np.empty(0, dtype=np.int64),
        None if weights is None else np.empty(0, dtype=np.float64),
        None if aux is None else np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )


def _is_array(x, dtype, shape=None, min_len=0) -> bool:
    """``x`` is a C-contiguous ``dtype`` array of at least ``min_len``
    rows (and of ``shape``, when given): what a compiled kernel may read
    through ``ffi.from_buffer``, which reinterprets any other dtype's
    bytes without a word."""
    return (
        isinstance(x, np.ndarray) and x.dtype == dtype
        and x.flags.c_contiguous and len(x) >= min_len
        and (shape is None or x.shape == shape)
    )


def _check_layout_streams(lay, what: str) -> None:
    """:class:`ValidationError` unless ``lay.a/b/key`` are C-contiguous
    :data:`~repro.md.cellstate.INDEX_DTYPE` buffers of one length, at
    least ``lay.size`` entries, and the region arrays are int64."""
    n_reg = len(lay.rcap)
    if not (
        all(_is_array(x, INDEX_DTYPE, min_len=lay.size)
            for x in (lay.a, lay.b, lay.key))
        and len(lay.a) == len(lay.b) == len(lay.key)
        and _is_array(lay.rstart, np.int64, (n_reg + 1,))
        and all(_is_array(x, np.int64, (n_reg,)) for x in (lay.rcap, lay.fill))
    ):
        raise ValidationError(
            f"{what}: layout a/b/key must be C-contiguous "
            f"{np.dtype(INDEX_DTYPE).name}, regions int64"
        )


def _pass_mismatch() -> ValidationError:
    return ValidationError("datapath_pass: operands do not match the layout")


def _check_pass_layout(lay, offs, tables) -> None:
    """The layout half of a :class:`PassPlan`'s operand checks: the
    layout streams, the offsets and the tables."""
    _check_layout_streams(lay, "datapath_pass")
    n_off, n_reg = len(offs), len(lay.fill)
    coef = tables.coef
    if not (
        n_off > 0 and n_reg % n_off == 0
        and np.shape(tables.rom) == (
            tables.n_s * tables.n_b, 8 if tables.qq is None else 12
        )
        and (coef.shape == (4,) or (coef.ndim == 2 and coef.shape[0] == 4
                                    and coef.shape[1] >= lay.size))
        and (tables.qq is None
             or _is_array(tables.qq, np.float32, min_len=lay.size))
    ):
        raise _pass_mismatch()


def _check_pass_out(fs_shape, lay, offs, out) -> None:
    """The per-pass half of a :class:`PassPlan`'s operand checks: the
    fraction rows' shape, the banks and the counters of ``out``."""
    n_off, n_reg, n = len(offs), len(lay.fill), len(out.home_bank)
    arr = _is_array
    if not (
        fs_shape == (3, n + 1)
        and all(arr(b, np.float32, (n, 3)) for b in (out.home_bank, out.nbr_bank))
        and arr(out.accepted, np.int64, (n_reg // n_off,))
        and arr(out.uniq_per_row, np.int64, (n_reg,))
        and (out.remote is None or arr(out.remote, np.bool_, (n_reg,)))
    ):
        raise _pass_mismatch()


#: Packed fraction a :class:`PassPlan` gives a row layout's pad bank
#: row: every pad entry's displacement is then about this large, so no
#: admission (and no float32 overflow) can come of it.
PAD_FRAC = np.float32(1.0e6)


def _all_is(xs, ys) -> bool:
    return ys is not None and all(x is y for x, y in zip(xs, ys))


class PassPlan:
    """The datapath passes of one consumer (a
    :class:`~repro.md.cellstate.CellState` and its scratch arena) on one
    backend, with what does not change from pass to pass worked out
    once.

    ``plan(frac, lay, offs, tables, out)`` is one ``datapath_pass``
    over the ``(n, 3)`` fractions ``frac`` of the bank rows: it writes
    them once, in the layout the backend reads, bank row ``n`` (the
    pads') holding :data:`PAD_FRAC`.  The operand checks (the shapes,
    dtypes and contiguity the compiled kernel indexes by; see
    :func:`datapath_pass_numpy` for what each operand holds) run on
    what is new to the plan, found by identity, so any operand swapped
    since is checked before a kernel reads it: the layout half
    whenever the layout, one of its streams, the offsets or the tables
    are new, and once per :attr:`~repro.md.cellstate.RowBands.version`
    and size (an update writes the layout in place); the ``out`` half
    whenever ``out``, its
    arena, banks, counters or ``remote`` mask, or ``n`` are new.  A
    consumer that keeps its ``out`` (a distributed node draws it from
    its arena) is checked once per layout version.

    This generic plan writes the planar ``(3, n + 1)`` float32 rows and
    calls the backend's ``datapath_pass``; a backend may give its own
    (:attr:`ForceBackend.pass_plan`).
    """

    def __init__(self, backend: "ForceBackend"):
        self.backend = backend
        self._ids: Optional[tuple] = None
        self._version: Optional[Tuple[int, int]] = None
        self._out_ids: Optional[tuple] = None
        self._n = -1

    def __call__(self, frac, lay, offs, tables, out) -> np.float32:
        ids = (lay, lay.a, lay.b, lay.key, lay.rstart, lay.rcap, lay.fill,
               offs, tables)
        fresh = not _all_is(ids, self._ids)
        if fresh or (lay.version, lay.size) != self._version:
            self._ids = None
            _check_pass_layout(lay, offs, tables)
            self._ids, self._version = ids, (lay.version, lay.size)
            self._new_layout(lay, offs, tables, fresh)
        n = len(frac)
        out_ids = (out, out.arena, out.home_bank, out.nbr_bank, out.accepted,
                   out.uniq_per_row, out.remote)
        if fresh or n != self._n or not _all_is(out_ids, self._out_ids):
            self._out_ids = None
            _check_pass_out((3, n + 1), lay, offs, out)
            self._out_ids, self._n = out_ids, n
            self._new_out(lay, out)
        return self._run(frac, lay, offs, tables, out)

    def _new_layout(self, lay, offs, tables, fresh: bool) -> None:
        """A layout version passed the checks (``fresh``: new arrays)."""

    def _new_out(self, lay, out) -> None:
        """An ``out`` passed the checks."""

    def _run(self, frac, lay, offs, tables, out) -> np.float32:
        n = len(frac)
        fs = out.arena.get("fs", 3 * (n + 1), np.float32).reshape(3, n + 1)
        # The assignment casts per element like astype.
        fs[:, :n] = frac.T
        fs[:, n] = PAD_FRAC
        return self.backend.datapath_pass(fs, lay, offs, tables, out)


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
void lj_flat_seg_f64(const double *px, const double *py, const double *pz,
                     const int32_t *ia, const int32_t *ib,
                     const int32_t *srow, const double *stab,
                     const int32_t *spc, int64_t ns,
                     const double *c14t, const double *c8t,
                     const double *c12t, const double *c6t,
                     const int64_t *seg_lo, const int64_t *seg_hi,
                     int64_t n_seg, double cutoff2, double shift_e,
                     double *fx, double *fy, double *fz, double *energies);
int64_t datapath_pass_f32(const float *fs, const int32_t *ia,
                          const int32_t *ib, const int32_t *key,
                          const int64_t *rstart, const int64_t *fill,
                          int64_t n_cells, int64_t n_off, int64_t stride,
                          const double *offs, float pre, float r2_min,
                          int64_t n_s, int64_t n_b, const float *rom,
                          int64_t n_rom, const float *coef, int64_t coef_n,
                          const float *qq, float *home, float *nbr,
                          int64_t n, double *acc, int64_t *accepted,
                          int64_t *uniq, const uint8_t *remote,
                          int64_t *seen, double *racc, int64_t *rbank,
                          int64_t *rec_row, int64_t *rec_bank, float *rec_f,
                          int64_t *ap, float *ar2, float *adx, float *ady,
                          float *adz, float *e_out, int64_t *meta,
                          int64_t *touched);
float offset_energy_f32(const float *e, const int64_t *bounds,
                        int64_t n_off);
int64_t traffic_groupby_i64(int64_t *skey, int64_t n, int64_t div,
                            const double *w, const int64_t *aux,
                            int64_t *uniq_out, double *sum_out,
                            int64_t *max_out, int64_t *first_out);
void ring_charge_i64(int64_t *link_load, int64_t n, int64_t direction,
                     const int64_t *src, const int64_t *hops,
                     const int64_t *counts, int64_t k);
void keyed_uniforms_f64(const uint32_t *words, const int64_t *word_off,
                        const int64_t *out_off, int64_t n_keys, double *out);
int64_t flow_rounds_f64(const int64_t *src, const int64_t *dst,
                        const int64_t *counts, const int64_t *off,
                        int64_t n_flows, uint32_t seed, const int64_t *key,
                        const double *rates, const double *waits,
                        int64_t n_waits, double packet_cycles, int64_t acks,
                        uint8_t *delivered, int64_t *per_flow,
                        int64_t *tally, double *overhead);
int64_t band_rows_f32(const float *ps, const int64_t *order,
                      const int64_t *start, const int64_t *counts,
                      const int64_t *nbr, int64_t n_cells, int64_t n_rows,
                      const float *offs, float band,
                      const int64_t *rows, int64_t n_sel,
                      int64_t *rstart, int64_t *rcap, int64_t *fill,
                      int64_t stride, int64_t pad, int64_t shift,
                      int64_t slack_min, int64_t size,
                      int32_t *a_out, int32_t *b_out, int32_t *key_out,
                      float *qx, float *qy, float *qz, int32_t *in,
                      int64_t *hit);
int64_t band_merge_f32(const float *ps, const int64_t *order,
                       const int64_t *start, const int64_t *counts,
                       const int64_t *old_order, const int64_t *old_start,
                       const int64_t *old_counts,
                       const int64_t *nbr, int64_t n_cells, int64_t n_rows,
                       const float *offs, float band,
                       const int64_t *rows, int64_t n_sel,
                       int64_t *rstart, int64_t *rcap, int64_t *fill,
                       int64_t stride, int64_t pad, int64_t slack_min,
                       int64_t size, int32_t *a_out, int32_t *b_out,
                       int32_t *key_out, int32_t *slot, int32_t *moved,
                       int32_t *mslot, int64_t *mstart, int32_t *lost,
                       float *qx, float *qy, float *qz, int32_t *in,
                       int64_t *hit, int32_t *hcnt);
"""

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Fused cutoff test + LJ + Newton-pair scatter over K pair ranges of
 * one flat stream (engine layer, float64), accumulating into the
 * shared force columns with a per-segment energy accumulator started
 * at 0.0.  Sequential accumulation: admitted pairs are exact, totals
 * agree with the bincount-grouped reference to float64 round-off.  The
 * solo engine is the one-segment call; a batched segment sees exactly
 * the pair order, operands and accumulator start of that call, so
 * per-system forces AND energies are bitwise the solo run's (particle
 * indices are disjoint across segments).  Pad rows between seg_hi[k]
 * and seg_lo[k+1] are never touched.  ia/ib are the int32 pair
 * stream (12 bytes a pair with srow); p and the particle indices are
 * widened to int64 before any address arithmetic. */
void lj_flat_seg_f64(const double *px, const double *py, const double *pz,
                     const int32_t *ia, const int32_t *ib,
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

/* One machine datapath pass over a RowBands layout (machine layer,
 * float32): datapath_pass_numpy restated as one walk of the regions r =
 * k * n_cells + c over their filled entries [rstart[r], rstart[r] +
 * fill[r]) only, so pads are never read.  fs holds one (x, y, z, -)
 * float32 vector per bank row.  The layout streams ia/ib/key are int32
 * (bank rows and keys below 2^31, held at build time), widened to
 * int64 before they scale an address; rstart/fill and all scratch are
 * int64.  Compiled with -ffp-contract=off, every op rounds exactly
 * once like the numpy ufunc sequence.
 *
 * Admission, per entry and branch-free: the f32 displacement and
 * offset subtraction, the f32 prescreen r2s < pre, the exact f64 r2 of
 * the f32 diffs associated (dx^2 + dy^2) + dz^2 (each product of two
 * floats is exact in double), its f32 cast and r2 < 1; the admitted
 * entries of a region are compacted, in order, into the scratch
 * ap/ar2/adx/ady/adz (max fill entries each).  An admitted pair below
 * r2_min is counted, not decoded.  Otherwise lin = s * n_b + ((mant23
 * * n_b) >> 23) selects row lin of rom (n_rom floats: a14 b14 a8 b8 a12
 * b12 a6 b6, then af bf ae be when qq is given); the interpolations
 * and coefficient products (coef[t] when coef_n == 0, else coef[t *
 * coef_n + p]) give f and e, and e goes to e_out in admitted order.
 *
 * Accumulation: +f in f64 by home row into acc[0, 3n), -f by neighbour
 * row into acc[3n, 6n).  At the end of every offset that admitted a
 * pair each accumulator is rounded to f32, added onto its whole bank,
 * home first (on offset 0 both land in home), and zeroed: bitwise the
 * per-column bincount scatter.  An offset of fewer than 4n hits lists
 * the rows each accumulator touches (touched, 2n scratch) and flushes
 * only those, unless a list outgrows n: a bank row is never -0.0, so
 * the +0.0 an untouched row would get changes nothing, and a row
 * listed twice gets +0.0 the second time.  On neighbour offsets the
 * distinct slots j = key - c * stride of a region count into
 * uniq[c * n_off + k]
 * (seen[] stamps them with r); when remote[c * n_off + k], each
 * distinct slot's -f is coalesced in f64 in admitted order and emitted,
 * slots ascending, as one record (row, neighbour bank row, f32 force).
 * acc is 6n, seen stride, racc 3 * stride, rbank stride scratch.  meta
 * receives the n_off + 1 offset bounds of e_out, then the record
 * count, then the count of pairs below r2_min.  Returns the admitted
 * count. */
static void flush_bank(float *bank, double *acc, int64_t n3)
{
    for (int64_t i = 0; i < n3; i++) {
        bank[i] = bank[i] + (float)acc[i];
        acc[i] = 0.0;
    }
}

/* flush_bank over the listed rows (3 * row offsets) only. */
static void flush_rows(float *bank, double *acc, const int64_t *rows,
                       int64_t m)
{
    for (int64_t t = 0; t < m; t++) {
        int64_t i = rows[t];
        for (int d = 0; d < 3; d++) {
            bank[i + d] = bank[i + d] + (float)acc[i + d];
            acc[i + d] = 0.0;
        }
    }
}

int64_t datapath_pass_f32(const float *fs, const int32_t *ia,
                          const int32_t *ib, const int32_t *key,
                          const int64_t *rstart, const int64_t *fill,
                          int64_t n_cells, int64_t n_off, int64_t stride,
                          const double *offs, float pre, float r2_min,
                          int64_t n_s, int64_t n_b, const float *rom,
                          int64_t n_rom, const float *coef, int64_t coef_n,
                          const float *qq, float *home, float *nbr,
                          int64_t n, double *acc, int64_t *accepted,
                          int64_t *uniq, const uint8_t *remote,
                          int64_t *seen, double *racc, int64_t *rbank,
                          int64_t *rec_row, int64_t *rec_bank, float *rec_f,
                          int64_t *ap, float *ar2, float *adx, float *ady,
                          float *adz, float *e_out, int64_t *meta,
                          int64_t *touched)
{
    const int64_t bias = 127 - n_s;
    /* Coefficient t of entry p: coef[t * cn + p * cs]. */
    const int64_t cs = coef_n ? 1 : 0, cn = coef_n ? coef_n : 1;
    const float *c14 = coef, *c8 = coef + cn, *c12 = coef + 2 * cn,
                *c6 = coef + 3 * cn;
    double *acc_h = acc, *acc_n = acc + 3 * n;
    int64_t m = 0, n_rec = 0, below = 0;
    for (int64_t i = 0; i < 6 * n; i++)
        acc[i] = 0.0;
    for (int64_t j = 0; j < stride; j++)
        seen[j] = -1;
    int64_t *lh = touched, *ln = touched + n;
    for (int64_t k = 0; k < n_off; k++) {
        float ox = (float)offs[3 * k];
        float oy = (float)offs[3 * k + 1];
        float oz = (float)offs[3 * k + 2];
        int64_t admitted_k = 0;
        int64_t hits_k = 0, nh = 0, nn = 0;
        for (int64_t c = 0; c < n_cells; c++)
            hits_k += fill[k * n_cells + c];
        int track = hits_k < 4 * n;
        meta[k] = m;
        for (int64_t c = 0; c < n_cells; c++) {
            int64_t r = k * n_cells + c, row = c * n_off + k;
            int64_t h = 0, nu = 0, base = c * stride;
            int rem = k > 0 && remote && remote[row];
            for (int64_t p = rstart[r], hi = rstart[r] + fill[r]; p < hi;
                 p++) {
                const float *pa = fs + 4 * (int64_t)ia[p];
                const float *pb = fs + 4 * (int64_t)ib[p];
                float dx = pa[0] - pb[0];
                float dy = pa[1] - pb[1];
                float dz = pa[2] - pb[2];
                if (ox != 0.0f) dx -= ox;
                if (oy != 0.0f) dy -= oy;
                if (oz != 0.0f) dz -= oz;
                float r2s = dx * dx;
                r2s += dy * dy;
                r2s += dz * dz;
                double r2d = (double)dx * (double)dx;
                r2d += (double)dy * (double)dy;
                r2d += (double)dz * (double)dz;
                float r2 = (float)r2d;
                ap[h] = p;
                ar2[h] = r2;
                adx[h] = dx;
                ady[h] = dy;
                adz[h] = dz;
                h += (r2s < pre) & (r2 < 1.0f);
            }
            accepted[c] += h;
            admitted_k += h;
            if (rem)
                memset(racc, 0, 3 * stride * sizeof(double));
            for (int64_t t = 0; t < h; t++) {
                int64_t p = ap[t];
                float r2 = ar2[t], dx = adx[t], dy = ady[t], dz = adz[t];
                if (r2 < r2_min) {
                    below++;
                    continue;
                }
                int32_t bits;
                memcpy(&bits, &r2, sizeof bits);
                int64_t lin = ((int64_t)(bits >> 23) - bias) * n_b
                              + (((int64_t)(bits & 0x7FFFFF) * n_b) >> 23);
                const float *w = rom + lin * n_rom;
                int64_t q = p * cs;
                float inv14 = w[0] * r2 + w[1];
                float inv8 = w[2] * r2 + w[3];
                float inv12 = w[4] * r2 + w[5];
                float inv6 = w[6] * r2 + w[7];
                float scalar = c14[q] * inv14;
                inv8 = inv8 * c8[q];
                float e = c12[q] * inv12;
                inv6 = inv6 * c6[q];
                scalar = scalar - inv8;
                e = e - inv6;
                float fx = scalar * dx;
                float fy = scalar * dy;
                float fz = scalar * dz;
                if (qq) {
                    float qp = qq[p];
                    float sc = w[8] * r2 + w[9];
                    sc = sc * qp;
                    fx = fx + sc * dx;
                    fy = fy + sc * dy;
                    fz = fz + sc * dz;
                    float inve = w[10] * r2 + w[11];
                    inve = inve * qp;
                    e = e + inve;
                }
                e_out[m++] = e;
                int64_t a = 3 * (int64_t)ia[p], b = 3 * (int64_t)ib[p];
                if (track) {
                    /* A row is listed when its x sum is still 0. */
                    if (acc_h[a] == 0.0) {
                        if (nh < n) lh[nh] = a;
                        nh++;
                    }
                    if (acc_n[b] == 0.0) {
                        if (nn < n) ln[nn] = b;
                        nn++;
                    }
                }
                acc_h[a] += (double)fx;
                acc_h[a + 1] += (double)fy;
                acc_h[a + 2] += (double)fz;
                fx = -fx;
                fy = -fy;
                fz = -fz;
                acc_n[b] += (double)fx;
                acc_n[b + 1] += (double)fy;
                acc_n[b + 2] += (double)fz;
                if (k == 0)
                    continue;
                int64_t j = key[p] - base;
                nu += seen[j] != r;
                seen[j] = r;
                if (rem) {
                    rbank[j] = ib[p];
                    racc[3 * j] += (double)fx;
                    racc[3 * j + 1] += (double)fy;
                    racc[3 * j + 2] += (double)fz;
                }
            }
            if (k == 0)
                continue;
            uniq[row] += nu;
            if (rem && nu) {
                for (int64_t j = 0; j < stride; j++) {
                    if (seen[j] != r)
                        continue;
                    rec_row[n_rec] = row;
                    rec_bank[n_rec] = rbank[j];
                    rec_f[3 * n_rec] = (float)racc[3 * j];
                    rec_f[3 * n_rec + 1] = (float)racc[3 * j + 1];
                    rec_f[3 * n_rec + 2] = (float)racc[3 * j + 2];
                    n_rec++;
                }
            }
        }
        if (admitted_k) {
            float *dst = k == 0 ? home : nbr;
            if (track && nh <= n)
                flush_rows(home, acc_h, lh, nh);
            else
                flush_bank(home, acc_h, 3 * n);
            if (track && nn <= n)
                flush_rows(dst, acc_n, ln, nn);
            else
                flush_bank(dst, acc_n, 3 * n);
        }
    }
    meta[n_off] = m;
    meta[n_off + 1] = n_rec;
    meta[n_off + 2] = below;
    return m;
}

/* numpy's float32 pairwise sum of e[0..n) (its add reduction over one
 * contiguous run): under 8 elements a running sum from 0; up to 128,
 * eight running sums of the elements' residues mod 8 over the whole
 * blocks of 8, combined ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
 * r7)), then the tail added in order; beyond, the two halves split at
 * n / 2 rounded down to a multiple of 8. */
static float pairwise_sum_f32(const float *e, int64_t n)
{
    if (n < 8) {
        float res = 0.0f;
        for (int64_t i = 0; i < n; i++)
            res += e[i];
        return res;
    }
    if (n <= 128) {
        float r[8];
        for (int j = 0; j < 8; j++)
            r[j] = e[j];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += e[i + j];
        float res = ((r[0] + r[1]) + (r[2] + r[3]))
                    + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += e[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum_f32(e, n2) + pairwise_sum_f32(e + n2, n - n2);
}

/* The pass potential, bitwise _offset_energy: per non-empty offset
 * stream e[bounds[k]..bounds[k+1]), 0 plus its pairwise sum (what
 * e[lo:hi].sum(dtype=float32) returns), added in offset order. */
float offset_energy_f32(const float *e, const int64_t *bounds, int64_t n_off)
{
    float potential = 0.0f;
    for (int64_t k = 0; k < n_off; k++) {
        int64_t lo = bounds[k], hi = bounds[k + 1];
        if (lo < hi)
            potential += 0.0f + pairwise_sum_f32(e + lo, hi - lo);
    }
    return potential;
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

/* Keyed uniform draws: for each key, numpy's SeedSequence (pool of four
 * words, no spawn key) over its entropy words seeds a PCG64 whose first
 * doubles, (next64 >> 11) * 2^-53, fill the key's output range -- the
 * stream of default_rng(SeedSequence(words)).random(n), bit for bit. */
static uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    value ^= value >> 16;
    return value;
}

static uint32_t ss_mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    r ^= r >> 16;
    return r;
}

typedef struct {
    unsigned __int128 state, inc;
} keyed_stream;

static const unsigned __int128 PCG_MULT =
    ((unsigned __int128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL;

/* The PCG64 of default_rng(SeedSequence(e[0:ne])), before its first draw. */
static void keyed_seed(keyed_stream *s, const uint32_t *e, int64_t ne)
{
    uint32_t pool[4], hc = 0x43b0d7e5u;
    for (int i = 0; i < 4; i++)
        pool[i] = ss_hashmix(i < ne ? e[i] : 0u, &hc);
    for (int a = 0; a < 4; a++)
        for (int d = 0; d < 4; d++)
            if (a != d)
                pool[d] = ss_mix(pool[d], ss_hashmix(pool[a], &hc));
    for (int64_t a = 4; a < ne; a++)
        for (int d = 0; d < 4; d++)
            pool[d] = ss_mix(pool[d], ss_hashmix(e[a], &hc));
    /* generate_state(4, uint64): eight words, little-endian pairs. */
    uint32_t st[8], hb = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i & 3] ^ hb;
        hb *= 0x58f38dedu;
        v *= hb;
        v ^= v >> 16;
        st[i] = v;
    }
    uint64_t w[4];
    for (int i = 0; i < 4; i++)
        w[i] = (uint64_t)st[2 * i] | ((uint64_t)st[2 * i + 1] << 32);
    unsigned __int128 init = ((unsigned __int128)w[0] << 64) | w[1];
    s->inc = ((((unsigned __int128)w[2] << 64) | w[3]) << 1) | 1u;
    s->state = (s->inc + init) * PCG_MULT + s->inc;   /* 0 * mult + inc */
}

static inline double keyed_next(keyed_stream *s)
{
    s->state = s->state * PCG_MULT + s->inc;
    uint64_t x = (uint64_t)(s->state >> 64) ^ (uint64_t)s->state;
    unsigned rot = (unsigned)(s->state >> 122);
    x = (x >> rot) | (x << ((64u - rot) & 63u));
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

void keyed_uniforms_f64(const uint32_t *words, const int64_t *word_off,
                        const int64_t *out_off, int64_t n_keys, double *out)
{
    for (int64_t k = 0; k < n_keys; k++) {
        int64_t lo = out_off[k], hi = out_off[k + 1];
        if (hi <= lo)
            continue;
        keyed_stream s;
        keyed_seed(&s, words + word_off[k], word_off[k + 1] - word_off[k]);
        for (int64_t j = lo; j < hi; j++)
            out[j] = keyed_next(&s);
    }
}

/* A key field's entropy words as SeedSequence splits a Python int: the
 * low word, then the high word only when it is nonzero. */
static int push_field(uint32_t *w, int n, uint64_t v)
{
    w[n++] = (uint32_t)v;
    if (v >> 32)
        w[n++] = (uint32_t)(v >> 32);
    return n;
}

/* The message stream of flow (src, dst) on `chan` at `attempt`: key
 * (salt, src, dst, chan, iteration, attempt) under `seed`. */
static void flow_stream(keyed_stream *s, uint32_t seed, const int64_t *key,
                        int64_t src, int64_t dst, int64_t chan,
                        int64_t attempt)
{
    uint32_t e[13];
    int n = 0;
    e[n++] = seed;
    n = push_field(e, n, (uint64_t)key[0]);
    n = push_field(e, n, (uint64_t)src);
    n = push_field(e, n, (uint64_t)dst);
    n = push_field(e, n, (uint64_t)chan);
    n = push_field(e, n, (uint64_t)key[3]);
    n = push_field(e, n, (uint64_t)attempt);
    keyed_seed(s, e, n);
}

/* Every flow's retry rounds of one transport call (fault layer).  Flow
 * k sends counts[k] packets, delivered[off[k]:off[k + 1]] its mask;
 * key = (salt, data channel, ACK channel, iteration), rates = (drop,
 * corrupt, ACK drop); a zero rate draws nothing, as a clean channel.
 * Round a of a flow draws its (drop, corrupt) pairs, then its ACK pairs,
 * from the streams of attempt a, packet by packet up to its last
 * unacknowledged one, and retransmits what failed or lost its ACK after
 * waits[a - 1] cycles, for n_waits rounds after the first.  acks = 0 is
 * bare UDP: one round, nothing acknowledged.  A packet's byte holds
 * bit 0 = delivered, bit 1 = unacknowledged until the flow ends.
 * per_flow gets the retransmits, then the delivered counts; tally the
 * TransportStats integer fields in declaration order; overhead[0] the
 * flows' summed cycles, each flow's accumulated in round order.
 * Returns -1, touching nothing, unless off[0] == 0 and every
 * off[k + 1] - off[k] == counts[k] >= 0. */
int64_t flow_rounds_f64(const int64_t *src, const int64_t *dst,
                        const int64_t *counts, const int64_t *off,
                        int64_t n_flows, uint32_t seed, const int64_t *key,
                        const double *rates, const double *waits,
                        int64_t n_waits, double packet_cycles, int64_t acks,
                        uint8_t *delivered, int64_t *per_flow,
                        int64_t *tally, double *overhead)
{
    if (off[0] != 0)
        return -1;
    for (int64_t k = 0; k < n_flows; k++)
        if (counts[k] < 0 || off[k + 1] - off[k] != counts[k])
            return -1;
    int draw = rates[0] > 0.0 || rates[1] > 0.0;
    int draw_ack = acks && rates[2] > 0.0;
    int64_t sent_all = 0, retx = 0, acked = 0, ack_drops = 0, dups = 0;
    int64_t corrupt = 0, got_all = 0, rounds = 0;
    double total = 0.0;
    for (int64_t k = 0; k < n_flows; k++) {
        int64_t n = counts[k];
        uint8_t *d = delivered + off[k];
        double ov = 0.0;
        int64_t n_send = n, last = n, sent = 0, got = 0;
        for (int64_t i = 0; i < n; i++)
            d[i] = 2;
        for (int64_t a = 0; a <= n_waits && n_send > 0; a++) {
            if (a + 1 > rounds)
                rounds = a + 1;
            sent += n_send;
            if (a > 0)
                ov += waits[a - 1] + (double)n_send * packet_cycles;
            keyed_stream ds, as;
            if (draw)
                flow_stream(&ds, seed, key, src[k], dst[k], key[1], a);
            if (draw_ack)
                flow_stream(&as, seed, key, src[k], dst[k], key[2], a);
            int64_t next = 0, top = 0;
            for (int64_t i = 0; i < last; i++) {
                int drop = 0, bad = 0, ack_drop = 0;
                if (draw) {
                    drop = keyed_next(&ds) < rates[0];
                    bad = keyed_next(&ds) < rates[1];
                }
                if (draw_ack) {
                    ack_drop = keyed_next(&as) < rates[2];
                    keyed_next(&as);
                }
                if (!(d[i] & 2))
                    continue;
                if (drop || bad) {
                    corrupt += bad && !drop;
                    next++;
                    top = i + 1;
                    continue;
                }
                dups += d[i] & 1;
                d[i] = 1;
                if (!acks)
                    continue;
                acked++;
                if (ack_drop) {
                    ack_drops++;
                    d[i] = 3;
                    next++;
                    top = i + 1;
                }
            }
            if (!acks)
                break;
            n_send = next;
            last = top;
        }
        for (int64_t i = 0; i < n; i++) {
            d[i] &= 1;
            got += d[i];
        }
        per_flow[k] = sent - n;
        per_flow[n_flows + k] = got;
        sent_all += sent;
        retx += sent - n;
        got_all += got;
        total += ov;
    }
    int64_t fields[9] = {sent_all, retx, acked, ack_drops, dups, corrupt,
                         got_all, off[n_flows] - got_all, rounds};
    memcpy(tally, fields, sizeof fields);
    overhead[0] = total;
    return 0;
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
                        int32_t *a_out, int32_t *b_out, int32_t *key_out,
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
            int32_t *a = a_out + base + m, *b = b_out + base + m;
            int32_t *key = key_out + base + m;
            for (int64_t t = 0; t < h; t++) {
                a[t] = (int32_t)oc[i];
                b[t] = (int32_t)on[hit[t]];
                key[t] = (int32_t)(c * stride + hit[t]);
            }
        }
        m += h;
    }
    return m;
}

static void pad_row(int64_t lo, int64_t hi, int64_t pad, int32_t *a_out,
                    int32_t *b_out, int32_t *key_out)
{
    for (int64_t t = lo; t < hi; t++) {
        a_out[t] = (int32_t)pad;
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
                       int64_t size, int32_t *a_out, int32_t *b_out,
                       int32_t *key_out)
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
        int64_t nb = (hi - lo) * sizeof(int32_t);
        memmove(a_out + lo + need, a_out + lo, nb);
        memmove(b_out + lo + need, b_out + lo, nb);
        memmove(key_out + lo + need, key_out + lo, nb);
    }
    for (int64_t s = r + 1; s <= t && s < n_reg; s++)
        rstart[s] += need;
    rcap[r] += need;
    return 1;
}

/* Skin-band search of a CellState row layout (build phase), a full
 * build.  Region r = k * n_cells + c holds the plan row of home cell c
 * at offset k; each region listed strictly ascending in rows[0..n_sel)
 * is searched per home slot i and neighbour slot j (i < j on k = 0)
 * with the float32 direct-difference r2 < band, keyed by bank row: ps
 * holds one packed vector per bank row, and slot i of cell c is bank
 * row order[start[c] + i].  A hit writes a = home bank row, b =
 * neighbour bank row, key = c * stride + j, each int32 (the caller
 * holds bank rows and keys below 2^31); rstart/rcap/fill stay int64.
 * Region r spans [rstart[r], rstart[r] + rcap[r]), the regions back to
 * back; its entries past fill[r] are pads (a = pad, b = 0, key = 0),
 * which the consumer makes inadmissible.  A region of f hits is given
 * f + (f >> shift) + slack_min entries.
 *
 * The listed regions are searched compactly from entry 0 (writing only
 * below `size`), every other region gets no entries, and the hits move
 * backward into that layout and are padded.  Returns the layout length
 * rstart[n_cells * n_rows]; when it exceeds `size` the outputs are
 * unspecified and the caller retries with more room.
 * qx/qy/qz, in and hit are caller scratch of max(counts) entries
 * each. */
int64_t band_rows_f32(const float *ps, const int64_t *order,
                      const int64_t *start, const int64_t *counts,
                      const int64_t *nbr, int64_t n_cells, int64_t n_rows,
                      const float *offs, float band,
                      const int64_t *rows, int64_t n_sel,
                      int64_t *rstart, int64_t *rcap, int64_t *fill,
                      int64_t stride, int64_t pad, int64_t shift,
                      int64_t slack_min, int64_t size,
                      int32_t *a_out, int32_t *b_out, int32_t *key_out,
                      float *qx, float *qy, float *qz, int32_t *in,
                      int64_t *hit)
{
    int64_t n_reg = n_cells * n_rows;
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
            memmove(a_out + dst, a_out + src, f * sizeof(int32_t));
            memmove(b_out + dst, b_out + src, f * sizeof(int32_t));
            memmove(key_out + dst, key_out + src, f * sizeof(int32_t));
        }
        pad_row(dst + f, dst + rcap[r], pad, a_out, b_out, key_out);
    }
    return total;
}

/* Cell (n_cells: none) of each of the n bank rows under a binning,
 * and with `slot` their bucket slots. */
static void bin_rows(const int64_t *order, const int64_t *start,
                     const int64_t *counts, int64_t n_cells, int64_t n,
                     int32_t *cell, int32_t *slot)
{
    for (int64_t r = 0; r < n; r++)
        cell[r] = (int32_t)n_cells;
    for (int64_t c = 0; c < n_cells; c++)
        for (int64_t s = 0; s < counts[c]; s++) {
            int64_t r = order[start[c] + s];
            cell[r] = (int32_t)c;
            if (slot)
                slot[r] = (int32_t)s;
        }
}

/* The neighbour slots j (ascending, j > s on k = 0) that home slot s,
 * bank row ra, hits in a merged region, into hit: every slot when ra
 * moved, else the moved slots msl[0..nm).  q holds the neighbour
 * vectors plus the offset, per slot. */
static int64_t moved_hits(const float *ps, int64_t ra, int moved, int64_t s,
                          int64_t k, int64_t nj, const float *qx,
                          const float *qy, const float *qz,
                          const int32_t *msl, int64_t nm, float band,
                          int32_t *in, int64_t *hit)
{
    const float *p = ps + 3 * ra;
    int64_t j0 = k == 0 ? s + 1 : 0, h = 0;
    if (moved) {
        if (j0 >= nj)
            return 0;
        row_hits(p[0], p[1], p[2], qx + j0, qy + j0, qz + j0, band, in,
                 nj - j0);
        for (int64_t j = j0; j < nj; j++) {
            hit[h] = j;
            h += in[j - j0];
        }
        return h;
    }
    for (int64_t t = 0; t < nm; t++) {
        int64_t j = msl[t];
        float dx = p[0] - qx[j];
        float dy = p[1] - qy[j];
        float dz = p[2] - qz[j];
        if (j >= j0 && dx * dx + dy * dy + dz * dz < band)
            hit[h++] = j;
    }
    return h;
}

static void move_entries(int64_t dst, int64_t src, int64_t n,
                         int32_t *a_out, int32_t *b_out, int32_t *key_out)
{
    if (n > 0 && dst != src) {
        memmove(a_out + dst, a_out + src, n * sizeof(int32_t));
        memmove(b_out + dst, b_out + src, n * sizeof(int32_t));
        memmove(key_out + dst, key_out + src, n * sizeof(int32_t));
    }
}

/* Drop the entries of [lo, end) whose home row moved (runs of one home
 * row), moving the blocks between them left whole; returns the new
 * end. */
static int64_t drop_home_runs(int64_t lo, int64_t end, const int32_t *moved,
                              int32_t *a_out, int32_t *b_out, int32_t *key_out)
{
    int64_t w = lo, e = lo;
    while (e < end) {
        int64_t f = e;
        while (f < end && !moved[a_out[f]])
            f++;
        move_entries(w, e, f - e, a_out, b_out, key_out);
        w += f - e;
        while (f < end && moved[a_out[f]])
            f++;
        e = f;
    }
    return w;
}

/* Drop the entries of [lo, end) with a moved row and re-key the others
 * by their neighbour's slot, in place; returns the new end. */
static int64_t drop_rekey(int64_t lo, int64_t end, int64_t base,
                          const int32_t *moved, const int32_t *slot,
                          int32_t *a_out, int32_t *b_out, int32_t *key_out)
{
    int64_t w = lo;
    for (int64_t e = lo; e < end; e++) {
        int32_t a = a_out[e], b = b_out[e];
        if (moved[a] | moved[b])
            continue;
        a_out[w] = a;
        b_out[w] = b;
        key_out[w] = (int32_t)(base + slot[b]);
        w++;
    }
    return w;
}

/* In-place update of a CellState row layout from the binning old_* it
 * lists to the binning order/start/counts (layout as in band_rows_f32).
 * A bank row moved when its cell changed (in or out of no cell too).
 * Each listed region r (strictly ascending; they must include every
 * region whose home or neighbour cell gained or lost a row) drops the
 * entries of moved rows, keeps the others' bank rows and re-keys them
 * by their neighbour's new slot, then merges in, in (home slot,
 * neighbour slot) order, the hits of each pair of its cells with a
 * moved row: a moved home row against every neighbour slot, any other
 * against the moved neighbour slots.  Kept entries keep their order,
 * as every binning keeps the bucket order of the rows that stay.  A
 * region that outgrows its entries is lengthened to its hits plus
 * slack_min by grow_region first; the hits merge backward from the
 * region's end, the kept runs between them moving whole, so the only
 * scratch is one home slot's hits.  Returns 0, or 1 when a region
 * found no room (the layout is then unspecified and the caller
 * rebuilds).
 * slot, moved and mslot are scratch of `pad` entries (the bank rows),
 * mstart of n_cells + 1 and lost of n_cells; qx/qy/qz, in, hit and
 * hcnt of max(counts) entries. */
int64_t band_merge_f32(const float *ps, const int64_t *order,
                       const int64_t *start, const int64_t *counts,
                       const int64_t *old_order, const int64_t *old_start,
                       const int64_t *old_counts,
                       const int64_t *nbr, int64_t n_cells, int64_t n_rows,
                       const float *offs, float band,
                       const int64_t *rows, int64_t n_sel,
                       int64_t *rstart, int64_t *rcap, int64_t *fill,
                       int64_t stride, int64_t pad, int64_t slack_min,
                       int64_t size, int32_t *a_out, int32_t *b_out,
                       int32_t *key_out, int32_t *slot, int32_t *moved,
                       int32_t *mslot, int64_t *mstart, int32_t *lost,
                       float *qx, float *qy, float *qz, int32_t *in,
                       int64_t *hit, int32_t *hcnt)
{
    int64_t n_reg = n_cells * n_rows;
    /* moved holds the old cells, mslot the new ones, until compared. */
    bin_rows(old_order, old_start, old_counts, n_cells, pad, moved, NULL);
    bin_rows(order, start, counts, n_cells, pad, mslot, slot);
    memset(lost, 0, n_cells * sizeof(int32_t));
    for (int64_t r = 0; r < pad; r++) {
        int32_t was = moved[r];
        moved[r] = was != mslot[r];
        if (moved[r] && was < n_cells)
            lost[was] = 1;
    }
    int64_t nm = 0;
    for (int64_t c = 0; c < n_cells; c++) {
        mstart[c] = nm;
        for (int64_t s = 0; s < counts[c]; s++)
            if (moved[order[start[c] + s]])
                mslot[nm++] = (int32_t)s;
    }
    mstart[n_cells] = nm;
    for (int64_t sel = 0; sel < n_sel; sel++) {
        int64_t r = rows[sel], k = r / n_cells, c = r % n_cells;
        int64_t nc = nbr[c * n_rows + k];
        int64_t ni = counts[c], nj = counts[nc];
        const int64_t *oc = order + start[c], *on = order + start[nc];
        const int32_t *msl = mslot + mstart[nc], *mhl = mslot + mstart[c];
        int64_t n_msl = mstart[nc + 1] - mstart[nc];
        int64_t n_mh = mstart[c + 1] - mstart[c];
        int64_t lo = rstart[r], end = lo + fill[r], base = c * stride;
        /* Entries drop only when a row left one of the two cells; keys
         * move only when the neighbour cell's slots do. */
        int drop = lost[c] || lost[nc], rekey = lost[nc] || n_msl > 0;
        int64_t w = end;
        if (drop && !rekey)
            w = drop_home_runs(lo, end, moved, a_out, b_out, key_out);
        else if (drop)
            w = drop_rekey(lo, end, base, moved, slot, a_out, b_out, key_out);
        else if (rekey)
            for (int64_t e = lo; e < end; e++)
                key_out[e] = (int32_t)(base + slot[b_out[e]]);
        /* Hits of the pairs with a moved row, counted per home slot. */
        int64_t m = w - lo;
        if (n_msl + n_mh) {
            float ox = offs[3 * k], oy = offs[3 * k + 1], oz = offs[3 * k + 2];
            for (int64_t j = 0; j < nj; j++) {
                qx[j] = ps[3 * on[j]] + ox;
                qy[j] = ps[3 * on[j] + 1] + oy;
                qz[j] = ps[3 * on[j] + 2] + oz;
            }
            memset(hcnt, 0, ni * sizeof(int32_t));
            for (int64_t t = 0; t < (n_msl ? ni : n_mh); t++) {
                int64_t s = n_msl ? t : mhl[t];
                hcnt[s] = (int32_t)moved_hits(ps, oc[s], moved[oc[s]], s, k,
                                              nj, qx, qy, qz, msl, n_msl,
                                              band, in, hit);
                m += hcnt[s];
            }
        }
        int64_t f0 = fill[r], c0 = rcap[r];
        if (m > c0 && !grow_region(r, m + slack_min - c0, n_reg, rstart, rcap,
                                   fill, size, a_out, b_out, key_out))
            return 1;
        /* Backward merge, home slot s down: the kept entries of the
         * later home slots move whole (found by bisection), then s's
         * hits merge by key with its kept entries. */
        int64_t i = w - 1, o = lo + m;
        for (int64_t s = ni - 1; s >= 0 && o > i + 1; s--) {
            if (!hcnt[s])
                continue;
            int64_t p = lo, q = i + 1;
            while (p < q) {
                int64_t mid = p + (q - p) / 2;
                if (slot[a_out[mid]] > s)
                    q = mid;
                else
                    p = mid + 1;
            }
            o -= i + 1 - p;
            move_entries(o, p, i + 1 - p, a_out, b_out, key_out);
            i = p - 1;
            int64_t t = moved_hits(ps, oc[s], moved[oc[s]], s, k, nj, qx, qy,
                                   qz, msl, n_msl, band, in, hit) - 1;
            for (; t >= 0; o--) {
                if (i >= lo && a_out[i] == oc[s]
                    && key_out[i] > base + hit[t]) {
                    a_out[o - 1] = a_out[i];
                    b_out[o - 1] = b_out[i];
                    key_out[o - 1] = key_out[i];
                    i--;
                } else {
                    a_out[o - 1] = (int32_t)oc[s];
                    b_out[o - 1] = (int32_t)on[hit[t]];
                    key_out[o - 1] = (int32_t)(base + hit[t]);
                    t--;
                }
            }
        }
        /* Past the hits, the entries that held hits and the room
         * grow_region added become pads; the others were pads. */
        fill[r] = m;
        pad_row(lo + m, lo + (m > c0 ? rcap[r] : f0 > m ? f0 : m), pad, a_out,
                b_out, key_out);
    }
    return 0;
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
    runs, forked soak children) reuse one compilation.  A cache miss
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

    array_types = {}

    def ptr(ctype, arr):
        # ``arr``'s memory as a typed C array (C-contiguous only): one
        # cffi call, a tenth of ``arr.ctypes.data``'s cost.
        atype = array_types.get(ctype)
        if atype is None:
            atype = array_types[ctype] = ctype.replace("*", "[]")
        return ffi.from_buffer(atype, arr)

    def lj_flat_seg(psx, psy, psz, ia, ib, srow, stab, spc, lj, cutoff2,
                    shift_e, fx, fy, fz, seg_lo, seg_hi, pieces):
        # ``pieces`` cuts the numpy pass; the loop walks pairs singly.
        lo64 = np.ascontiguousarray(seg_lo, dtype=np.int64)
        hi64 = np.ascontiguousarray(seg_hi, dtype=np.int64)
        n_pairs = int(hi64.max(initial=0))
        if not (
            all(_is_array(x, INDEX_DTYPE, min_len=n_pairs) for x in (ia, ib))
            and _is_array(srow, np.int32, min_len=n_pairs)
        ):
            raise ValidationError(
                "lj_flat_seg: ia/ib/srow must be C-contiguous int32 streams "
                "covering every segment"
            )
        c14, c8, c12, c6 = _lj_tables(lj)
        energies = np.zeros(len(lo64), dtype=np.float64)
        lib.lj_flat_seg_f64(
            ptr("double *", psx), ptr("double *", psy), ptr("double *", psz),
            ptr("int32_t *", ia), ptr("int32_t *", ib),
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

    class CextPassPlan(PassPlan):
        """The compiled pass's plan: the kernel's arguments (pointers
        to the layout, the tables, the banks and counters of ``out``
        and the scratch drawn from its arena) are bound once and kept
        while they hold, so a pass writes the fractions into the 16-byte
        rows the kernel reads and calls it.  The scratch is bound whole
        (the arena grows a buffer with a quarter of headroom), so the
        layout versions of in-place updates mostly fit it; one whose
        hits or longest region do not is bound again, as is a new
        ``out``.  The records of a pass are views of the scratch, valid
        until the plan's next pass."""

        def __init__(self, backend):
            super().__init__(backend)
            self._args = None
            self._room = (0, 0, 0)
            self._stride = self._n_rem = -1

        def _new_layout(self, lay, offs, tables, fresh):
            self._hits = int(lay.fill.sum())
            self._mf = max(int(lay.fill.max(initial=0)), 1)
            room_h, room_rec, room_m = self._room
            if (fresh or lay.stride != self._stride or self._hits > room_h
                    or min(self._n_rem * lay.stride, self._hits) > room_rec
                    or self._mf > room_m):
                self._args = None

        def _new_out(self, lay, out):
            self._args = None

        def _bind(self, lay, offs, tables, out, n):
            ar = out.arena
            n_off = len(offs)
            n_cells = len(lay.fill) // n_off
            stride = lay.stride

            def whole(name, size, dtype):
                # The arena's buffer behind ``get``'s view: all of it.
                view = ar.get(name, max(size, 1), dtype)
                return view if view.base is None else view.base

            # One 16-byte vector per bank row: a pair's operands are two
            # cache lines, not six.
            fs4 = ar.get("fs4", 4 * (n + 1), np.float32).reshape(-1, 4)
            fs4[:, 3] = 0.0
            offs64 = np.ascontiguousarray(offs, dtype=np.float64)
            rom = np.ascontiguousarray(tables.rom, dtype=np.float32)
            coef = np.ascontiguousarray(tables.coef, dtype=np.float32)
            coef_n = 0 if coef.ndim == 1 else coef.shape[1]
            # Energies and records: at most one per hit (pads never pass).
            e = whole("ener", self._hits, np.float32)
            acc = ar.get("acc", max(6 * n, 1), np.float64)
            touched = ar.get("touched", max(2 * n, 1), np.int64)
            seen = ar.get("seen", stride, np.int64)
            meta = ar.get("meta", n_off + 3, np.int64)
            remote = out.remote
            n_rem = 0 if remote is None else int(np.count_nonzero(remote))
            # Records: also at most one per distinct slot of each remote row.
            cap = min(n_rem * stride, self._hits)
            racc = ar.get("racc", 3 * stride, np.float64)
            rbank = ar.get("rbank", stride, np.int64)
            rec = (whole("rec_row", cap, np.int64),
                   whole("rec_bank", cap, np.int64),
                   whole("rec_f", 3 * cap, np.float32))
            # A region's admitted entries, compacted before evaluation.
            adm = [
                whole(x, self._mf, t) for x, t in (
                    ("adm_p", np.int64), ("adm_r2", np.float32),
                    ("adm_dx", np.float32), ("adm_dy", np.float32),
                    ("adm_dz", np.float32),
                )
            ]
            self._args = (
                ptr("float *", fs4),
                ptr("int32_t *", lay.a), ptr("int32_t *", lay.b),
                ptr("int32_t *", lay.key),
                ptr("int64_t *", lay.rstart), ptr("int64_t *", lay.fill),
                n_cells, n_off, stride, ptr("double *", offs64),
                np.float32(1.0 + 1e-5), np.float32(tables.r2_min),
                int(tables.n_s), int(tables.n_b), ptr("float *", rom),
                rom.shape[1],
                ptr("float *", coef), coef_n,
                ffi.NULL if tables.qq is None else ptr("float *", tables.qq),
                ptr("float *", out.home_bank), ptr("float *", out.nbr_bank), n,
                ptr("double *", acc),
                ptr("int64_t *", out.accepted), ptr("int64_t *", out.uniq_per_row),
                ffi.NULL if not n_rem else ptr("uint8_t *", remote.view(np.uint8)),
                ptr("int64_t *", seen), ptr("double *", racc),
                ptr("int64_t *", rbank), ptr("int64_t *", rec[0]),
                ptr("int64_t *", rec[1]), ptr("float *", rec[2]),
                ptr("int64_t *", adm[0]), *(ptr("float *", x) for x in adm[1:]),
                ptr("float *", e), ptr("int64_t *", meta),
                ptr("int64_t *", touched),
            )
            self._energy = (ptr("float *", e), ptr("int64_t *", meta), n_off)
            self._fs4, self._meta, self._rec = fs4, meta, rec
            self._room = (
                len(e), min(len(rec[0]), len(rec[1]), len(rec[2]) // 3),
                min(len(x) for x in adm),
            )
            self._stride, self._n_rem = stride, n_rem

        def _run(self, frac, lay, offs, tables, out):
            n = self._n
            if self._args is None:
                self._bind(lay, offs, tables, out, n)
            fs4 = self._fs4
            fs4[:n, :3] = frac
            fs4[n, :3] = PAD_FRAC
            lib.datapath_pass_f32(*self._args)
            meta = self._meta
            below = int(meta[-1])
            if below:
                raise _small_r_error(below, tables.r2_min)
            n_rec = int(meta[-2])
            if n_rec:
                rec_row, rec_bank, rec_f = self._rec
                rec = (rec_row[:n_rec], rec_bank[:n_rec],
                       rec_f[: 3 * n_rec].reshape(n_rec, 3))
                out.records.append(rec)
            return np.float32(lib.offset_energy_f32(*self._energy))

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

    def keyed_uniforms(words, word_offsets, out_offsets):
        words, wo, oo = keyed_operands(words, word_offsets, out_offsets)
        out = np.empty(int(oo[-1]), dtype=np.float64)
        lib.keyed_uniforms_f64(
            ptr("uint32_t *", words), ptr("int64_t *", wo),
            ptr("int64_t *", oo), len(wo) - 1, ptr("double *", out),
        )
        return out

    def flow_rounds(src, dst, counts, offsets, key, rates, waits,
                    packet_cycles, acks):
        n = len(counts)
        if not (
            all(_is_array(x, np.int64, (n,)) for x in (src, dst, counts))
            and _is_array(offsets, np.int64, (n + 1,))
            and _is_array(waits, np.float64)
        ):
            raise ValidationError(
                "flow_rounds: src, dst, counts and offsets must be "
                "C-contiguous int64 arrays, one entry a flow (offsets one "
                "more), and waits a C-contiguous float64 array"
            )
        seed, salt, chan, ack_chan, iteration = key
        delivered = np.empty(max(int(offsets[-1]), 0), dtype=np.bool_)
        per_flow = np.empty(2 * n + 9, dtype=np.int64)
        overhead = ffi.new("double[1]")
        if lib.flow_rounds_f64(
            ptr("int64_t *", src), ptr("int64_t *", dst),
            ptr("int64_t *", counts), ptr("int64_t *", offsets), n,
            seed & 0xFFFF_FFFF, [salt, chan, ack_chan, iteration], rates,
            ptr("double *", waits), len(waits), packet_cycles, acks,
            ptr("uint8_t *", delivered.view(np.uint8)),
            ptr("int64_t *", per_flow), ptr("int64_t *", per_flow[2 * n:]),
            overhead,
        ):
            raise ValidationError(
                "flow_rounds: offsets must start at 0 and step by each "
                "flow's packet count"
            )
        return (
            delivered, per_flow[:n], per_flow[n:2 * n],
            per_flow[2 * n:].tolist(), overhead[0],
        )

    def layout_ptrs(lay):
        """The layout's region and entry pointers, checked and made
        again only when one of its arrays is new."""
        arrays = (lay.rstart, lay.rcap, lay.fill, lay.a, lay.b, lay.key)
        held = lay.work.get("layout")
        if held is None or not _all_is(arrays, held[0]):
            _check_layout_streams(lay, "band_rows")
            held = lay.work["layout"] = (arrays, [
                ptr("int64_t *" if x.dtype == np.int64 else "int32_t *", x)
                for x in arrays
            ])
        return held[1]

    def scratch_ptrs(lay, name, size, make):
        """Grow-only kernel scratch kept with the layout (node states
        prepare on pool threads, each with its own): ``make(size)``'s
        pointers, made again when ``size`` (a tuple) outgrows them."""
        held = lay.work.get(name)
        if held is None or any(x > y for x, y in zip(size, held[0])):
            if held is not None:
                size = tuple(max(x, y) for x, y in zip(size, held[0]))
            held = lay.work[name] = (size, make(*size))
        return held[1]

    def search_scratch(cap):
        """The per-slot (q, in, hit) of the band test."""
        return [ptr("float *", q) for q in np.empty((3, cap), dtype=np.float32)] + [
            ptr("int32_t *", np.empty(cap, dtype=np.int32)),
            ptr("int64_t *", np.empty(cap, dtype=np.int64)),
        ]

    def merge_scratch(n, n_cells, cap):
        """The merge's per-row (slot, moved, mslot), per-cell (mstart,
        lost) and per-slot (hcnt) scratch."""
        return [ptr("int32_t *", x) for x in np.empty((3, n), dtype=np.int32)] + [
            ptr("int64_t *", np.empty(n_cells + 1, dtype=np.int64)),
            ptr("int32_t *", np.empty(n_cells, dtype=np.int32)),
            ptr("int32_t *", np.empty(cap, dtype=np.int32)),
        ]

    def binning_ptrs(lay, clist):
        """``clist``'s order, start and counts pointers, or
        :class:`ValidationError` when it bins a row outside the layout's
        bank rows (the kernels index per-row scratch by them); the last
        two binnings' are kept, so an update's old binning (the previous
        call's new one) costs none."""
        held = lay.work.get("binnings", ())
        for known, lo, top, ptrs in held:
            if known is clist:
                break
        else:
            order, start, counts = (
                np.ascontiguousarray(x, dtype=np.int64)
                for x in (clist.order, clist.start, clist.counts)
            )
            lo, top = int(order.min(initial=0)), int(order.max(initial=-1)) + 1
            ptrs = [ptr("int64_t *", x) for x in (order, start, counts)]
            lay.work["binnings"] = held[-1:] + ((clist, lo, top, ptrs),)
        if lo < 0 or top > lay.pad:
            raise ValidationError("band_rows: the binning holds rows past the bank")
        return ptrs

    def plan_ptrs(lay, plan, offsets):
        """The plan's neighbour table and the float32 offsets, checked
        and made again only when either is new."""
        held = lay.work.get("plan")
        if held is None or held[0] is not plan or held[1] is not offsets:
            offs32 = np.ascontiguousarray(offsets, dtype=np.float32)
            n_rows = len(offs32)
            if (offs32.shape != (n_rows, 3)
                    or plan.nbr.size != plan.n_cells * n_rows):
                raise ValidationError(
                    f"band_rows: {n_rows} offsets do not match the plan rows"
                )
            held = lay.work["plan"] = (plan, offsets, n_rows, [
                ptr("int64_t *", np.ascontiguousarray(plan.nbr, dtype=np.int64)),
                plan.n_cells, n_rows, ptr("float *", offs32),
            ])
        return held[3]

    def band_rows(plan, clist, packed, offsets, band, rows, lay, fresh):
        lay.version += 1
        geometry = plan_ptrs(lay, plan, offsets)
        rows = checked_regions(rows, plan.n_rows)
        if len(lay.rcap) != plan.n_rows:
            raise ValidationError("band_rows: layout regions do not match the plan")
        if not fresh:
            check_mergeable(lay)
        ps = np.ascontiguousarray(packed, dtype=np.float32)
        if ps.ndim != 2 or ps.shape[1] != 3 or len(ps) < lay.pad:
            raise ValidationError("band_rows: need a packed vector per bank row")
        cap = max(int(clist.counts.max(initial=0)), 1)
        search = scratch_ptrs(lay, "search", (cap,), search_scratch)
        regions = layout_ptrs(lay)
        head = [ptr("float *", ps), *binning_ptrs(lay, clist)]
        bands = [*geometry, np.float32(band), ptr("int64_t *", rows), len(rows)]
        if not fresh:
            merge = scratch_ptrs(
                lay, "merge", (lay.pad, plan.n_cells, cap), merge_scratch
            )
            failed = lib.band_merge_f32(
                *head, *binning_ptrs(lay, lay.binning), *bands, *regions[:3],
                lay.stride, lay.pad, lay.slack_min, len(lay.a), *regions[3:],
                *merge[:5], *search, merge[5],
            )
            if not failed:
                lay.binning = clist
            return int(failed)

        def search_all():
            return int(lib.band_rows_f32(
                *head, *bands, *regions[:3],
                lay.stride, lay.pad, lay.shift, lay.slack_min, len(lay.a),
                *regions[3:], *search,
            ))

        # A fresh layout that outgrows the buffers (a compact state's
        # first build, or a larger band) is counted, not written: fit
        # the buffers to it and search again.
        size = search_all()
        if size > len(lay.a):
            lay.fit(size)
            regions = layout_ptrs(lay)
            size = search_all()
        lay.binning = clist
        return size

    backend = ForceBackend(
        name="cext",
        available=True,
        why="compiled with cffi",
        lj_flat_seg=lj_flat_seg,
        traffic_flat=traffic_flat,
        ring_charge=ring_charge,
        keyed_uniforms=keyed_uniforms,
        flow_rounds=flow_rounds,
        band_rows=band_rows,
        pass_plan=lambda: CextPassPlan(backend),
    )
    return backend


# ---------------------------------------------------------------------------
# Registration and the environment default
# ---------------------------------------------------------------------------

register_backend(
    ForceBackend(
        name="numpy",
        available=True,
        why="pure-numpy kernels",
        datapath_pass=datapath_pass_numpy,
        lj_flat_seg=lj_flat_seg_numpy,
        traffic_flat=traffic_flat_numpy,
        ring_charge=ring_charge_numpy,
        keyed_uniforms=keyed_uniforms_numpy,
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
