"""On-chip daisy-chain rings (paper Sec. 3.2) — structure and load model.

The 3-D cell space is mapped onto 1-D unidirectional rings connecting the
CBBs: the Position Ring (PR) rotates clockwise, the Force Ring (FR)
counter-clockwise — matching the cell-ID order of Eq. 7 so data usually
travels few hops.  An extra EX node on each ring exchanges data with
remote FPGAs (Sec. 4.1), adding one cycle to the ring circumference.

Cycle-accurate ring simulation is unnecessary for the paper's results;
what matters is (a) hop counts, which set routing latency, and (b) link
load, which bounds throughput (each ring link forwards one record per
cycle).  :class:`RingLoadModel` accounts both from an injection list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.md.backends import resolve_backend
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class RingPath:
    """A unidirectional ring of ``n_slots`` ring nodes.

    Parameters
    ----------
    n_slots:
        Ring circumference: CBB ring nodes plus any EX nodes.
    direction:
        +1 for clockwise (PR), -1 for counter-clockwise (FR).
    """

    n_slots: int
    direction: int = +1

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ValidationError("ring needs at least one slot")
        if self.direction not in (+1, -1):
            raise ValidationError("direction must be +1 or -1")

    def hops(self, src: int, dst: int) -> int:
        """Hops from src slot to dst slot travelling in ring direction."""
        for s in (src, dst):
            if not 0 <= s < self.n_slots:
                raise ValidationError(f"slot {s} out of range")
        return (self.direction * (dst - src)) % self.n_slots

    def links_traversed(self, src: int, dst: int) -> List[int]:
        """Link indices crossed en route (link i connects slot i to its
        successor in ring direction)."""
        out = []
        cur = src
        for _ in range(self.hops(src, dst)):
            out.append(cur)
            cur = (cur + self.direction) % self.n_slots
        return out


class RingLoadModel:
    """Accumulates per-link load and total hop-cycles on one ring.

    Each injected record occupies every link it crosses for one cycle.
    The busiest link bounds the number of cycles the ring needs:
    ``min_cycles = max_link_load``; total work = total hop count.
    """

    def __init__(self, ring: RingPath, force_impl: Optional[str] = None):
        self.ring = ring
        self.link_load = np.zeros(ring.n_slots, dtype=np.int64)
        self.total_records = 0
        self.total_hops = 0
        # The backend's circular range-add (``ring_charge`` contract;
        # ``None`` = the process default), resolved once so the
        # per-iteration charge calls pay no lookup.
        self._ring_charge = resolve_backend(force_impl).ring_charge

    def inject(self, src: int, dst: int, count: int = 1) -> None:
        """Account ``count`` records travelling src -> dst."""
        if count < 0:
            raise ValidationError("count must be >= 0")
        if count == 0:
            return
        links = self.ring.links_traversed(src, dst)
        for link in links:
            self.link_load[link] += count
        self.total_records += count
        self.total_hops += count * len(links)

    def broadcast(self, src: int, dsts: Sequence[int], count: int = 1) -> None:
        """A record stream visiting several destinations rides the ring
        once up to the farthest destination (positions are broadcast,
        paper Sec. 4.5), not once per destination."""
        if not dsts:
            return
        far = max(dsts, key=lambda d: self.ring.hops(src, d))
        links = self.ring.links_traversed(src, far)
        for link in links:
            self.link_load[link] += count
        self.total_records += count
        self.total_hops += count * len(links)

    # -- batched accounting ----------------------------------------------------
    #
    # The per-record inject/broadcast calls above walk Python lists per
    # hop; charging a whole injection array at once replaces that with a
    # circular range-add (the backend ``ring_charge`` kernel; numpy's is
    # a difference array + cumsum), so one call covers an entire
    # iteration's worth of ring traffic.  Results are integer adds and
    # therefore bitwise identical to the per-record loop.

    def _charge_spans(
        self, src: np.ndarray, hops: np.ndarray, counts: np.ndarray
    ) -> None:
        """Add ``counts[k]`` to every link on the ``hops[k]``-link span
        leaving ``src[k]`` in ring direction, plus the record/hop totals."""
        live = (counts > 0) & (hops > 0)
        if np.any(live):
            s = src[live]
            h = hops[live]
            c = counts[live]
            self._ring_charge(self.link_load, self.ring.direction, s, h, c)
        self.total_records += int(counts.sum())
        self.total_hops += int((counts * hops).sum())

    def inject_many(
        self, src: np.ndarray, dst: np.ndarray, counts: np.ndarray
    ) -> None:
        """Batched :meth:`inject`: account ``counts[k]`` records src -> dst.

        Bitwise-equivalent to calling :meth:`inject` per element (the
        equivalence tests assert it), at array speed.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if src.size == 0:
            return
        if np.any(counts < 0):
            raise ValidationError("count must be >= 0")
        n = self.ring.n_slots
        for arr in (src, dst):
            if np.any((arr < 0) | (arr >= n)):
                raise ValidationError("slot out of range")
        hops = (self.ring.direction * (dst - src)) % n
        # inject() counts zero-hop records in total_records only when
        # count > 0; zero-count entries contribute nothing at all.
        live = counts > 0
        self._charge_spans(src[live], hops[live], counts[live])

    def broadcast_many(
        self, src: np.ndarray, far_hops: np.ndarray, counts: np.ndarray
    ) -> None:
        """Batched :meth:`broadcast` with pre-reduced farthest-destination
        hop counts.

        Each element accounts one source stream of ``counts[k]`` records
        riding the ring ``far_hops[k]`` links from ``src[k]`` (the hop
        count of the farthest destination CBB) — the Sec. 4.5 broadcast
        semantics with the max-over-destinations already taken.
        """
        src = np.asarray(src, dtype=np.int64)
        far_hops = np.asarray(far_hops, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if src.size == 0:
            return
        if np.any(counts < 0):
            raise ValidationError("count must be >= 0")
        n = self.ring.n_slots
        if np.any((src < 0) | (src >= n)) or np.any(
            (far_hops < 0) | (far_hops >= n)
        ):
            raise ValidationError("slot or hop count out of range")
        self._charge_spans(src, far_hops, counts)

    @property
    def min_cycles(self) -> int:
        """Lower bound on cycles to drain this load (busiest link)."""
        return int(self.link_load.max()) if len(self.link_load) else 0

    @property
    def mean_link_load(self) -> float:
        """Average records per link."""
        return float(self.link_load.mean()) if len(self.link_load) else 0.0


def cbb_ring_order(local_dims: Tuple[int, int, int]) -> List[Tuple[int, int, int]]:
    """Order in which local cells sit on the on-chip rings.

    Cells are chained in local cell-ID order (Eq. 7 applied locally),
    which is how the paper lays out CBB ids 0..3 in Fig. 5.
    """
    dx, dy, dz = local_dims
    return [(x, y, z) for x in range(dx) for y in range(dy) for z in range(dz)]
