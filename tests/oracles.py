"""Retired paths, kept as oracles for the tier-1 tests and the bench.

Each machine and engine layer has one production path, chosen only from
its input.  The alternates it replaced live here, as functions that
take a machine or an engine, so the tests can still assert the
production path against an independent restatement:

* :func:`eval_padded` — the fresh padded-broadcast pass
  ``FasdaMachine`` took on dense boxes before the persistent
  :class:`~repro.md.cellstate.CellState` became its only path.  The
  band-list pass must match it bitwise, step after step, on any
  occupancy.
* :func:`eval_chunked` — the chunked gather enumeration the machine
  took on sparse or skewed boxes until every binning got band lists:
  the same admitted pairs, summed in another float32 grouping.
* :func:`account_traffic_loop` — the per-row traffic walk the
  vectorized group-by accounting replaced.
* :func:`exchange_positions_loop` — the per-particle
  :class:`~repro.core.packets.P2REncapsulatorChain` exchange, with a
  per-record GCID -> LCID round trip, that the packed per-flow
  gather/scatter replaced.
* :func:`eval_node_chunked` — the distributed node's original private
  force core (chunk loop, own pipelines, ``np.unique`` records), which
  the nodes' pass through the shared machine datapath replaced.
  Both chunked oracles screen candidates with :func:`screen_dr_numpy`.
* :func:`merge_segments` — the distributed merge that applied the
  force returns one (owner, evaluating node) segment at a time, which
  the one-pass fold replaced.
* :func:`lay_out_nodes` — the node-by-node, from-scratch relayout of
  the distributed node views and flows, which the relayout over the
  whole binning replaced.

:func:`fresh_path`, :func:`loop_traffic`, :func:`segment_merge`,
:func:`rebuild_nodes_every_step` and :func:`rebuild_state_every_step`
install them on one machine or engine instance, giving the
rebuild-every-step oracles a whole trajectory can run on.

The engine layer's float64 oracles:

* :func:`compute_forces_cells_loop` — the original per-cell Python loop,
  an independently coded restatement of
  :func:`~repro.md.reference.compute_forces_cells` (to float64
  round-off).

The band search's oracle:

* :func:`band_slot_pairs` — the padded-broadcast float32 *matmul* band
  search ``CellState`` ran on the ``numpy`` backend before every state
  took the ``band_rows`` layout.  Its band is the same distance test
  written another way, so it may differ from ``band_rows``' only for
  pairs with ``r2`` at the band edge: a superset and admission oracle.
  It decodes its survivors with the cached :func:`padded_decode`
  tables, as :func:`eval_padded` does.

The transport and pair-plan oracles:

* :func:`send_flow_rounds` — one flow's retry-round loop, drawing with
  ``drop_corrupt_arrays``: the statement every flow of a batched
  :func:`~repro.faults.transport.send_flows` call must equal.
* :func:`iter_pair_chunks_rows` — the plan-row subset enumeration the
  chunked node oracle walks (the ``rows=`` path ``iter_pair_chunks``
  had), restated as a filter of the all-row enumeration.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.cellids import gcid_to_lcid
from repro.core.distributed import (
    DistributedMachine,
    _CellData,
    _Flow,
    _Node,
    _ViewLayout,
)
from repro.core.machine import _OFFS14, FasdaMachine
from repro.core.packets import P2REncapsulatorChain, Packet, Record
from repro.core.rings import RingLoadModel
from repro.faults import ACK_SUFFIX, FaultInjector, TransportConfig, TransportStats
from repro.md.cells import HALF_SHELL_OFFSETS, CellGrid, CellList
from repro.md.engine import ReferenceEngine
from repro.md.kernels import pair_forces_energy, scatter_add
from repro.md.pairplan import (
    ROWS_PER_CELL,
    CellPairPlan,
    PairChunk,
    iter_pair_chunks,
)
from repro.md.reference import _cutoff_shift
from repro.md.system import ParticleSystem
from repro.util.errors import ValidationError

PAIR_PATHS = ("padded", "chunked")


def eval_padded(
    machine: FasdaMachine,
    clist: CellList,
    frac: np.ndarray,
    home_bank: np.ndarray,
    nbr_bank: np.ndarray,
    accepted: np.ndarray,
    uniq_per_row: np.ndarray,
) -> np.float32:
    """Padded-broadcast datapath pass over a fresh binning.

    Buckets are padded to the max occupancy ``cap`` and each of the 14
    plan offsets becomes one ``(C, cap, cap)`` float32 matmul over
    quantized in-cell fractions, ``r2 = |f_i|^2 + |f_j + off|^2 - 2
    f_i.(f_j + off)``.  Survivors of a conservative band are rebuilt as
    exact float64 fixed-point displacements and pushed through the real
    :class:`~repro.core.datapath.PairFilter` and
    ``FasdaMachine._pipelines`` — no band lists, no fused kernels, no
    pre-gathered coefficients.
    """
    plan = machine._plan
    n = machine.system.n
    C = plan.n_cells
    order, start, counts = clist.order, clist.start, clist.counts
    cap = int(counts.max())

    # Bucket-sorted fractions: slot s holds particle order[s].
    frac_s = frac[order]
    fsx = np.ascontiguousarray(frac_s[:, 0])
    fsy = np.ascontiguousarray(frac_s[:, 1])
    fsz = np.ascontiguousarray(frac_s[:, 2])
    within = np.arange(n, dtype=np.int64) - start[clist.sorted_cids]
    P = np.zeros((C, cap, 3), dtype=np.float32)
    P[clist.sorted_cids, within] = frac_s.astype(np.float32)
    padm = np.arange(cap)[None, :] >= counts[:, None]
    S = np.einsum("cix,cix->ci", P, P, dtype=np.float32)
    S[padm] = np.inf  # pad slots poison every r2 they appear in

    nbr_mat = plan.nbr.reshape(C, ROWS_PER_CELL)
    # Cutoff in normalized units is 1; the band only ever admits
    # *extra* candidates to the exact filter recheck.
    band = np.float32(1.0 + 1e-3)
    cell_of, i_of, j_of = padded_decode(plan, cap)
    a_of = start[cell_of] + i_of
    iu = np.arange(cap)
    tri = iu[:, None] < iu[None, :]
    mask = np.empty((C, cap, cap), dtype=bool)
    G = np.empty((C, cap, cap), dtype=np.float32)
    H = np.empty((C, cap, cap), dtype=np.float32)
    present = np.zeros(C * cap, dtype=bool)
    potential = np.float32(0.0)

    for k in range(ROWS_PER_CELL):
        nb = nbr_mat[:, k]
        Q = P[nb] + _OFFS14[k].astype(np.float32)
        Sq = np.einsum("cix,cix->ci", Q, Q, dtype=np.float32)
        Sq[padm[nb]] = np.inf
        np.matmul(P, Q.transpose(0, 2, 1), out=G)
        # r2 = S_i + Sq_j - 2 G_ij < band  <=>  G > (S - band)/2 + Sq/2
        np.add(
            ((S - band) * np.float32(0.5))[:, :, None],
            (Sq * np.float32(0.5))[:, None, :],
            out=H,
        )
        np.greater(G, H, out=mask)
        if k == 0:
            mask &= tri  # home-home upper triangle
        flat = np.flatnonzero(mask.reshape(-1))
        if flat.size == 0:
            continue
        a = a_of[flat]
        c = cell_of[flat]
        jsl = j_of[flat]
        b = start[nb][c] + jsl
        dr = np.empty((len(flat), 3))
        dr[:, 0] = fsx[a] - fsx[b] - _OFFS14[k, 0]
        dr[:, 1] = fsy[a] - fsy[b] - _OFFS14[k, 1]
        dr[:, 2] = fsz[a] - fsz[b] - _OFFS14[k, 2]
        res = machine.filter.check(dr)
        if not res.n_accepted:
            continue
        m = res.mask
        ii = order[a[m]]
        jj = order[b[m]]
        cc = c[m]
        scatter_add(accepted, cc)
        f, e = machine._pipelines(dr[m], res.r2, ii, jj)
        scatter_add(home_bank, ii, f)
        if k == 0:
            scatter_add(home_bank, jj, -f)
        else:
            scatter_add(nbr_bank, jj, -f)
            # Unique (row, neighbor particle) records via bucket-slot
            # presence bits — each offset k owns its rows outright.
            present[:] = False
            present[cc * cap + jsl[m]] = True
            touched = np.flatnonzero(present)
            scatter_add(uniq_per_row, (touched // cap) * ROWS_PER_CELL + k)
        potential += e.sum(dtype=np.float32)
    return potential


def screen_dr_numpy(
    frac: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    offset: np.ndarray,
    row: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Chunk displacement + squared distance: ``dr = frac[ii] -
    frac[jj] - offset[row]`` (exact in float64 for quantized fractions)
    and its einsum inner product, the inputs of
    :meth:`~repro.core.datapath.PairFilter.admit_r2` in the chunked
    oracles — the same arithmetic as
    :meth:`~repro.core.datapath.PairFilter.check` on that ``dr``."""
    dr = frac[ii] - frac[jj] - offset[row]
    return dr, np.einsum("ij,ij->i", dr, dr)


def eval_chunked(
    machine: FasdaMachine, clist: CellList, frac: np.ndarray, out
) -> np.float32:
    """Gather-enumerated datapath pass over a whole-box binning.

    All candidate pairs flow through the filter and the force pipelines
    in step-wide batches from the shared pair plan, row by row; ``out``
    is the machine's per-pass ``_Pass`` (banks, acceptance and record
    counts).  Admits exactly the pairs the band-list pass admits, so
    every integer statistic matches it; forces and the potential differ
    by the float32 accumulation grouping.
    """
    plan = machine._plan
    n = np.int64(len(out.home_bank))
    potential = np.float32(0.0)
    for chunk in iter_pair_chunks(plan, clist.counts, clist.start, clist.order):
        dr, r2 = screen_dr_numpy(frac, chunk.ii, chunk.jj, plan.offset, chunk.row)
        res = machine.filter.admit_r2(r2)
        if not res.n_accepted:
            continue
        m = res.mask
        ii = chunk.ii[m]
        jj = chunk.jj[m]
        row = chunk.row[m]
        scatter_add(out.accepted, plan.home[row])
        f, e = machine._pipelines(dr[m], res.r2, ii, jj)
        sel = plan.is_self[row]
        scatter_add(out.home_bank, ii, f)
        if sel.any():
            scatter_add(out.home_bank, jj[sel], -f[sel])
        nsel = ~sel
        if nsel.any():
            scatter_add(out.nbr_bank, jj[nsel], -f[nsel])
            # Unique (row, neighbor particle) keys; chunks carry whole
            # rows, so per-chunk uniqueness is per-block exact.
            keys = np.unique(row[nsel] * n + jj[nsel])
            scatter_add(out.uniq_per_row, keys // n)
        potential += e.sum(dtype=np.float32)
    return potential


def fresh_path(machine: FasdaMachine, pair_path: str = "padded") -> FasdaMachine:
    """Make ``machine`` evaluate every pass over a fresh binning, with
    :func:`eval_padded` (``"padded"``, the band-list pass's bitwise
    oracle on any occupancy) or :func:`eval_chunked` (``"chunked"``).
    Returns the machine.
    """
    if pair_path not in PAIR_PATHS:
        raise ValueError(f"pair_path must be one of {PAIR_PATHS}")

    def evaluate(state, frac, out):
        clist = CellList(machine.grid, machine.system.positions)
        if pair_path == "padded":
            return eval_padded(
                machine, clist, frac, out.home_bank, out.nbr_bank,
                out.accepted, out.uniq_per_row,
            )
        return eval_chunked(machine, clist, frac, out)

    machine._evaluate = evaluate
    return machine


def account_traffic_loop(
    machine: FasdaMachine,
    counts: np.ndarray,
    occupancy: np.ndarray,
    uniq_per_row: np.ndarray,
) -> Tuple[
    Dict[Tuple[int, int], int],
    Dict[Tuple[int, int], int],
    Dict[int, RingLoadModel],
    Dict[int, RingLoadModel],
]:
    """Per-row traffic accounting, one plan row at a time."""
    position_records: Dict[Tuple[int, int], int] = {}
    force_records: Dict[Tuple[int, int], int] = {}
    pr_models, fr_models = machine._traffic_models()
    plan = machine._plan
    ex_slot = machine._ex_slot
    # (source cell, dest node) pairs that carried at least one position.
    pos_sent: Dict[Tuple[int, int], bool] = {}
    # Position-ring destinations per (node, source slot) for broadcasts.
    pr_dests: Dict[Tuple[int, int], List[int]] = {}
    pr_counts: Dict[Tuple[int, int], int] = {}
    for r in machine._active_neighbor_rows(counts):
        cid = int(plan.home[r])
        ncid = int(plan.nbr[r])
        home_node = int(machine._cell_node[cid])
        home_slot = int(machine._cell_ring_slot[cid])
        src_node = int(machine._cell_node[ncid])
        pos_sent[(ncid, home_node)] = True
        key = (
            home_node,
            int(machine._cell_ring_slot[ncid])
            if src_node == home_node
            else ex_slot + 10_000 + ncid,
        )
        pr_dests.setdefault(key, []).append(home_slot)
        pr_counts[key] = int(counts[ncid])
        uniq = int(uniq_per_row[r])
        if uniq:
            if src_node != home_node:
                key2 = (home_node, src_node)
                force_records[key2] = force_records.get(key2, 0) + uniq
            # Force-ring injection: evaluating CBB -> home CBB (or EX
            # when remote).
            dst_slot = (
                int(machine._cell_ring_slot[ncid])
                if src_node == home_node
                else ex_slot
            )
            fr_models[home_node].inject(home_slot, dst_slot, uniq)

    # One ring traversal per source stream, visiting all destination
    # CBBs (Sec. 4.5 broadcast semantics).
    for (node, src_key), dests in pr_dests.items():
        src_slot = src_key if src_key < machine._ring_slots else ex_slot
        pr_models[node].broadcast(src_slot, dests, pr_counts[(node, src_key)])
    # Remote arriving forces ride the destination node's FR from EX to
    # the mean home slot.
    for (src, dst), recs in force_records.items():
        fr_models[dst].inject(ex_slot, machine._ring_slots // 2, recs)

    for (src_cell, dst_node), _ in pos_sent.items():
        src_node = int(machine._cell_node[src_cell])
        if src_node == dst_node:
            continue
        key = (src_node, dst_node)
        position_records[key] = position_records.get(key, 0) + int(
            occupancy[src_cell]
        )

    return position_records, force_records, pr_models, fr_models


def loop_traffic(machine: FasdaMachine) -> FasdaMachine:
    """Make ``machine`` account traffic with :func:`account_traffic_loop`."""
    machine._account_traffic = lambda *args: account_traffic_loop(machine, *args)
    return machine


def exchange_positions_loop(
    machine: DistributedMachine, nodes: Dict[int, _Node]
) -> Dict[int, Dict[int, _CellData]]:
    """Per-particle packet exchange: the original P2R protocol walk.

    Each node's local cells come from a fresh
    :class:`~repro.md.cells.CellList` of the machine's positions; the
    received halo cells are returned per node (node id -> cid -> cell
    data) and written into the nodes' views, whose layout must hold
    exactly the received particles, cell by cell.

    Fault-free only — the injector hooks live in the batched exchange.
    """
    if machine.injector is not None:
        raise ValueError("the loop exchange oracle models a lossless fabric")
    clist = CellList(machine.grid, machine.system.positions)
    mailboxes: Dict[int, List[Packet]] = {n: [] for n in nodes}
    for node in nodes.values():
        local_cells = [
            int(c) for c in machine._local_cells_static[node.node_id]
        ]
        neighbor_nodes = sorted(
            {t for cid in local_cells for t in machine._send_targets[cid]}
        )
        if not neighbor_nodes:
            continue
        chain = P2REncapsulatorChain(
            neighbor_nodes, machine.config.records_per_packet
        )
        out: List[Packet] = []
        for cid in local_cells:
            targets = machine._send_targets[cid]
            if not targets:
                continue
            idx = clist.particles_in_cell(cid)
            cell = tuple(int(c) for c in machine._cell_coords[cid])
            for pid, fq, sp in zip(
                idx, machine._last_frac[idx], machine.system.species[idx]
            ):
                record = Record(
                    "position",
                    int(pid),
                    cell,
                    (float(fq[0]), float(fq[1]), float(fq[2]), int(sp)),
                )
                out.extend(chain.route(record, targets))
        out.extend(chain.flush_all())
        node.packets_out += len(out)
        for pkt in out:
            mailboxes[pkt.dst].append(pkt)
    # Arrival: unpack, convert GCID -> LCID, bucket into the halo.
    gd = machine.config.global_cells
    ld = machine.config.local_cells
    halos: Dict[int, Dict[int, _CellData]] = {}
    for node in nodes.values():
        buckets: Dict[int, List[Tuple[int, Tuple[float, ...], int]]] = {}
        for pkt in mailboxes[node.node_id]:
            node.packets_in += 1
            for rec in pkt.records:
                # The Sec. 4.2 conversion, round-trip asserted per record.
                lcid = gcid_to_lcid(
                    np.asarray(rec.cell), node.node_coords, ld, gd
                )
                origin = node.node_coords * np.asarray(ld)
                back = tuple(int(v) for v in np.mod(lcid + origin, gd))
                if back != rec.cell:
                    raise ValidationError("LCID conversion corrupted a cell id")
                gcid_int = int(machine.grid.cell_id(np.asarray(rec.cell)))
                buckets.setdefault(gcid_int, []).append(
                    (rec.particle_id, rec.payload, int(rec.payload[3]))
                )
        halo = halos[node.node_id] = {}
        layout = node.layout
        for gcid_int, items in buckets.items():
            data = halo[gcid_int] = _CellData(
                particle_ids=np.array([i[0] for i in items], dtype=np.int64),
                fractions=np.array(
                    [[i[1][0], i[1][1], i[1][2]] for i in items]
                ),
                species=np.array([i[2] for i in items], dtype=np.int32),
            )
            lo, hi = layout.start[gcid_int], layout.start[gcid_int + 1]
            if not np.array_equal(layout.ids[lo:hi], data.particle_ids):
                raise ValidationError(f"halo cell {gcid_int} misses its layout")
            node.frac[data.particle_ids] = data.fractions
    machine.total_position_packets += sum(n.packets_out for n in nodes.values())
    return halos


def lay_out_nodes(
    machine: DistributedMachine,
) -> Tuple[Dict[int, _ViewLayout], List[_Flow]]:
    """Every node's view layout and the nonempty position flows of the
    machine's current binning, laid out node by node from scratch: the
    relayout :meth:`~repro.core.distributed.DistributedMachine._lay_out_nodes`
    ran before it laid out all nodes and flows in array passes and kept
    the unchanged ones.  A node's view is its visible cells' slots of
    one :class:`~repro.md.cells.CellList`; the flows into it are its
    slots of each source node, in ascending (cell, slot) order."""
    clist = CellList(machine.grid, machine.system.positions)
    species = machine.system.species.astype(np.int32, copy=False)
    rpp = machine.config.records_per_packet
    layouts: Dict[int, _ViewLayout] = {}
    flows: Dict[Tuple[int, int], _Flow] = {}
    for k in range(len(machine._node_coords)):
        sel = machine._view_cells[k][clist.sorted_cids]
        ids = clist.order[sel]
        layout = layouts[k] = machine._lay_out(
            k, clist.sorted_cids[sel], ids, species[ids]
        )
        srcs = [src for src, dst in machine._node_flows if dst == k]
        if not srcs:
            continue
        cells = [machine._node_flows[(src, k)] for src in srcs]
        cids = np.concatenate(cells)
        seg = np.cumsum([0] + [len(c) for c in cells])
        pids = ids[layout.by_owner]
        spc = layout.species[layout.by_owner]
        runs = layout.counts[cids]
        cum = np.concatenate([[0], np.cumsum(runs)])
        carried = runs > 0
        full = np.minimum.reduceat(carried, seg[:-1]).tolist()
        for j, src in enumerate(srcs):
            lo, hi = layout.owner_start[src], layout.owner_start[src + 1]
            if lo == hi:
                continue  # nothing to ship this binning
            a, b = seg[j], seg[j + 1]
            flows[(src, k)] = _Flow(
                src, k, pids[lo:hi], spc[lo:hi], cids[a:b],
                cum[a:b + 1] - cum[a], carried[a:b], full[j],
                -(-(hi - lo) // rpp),
            )
    return layouts, [flows[key] for key in machine._node_flows if key in flows]


def view_cell(node: _Node, cid: int) -> _CellData:
    """Cell ``cid`` as ``node``'s view holds it this step (its
    fractions gathered from the arena rows)."""
    layout, frac = node.view[:2]
    lo, hi = layout.start[cid], layout.start[cid + 1]
    return _CellData(
        layout.ids[lo:hi], frac[layout.clist.order[lo:hi]], layout.species[lo:hi]
    )


def loop_exchange(machine: DistributedMachine) -> DistributedMachine:
    """Make ``machine`` exchange positions with :func:`exchange_positions_loop`."""
    machine._exchange_positions = lambda nodes: exchange_positions_loop(
        machine, nodes
    )
    return machine


def _node_pipelines(
    machine: DistributedMachine,
    dr: np.ndarray,
    r2: np.ndarray,
    species_i: np.ndarray,
    species_j: np.ndarray,
    gi: np.ndarray,
    gj: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """LJ pipeline plus (optionally) the Ewald pipeline.

    Species come from the local/halo cell data (the position record
    payload); charges index the global table by particle id, which
    a hardware node would likewise carry in its position payload.
    """
    f, e = machine.pipeline.compute(dr, r2, species_i, species_j)
    if machine.coulomb_pipeline is not None:
        qq = machine._charges32[gi] * machine._charges32[gj]
        fc, ec = machine.coulomb_pipeline.compute(dr, r2, qq)
        f = f + fc
        e = e + ec
    return f, e


def _eval_node_core(
    machine: DistributedMachine,
    node_id: int,
    local_cells,
    counts: np.ndarray,
    start: np.ndarray,
    frac_cat: np.ndarray,
    pid_cat: np.ndarray,
    spc_cat: np.ndarray,
    bank: np.ndarray,
) -> Tuple[float, Dict[int, List[Tuple[np.ndarray, np.ndarray]]], int, float]:
    """Shared evaluation core for one node's flattened inputs.

    The node's visible cells (local + halo), already concatenated in
    ascending-cid order into flat position-cache arrays, flow as all
    candidate pairs of the node's plan rows through the filter and
    pipelines in batches, like the global machine's hot path.
    Accumulates into ``bank`` and returns the partial potential, the
    per-owner neighbor-force segments, the admitted-pair count and the
    float64 sum of the pair energies' magnitudes.
    """
    plan = machine._plan
    potential = np.float32(0.0)
    admitted = 0
    energy_abs = 0.0
    returns: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
    owner_is_local = machine._cell_node == node_id

    rows = (
        np.asarray(local_cells, dtype=np.int64)[:, None]
        * ROWS_PER_CELL
        + np.arange(ROWS_PER_CELL, dtype=np.int64)[None, :]
    ).reshape(-1)
    n_slots = np.int64(start[-1])

    for chunk in iter_pair_chunks_rows(plan, counts, start, rows):
        dr, r2 = screen_dr_numpy(
            frac_cat, chunk.ii, chunk.jj, plan.offset, chunk.row
        )
        res = machine.filter.admit_r2(r2)
        if not res.n_accepted:
            continue
        admitted += int(res.n_accepted)
        m = res.mask
        ii = chunk.ii[m]
        jj = chunk.jj[m]
        row = chunk.row[m]
        f, e = _node_pipelines(
            machine, dr[m], res.r2,
            spc_cat[ii], spc_cat[jj],
            pid_cat[ii], pid_cat[jj],
        )
        scatter_add(bank, pid_cat[ii], f)
        potential += e.sum(dtype=np.float32)
        energy_abs += float(np.abs(e.astype(np.float64)).sum())
        # Reaction forces: straight into the bank when the neighbor
        # particle lives on this node, else per-(block, particle)
        # records returned to the owner.
        keep = plan.is_self[row] | owner_is_local[plan.nbr[row]]
        if keep.any():
            scatter_add(bank, pid_cat[jj[keep]], -f[keep])
        rem = ~keep
        if rem.any():
            # One record per (plan row, neighbor particle), forces
            # coalesced — chunks carry whole rows, so per-chunk
            # grouping is per-block exact; ascending keys preserve
            # the (home cell, offset, slot) record order of the
            # hardware's return stream.
            keys, inv = np.unique(
                row[rem] * n_slots + jj[rem], return_inverse=True
            )
            fr = np.zeros((len(keys), 3), dtype=np.float32)
            scatter_add(fr, inv, -f[rem])
            urow = keys // n_slots
            uslot = keys % n_slots
            owners = machine._cell_node[plan.nbr[urow]]
            upid = pid_cat[uslot]
            # Segment the ascending-key records by owning node:
            # stable sort keeps the hardware's return-stream order
            # within each owner's segment.
            osort = np.argsort(owners, kind="stable")
            so = owners[osort]
            bounds = np.flatnonzero(np.diff(so)) + 1
            for seg in np.split(osort, bounds):
                returns.setdefault(int(owners[seg[0]]), []).append(
                    (upid[seg], fr[seg])
                )
    return float(potential), returns, admitted, energy_abs


def eval_node_chunked(
    machine: DistributedMachine, node: _Node
) -> Tuple[
    np.ndarray, float, Dict[int, List[Tuple[np.ndarray, np.ndarray]]], int, float
]:
    """One node's force pass through the distributed layer's original
    private core: a chunked enumeration over the node's visible cells
    with its own pipelines, ``np.unique`` record coalescing and a
    global ``(N, 3)`` bank.

    Returns ``(bank, potential, returns, admitted, energy_abs)``: the
    node's float32 bank (reaction forces of remote rows excluded), its
    partial potential, the per-owner ``(particle_ids, forces)`` record
    segments, the number of admitted pairs and the float64 sum of
    ``|pair energy|`` (the scale of the potential's float32 rounding).
    """
    bank = np.zeros((machine.system.n, 3), dtype=np.float32)
    layout, frac = node.view[:2]
    start = layout.start
    if start[-1] == 0:
        return bank, 0.0, {}, 0, 0.0
    potential, returns, admitted, energy_abs = _eval_node_core(
        machine, node.node_id, machine._local_cells_static[node.node_id],
        layout.counts, start, frac[layout.clist.order], layout.ids,
        layout.species, bank,
    )
    return bank, potential, returns, admitted, energy_abs


def merge_segments(machine: DistributedMachine, node_list, results) -> float:
    """The per-segment merge the folded
    :meth:`~repro.core.distributed.DistributedMachine._merge_results`
    replaced: each node's own rows, then per owner node (in node-id
    order) each evaluating node's returned segment (in node-id order),
    applied by one :func:`~repro.md.kernels.scatter_add` — float64 sums
    per particle, rounded to float32 and added onto the whole bank —
    and its packets accounted per owner."""
    home_bank = np.zeros((machine.system.n, 3), dtype=np.float32)
    potential = np.float32(0.0)
    return_records: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {
        n.node_id: [] for n in node_list
    }
    for res in results:
        home_bank[res.ids] += res.forces
        potential += np.float32(res.potential)
        for owner, segment in res.returns.items():
            return_records[owner].append(segment)
    for node in node_list:
        n_records = 0
        for pids, fvecs in return_records[node.node_id]:
            scatter_add(home_bank, pids, fvecs)
            n_records += len(pids)
        if n_records:
            machine.total_force_packets += int(
                np.ceil(n_records / machine.config.records_per_packet)
            )
    machine._forces32 = home_bank
    return float(potential)


def segment_merge(machine: DistributedMachine) -> DistributedMachine:
    """Make ``machine`` merge its node passes with :func:`merge_segments`."""
    machine._merge_results = lambda node_list, results: merge_segments(
        machine, node_list, results
    )
    return machine


def rebuild_nodes_every_step(machine: DistributedMachine) -> DistributedMachine:
    """Clear ``machine``'s node cache and node view states before every
    force pass.

    The rebuild-every-step oracle of the distributed layer: every pass
    re-partitions the particles, re-packs every flow and rebuilds every
    node's :class:`~repro.md.cellstate.CellState` from scratch.
    """
    build = machine._build_nodes

    def rebuild(*args):
        machine._nodes_cache = None
        machine._node_states.clear()
        return build(*args)

    machine._build_nodes = rebuild
    return machine


def rebuild_state_every_step(engine: ReferenceEngine) -> ReferenceEngine:
    """Rebuild ``engine``'s cell state before every force pass.

    The rebuild-every-step oracle of the engine layer: every pass bins
    the particles and searches the skin band from scratch, so no band
    list ever outlives the step that built it.  The engine's batch
    rebuilds its one segment whatever the rebuild test says.
    """
    batch = engine._batch
    mask = batch._rebuild_mask

    def rebuild():
        return np.ones_like(mask())

    batch._rebuild_mask = rebuild
    return engine


def compute_forces_cells_loop(
    system: ParticleSystem,
    grid: CellGrid,
    shift: bool = False,
) -> Tuple[np.ndarray, float]:
    """Per-cell-loop half-shell evaluation (pre-plan implementation).

    Semantically identical to
    :func:`~repro.md.reference.compute_forces_cells` but walks the cells
    in Python and re-derives the half-shell topology per cell.
    """
    if not np.allclose(grid.box, system.box):
        raise ValidationError(
            f"grid box {grid.box} does not match system box {system.box}"
        )
    cutoff = grid.cell_edge
    cutoff2 = cutoff * cutoff
    shift_e = _cutoff_shift(system.lj_table, cutoff, shift)
    pos = system.positions
    spc = system.species
    lj = system.lj_table
    forces = np.zeros_like(pos)
    energy = 0.0
    clist = CellList(grid, pos)

    for cid in clist.cells_nonempty():
        home_idx = clist.particles_in_cell(cid)
        hp = pos[home_idx]
        hs = spc[home_idx]
        # Home-home pairs (upper triangle).
        if len(home_idx) > 1:
            ii, jj = np.triu_indices(len(home_idx), k=1)
            dr = hp[ii] - hp[jj]
            r2 = np.sum(dr * dr, axis=1)
            mask = r2 < cutoff2
            if np.any(mask):
                f, e = pair_forces_energy(
                    dr[mask], r2[mask], hs[ii[mask]], hs[jj[mask]], lj, shift_e
                )
                np.add.at(forces, home_idx[ii[mask]], f)
                np.add.at(forces, home_idx[jj[mask]], -f)
                energy += e
        # Half-shell neighbor cells.
        coord = tuple(int(c) for c in grid.cell_coords(np.int64(cid)))
        for offset in HALF_SHELL_OFFSETS:
            ncoord, img_shift = grid.neighbor_with_shift(coord, offset)
            ncid = int(grid.cell_id(np.asarray(ncoord)))
            nbr_idx = clist.particles_in_cell(ncid)
            if len(nbr_idx) == 0:
                continue
            npos = pos[nbr_idx] + img_shift
            dr = hp[:, None, :] - npos[None, :, :]
            r2 = np.einsum("ijk,ijk->ij", dr, dr)
            mask = r2 < cutoff2
            if not np.any(mask):
                continue
            hi, nj = np.nonzero(mask)
            f, e = pair_forces_energy(
                dr[hi, nj], r2[hi, nj], hs[hi], spc[nbr_idx[nj]], lj, shift_e
            )
            np.add.at(forces, home_idx[hi], f)
            np.add.at(forces, nbr_idx[nj], -f)
            energy += e
    return forces, energy


class SlotBand(NamedTuple):
    """Per-offset flat candidate lists of :func:`band_slot_pairs`.

    ``a`` / ``b`` are global *slot* indices (into the bucket ``order``)
    of the home / neighbour particle, ``c`` the home cell and ``js`` the
    neighbour slot within its bucket, per candidate; candidates of
    offset ``k`` occupy ``a[segs[k]:segs[k + 1]]`` in ascending flat
    ``(cell, slot_i, slot_j)`` order.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    js: np.ndarray
    segs: np.ndarray


def band_slot_pairs(
    plan: CellPairPlan,
    clist: CellList,
    packed: np.ndarray,
    offsets: np.ndarray,
    band: float,
    home: Optional[np.ndarray] = None,
) -> SlotBand:
    """Run the padded-broadcast candidate search once with a widened band.

    ``packed``, ``offsets`` and ``band`` are a ``CellState`` pack
    function's output.  The returned lists enumerate, per offset, every
    flat (cell, slot_i, slot_j) whose float32 matmul ``r2 = |p_i|^2 +
    |q_j|^2 - 2 p_i.q_j`` passes ``band`` — a superset of anything the
    fresh path can admit while no particle has moved more than skin/2.
    ``home`` (ascending cell ids) limits the home side to those cells;
    ``None`` searches every cell.
    """
    order, start, counts = clist.order, clist.start, clist.counts
    C = plan.n_cells
    cap = int(counts.max())
    n = len(packed)
    packed_s = packed[order]
    within = np.arange(n, dtype=np.int64) - start[clist.sorted_cids]
    P = np.zeros((C, cap, 3), dtype=np.float32)
    P[clist.sorted_cids, within] = packed_s.astype(np.float32)
    padm = np.arange(cap)[None, :] >= counts[:, None]
    S = np.einsum("cix,cix->ci", P, P, dtype=np.float32)
    S[padm] = np.inf

    nbr_mat = plan.nbr.reshape(C, ROWS_PER_CELL)
    band32 = np.float32(band)
    # Decoded rows index the home cells searched: all cells, or ``home``.
    cell_of, i_of, j_of = padded_decode(plan, cap)
    Ph, Sh, home_start = P, S, start
    if home is not None:
        size = len(home) * cap * cap
        cell_of, i_of, j_of = cell_of[:size], i_of[:size], j_of[:size]
        Ph, Sh, nbr_mat = P[home], S[home], nbr_mat[home]
        home_start = start[home]
    a_of = home_start[cell_of] + i_of
    iu = np.arange(cap)
    tri = iu[:, None] < iu[None, :]
    mask = np.empty((len(Ph), cap, cap), dtype=bool)
    G = np.empty((len(Ph), cap, cap), dtype=np.float32)
    H = np.empty((len(Ph), cap, cap), dtype=np.float32)

    aa: List[np.ndarray] = []
    bb: List[np.ndarray] = []
    cc: List[np.ndarray] = []
    jj: List[np.ndarray] = []
    segs = np.zeros(ROWS_PER_CELL + 1, dtype=np.int64)
    for k in range(ROWS_PER_CELL):
        nb = nbr_mat[:, k]
        Q = P[nb] + offsets[k].astype(np.float32)
        Sq = np.einsum("cix,cix->ci", Q, Q, dtype=np.float32)
        Sq[padm[nb]] = np.inf
        np.matmul(Ph, Q.transpose(0, 2, 1), out=G)
        np.add(
            ((Sh - band32) * np.float32(0.5))[:, :, None],
            (Sq * np.float32(0.5))[:, None, :],
            out=H,
        )
        np.greater(G, H, out=mask)
        if k == 0:
            mask &= tri
        flat = np.flatnonzero(mask.reshape(-1))
        h = cell_of[flat].astype(np.int64)
        js = j_of[flat].astype(np.int64)
        aa.append(a_of[flat])
        bb.append(start[nb][h] + js)
        cc.append(h if home is None else home[h])
        jj.append(js)
        segs[k + 1] = segs[k] + len(flat)
    return SlotBand(
        np.concatenate(aa),
        np.concatenate(bb),
        np.concatenate(cc),
        np.concatenate(jj),
        segs,
    )


# ---------------------------------------------------------------------------
# Transport: the per-flow round loop
# ---------------------------------------------------------------------------


def send_flow_rounds(
    injector: Optional[FaultInjector],
    src: int,
    dst: int,
    channel: str,
    iteration: int,
    n_packets: int,
    config: Optional[TransportConfig] = None,
) -> Tuple[np.ndarray, TransportStats]:
    """One flow's retry rounds, drawing its masks with
    :meth:`~repro.faults.plan.FaultInjector.drop_corrupt_arrays`.

    The per-flow loop :func:`~repro.faults.transport.send_flows`
    replaced: each flow of a batched call must come out with this mask
    and these stats, and the call's ``stats`` with their sum in flow
    order.
    """
    if n_packets < 0:
        raise ValidationError("n_packets must be >= 0")
    stats = TransportStats()
    delivered = np.ones(n_packets, dtype=bool)
    if n_packets == 0:
        return delivered, stats
    if injector is None:
        stats.packets_sent = n_packets
        stats.delivered = n_packets
        if config is not None and config.model_acks:
            stats.acks_sent = n_packets
        return delivered, stats

    if config is None:
        drop, corrupt = injector.drop_corrupt_arrays(
            src, dst, channel, iteration, n_packets, attempt=0
        )
        delivered = ~(drop | corrupt)
        stats.packets_sent = n_packets
        stats.corrupt_detected = int(np.count_nonzero(corrupt & ~drop))
        stats.delivered = int(np.count_nonzero(delivered))
        stats.lost = n_packets - stats.delivered
        stats.rounds = 1
        return delivered, stats

    delivered = np.zeros(n_packets, dtype=bool)
    unacked = np.ones(n_packets, dtype=bool)
    for attempt in range(config.retry_budget + 1):
        n_send = int(np.count_nonzero(unacked))
        if n_send == 0:
            break
        stats.rounds = attempt + 1
        stats.packets_sent += n_send
        if attempt > 0:
            stats.retransmits += n_send
            stats.overhead_cycles += (
                config.timeout_cycles * config.backoff ** (attempt - 1)
                + n_send * config.packet_cycles
            )
        drop, corrupt = injector.drop_corrupt_arrays(
            src, dst, channel, iteration, n_packets, attempt=attempt
        )
        fail = (drop | corrupt) & unacked
        stats.corrupt_detected += int(np.count_nonzero(corrupt & ~drop & unacked))
        arrived = unacked & ~fail
        stats.duplicates += int(np.count_nonzero(arrived & delivered))
        delivered |= arrived
        stats.acks_sent += int(np.count_nonzero(arrived))
        if config.model_acks:
            ack_drop, _ = injector.drop_corrupt_arrays(
                src, dst, channel + ACK_SUFFIX, iteration, n_packets,
                attempt=attempt,
            )
            ack_lost = arrived & ack_drop
            stats.ack_drops += int(np.count_nonzero(ack_lost))
        else:
            ack_lost = np.zeros(n_packets, dtype=bool)
        unacked = fail | ack_lost
    stats.delivered = int(np.count_nonzero(delivered))
    stats.lost = n_packets - stats.delivered
    return delivered, stats


# ---------------------------------------------------------------------------
# Pair plans: padded decode tables and row-subset enumeration
# ---------------------------------------------------------------------------

#: One-entry decode-table cache per plan, ``plan -> (cap, tables)``,
#: dropped with the plan.
_DECODE: "weakref.WeakKeyDictionary[CellPairPlan, tuple]" = (
    weakref.WeakKeyDictionary()
)


def padded_decode(
    plan: CellPairPlan, cap: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached flat-index -> (cell, home slot, neighbor slot) decode tables.

    A flat survivor index into the padded ``(C, cap, cap)`` candidate
    mask decodes as ``cell = f // cap^2``, ``i = (f // cap) % cap``,
    ``j = f % cap``; precomputing the tables turns three per-survivor
    integer divisions per offset into three cheap int32 gathers.  One
    entry per plan: a cap change evicts it.
    """
    cap = int(cap)
    entry = _DECODE.get(plan)
    if entry is None or entry[0] != cap:
        cap2 = cap * cap
        f = np.arange(plan.n_cells * cap2, dtype=np.int64)
        entry = (cap, (
            (f // cap2).astype(np.int32),
            ((f // cap) % cap).astype(np.int32),
            (f % cap).astype(np.int32),
        ))
        _DECODE[plan] = entry
    return entry[1]


def iter_pair_chunks_rows(
    plan: CellPairPlan,
    counts: np.ndarray,
    start: np.ndarray,
    rows: np.ndarray,
    order: Optional[np.ndarray] = None,
) -> Iterator[PairChunk]:
    """:func:`~repro.md.pairplan.iter_pair_chunks` restricted to the
    plan rows ``rows`` (e.g. the rows whose home cell is local to one
    node): the same pairs, in ascending row order."""
    keep = np.zeros(plan.n_rows, dtype=bool)
    keep[np.asarray(rows, dtype=np.int64)] = True
    for chunk in iter_pair_chunks(plan, counts, start, order):
        m = keep[chunk.row]
        if m.any():
            yield PairChunk(row=chunk.row[m], ii=chunk.ii[m], jj=chunk.jj[m])
