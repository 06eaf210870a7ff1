"""The distributed relayout over the whole binning against its oracle.

:meth:`~repro.core.distributed.DistributedMachine._lay_out_nodes` lays
every node view and position flow out in array passes over all nodes
and keeps the ones whose cells kept their membership.  After every
step of a faulted episode (a lossy exchange that degrades a halo cell
onto its stale snapshot, a node crash and two rescales), serially and
on the thread pool, every node's layout and every flow must equal the
node-by-node, from-scratch relayout (:func:`tests.oracles.lay_out_nodes`),
and a flow or view none of whose cells changed membership must be the
very object of the step before.  Each new view's binning keys and
moved rows, which its node state takes as they are, must be what the
state would work out from the two binnings.
"""

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.elasticity import fpga_grid_for
from repro.faults import NodeFaultEvent, NodeFaultPlan
from repro.md.cellstate import binning_keys
from tests.oracles import lay_out_nodes
from tests.test_distributed_fold import DIMS, SCHEDULE, _lossy, _warm_system

LAYOUT_FIELDS = (
    "counts", "start", "ids", "species", "by_owner", "local", "local_ids",
)
FLOW_FIELDS = ("pids", "species", "cids", "bounds", "carried")
HEAT = 5.0


def _machine(parallel: bool) -> DistributedMachine:
    system = _warm_system(DIMS, 4, 7)
    # Hotter, so particles change cell on most passes.
    system.velocities *= HEAT
    return DistributedMachine(
        MachineConfig(DIMS, fpga_grid_for(DIMS, 4)),
        system=system, injector=_lossy(), parallel=parallel,
        node_faults=NodeFaultPlan(events=(NodeFaultEvent(1, 3, "crash"),)),
    )


def _check_against_oracle(m: DistributedMachine) -> None:
    layouts, flows = lay_out_nodes(m)
    assert sorted(m._nodes_cache) == sorted(layouts)
    for k, want in layouts.items():
        got = m._nodes_cache[k].layout
        for field in LAYOUT_FIELDS:
            x, y = getattr(got, field), getattr(want, field)
            assert x.dtype == y.dtype and np.array_equal(x, y), (k, field)
        assert got.owner_start == want.owner_start, k
        for field in ("order", "start", "counts", "sorted_cids"):
            x, y = getattr(got.clist, field), getattr(want.clist, field)
            assert np.array_equal(x, y), (k, field)
        assert got.row_ids is None
        # The keys and moved rows handed to the node state are what it
        # would work out itself.
        if got.change is not None:
            keys = binning_keys(got.clist, m.system.n)
            before = binning_keys(got.change.prev, m.system.n)
            assert np.array_equal(got.change.keys, keys)
            assert np.array_equal(
                got.change.moved, np.flatnonzero(before != keys)
            ), k
    assert [(f.src, f.dst) for f in m._flows] == [(f.src, f.dst) for f in flows]
    for got, want in zip(m._flows, flows):
        for field in FLOW_FIELDS:
            x, y = getattr(got, field), getattr(want, field)
            assert x.dtype == y.dtype and np.array_equal(x, y), field
        assert (got.full, got.n_packets) == (want.full, want.n_packets)
        assert type(got.full) is bool and type(got.n_packets) is int
    assert np.array_equal(
        m._flow_table,
        np.array([(f.src, f.dst, f.n_packets) for f in flows]).reshape(-1, 3),
    )


def _same_cells(a, b) -> bool:
    return np.array_equal(a.pids, b.pids) and np.array_equal(a.bounds, b.bounds)


def _same_view(a, b) -> bool:
    return np.array_equal(a.ids, b.ids) and np.array_equal(a.counts, b.counts)


def _episode(m: DistributedMachine) -> dict:
    """Step ``m`` through :data:`SCHEDULE`, checking every pass's
    layouts and flows; counts what was kept and what was laid anew."""
    seen = {"kept_flows": 0, "new_flows": 0, "kept_views": 0, "new_views": 0}
    prev = None
    m.run(0)
    for n_new, steps in SCHEDULE:
        if n_new is not None:
            m.rescale(n_new)
        for _ in range(steps):
            m.step()
            _check_against_oracle(m)
            nodes, flows = m._nodes_cache, dict(
                ((f.src, f.dst), f) for f in m._flows
            )
            if prev is not None and prev[0] is nodes:
                # Same partition and no crash since the last pass.
                for key, flow in flows.items():
                    old = prev[1].get(key)
                    if old is not None and _same_cells(old, flow):
                        assert flow is old, key
                        seen["kept_flows"] += 1
                    else:
                        seen["new_flows"] += 1
                for k, node in nodes.items():
                    if _same_view(prev[2][k], node.layout):
                        assert node.layout is prev[2][k], k
                        seen["kept_views"] += 1
                    else:
                        seen["new_views"] += 1
            prev = (nodes, flows, {k: n.layout for k, n in nodes.items()})
    return seen


class TestRelayoutMatchesOracle:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_faulted_episode(self, parallel):
        m = _machine(parallel)
        try:
            seen = _episode(m)
        finally:
            m.close()
        assert [r.n_new for r in m.rescale_log] == [6, 3]
        assert m.degradation_log and m.recovery_log
        # Both kinds of flow and view occurred between passes.
        assert min(seen.values()) >= 5, seen

    def test_thread_pool_matches_serial(self):
        serial, pooled = _machine(False), _machine(True)
        try:
            for m in (serial, pooled):
                _episode(m)
        finally:
            pooled.close()
        assert np.array_equal(serial.system.positions, pooled.system.positions)
        assert np.array_equal(serial.forces, pooled.forces)
        assert serial.degradation_log == pooled.degradation_log
        assert serial.recovery_log == pooled.recovery_log
