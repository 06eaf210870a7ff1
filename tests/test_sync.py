"""Tests for chained vs. bulk synchronization (paper Sec. 4.4)."""

import numpy as np
import pytest

from repro.core.sync import (
    constant_work,
    random_straggler_work,
    run_bulk_sync,
    run_chained_sync,
    straggler_work,
)
from repro.faults import ChannelInjector, FaultPlan
from repro.network.topology import RingTopology, TorusTopology
from repro.util.errors import ConfigError


TORUS = TorusTopology((2, 2, 2))


class TestWorkFunctions:
    def test_constant(self):
        fn = constant_work(100.0)
        assert fn(0, 0) == 100.0
        assert fn(7, 99) == 100.0

    def test_straggler_all_iterations(self):
        fn = straggler_work(100.0, straggler_node=2, slowdown=3.0)
        assert fn(2, 5) == 300.0
        assert fn(1, 5) == 100.0

    def test_straggler_selected_iterations(self):
        fn = straggler_work(100.0, 2, 3.0, iterations=[1])
        assert fn(2, 1) == 300.0
        assert fn(2, 0) == 100.0

    def test_random_straggler_deterministic(self):
        fn = random_straggler_work(100.0, 4.0, probability=0.5, seed=1)
        assert fn(3, 7) == fn(3, 7)
        vals = {fn(n, k) for n in range(4) for k in range(10)}
        assert vals == {100.0, 400.0}


class TestChainedSync:
    def test_uniform_work_all_nodes_finish_together(self):
        res = run_chained_sync(TORUS, constant_work(1000.0), n_iterations=3)
        # Symmetric system: all nodes complete each iteration simultaneously.
        for k in range(3):
            assert res.start_spread(k) == pytest.approx(0.0, abs=1e-9)

    def test_iteration_time_composition(self):
        res = run_chained_sync(
            TORUS,
            constant_work(1000.0),
            n_iterations=1,
            link_latency=200.0,
            mu_cycles=100.0,
            position_tail_fraction=0.05,
        )
        # t = work + latency + tail + mu + latency(last force back).
        expected = 1000.0 + 200.0 + 0.05 * 1000.0 + 200.0 + 100.0
        assert res.makespan == pytest.approx(expected)

    def test_steady_state_rate_bounded_by_straggler(self):
        """A persistent straggler bounds throughput (paper admits this)."""
        base, slow = 1000.0, 2.0
        res = run_chained_sync(
            TORUS, straggler_work(base, 0, slow), n_iterations=10
        )
        assert res.mean_iteration_time() >= base * slow

    def test_head_start_after_transient_straggler(self):
        """A one-iteration straggler lets distant nodes run ahead —
        the decoupling Fig. 12 illustrates."""
        res = run_chained_sync(
            RingTopology(8),
            straggler_work(1000.0, 0, 5.0, iterations=[0]),
            n_iterations=2,
        )
        # After iteration 0, nodes far from the straggler finished earlier.
        assert res.start_spread(0) > 0.0

    def test_straggler_delay_propagates_one_hop_per_iteration(self):
        """The "chain reaction" of Sec. 4.4: a straggle on node 0 stalls
        only its neighbors immediately; a node at ring distance d keeps
        running free for ~d iterations before the delay wave arrives."""
        work = straggler_work(1000.0, 0, 5.0, iterations=[0])
        res = run_chained_sync(
            RingTopology(8), work, n_iterations=3, link_latency=50.0
        )
        done = res.iteration_complete
        free0 = done[4, 0]  # node at max distance: free-running at iter 0
        # Iteration 0: only direct neighbors (distance 1) are delayed.
        assert done[1, 0] > free0 and done[7, 0] > free0
        for far in (2, 3, 4, 5, 6):
            assert done[far, 0] == pytest.approx(free0)
        # Iteration 1: the wave reaches distance-2 nodes; distance >= 3
        # nodes still run free.
        free1 = done[4, 1]
        assert done[2, 1] > free1 and done[6, 1] > free1
        for far in (3, 4, 5):
            assert done[far, 1] == pytest.approx(free1)
        # Iteration 2: distance-3 nodes get hit.
        assert done[3, 2] > done[4, 2] or done[5, 2] > done[4, 2]

    def test_invalid_iterations(self):
        with pytest.raises(ConfigError):
            run_chained_sync(TORUS, constant_work(10.0), n_iterations=0)

    def test_monotone_completion_times(self):
        res = run_chained_sync(
            TORUS, random_straggler_work(1000.0, 2.0, 0.3, seed=3), n_iterations=5
        )
        diffs = np.diff(res.iteration_complete, axis=1)
        assert np.all(diffs > 0)


class TestBulkSync:
    def test_all_nodes_finish_together(self):
        res = run_bulk_sync(8, constant_work(1000.0), n_iterations=3)
        for k in range(3):
            assert res.start_spread(k) == 0.0

    def test_iteration_time(self):
        res = run_bulk_sync(
            4, constant_work(1000.0), n_iterations=1,
            barrier_latency=200.0, mu_cycles=100.0,
        )
        assert res.makespan == pytest.approx(1000.0 + 400.0 + 100.0)

    def test_host_coordination_costs_milliseconds(self):
        """Host-driven barriers add ~ms per iteration (paper Sec. 4.4)."""
        fpga = run_bulk_sync(4, constant_work(1000.0), 1, host_coordinated=False)
        host = run_bulk_sync(4, constant_work(1000.0), 1, host_coordinated=True)
        # 2 x 200k cycles = 2 ms at 200 MHz, vs 2 x 200 cycles.
        assert host.makespan - fpga.makespan == pytest.approx(2 * 200_000 - 2 * 200)

    def test_every_straggle_hits_everyone(self):
        work = random_straggler_work(1000.0, 2.0, 0.2, seed=5)
        res = run_bulk_sync(8, work, n_iterations=20, barrier_latency=0.0, mu_cycles=0.0)
        expected = sum(
            max(work(n, k) for n in range(8)) for k in range(20)
        )
        assert res.makespan == pytest.approx(expected)

    def test_invalid_iterations(self):
        with pytest.raises(ConfigError):
            run_bulk_sync(4, constant_work(10.0), n_iterations=0)


class TestProtocolProperties:
    """Hypothesis: protocol invariants over random work matrices."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.lists(
            st.lists(st.floats(100.0, 5000.0), min_size=3, max_size=3),
            min_size=8,
            max_size=8,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_completion_lower_bound(self, work_matrix):
        """Every node's final completion is at least the sum of its own
        work plus per-iteration protocol minima."""
        import numpy as np

        work = np.asarray(work_matrix)  # (nodes, iterations)

        def work_fn(node, iteration):
            return float(work[node, iteration])

        res = run_chained_sync(
            TorusTopology((2, 2, 2)), work_fn, n_iterations=3,
            link_latency=50.0, mu_cycles=10.0,
        )
        for node in range(8):
            own = float(work[node].sum()) + 3 * (10.0 + 50.0)
            assert res.iteration_complete[node, -1] >= own - 1e-6

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_makespan_at_least_slowest_chain(self, seed):
        """Makespan >= any single node's total work (no time travel)."""
        import numpy as np

        rng = np.random.default_rng(seed)
        work = rng.uniform(500.0, 3000.0, size=(8, 4))

        def work_fn(node, iteration):
            return float(work[node, iteration])

        res = run_chained_sync(
            TorusTopology((2, 2, 2)), work_fn, n_iterations=4, link_latency=10.0
        )
        assert res.makespan >= work.sum(axis=1).max()
        # And bounded above by a serial execution of all nodes' work.
        assert res.makespan <= work.sum() + 4 * 8 * (100.0 + 2 * 10.0 + 3000.0)


class TestFaultInjection:
    """The protocol's failure mode: a lost `last` signal deadlocks.

    The paper's transport is UDP with no retransmission — correctness
    relies on the cooldown mechanism keeping the switch lossless.  These
    tests confirm the simulated protocol exhibits (and detects) exactly
    that failure mode.
    """

    def test_lost_last_position_deadlocks(self):
        from repro.util.errors import DeadlockError

        with pytest.raises(DeadlockError, match="deadlock"):
            run_chained_sync(
                TORUS, constant_work(1000.0), n_iterations=2,
                injector=ChannelInjector(
                    FaultPlan(drop_rate=1.0), "last_position"
                ),
            )

    def test_lost_last_force_deadlocks(self):
        from repro.util.errors import DeadlockError

        with pytest.raises(DeadlockError, match="deadlock"):
            run_chained_sync(
                TORUS, constant_work(1000.0), n_iterations=2,
                injector=ChannelInjector(
                    FaultPlan(drop_rate=1.0), "last_force"
                ),
            )

    def test_no_drops_is_healthy(self):
        # A lossy plan scoped to a channel the handshake never uses.
        res = run_chained_sync(
            TORUS, constant_work(1000.0), n_iterations=2,
            injector=ChannelInjector(FaultPlan(drop_rate=1.0), "migration"),
        )
        assert res.makespan > 0
        assert res.fault_counts["dropped"] == 0


class TestChainedVsBulkUnderRandomStragglers:
    def test_chained_faster_on_average(self):
        """The paper's core claim: chained sync mitigates stragglers."""
        work = random_straggler_work(1000.0, 3.0, probability=0.15, seed=11)
        chained = run_chained_sync(
            TorusTopology((2, 2, 2)), work, n_iterations=15, link_latency=100.0
        )
        bulk = run_bulk_sync(8, work, n_iterations=15, barrier_latency=100.0)
        assert chained.makespan < bulk.makespan
