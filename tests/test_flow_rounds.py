"""The compiled transport round loop (``ForceBackend.flow_rounds``).

* On ``cext``, ``send_flows`` resolves a call whose injector draws with
  ``FaultInjector``'s own keyed streams in one ``flow_rounds`` call; it
  must equal the vectorized numpy round loop (``backend=None``) and the
  per-flow oracle ``tests/oracles.py::send_flow_rounds`` in every mask,
  per-flow count and the summed ``TransportStats``, over key fields
  that need two entropy words, budgets up to 6, zero-packet flows and
  fault onsets on one channel only.
* An injector that decides packets itself keeps the numpy loop.
* The wrapper refuses operands the kernel would misread.
* A faulted, rescaled chaos episode accounts the same on both backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.elasticity import fpga_grid_for
from repro.faults import (
    ChannelInjector,
    FaultInjector,
    FaultPlan,
    NodeFaultPlan,
    TransportConfig,
    TransportStats,
    send_flows,
)
from repro.md.backends import available_backends, resolve_backend
from repro.util.errors import ValidationError
from tests.oracles import send_flow_rounds
from tests.test_distributed_fold import _warm_system

pytestmark = pytest.mark.skipif(
    "cext" not in available_backends(), reason="cext backend unavailable"
)

#: Flow endpoints and iterations, biased to the entropy word-split edges.
WIDE = st.one_of(
    st.integers(0, 7),
    st.sampled_from([2 ** 32 - 1, 2 ** 32, 2 ** 40]),
    st.integers(0, 2 ** 40),
)

CHAOS_TRANSPORT = TransportConfig(retry_budget=5)

TRANSPORT = st.one_of(
    st.none(),
    st.just(CHAOS_TRANSPORT),
    st.builds(
        TransportConfig,
        retry_budget=st.integers(0, 6),
        timeout_cycles=st.floats(0.0, 1e3),
        backoff=st.one_of(st.just(1.7), st.floats(1.0, 3.0)),
        packet_cycles=st.floats(0.0, 4.0),
        model_acks=st.booleans(),
    ),
)


def _injector(kind, plan):
    return {
        "plain": lambda: FaultInjector(plan),
        "data": lambda: ChannelInjector(plan, "position"),
        "ack": lambda: ChannelInjector(plan, "position/ack"),
        "other": lambda: ChannelInjector(plan, "rescale"),
    }[kind]()


def _assert_matches(out, want):
    for k, (mask, stats) in enumerate(want):
        assert np.array_equal(out.mask(k), mask), k
        assert out.retransmits[k] == stats.retransmits, k
        assert out.n_delivered[k] == stats.delivered, k
    assert out.stats == sum((stats for _, stats in want), TransportStats())


class TestCompiledRounds:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 34),
        drop=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        corrupt=st.sampled_from([0.0, 0.02, 0.5]),
        onset=st.sampled_from([0, 1, 2, 2 ** 33]),
        iteration=st.one_of(st.integers(0, 3), WIDE),
        kind=st.sampled_from(["plain", "data", "ack", "other"]),
        config=TRANSPORT,
        flows=st.lists(
            st.tuples(WIDE, WIDE, st.integers(0, 24)), max_size=8
        ),
    )
    def test_matches_numpy_loop_and_oracle(
        self, seed, drop, corrupt, onset, iteration, kind, config, flows
    ):
        plan = FaultPlan(
            seed=seed, drop_rate=drop, corrupt_rate=corrupt,
            onset_iteration=onset,
        )
        injector = _injector(kind, plan)
        srcs, dsts, counts = ([f[i] for f in flows] for i in range(3))
        args = (injector, srcs, dsts, "position", iteration, counts, config)
        compiled = send_flows(*args, resolve_backend("cext"))
        loop = send_flows(*args, None)
        want = [
            send_flow_rounds(injector, s, d, "position", iteration, n, config)
            for s, d, n in flows
        ]
        assert compiled.delivered.dtype == np.bool_
        _assert_matches(compiled, want)
        _assert_matches(loop, want)
        assert np.array_equal(compiled.offsets, loop.offsets)

    def test_flows_override_keeps_the_loop(self):
        class AllLostFirst(FaultInjector):
            """Loses every data packet's first attempt, by flow."""

            def drop_corrupt_flows(self, srcs, dsts, channel, iteration,
                                   counts, attempt=0, backend=None):
                n = int(np.sum(counts))
                lost = attempt == 0 and not channel.endswith("/ack")
                return np.full(n, lost), np.zeros(n, dtype=bool)

        config = TransportConfig(retry_budget=2)
        args = (AllLostFirst(FaultPlan(seed=3)), [0, 1], [1, 2], "position",
                5, [3, 4], config)
        out = send_flows(*args, resolve_backend("cext"))
        assert out.delivered.all()
        assert out.retransmits.tolist() == [3, 4]
        assert out.stats == send_flows(*args, None).stats


def _operands(n_flows=3):
    counts = np.array([4, 0, 7][:n_flows], dtype=np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return dict(
        src=np.arange(len(counts), dtype=np.int64),
        dst=np.arange(len(counts), dtype=np.int64)[::-1].copy(),
        counts=counts, offsets=offsets,
        key=(9, 0x4D534721, 11, 12, 40),
        rates=(0.3, 0.1, 0.3),
        waits=np.array([400.0, 800.0]),
        packet_cycles=1.0, acks=True,
    )


class TestWrapperRefuses:
    """Each refusal next to a passing control call on the same operands."""

    @pytest.mark.parametrize("spoil", ["int32_counts", "strided_src",
                                       "offsets_past_total"])
    def test_refusal(self, spoil):
        kernel = resolve_backend("cext").flow_rounds
        args = _operands()
        delivered, retransmits, n_delivered, tallies, overhead = kernel(**args)
        assert len(delivered) == 11 and tallies[0] == 11 + retransmits.sum()
        if spoil == "int32_counts":
            args["counts"] = args["counts"].astype(np.int32)
        elif spoil == "strided_src":
            args["src"] = np.repeat(args["src"], 2)[::2]
            assert not args["src"].flags.c_contiguous
        else:
            args["offsets"] = args["offsets"].copy()
            args["offsets"][-1] += 1
        with pytest.raises(ValidationError):
            kernel(**args)


def _chaos_machine(impl: str) -> DistributedMachine:
    dims = (4, 4, 4)
    m = DistributedMachine(
        MachineConfig(dims, fpga_grid_for(dims, 8)),
        system=_warm_system(dims, 8, 1),
        injector=FaultInjector(
            FaultPlan(seed=12, drop_rate=0.02, corrupt_rate=0.01)
        ),
        transport=CHAOS_TRANSPORT,
        node_faults=NodeFaultPlan(
            seed=12, crash_rate=0.01, slowdown_rate=0.02
        ),
        shadow_interval=5,
    )
    m.reuse_state, m.force_impl = True, impl
    return m


class TestChaosEpisode:
    def test_backends_account_alike(self):
        runs = {}
        for impl in ("numpy", "cext"):
            m = _chaos_machine(impl)
            m.run(0)
            for step in range(1, 61):
                m.step()
                if step in (20, 40):
                    m.rescale(4 if step == 20 else 8)
            runs[impl] = m
        a, b = runs["numpy"], runs["cext"]
        assert a.transport_stats == b.transport_stats
        assert a.migration_transport_stats == b.migration_transport_stats
        assert a.transport_stats.retransmits > 0
        assert a.migration_transport_stats.packets_sent > 0
        assert a.recovery_log == b.recovery_log
        assert np.array_equal(a.system.positions, b.system.positions)
