"""Batched keyed draws and the one-call transport.

* ``keyed_uniforms``, on every available backend, fills each key's
  output range with the stream of
  ``default_rng(SeedSequence(entropy)).random(n)`` bit for bit — for
  entropy words of any value, empty keys and zero counts — and
  ``keyed_draws`` splits key fields of 0, of 2**32 and above, and
  negative ones, exactly as ``SeedSequence`` splits a Python int.
* ``send_flows`` equals the per-flow round loop
  (``tests/oracles.py::send_flow_rounds``) flow by flow, over random
  plans, transports and injectors: every delivered mask, the per-flow
  retransmit and delivered counts, and every ``TransportStats`` field
  of the flows' sum in flow order.
* ``NodeFaultInjector.faults_at`` makes the decisions of one keyed
  generator per node and process.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    ChannelInjector,
    FaultInjector,
    FaultPlan,
    NodeFaultEvent,
    NodeFaultInjector,
    NodeFaultPlan,
    TransportConfig,
    TransportStats,
    send_flow,
    send_flows,
)
from repro.faults.keyed import keyed_draws, keyed_rng
from repro.faults.nodes import _SALT_CRASH, _SALT_SLOW
from repro.md.backends import available_backends, resolve_backend
from repro.util.errors import ValidationError
from tests.oracles import send_flow_rounds

BACKENDS = available_backends()

PROPERTY = settings(max_examples=150, deadline=None)

WORD = st.one_of(
    st.just(0), st.just(2 ** 32 - 1), st.integers(0, 2 ** 32 - 1)
)
#: Key fields as the fault layer passes them (int64), biased to the
#: word-split edges.
FIELD = st.one_of(
    st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, -1, -(2 ** 63)]),
    st.integers(-(2 ** 63), 2 ** 63 - 1),
)


def _offsets(lengths):
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


class TestKeyedUniforms:
    @pytest.mark.parametrize("impl", BACKENDS)
    @PROPERTY
    @given(keys=st.lists(
        st.tuples(st.lists(WORD, max_size=9), st.integers(0, 7)),
        max_size=12,
    ))
    def test_matches_seedsequence_stream(self, impl, keys):
        words = np.array([w for ws, _ in keys for w in ws], dtype=np.uint32)
        got = resolve_backend(impl).keyed_uniforms(
            words,
            _offsets([len(ws) for ws, _ in keys]),
            _offsets([n for _, n in keys]),
        )
        want = [
            np.random.default_rng(
                np.random.SeedSequence(np.array(ws, dtype=np.uint32))
            ).random(n)
            for ws, n in keys
        ]
        assert got.dtype == np.float64
        assert np.array_equal(got, np.concatenate([np.empty(0)] + want))

    @pytest.mark.parametrize("impl", BACKENDS)
    @PROPERTY
    @given(
        seed=st.integers(0, 2 ** 40),
        rows=st.lists(
            st.tuples(st.lists(FIELD, min_size=1, max_size=6),
                      st.integers(0, 5)),
            min_size=1, max_size=10,
        ),
        width=st.integers(1, 6),
    )
    def test_keyed_draws_split_fields_like_seedsequence(
        self, impl, seed, rows, width
    ):
        keys = np.array(
            [(f * width)[:width] for f, _ in rows], dtype=np.int64
        )
        counts = [n for _, n in rows]
        got = keyed_draws(seed, keys, counts, resolve_backend(impl))
        want = np.concatenate([np.empty(0)] + [
            keyed_rng(seed, *k).random(n)
            for k, n in zip(keys.tolist(), counts)
        ])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("impl", BACKENDS)
    @pytest.mark.parametrize("wo, oo", [
        ([0, 2], [0, 1]),        # word offsets stop short of the words
        ([0, 3, 1], [0, 1, 2]),  # decreasing word offsets
        ([0, 3], [1, 2]),        # output offsets not from 0
        ([0, 3], [0, 2, 4]),     # one offset array longer
    ])
    def test_malformed_offsets_rejected(self, impl, wo, oo):
        with pytest.raises(ValidationError):
            resolve_backend(impl).keyed_uniforms(
                np.arange(3, dtype=np.uint32), wo, oo
            )


class _DropByIndex(FaultInjector):
    """A fabric deciding packets its own way: on ``position`` it drops
    packet ``i`` of a flow when ``i + src + attempt`` is a multiple of 3
    (only ``drop_corrupt_arrays`` is overridden)."""

    def __init__(self):
        super().__init__(FaultPlan(seed=0))

    def drop_corrupt_arrays(self, src, dst, channel, iteration, n, attempt=0):
        drop = np.zeros(n, dtype=bool)
        if channel == "position":
            drop = (np.arange(n) + src + attempt) % 3 == 0
        return drop, np.zeros(n, dtype=bool)


def _injector(kind, plan):
    return {
        "none": lambda: None,
        "plain": lambda: FaultInjector(plan),
        "channel": lambda: ChannelInjector(plan, "position"),
        "other_channel": lambda: ChannelInjector(plan, "rescale"),
        "override": _DropByIndex,
    }[kind]()


TRANSPORT = st.one_of(
    st.none(),
    st.builds(
        TransportConfig,
        retry_budget=st.integers(0, 4),
        timeout_cycles=st.floats(0.0, 1e3),
        backoff=st.floats(1.0, 3.0),
        packet_cycles=st.floats(0.0, 4.0),
        model_acks=st.booleans(),
    ),
)


class TestSendFlows:
    @pytest.mark.parametrize("impl", BACKENDS)
    @PROPERTY
    @given(
        seed=st.integers(0, 2 ** 34),
        drop=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        corrupt=st.sampled_from([0.0, 0.02, 0.5]),
        onset=st.integers(0, 2),
        iteration=st.integers(0, 3),
        kind=st.sampled_from(
            ["none", "plain", "channel", "other_channel", "override"]
        ),
        config=TRANSPORT,
        flows=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7),
                      st.integers(0, 20)),
            max_size=8,
        ),
    )
    def test_matches_per_flow_rounds(
        self, impl, seed, drop, corrupt, onset, iteration, kind, config,
        flows,
    ):
        plan = FaultPlan(
            seed=seed, drop_rate=drop, corrupt_rate=corrupt,
            onset_iteration=onset,
        )
        injector = _injector(kind, plan)
        srcs, dsts, counts = (
            [f[i] for f in flows] for i in range(3)
        )
        out = send_flows(
            injector, srcs, dsts, "position", iteration, counts, config,
            resolve_backend(impl),
        )
        want = [
            send_flow_rounds(
                injector, s, d, "position", iteration, n, config
            )
            for s, d, n in flows
        ]
        for k, (mask, stats) in enumerate(want):
            assert np.array_equal(out.mask(k), mask)
            assert out.retransmits[k] == stats.retransmits
            assert out.n_delivered[k] == stats.delivered
        assert out.stats == sum(
            (stats for _, stats in want), TransportStats()
        )

    @pytest.mark.parametrize("impl", BACKENDS)
    def test_one_flow_call(self, impl):
        plan = FaultPlan(seed=9, drop_rate=0.2, corrupt_rate=0.1)
        config = TransportConfig(retry_budget=2)
        mask, stats = send_flow(
            FaultInjector(plan), 3, 5, "force", 4, 37, config,
            resolve_backend(impl),
        )
        want_mask, want_stats = send_flow_rounds(
            FaultInjector(plan), 3, 5, "force", 4, 37, config
        )
        assert np.array_equal(mask, want_mask) and stats == want_stats

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            send_flows(None, [0, 1], [1, 0], "position", 0, [3, -1])

    def test_no_flows(self):
        out = send_flows(
            FaultInjector(FaultPlan(drop_rate=0.5)), [], [], "position", 0,
            [], TransportConfig(),
        )
        assert out.delivered.size == 0 and out.stats == TransportStats()

    @pytest.mark.parametrize("impl", BACKENDS)
    def test_flow_masks_equal_per_flow_arrays(self, impl):
        inj = FaultInjector(FaultPlan(seed=4, drop_rate=0.3, corrupt_rate=0.2))
        srcs, dsts, counts = [0, 2, 7], [1, 3, 0], [5, 0, 12]
        drop, corrupt = inj.drop_corrupt_flows(
            srcs, dsts, "position", 6, counts, attempt=2,
            backend=resolve_backend(impl),
        )
        pairs = [
            inj.drop_corrupt_arrays(s, d, "position", 6, n, attempt=2)
            for s, d, n in zip(srcs, dsts, counts)
        ]
        assert np.array_equal(drop, np.concatenate([p[0] for p in pairs]))
        assert np.array_equal(corrupt, np.concatenate([p[1] for p in pairs]))


class TestNodeFaultsAt:
    @pytest.mark.parametrize("impl", BACKENDS)
    @PROPERTY
    @given(
        seed=st.integers(0, 2 ** 34),
        crash=st.sampled_from([0.0, 0.1, 0.5]),
        slow=st.sampled_from([0.0, 0.2, 0.7]),
        onset=st.integers(0, 2),
        iteration=st.integers(0, 4),
        n_nodes=st.integers(0, 9),
        events=st.lists(
            st.builds(
                NodeFaultEvent,
                node=st.integers(0, 10),
                iteration=st.integers(0, 4),
                kind=st.sampled_from(["crash", "slowdown"]),
                factor=st.floats(1.0, 8.0),
            ),
            max_size=4,
        ),
    )
    def test_matches_one_generator_per_decision(
        self, impl, seed, crash, slow, onset, iteration, n_nodes, events
    ):
        plan = NodeFaultPlan(
            seed=seed, crash_rate=crash, slowdown_rate=slow,
            slowdown_factor=3.0, onset_iteration=onset, events=events,
        )
        crashed, factors = NodeFaultInjector(plan).faults_at(
            iteration, n_nodes, resolve_backend(impl)
        )
        want_crashed, want_factors = set(), np.ones(n_nodes)
        for e in events:
            if e.iteration == iteration and e.node < n_nodes:
                if e.kind == "crash":
                    want_crashed.add(e.node)
                else:
                    want_factors[e.node] = max(want_factors[e.node], e.factor)
        if iteration >= onset:
            for node in range(n_nodes):
                u_crash = keyed_rng(seed, _SALT_CRASH, node, iteration)
                if crash > 0 and u_crash.random() < crash:
                    want_crashed.add(node)
                u_slow = keyed_rng(seed, _SALT_SLOW, node, iteration)
                if slow > 0 and u_slow.random() < slow:
                    want_factors[node] = max(want_factors[node], 3.0)
        assert crashed == sorted(want_crashed)
        assert np.array_equal(factors, want_factors)


class TestNodeFaultKeysKept:
    """One injector, its kept entropy words reused across iterations on
    both sides of 2**32 (one and two iteration words), node counts and
    process sets: every call still makes one generator's decisions."""

    @pytest.mark.parametrize("impl", BACKENDS)
    def test_reused_words_match_fresh_generators(self, impl):
        plan = NodeFaultPlan(
            seed=2 ** 33 + 5, crash_rate=0.3, slowdown_rate=0.4,
            slowdown_factor=2.0, onset_iteration=3,
        )
        injector = NodeFaultInjector(plan)
        calls = [
            (0, 8), (3, 8), (4, 8), (2 ** 32 - 1, 8), (2 ** 32, 8),
            (2 ** 32 + 7, 8), (5, 8), (6, 4), (2 ** 40 + 1, 4), (7, 8),
            (2 ** 32 + 7, 8), (2 ** 40 + 3, 8), (2, 4),
        ]
        for iteration, n_nodes in calls:
            crashed, factors = injector.faults_at(
                iteration, n_nodes, resolve_backend(impl)
            )
            want_crashed, want_factors = [], np.ones(n_nodes)
            if iteration >= plan.onset_iteration:
                for node in range(n_nodes):
                    if keyed_rng(plan.seed, _SALT_CRASH, node,
                                 iteration).random() < 0.3:
                        want_crashed.append(node)
                    if keyed_rng(plan.seed, _SALT_SLOW, node,
                                 iteration).random() < 0.4:
                        want_factors[node] = 2.0
            assert crashed == want_crashed, iteration
            assert np.array_equal(factors, want_factors), iteration
