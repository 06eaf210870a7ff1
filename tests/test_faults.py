"""Unit tests for the fault-injection plan, injector, and transport."""

import numpy as np
import pytest

from repro.faults import (
    CLEAN,
    FaultDecision,
    FaultInjector,
    FaultPlan,
    TransportConfig,
    TransportStats,
    send_flow,
)
from repro.util.errors import ValidationError


class TestFaultPlan:
    def test_default_plan_injects_nothing(self):
        plan = FaultPlan()
        assert not plan.has_message_faults
        assert not plan.has_stall_faults

    def test_rate_validation(self):
        with pytest.raises(ValidationError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValidationError):
            FaultPlan(corrupt_rate=-0.1)
        with pytest.raises(ValidationError):
            FaultPlan(stall_factor=0.5)
        with pytest.raises(ValidationError):
            FaultPlan(delay_cycles=-1)
        with pytest.raises(ValidationError):
            FaultPlan(onset_iteration=-1)

    def test_clean_decision(self):
        assert CLEAN.clean
        assert not FaultDecision(drop=True).clean
        assert not FaultDecision(delay=5.0).clean


class TestInjectorDeterminism:
    KEYS = [
        (s, d, ch, it, u, a)
        for s in (0, 3)
        for d in (1, 7)
        for ch in ("position", "last_force")
        for it in (0, 5)
        for u in (0, 2)
        for a in (0, 1)
    ]

    def test_same_plan_same_decisions(self):
        a = FaultInjector(FaultPlan(seed=42, drop_rate=0.3, duplicate_rate=0.2,
                                    delay_rate=0.2, corrupt_rate=0.2))
        b = FaultInjector(FaultPlan(seed=42, drop_rate=0.3, duplicate_rate=0.2,
                                    delay_rate=0.2, corrupt_rate=0.2))
        for key in self.KEYS:
            assert a.decide(*key) == b.decide(*key)

    def test_decisions_independent_of_call_order(self):
        plan = FaultPlan(seed=9, drop_rate=0.4, corrupt_rate=0.3)
        forward = [FaultInjector(plan).decide(*k) for k in self.KEYS]
        backward = [FaultInjector(plan).decide(*k) for k in reversed(self.KEYS)]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        plan_a = FaultPlan(seed=1, drop_rate=0.5)
        plan_b = FaultPlan(seed=2, drop_rate=0.5)
        drops_a = [FaultInjector(plan_a).decide(*k).drop for k in self.KEYS]
        drops_b = [FaultInjector(plan_b).decide(*k).drop for k in self.KEYS]
        assert drops_a != drops_b

    def test_zero_rates_always_clean(self):
        inj = FaultInjector(FaultPlan(seed=123))
        for key in self.KEYS:
            assert inj.decide(*key) is CLEAN
        drop, corrupt = inj.drop_corrupt_arrays(0, 1, "position", 0, 64)
        assert not drop.any() and not corrupt.any()
        assert inj.work_multiplier(3, 7) == 1.0

    def test_onset_iteration_gates_faults(self):
        inj = FaultInjector(FaultPlan(seed=4, drop_rate=1.0, onset_iteration=2))
        assert inj.decide(0, 1, "position", 0) is CLEAN
        assert inj.decide(0, 1, "position", 1) is CLEAN
        assert inj.decide(0, 1, "position", 2).drop
        drop, _ = inj.drop_corrupt_arrays(0, 1, "position", 1, 8)
        assert not drop.any()
        drop, _ = inj.drop_corrupt_arrays(0, 1, "position", 2, 8)
        assert drop.all()

    def test_certain_rates(self):
        inj = FaultInjector(FaultPlan(seed=0, drop_rate=1.0, corrupt_rate=1.0))
        dec = inj.decide(2, 3, "force", 1)
        assert dec.drop and dec.corrupt
        drop, corrupt = inj.drop_corrupt_arrays(2, 3, "force", 1, 16)
        assert drop.all() and corrupt.all()

    def test_array_masks_reproducible(self):
        plan = FaultPlan(seed=7, drop_rate=0.3, corrupt_rate=0.1)
        d1, c1 = FaultInjector(plan).drop_corrupt_arrays(1, 2, "position", 3, 100)
        d2, c2 = FaultInjector(plan).drop_corrupt_arrays(1, 2, "position", 3, 100)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(c1, c2)

    def test_retransmit_attempt_redraws(self):
        """A retransmission faces an independent loss draw."""
        inj = FaultInjector(FaultPlan(seed=5, drop_rate=0.5))
        drops = [
            inj.drop_corrupt_arrays(0, 1, "position", 0, 200, attempt=a)[0]
            for a in range(2)
        ]
        assert not np.array_equal(drops[0], drops[1])


class TestCorruptionAndStalls:
    def test_int_payload_bit_flip(self):
        inj = FaultInjector(FaultPlan(seed=3, corrupt_rate=1.0))
        corrupted = inj.corrupt_payload(10, 0, 1, "last_position", 4)
        assert corrupted != 10
        flipped = corrupted ^ 10
        assert flipped & (flipped - 1) == 0  # exactly one bit
        assert flipped < (1 << 16)

    def test_object_payload_marker(self):
        inj = FaultInjector(FaultPlan(seed=3, corrupt_rate=1.0))
        assert inj.corrupt_payload("data", 0, 1, "x", 0) == ("corrupt", "data")

    def test_work_multiplier(self):
        always = FaultInjector(FaultPlan(seed=1, stall_rate=1.0, stall_factor=3.0))
        assert always.work_multiplier(0, 0) == 3.0
        never = FaultInjector(FaultPlan(seed=1, stall_rate=0.0))
        assert never.work_multiplier(0, 0) == 1.0


class TestTransportConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TransportConfig(retry_budget=-1)
        with pytest.raises(ValidationError):
            TransportConfig(backoff=0.5)
        with pytest.raises(ValidationError):
            TransportConfig(timeout_cycles=-1)


class TestTransportStats:
    def test_merge(self):
        a = TransportStats(packets_sent=10, retransmits=1, delivered=10,
                           rounds=2, overhead_cycles=100.0)
        b = TransportStats(packets_sent=5, lost=1, delivered=4, rounds=3,
                           overhead_cycles=50.0)
        m = a + b
        assert m.packets_sent == 15
        assert m.delivered == 14
        assert m.lost == 1
        assert m.rounds == 3  # max, not sum
        assert m.overhead_cycles == 150.0

    def test_sum_builtin(self):
        parts = [TransportStats(packets_sent=i, delivered=i) for i in (1, 2, 3)]
        total = sum(parts)
        assert total.packets_sent == 6

    def test_rates(self):
        s = TransportStats(packets_sent=12, retransmits=2, delivered=9,
                           lost=1, overhead_cycles=50.0)
        assert s.delivery_rate == 0.9
        assert s.overhead_per_packet == 5.0
        assert TransportStats().delivery_rate == 1.0
        assert TransportStats().overhead_per_packet == 0.0


class TestSendFlow:
    def test_lossless_fabric(self):
        delivered, stats = send_flow(None, 0, 1, "position", 0, 10)
        assert delivered.all()
        assert stats.packets_sent == 10
        assert stats.overhead_cycles == 0.0

    def test_zero_fault_injector_has_zero_overhead(self):
        inj = FaultInjector(FaultPlan(seed=1))
        delivered, stats = send_flow(
            inj, 0, 1, "position", 0, 50, TransportConfig()
        )
        assert delivered.all()
        assert stats.retransmits == 0
        assert stats.overhead_cycles == 0.0
        assert stats.rounds == 1

    def test_bare_udp_loses_without_retry(self):
        inj = FaultInjector(FaultPlan(seed=2, drop_rate=0.5))
        delivered, stats = send_flow(inj, 0, 1, "position", 0, 200)
        assert 0 < stats.lost < 200
        assert stats.retransmits == 0
        assert stats.delivered == int(np.count_nonzero(delivered))

    def test_bare_udp_corruption_is_loss(self):
        """The NIC checksum discards corrupted packets silently."""
        inj = FaultInjector(FaultPlan(seed=2, corrupt_rate=1.0))
        delivered, stats = send_flow(inj, 0, 1, "position", 0, 10)
        assert not delivered.any()
        assert stats.corrupt_detected == 10
        assert stats.lost == 10

    def test_retries_recover_moderate_loss(self):
        inj = FaultInjector(FaultPlan(seed=3, drop_rate=0.2))
        delivered, stats = send_flow(
            inj, 0, 1, "position", 0, 100, TransportConfig(retry_budget=8)
        )
        assert delivered.all()
        assert stats.lost == 0
        assert stats.retransmits > 0
        assert stats.overhead_cycles > 0

    def test_budget_exhaustion_loses(self):
        inj = FaultInjector(FaultPlan(seed=4, drop_rate=1.0))
        delivered, stats = send_flow(
            inj, 0, 1, "position", 0, 10, TransportConfig(retry_budget=2)
        )
        assert not delivered.any()
        assert stats.lost == 10
        assert stats.rounds == 3  # original + 2 retries
        assert stats.retransmits == 20

    def test_ack_loss_causes_duplicates_not_loss(self):
        inj = FaultInjector(FaultPlan(seed=5, drop_rate=0.3))
        _, with_acks = send_flow(
            inj, 0, 1, "position", 0, 300,
            TransportConfig(retry_budget=10, model_acks=True),
        )
        assert with_acks.lost == 0
        assert with_acks.duplicates == with_acks.ack_drops > 0

    def test_overhead_grows_with_backoff(self):
        inj = FaultInjector(FaultPlan(seed=6, drop_rate=1.0))
        _, fast = send_flow(
            inj, 0, 1, "p", 0, 4,
            TransportConfig(retry_budget=3, backoff=1.0, timeout_cycles=100.0),
        )
        _, slow = send_flow(
            inj, 0, 1, "p", 0, 4,
            TransportConfig(retry_budget=3, backoff=2.0, timeout_cycles=100.0),
        )
        assert slow.overhead_cycles > fast.overhead_cycles

    def test_empty_flow(self):
        delivered, stats = send_flow(
            FaultInjector(FaultPlan(drop_rate=1.0)), 0, 1, "p", 0, 0
        )
        assert len(delivered) == 0
        assert stats.packets_sent == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            send_flow(None, 0, 1, "p", 0, -1)
