"""Fault injection and resilience modelling for the FASDA cluster.

See :mod:`repro.faults.plan` for the deterministic injector and
:mod:`repro.faults.transport` for the reliable-transport model the
harness weighs against the paper's bare-UDP + cooldown operating point.
"""

from repro.faults.degradation import DegradationRecord
from repro.faults.health import (
    GuardConfig,
    JobChaosPlan,
    PoisonRecord,
    check_system_finite,
)
from repro.faults.nodes import (
    NodeFaultEvent,
    NodeFaultInjector,
    NodeFaultPlan,
    RecoveryRecord,
    RescaleAbortedRecord,
    RescaleRecord,
)
from repro.faults.plan import (
    CLEAN,
    ChannelInjector,
    FaultDecision,
    FaultInjector,
    FaultPlan,
)
from repro.faults.transport import (
    ACK_SUFFIX,
    FlowOutcome,
    TransportConfig,
    TransportStats,
    send_flow,
    send_flows,
)

__all__ = [
    "ACK_SUFFIX",
    "CLEAN",
    "ChannelInjector",
    "DegradationRecord",
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "FlowOutcome",
    "GuardConfig",
    "JobChaosPlan",
    "PoisonRecord",
    "check_system_finite",
    "NodeFaultEvent",
    "NodeFaultInjector",
    "NodeFaultPlan",
    "RecoveryRecord",
    "RescaleAbortedRecord",
    "RescaleRecord",
    "TransportConfig",
    "TransportStats",
    "send_flow",
    "send_flows",
]
