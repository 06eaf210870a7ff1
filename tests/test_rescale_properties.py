"""Property-based checks of ``DistributedMachine.rescale`` under faults.

A machine steps under a random fault plan (packet drops and
corruptions behind the reliable transport, node crashes and slowdowns)
and attempts an 8 <-> 4 node rescale at drawn boundaries.  Whatever the
plan:

* every rolled-back attempt leaves positions, velocities, forces and
  the FPGA grid exactly as it found them;
* the committed rescales, replayed on a fault-free machine from the
  same start, give the faulted run's final state bit for bit.

These are the checks perfbench's ``distributed-chaos`` workload makes
on its one fixed plan (``check_rollbacks`` and ``check_chaos_replay``).
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.elasticity import fpga_grid_for
from repro.faults import FaultInjector, FaultPlan, NodeFaultPlan, TransportConfig
from repro.md import build_dataset
from repro.util.errors import ConfigError

DIMS = (4, 4, 4)
NODES = (8, 4)
#: Deep enough that no position record is lost beyond recovery at the
#: drawn rates: a degraded record would change the physics, and
#: ``degradation="raise"`` turns one into a failure instead.
RETRY_BUDGET = 8
MAX_STEPS = 40


def _state(m):
    return {
        "positions": m.system.positions.copy(),
        "velocities": m.velocities.copy(),
        "forces": m.forces.copy(),
        "fpga_grid": tuple(m.config.fpga_grid),
    }


def _same(a, b):
    return all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k]
        for k in a
    )


def _machine(system, plan=None):
    kwargs = {}
    if plan is not None:
        kwargs = dict(
            injector=FaultInjector(
                FaultPlan(
                    seed=plan["seed"], drop_rate=plan["drop"],
                    corrupt_rate=plan["corrupt"],
                )
            ),
            transport=TransportConfig(retry_budget=RETRY_BUDGET),
            node_faults=NodeFaultPlan(
                seed=plan["seed"], crash_rate=plan["crash"],
                slowdown_rate=plan["slowdown"],
            ),
            degradation="raise",
            shadow_interval=5,
        )
    m = DistributedMachine(
        MachineConfig(DIMS, fpga_grid_for(DIMS, NODES[0])),
        system=system.copy(), **kwargs,
    )
    m.run(0)
    return m


plans = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "drop": st.floats(0.0, 0.05),
        "corrupt": st.floats(0.0, 0.03),
        "crash": st.floats(0.0, 0.05),
        "slowdown": st.floats(0.0, 0.05),
    }
)
#: Steps between rescale boundaries.
spacings = st.integers(2, 6)
#: Node count to rescale to at each boundary, in order.
targets = st.lists(st.sampled_from(NODES), min_size=1, max_size=9)


@pytest.fixture(scope="module")
def system():
    system, _ = build_dataset(DIMS, particles_per_cell=3, seed=31)
    return system


class TestRescaleUnderFaults:
    @settings(max_examples=10, deadline=None)
    @given(plan=plans, every=spacings, targets=targets)
    def test_rollbacks_exact_and_commits_replay_fault_free(
        self, system, plan, every, targets
    ):
        assert system.n <= 216
        targets = targets[: MAX_STEPS // every - 1]
        n_steps = every * (len(targets) + 1)
        m = _machine(system, plan)
        committed, aborts = {}, 0
        for i in range(1, n_steps + 1):
            m.step()
            if i % every or i == n_steps:
                continue
            target = targets[i // every - 1]
            if target == m.config.n_fpgas:
                with pytest.raises(ConfigError):
                    m.rescale(target)
                continue
            before = _state(m)
            if m.rescale(target):
                committed[i] = target
            else:
                aborts += 1
                assert _same(_state(m), before), m.rescale_aborted_log[-1]
        assert len(m.rescale_log) == len(committed)
        assert len(m.rescale_aborted_log) == aborts
        assert m.degradation_log == []
        event(f"rescales committed: {len(committed)}, aborted: {aborts}")

        replay = _machine(system)
        for i in range(1, n_steps + 1):
            replay.step()
            if i in committed:
                assert replay.rescale(committed[i])
        assert _same(_state(m), _state(replay))
