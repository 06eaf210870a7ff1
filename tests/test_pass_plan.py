"""The datapath pass plans check every operand that is new to them.

A :class:`~repro.md.backends.PassPlan` checks a state's layout and
tables once per layout version and a pass's banks and counters once
per ``out``, keeping the compiled kernel's bound arguments while they
hold.  Whatever is swapped after a successful pass is therefore checked
before a kernel reads it: a layout stream of another dtype and a
strided bank are refused on both backends, on the machine's whole-box
state and on a distributed node's view, and node passes whose scratch
was dropped between steps bind the new buffers and stay bitwise those
of an untouched run.  The one-shot refusals of the compiled wrapper are
in ``tests/test_index_streams.py``.
"""

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.md.backends import available_backends
from repro.md.dataset import build_dataset
from repro.util.errors import ValidationError
from tests.test_distributed_fold import _warm_system

BACKENDS = available_backends()
DIMS = (4, 4, 4)


def _distributed(name: str) -> DistributedMachine:
    d = DistributedMachine(
        MachineConfig(DIMS, (2, 2, 2)), system=_warm_system(DIMS, 8, 3)
    )
    d.force_impl = name
    d.run(0)
    return d


def _int64(x):
    return x.astype(np.int64)


def _strided(bank):
    wide = np.zeros((len(bank), 6), dtype=np.float32)
    return wide[:, ::2]


@pytest.mark.parametrize("name", BACKENDS)
class TestPlanRechecksSwappedOperands:
    @pytest.mark.parametrize("field", ["a", "b", "key"])
    def test_machine_layout_stream(self, name, field):
        system, _ = build_dataset((3, 3, 3), particles_per_cell=8, seed=25)
        m = FasdaMachine(MachineConfig((3, 3, 3)), system=system)
        m.force_impl = name
        m.compute_forces(collect_traffic=False)
        lay = m.ensure_cell_state().pairs
        setattr(lay, field, _int64(getattr(lay, field)))
        with pytest.raises(ValidationError, match="int32"):
            m.compute_forces(collect_traffic=False)

    def test_node_layout_stream(self, name):
        d = _distributed(name)
        node = d._nodes_cache[0]
        d._evaluate_node(node)
        lay = d._node_states[0][0].pairs
        lay.a = _int64(lay.a)
        with pytest.raises(ValidationError, match="int32"):
            d._evaluate_node(node)

    def test_node_bank(self, name):
        d = _distributed(name)
        node = d._nodes_cache[1]
        d._evaluate_node(node)
        out = d._node_states[1][0].artifacts["machine"].out
        out.nbr_bank = _strided(out.nbr_bank)
        with pytest.raises(ValidationError, match="operands"):
            d._evaluate_node(node)

    def test_node_tables(self, name):
        d = _distributed(name)
        node = d._nodes_cache[2]
        d._evaluate_node(node)
        art = d._node_states[2][0].artifacts["machine"]
        art.tables = art.tables._replace(coef=art.tables.coef[:3])
        with pytest.raises(ValidationError, match="operands"):
            d._evaluate_node(node)


@pytest.mark.parametrize("name", BACKENDS)
def test_dropped_scratch_is_bound_again(name):
    """Every node's scratch and ``out`` dropped before every pass: the
    plans bind the new buffers, and the run stays bitwise an untouched
    one."""
    kept, dropped = _distributed(name), _distributed(name)
    for _ in range(24):
        for state, arena in dropped._node_states.values():
            arena._bufs.clear()
            state.artifacts["machine"].out = None
        kept.step()
        dropped.step()
    states = [s for s, _ in dropped._node_states.values()]
    assert sum(s.updates for s in states) > 0
    assert np.array_equal(kept.forces, dropped.forces)
    assert np.array_equal(kept.system.positions, dropped.system.positions)
    assert kept.total_force_packets == dropped.total_force_packets
