"""Machine topology tests."""

import pytest

from repro.errors import ConfigurationError
from repro.machine.cpu import Machine
from repro.machine.faults import Fault, FaultKind
from repro.machine.units import Unit


def test_topology_layout():
    machine = Machine(cores_per_node=4, numa_nodes=2)
    assert len(machine) == 8
    assert machine.core(0).numa_node == 0
    assert machine.core(3).numa_node == 0
    assert machine.core(4).numa_node == 1
    assert len(machine.node_cores(1)) == 4


def test_invalid_topology_rejected():
    with pytest.raises(ConfigurationError):
        Machine(cores_per_node=0)
    with pytest.raises(ConfigurationError):
        Machine(numa_nodes=0)


def test_arm_and_disarm():
    machine = Machine(cores_per_node=2, numa_nodes=1)
    machine.arm(1, Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP))
    assert [c.core_id for c in machine.mercurial_cores] == [1]
    assert [c.core_id for c in machine.healthy_cores] == [0]
    machine.core(1).disarm()
    assert machine.mercurial_cores == []


def test_sibling_prefers_same_numa_node():
    machine = Machine(cores_per_node=4, numa_nodes=2)
    sibling = machine.sibling_core(1)
    assert sibling.core_id != 1
    assert sibling.numa_node == 0


def test_sibling_crosses_node_when_needed():
    machine = Machine(cores_per_node=1, numa_nodes=2)
    sibling = machine.sibling_core(0)
    assert sibling.core_id == 1
    assert sibling.numa_node == 1


def test_sibling_requires_two_cores():
    machine = Machine(cores_per_node=1, numa_nodes=1)
    with pytest.raises(ConfigurationError):
        machine.sibling_core(0)


def test_core_seeds_differ():
    machine = Machine(cores_per_node=2, numa_nodes=1, seed=3)
    assert machine.core(0)._rng.random() != machine.core(1)._rng.random()
