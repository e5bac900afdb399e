"""Unit taxonomy tests."""

import copy
import pickle

from repro.machine.units import ALIBABA_FAULT_RATIO, CYCLE_COST, Unit


def test_all_units_have_cycle_costs():
    for unit in Unit:
        assert CYCLE_COST[unit] >= 1


def test_all_units_have_fault_ratio():
    for unit in Unit:
        assert ALIBABA_FAULT_RATIO[unit] >= 1


def test_alibaba_ratio_is_1_2_2_1():
    assert ALIBABA_FAULT_RATIO[Unit.ALU] == 1
    assert ALIBABA_FAULT_RATIO[Unit.SIMD] == 2
    assert ALIBABA_FAULT_RATIO[Unit.FPU] == 2
    assert ALIBABA_FAULT_RATIO[Unit.CACHE] == 1


def test_fp_and_vector_are_error_prone():
    assert Unit.FPU.error_prone
    assert Unit.SIMD.error_prone
    assert not Unit.ALU.error_prone
    assert not Unit.CACHE.error_prone


def test_cache_instructions_cost_most():
    assert CYCLE_COST[Unit.CACHE] > CYCLE_COST[Unit.FPU] > CYCLE_COST[Unit.ALU]


def test_members_hash_by_identity_and_stay_singletons():
    # Unit.__hash__ is object.__hash__ (Core._issue keys two dicts by unit
    # per instruction); equality was already identity, so nothing that
    # holds for an Enum key may change.
    for unit in Unit:
        assert hash(unit) == hash(unit) == object.__hash__(unit)
        assert Unit(unit.value) is unit and Unit[unit.name] is unit
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(unit, protocol)) is unit
        assert copy.deepcopy(unit) is unit
    assert len({hash(unit) for unit in Unit}) == len(Unit)


def test_members_work_as_dict_set_and_frozenset_keys():
    counts = {}
    for unit in (Unit.ALU, Unit.FPU, Unit.ALU, Unit.CACHE, Unit.ALU):
        counts[unit] = counts.get(unit, 0) + 1
    assert counts == {Unit.ALU: 3, Unit.FPU: 1, Unit.CACHE: 1}
    assert list(counts) == [Unit.ALU, Unit.FPU, Unit.CACHE]  # insertion order
    assert {Unit.SIMD, Unit("simd"), Unit["SIMD"]} == {Unit.SIMD}
    assert frozenset(Unit) == frozenset(pickle.loads(pickle.dumps(list(Unit))))
    assert Unit.SIMD in frozenset({Unit.FPU, Unit.SIMD})
    assert Unit.ALU not in frozenset({Unit.FPU, Unit.SIMD})
    # a dict keyed by units survives a pickle round trip key-for-key
    assert pickle.loads(pickle.dumps(counts)) == counts
