"""Validator chaos config: parsing, deterministic planning, digests."""

import pytest

from repro.errors import ConfigurationError
from repro.faultinject.validator_faults import (
    ValidatorChaosConfig,
    ValidatorFault,
    ValidatorFaultBox,
    ValidatorFaultKind,
)


class TestParse:
    def test_fraction_and_count(self):
        config = ValidatorChaosConfig.parse(["crash=0.25", "hang=2"], seed=3)
        assert config.specs == (("crash", 0.25), ("hang", 2.0))
        assert config.seed == 3

    def test_bare_kind_means_one_core(self):
        config = ValidatorChaosConfig.parse(["slowdown"])
        assert config.specs == (("slowdown", 1.0),)

    @pytest.mark.parametrize(
        "spec", ["meltdown=0.5", "crash=zero", "crash=-1", "crash=0"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            ValidatorChaosConfig.parse([spec])


class TestPlan:
    def test_fraction_rounds_up(self):
        config = ValidatorChaosConfig(specs=(("crash", 0.25),), seed=1)
        faults = config.plan([4, 5, 6, 7])
        assert len(faults) == 1
        assert faults[0].kind is ValidatorFaultKind.CRASH

    def test_amount_one_is_whole_pool_as_fraction_boundary(self):
        # amount >= 1 is an absolute count.
        config = ValidatorChaosConfig(specs=(("hang", 1),), seed=1)
        assert len(config.plan([4, 5, 6, 7])) == 1
        config = ValidatorChaosConfig(specs=(("hang", 4),), seed=1)
        assert len(config.plan([4, 5, 6, 7])) == 4

    def test_deterministic_from_seed(self):
        config = ValidatorChaosConfig(specs=(("crash", 0.5),), seed=9)
        assert config.plan([1, 2, 3, 4]) == config.plan([1, 2, 3, 4])

    def test_different_seeds_differ(self):
        plans = {
            ValidatorChaosConfig(specs=(("crash", 0.5),), seed=s).plan(
                list(range(8, 20))
            )
            for s in range(6)
        }
        assert len(plans) > 1

    def test_no_core_gets_two_faults(self):
        config = ValidatorChaosConfig(
            specs=(("crash", 2), ("hang", 2), ("slowdown", 2)), seed=4
        )
        faults = config.plan([0, 1, 2, 3])
        cores = [f.core_id for f in faults]
        assert len(cores) == len(set(cores)) == 4

    def test_plan_carries_timing_knobs(self):
        config = ValidatorChaosConfig(
            specs=(("slowdown", 1),),
            seed=2,
            arm_at=1e-3,
            duration=2e-3,
            slowdown_factor=16.0,
        )
        (fault,) = config.plan([5])
        assert fault.at == 1e-3
        assert fault.duration == 2e-3
        assert fault.slowdown_factor == 16.0

    def test_digest_stable_and_sensitive(self):
        a = ValidatorChaosConfig(specs=(("crash", 0.25),), seed=1)
        b = ValidatorChaosConfig(specs=(("crash", 0.25),), seed=1)
        c = ValidatorChaosConfig(specs=(("crash", 0.25),), seed=2)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestFaultActivation:
    def test_windowed_fault(self):
        fault = ValidatorFault(
            kind=ValidatorFaultKind.HANG, core_id=1, at=1.0, duration=2.0
        )
        assert not fault.active(0.5)
        assert fault.active(1.0)
        assert fault.active(2.9)
        assert not fault.active(3.0)

    def test_permanent_fault(self):
        fault = ValidatorFault(kind=ValidatorFaultKind.CRASH, core_id=1)
        assert fault.active(0.0) and fault.active(1e9)


class TestFaultBox:
    def test_lookup(self):
        fault = ValidatorFault(kind=ValidatorFaultKind.SLOWDOWN, core_id=3)
        box = ValidatorFaultBox((fault,))
        assert box.fault_for(3, now=0.0) is fault
        assert box.fault_for(2, now=0.0) is None
        assert box.faulted_cores == [3]

    def test_inactive_fault_invisible(self):
        fault = ValidatorFault(kind=ValidatorFaultKind.CRASH, core_id=3, at=5.0)
        box = ValidatorFaultBox((fault,))
        assert box.fault_for(3, now=1.0) is None
        assert box.fault_for(3, now=5.0) is fault

    def test_duplicate_core_rejected(self):
        faults = (
            ValidatorFault(kind=ValidatorFaultKind.CRASH, core_id=3),
            ValidatorFault(kind=ValidatorFaultKind.HANG, core_id=3),
        )
        with pytest.raises(ConfigurationError):
            ValidatorFaultBox(faults)
