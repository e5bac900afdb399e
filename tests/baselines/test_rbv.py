"""RBV baseline tests: the DES replica of ``run_rbv_server``.

Memcached, 200 ops, the fault armed on the primary's app core 0 after the
preload, on seeds 1, 2 and 7.  The replica replays every request on a
healthy machine, so a silent corruption on the primary shows up as
diverging responses, and a fault that crashes only the primary still
leaves a detection behind.
"""

from repro.harness.pipeline import PipelineConfig, run_rbv_server
from repro.harness.scenarios import memcached_scenario
from repro.machine.faults import Fault, FaultKind
from repro.machine.instruction import Site
from repro.machine.units import Unit

SEEDS = (1, 2, 7)


def _run(seed: int, fault: Fault | None = None):
    config = PipelineConfig(seed=seed, deferred_faults=((0, fault),) if fault else ())
    return run_rbv_server(memcached_scenario(), 200, config)


def _bitflip(bit: int, closure: str, op: str, index: int) -> Fault:
    return Fault(unit=Unit.ALU, kind=FaultKind.BITFLIP, bit=bit,
                 site=Site(closure, op, index))


class TestCleanRuns:
    def test_no_false_positives(self):
        for seed in SEEDS:
            result = _run(seed)
            assert not result.crashed, result.crash_reason
            assert result.rbv_detections == 0, seed
            assert result.metrics.validated == 200, seed


class TestDetection:
    #: seed -> diverging responses; every set on core 0 stores a wrong
    #: item, and every later read of it diverges from the replica's
    SILENT = {1: 10, 2: 28, 7: 14}

    def _detections(self, fault: Fault) -> dict:
        detections = {}
        for seed in SEEDS:
            result = _run(seed, fault)
            assert not result.crashed, result.crash_reason
            detections[seed] = result.rbv_detections
        return detections

    def test_data_path_fault_detected(self):
        assert self._detections(_bitflip(2, "mc.set", "hash64", 0)) == self.SILENT

    def test_control_payload_fault_detected(self):
        assert self._detections(_bitflip(100, "mc.control.rx", "copy", 0)) == self.SILENT

    @staticmethod
    def _crashes_and_detects(fault: Fault) -> None:
        for seed in SEEDS:
            result = _run(seed, fault)
            assert result.crashed, seed
            assert result.rbv_detections >= 1, seed

    def test_control_dispatch_fault_detected(self):
        # The class of faults Orthrus cannot see: a flipped comparison in
        # the dispatcher.  Here it crashes the primary, and the replica's
        # diverging replay still counts.
        self._crashes_and_detects(_bitflip(0, "mc.control.dispatch", "eq", 1))

    def test_crash_divergence_detected(self):
        # A fault that crashes only the primary shows up as crash
        # divergence rather than silent corruption.
        self._crashes_and_detects(_bitflip(1, "mc.control.parse", "copy", 0))
