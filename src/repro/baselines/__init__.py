"""Comparison baselines: random sampling, offline CPU testing, same-core
replay.  The RBV baseline is a DES driver,
:func:`repro.harness.pipeline.run_rbv_server`."""

from repro.baselines.offline import OfflineCpuCheck, ScanResult
from repro.baselines.same_core_replay import SameCoreReplayValidator
from repro.runtime.sampling import RandomSampler

__all__ = [
    "OfflineCpuCheck",
    "RandomSampler",
    "SameCoreReplayValidator",
    "ScanResult",
]
