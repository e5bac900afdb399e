"""``doctor`` audits the object a run builds.

For any values of the flags ``perf`` and ``doctor`` share, the
PipelineConfig ``doctor`` audits equals the Orthrus-arm config ``perf``
would run.  Only configs are built; nothing is simulated.
"""

from hypothesis import given, settings, strategies as st

from repro.cli import _arm_configs, _doctor_configs, build_parser
from repro.validation.queues import OVERFLOW_POLICIES

durations = st.floats(1e-6, 1e-2, allow_nan=False)
SHARED = {
    "--cores": st.integers(1, 16),
    "--canary-period": durations,
    "--canary-deadline": durations,
    "--watchdog-deadline": durations,
    "--queue-capacity": st.integers(1, 512),
    "--overflow-policy": st.sampled_from(sorted(OVERFLOW_POLICIES)),
}


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=SHARED))
def test_doctor_audits_the_config_perf_runs(flags):
    argv = [str(part) for flag, value in flags.items() for part in (flag, value)]
    parser = build_parser()
    _, perf_config = _arm_configs(parser.parse_args(["perf", *argv]))
    doctor_config, fleet = _doctor_configs(parser.parse_args(["doctor", *argv]))
    assert fleet is None
    assert doctor_config == perf_config
