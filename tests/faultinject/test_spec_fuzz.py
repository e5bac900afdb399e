"""Fuzzed chaos-spec parsers: any text parses into an in-range spec or fails
closed with the library's own error — never another exception, never a
value the executed model would read differently from its audit."""

import math

from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, FaultInjectionError
from repro.faultinject.fleet_faults import (
    HostCrash,
    LinkDegradation,
    LinkPartition,
    StragglerWindow,
)
from repro.faultinject.validator_faults import ValidatorChaosConfig


def _in_range(spec) -> bool:
    """The range checks the spec types promise, restated."""
    if isinstance(spec, ValidatorChaosConfig):
        return all(0 < amount < math.inf for _, amount in spec.specs)
    if isinstance(spec, HostCrash):
        return min(spec.host, spec.at_epoch, spec.restart_after or 0) >= 0
    hosts = spec.hosts if isinstance(spec, StragglerWindow) else (spec.host_a, spec.host_b)
    return (min(*hosts, spec.at_epoch) >= 0 and spec.duration >= 1
            and 0 < getattr(spec, "factor", 1.0) < math.inf)


_PARSERS = {
    "host-crash": HostCrash.parse,
    "partition": LinkPartition.parse,
    "degradation": LinkDegradation.parse,
    "straggler": StragglerWindow.parse,
    "validator": lambda text: ValidatorChaosConfig.parse([text]),
}
#: numbers of every shape the grammars meet: signs, exponents, nan/inf, junk
_NUMBER = st.integers(-3, 12).map(str) | st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "-0.5", "0.0", "2.5", "", "x", " 1"]
)
#: near-miss spec text: each grammar's shape over those numbers, plus
#: arbitrary text
_SPECISH = st.one_of(
    st.tuples(_NUMBER, _NUMBER, _NUMBER).map("{0[0]}@{0[1]}+{0[2]}".format),
    st.tuples(_NUMBER, _NUMBER).map("{0[0]}@{0[1]}".format),
    st.tuples(*[_NUMBER] * 5).map("{0[0]}-{0[1]}@{0[2]}+{0[3]}:{0[4]}".format),
    st.tuples(*[_NUMBER] * 5).map("{0[0]},{0[1]}@{0[2]}+{0[3]}:{0[4]}".format),
    st.tuples(st.sampled_from(["crash", "hang", "slowdown", "verdict-loss", "x"]),
              _NUMBER).map("{0[0]}={0[1]}".format),
    st.text(max_size=16),
)


@settings(max_examples=200, deadline=None)
@given(parser=st.sampled_from(sorted(_PARSERS)), text=_SPECISH)
def test_spec_parsers_fail_closed(parser, text):
    try:
        spec = _PARSERS[parser](text)
    except (FaultInjectionError, ConfigurationError):
        return
    assert _in_range(spec), spec
