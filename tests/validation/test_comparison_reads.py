"""A comparison reads; it does not copy.  Counts, not clocks.

With the default comparator, validating a closure log serializes nothing
and rebuilds no pointer-free subtree: the APP versions and the private
heap's writes are walked where they lie.  Before the lockstep walk each
output version cost two ``canonicalize_ptrs`` copies and two ``serialize``
calls (6,700 and 5,094 per 800 ``lsm_write`` operations), so the first
test fails at that commit on its first assertion.
"""

import ast
import inspect
import textwrap

import pytest

from repro.closures.annotation import closure
from repro.closures.context import ExecutionContext
from repro.harness.scenarios import lsmtree_scenario, masstree_scenario
from repro.memory.pointer import orthrus_new
from repro.runtime.orthrus import OrthrusRuntime
from repro.validation import comparator


def _holds_no_pointer_or_list(value) -> bool:
    if type(value) is tuple:
        return all(_holds_no_pointer_or_list(item) for item in value)
    return type(value) in (int, str, float, type(None), bool, bytes)


@pytest.mark.parametrize("scenario", [lsmtree_scenario, masstree_scenario], ids=["lsmtree", "masstree"])
def test_default_validation_serializes_nothing_and_rebuilds_no_quiet_tuple(scenario, monkeypatch):
    runtime = OrthrusRuntime(mode="queued")
    scenario = scenario()
    server = scenario.build(runtime)
    if scenario.setup is not None:
        scenario.setup(server)
    for op in scenario.make_ops(200, 3):
        server.handle(op)
    pending = runtime.queues.pending
    assert pending >= 200

    serialized = []
    real_serialize = comparator.serialize
    monkeypatch.setattr(
        comparator, "serialize", lambda value: serialized.append(value) or real_serialize(value)
    )
    # the canonicaliser's own recursion resolves this name per item, so
    # every subtree a walk enters is seen
    walked = []
    real_canon = comparator.canonicalize_ptrs

    def watching(value, canon):
        out = real_canon(value, canon)
        walked.append((value, out))
        return out

    monkeypatch.setattr(comparator, "canonicalize_ptrs", watching)
    with runtime:
        assert runtime.drain() == pending
    assert runtime.validator.validated_count == pending
    assert runtime.detections == 0

    assert serialized == []
    quiet = [(value, out) for value, out in walked if _holds_no_pointer_or_list(value)]
    assert quiet, "the VAL return values pass through the canonicaliser"
    assert all(out is value for value, out in quiet)
    # and nothing but those return values was canonicalised at all: one
    # top-level call per validated log, none per output version
    top_level = len(walked) - sum(
        len(value) for value, _ in walked if type(value) in (tuple, list)
    )
    assert top_level <= pending


def test_execution_context_canonicalize_has_no_body_of_its_own():
    source = textwrap.dedent(inspect.getsource(ExecutionContext.canonicalize))
    body = ast.parse(source).body[0].body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    assert [type(node) for node in body] == [ast.ImportFrom, ast.Return]
    assert [alias.name for alias in body[0].names] == ["canonicalize_ptrs"]
    call = body[1].value
    assert isinstance(call, ast.Call) and call.func.id == "canonicalize_ptrs"


_ROWS = [["k1", 1], ["k2", 2]]


@closure(name="reads_test.scan")
def scan(with_pointer):
    tail = orthrus_new(0) if with_pointer else None
    return ("rows", _ROWS, (("quiet", 1.5), tail))


@pytest.mark.parametrize("with_pointer", [False, True])
def test_log_retval_never_aliases_a_list_the_closure_returned(with_pointer):
    runtime = OrthrusRuntime(mode="queued")
    with runtime:
        returned = scan(with_pointer)
        log = runtime.queues.drain()[0]
    assert returned[1] is _ROWS
    assert log.retval[:2] == ("rows", [["k1", 1], ["k2", 2]])
    assert log.retval[1] is not _ROWS
    assert all(mine is not theirs for mine, theirs in zip(log.retval[1], _ROWS))
    assert log.retval[2] == (("quiet", 1.5), ("ptr:new", 0) if with_pointer else None)
    # the caller mutating its list afterwards cannot reach into the log
    _ROWS[0].append("mutated")
    try:
        assert log.retval[1] == [["k1", 1], ["k2", 2]]
    finally:
        _ROWS[0].pop()
