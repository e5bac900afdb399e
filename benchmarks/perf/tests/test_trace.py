"""Tracer arithmetic and the fail-closed seam roster."""

import time

import pytest
from perf import seams
from perf.trace import SeamError, Tracer, resolve


def _spin(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def test_self_times_sum_to_root_and_children_fit_in_parents():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: _spin(200_000), "leaf")

    def middle():
        _spin(100_000)
        leaf()
        leaf()

    middle = tracer.wrap(middle, "middle", keep=True)

    def outer():
        middle()
        leaf()
        middle()

    outer = tracer.wrap(outer, "outer")
    with tracer.installed({}):
        outer()
        _spin(50_000)
    nodes = [node for _path, node in tracer.root.walk()]
    assert sum(node.self_ns for node in nodes) == tracer.root.total_ns
    for node in nodes:
        assert node.self_ns >= 0
        for child in node.children.values():
            assert child.total_ns <= node.total_ns
    (mid,) = tracer.nodes("middle")
    assert mid.calls == 2 and len(mid.samples) == 2
    assert mid.children["leaf"].calls == 4
    # the same span under two parents stays two paths
    assert sorted(n.calls for n in tracer.nodes("leaf")) == [1, 4]
    assert {row["path"] for row in tracer.paths()} == {
        "bench.pass", "bench.pass;outer", "bench.pass;outer;middle",
        "bench.pass;outer;middle;leaf", "bench.pass;outer;leaf",
    }


def test_an_exception_still_closes_the_span():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    boom = tracer.wrap(boom, "boom")
    with tracer.installed({}):
        with pytest.raises(ValueError):
            boom()
        assert tracer._stack == [tracer.root]
    assert tracer.nodes("boom")[0].calls == 1


def test_every_seam_resolves_and_is_restored_by_identity():
    targets = seams.install_targets()
    before = {target: resolve(target) for target in targets}
    tracer = Tracer()
    with tracer.installed(targets):
        for target, (owner, attr, original) in before.items():
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
    for target, (owner, attr, original) in before.items():
        assert vars(owner)[attr] is original, target


@pytest.mark.parametrize("target", [
    "repro.sim.events.Environment.no_such_method",
    "repro.no_such_module.thing",
    "repro.sim.events.Event.triggered",       # a property, not a function
    "repro.apps.memcached.server.MemcachedServer.handle",  # inherited
])
def test_a_seam_that_does_not_resolve_fails_closed(target):
    with pytest.raises(SeamError, match=target.rsplit(".", 1)[0]):
        with Tracer().installed({target: (False, False)}):
            pass

