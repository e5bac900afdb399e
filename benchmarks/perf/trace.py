"""Outside-in span tracer for the host-time benchmark.

Timing wrappers are installed on the public seams listed in
:mod:`seams`, the workload runs once, and the wrappers are removed again.
Spans are aggregated in memory as a call tree keyed by seam name: a
node's *self* time is its total minus the totals of its children, so the
self times of one tree sum exactly to the root's total.

Nothing here imports ``repro.obs.profiling``: the tracer measures the
program from the benchmark's own files and the program does not know it
is being measured.
"""

from __future__ import annotations

import importlib
import types
from contextlib import contextmanager
from time import perf_counter_ns


class SeamError(RuntimeError):
    """A seam that does not resolve, or a wrapper that was not removed."""


class Node:
    __slots__ = ("name", "calls", "total_ns", "children", "samples")

    def __init__(self, name: str, keep: bool = False):
        self.name = name
        self.calls = 0
        self.total_ns = 0
        self.children: dict[str, Node] = {}
        #: per-call durations, kept only for seams that report a median/max
        self.samples: list[int] | None = [] if keep else None

    @property
    def self_ns(self) -> int:
        return self.total_ns - sum(c.total_ns for c in self.children.values())

    def walk(self, prefix: tuple[str, ...] = ()):
        path = prefix + (self.name,)
        yield path, self
        for child in self.children.values():
            yield from child.walk(path)


def resolve(target: str):
    """``"pkg.mod.Class.attr"`` → ``(owner, attr, plain function)``.

    Fails closed: the name must resolve, and to a plain Python function
    defined on that very owner, so a rename or a move in ``src/`` can
    never silently zero a layer.
    """
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            original = vars(owner)[parts[-1]]
        except (AttributeError, KeyError):
            break
        if not isinstance(original, types.FunctionType):
            raise SeamError(f"seam {target} is not a plain function")
        return owner, parts[-1], original
    raise SeamError(f"seam {target} does not resolve")


class Tracer:
    """One traced pass: a span tree, seam call counts and watched objects."""

    def __init__(self):
        self.root = Node("bench.pass")
        self._stack = [self.root]
        #: id → object whose counters are read when the pass ends
        self.watched: dict[str, dict[int, object]] = {}

    def wrap(self, fn, name: str, keep: bool = False, watch: bool = False):
        """A timing wrapper around ``fn`` that records span ``name``."""
        stack = self._stack
        watched = self.watched.setdefault(name, {}) if watch else None

        def traced(*args, **kwargs):
            children = stack[-1].children
            node = children.get(name)
            if node is None:
                node = children[name] = Node(name, keep)
            stack.append(node)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                node.calls += 1
                node.total_ns += elapsed
                if keep:
                    node.samples.append(elapsed)
                if watched is not None:
                    watched[id(args[0])] = args[0]

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: dict[str, tuple[bool, bool]]):
        """Patch every ``target → (keep, watch)``, time the body as the
        root span, restore, and verify each original is back by identity."""
        installed = []
        for target, (keep, watch) in targets.items():
            owner, attr, original = resolve(target)
            setattr(owner, attr, self.wrap(original, span_name(target), keep, watch))
            installed.append((target, owner, attr, original))
        start = perf_counter_ns()
        try:
            yield self
        finally:
            self.root.total_ns = perf_counter_ns() - start
            self.root.calls = 1
            for _target, owner, attr, original in installed:
                setattr(owner, attr, original)
            leftover = [
                target for target, owner, attr, original in installed
                if vars(owner).get(attr) is not original
            ]
            if leftover:
                raise SeamError(f"wrapper left installed on {leftover}")

    # -- aggregation -----------------------------------------------------
    def nodes(self, name: str) -> list[Node]:
        return [node for _path, node in self.root.walk() if node.name == name]

    def paths(self) -> list[dict]:
        """The tree flattened by call path, heaviest self time first."""
        rows = [
            {
                "path": ";".join(path),
                "calls": node.calls,
                "total_ns": node.total_ns,
                "self_ns": node.self_ns,
            }
            for path, node in self.root.walk()
        ]
        return sorted(rows, key=lambda row: -row["self_ns"])


def span_name(target: str) -> str:
    """Seam targets are named without the shared ``repro.`` prefix."""
    return target.removeprefix("repro.")
