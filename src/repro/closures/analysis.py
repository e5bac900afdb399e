"""Static closure analysis: the Python analogue of the Orthrus compiler pass.

The LLVM-based Orthrus compiler performs two analyses over each annotated
closure (§3.2, §3.5): it identifies the instruction types the closure
contains — tagging fp/vector closures for elevated validation priority —
and runs an escape analysis so non-escaping temporaries stay on the private
heap.  Here the same information is recovered from CPython bytecode and
AST:

* :func:`infer_units` scans the closure's bytecode (including nested/helper
  code objects) for ops-API attribute accesses (``fadd``, ``vdot``,
  ``atomic_add``, ...) and maps them to functional units.
* :func:`analyze_escapes` inspects the AST to report which
  ``orthrus_new`` allocations escape the closure (returned or stored into
  user data) versus staying local — the paper's private-heap optimization.
"""

from __future__ import annotations

import ast
import dis
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.machine.units import Unit

#: ops-API attribute → functional unit.  Mirrors the opcode classification
#: rules of the profiling phase (§A.3.2).
OP_UNITS: dict[str, Unit] = {
    # ALU
    "add": Unit.ALU, "sub": Unit.ALU, "mul": Unit.ALU, "div": Unit.ALU,
    "mod": Unit.ALU, "xor": Unit.ALU, "and_": Unit.ALU, "or_": Unit.ALU,
    "shl": Unit.ALU, "shr": Unit.ALU, "lt": Unit.ALU, "le": Unit.ALU,
    "eq": Unit.ALU, "hash64": Unit.ALU, "copy": Unit.ALU, "copy_length": Unit.ALU,
    # FPU
    "fadd": Unit.FPU, "fsub": Unit.FPU, "fmul": Unit.FPU, "fdiv": Unit.FPU,
    # SIMD
    "vadd": Unit.SIMD, "vsub": Unit.SIMD, "vmul": Unit.SIMD,
    "vdot": Unit.SIMD, "vsum": Unit.SIMD,
    # CACHE
    "atomic_read": Unit.CACHE, "atomic_write": Unit.CACHE,
    "atomic_add": Unit.CACHE, "cas": Unit.CACHE,
    "load_shared": Unit.CACHE, "store_shared": Unit.CACHE,
}


def _iter_code_objects(code) -> Iterator:
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _iter_code_objects(const)


def infer_units(fn: Callable) -> frozenset[Unit]:
    """Functional units whose instructions ``fn`` may issue.

    A static over-approximation: any ops-API attribute name that appears in
    the bytecode counts, whether or not the path executes.  This matches
    the compile-time tagging of §3.5 (which also cannot know dynamic
    frequencies) and is refined at runtime by the trace on each log.
    """
    units: set[Unit] = set()
    try:
        code = fn.__code__
    except AttributeError:
        return frozenset()
    for obj in _iter_code_objects(code):
        for instruction in dis.get_instructions(obj):
            if instruction.opname in ("LOAD_ATTR", "LOAD_METHOD"):
                name = instruction.argval
                unit = OP_UNITS.get(name)
                if unit is not None:
                    units.add(unit)
    return frozenset(units)


@dataclass
class EscapeReport:
    """Result of the escape-analysis pass over one closure.

    Attributes:
        escaping: local names bound to ``orthrus_new`` results that may
            outlive the closure (returned, stored into user data, written
            to an enclosing scope) — these must live in versioned memory.
        local: allocation-bound names proven not to escape — eligible for
            the private heap (their corruption is only caught if it
            propagates to user data, §3.2).
    """

    escaping: set[str] = field(default_factory=set)
    local: set[str] = field(default_factory=set)

    @property
    def private_heap_eligible(self) -> frozenset[str]:
        return frozenset(self.local)


_ALLOC_CALLEES = {"orthrus_new", "allocate"}


def _allocation_targets(tree: ast.AST) -> set[str]:
    targets: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        call = node.value
        if not isinstance(call, ast.Call):
            continue
        callee = call.func
        name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
        if name not in _ALLOC_CALLEES:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                targets.add(target.id)
    return targets


def analyze_escapes(fn: Callable) -> EscapeReport:
    """Classify ``orthrus_new`` allocations in ``fn`` as escaping or local.

    An allocation escapes when its name is returned, passed to a call other
    than ``load``/``store`` on itself, stored into a container/attribute,
    or declared nonlocal/global.  Conservative in the escape direction
    (like the real pass): anything ambiguous is treated as escaping.
    """
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError):
        return EscapeReport()
    tree = ast.parse(source)
    allocated = _allocation_targets(tree)
    if not allocated:
        return EscapeReport()

    escaping: set[str] = set()

    class _Visitor(ast.NodeVisitor):
        def visit_Return(self, node: ast.Return) -> None:
            for name in _names_in(node.value):
                if name in allocated:
                    escaping.add(name)
            self.generic_visit(node)

        def visit_Call(self, node: ast.Call) -> None:
            # ptr.load()/ptr.store(x) on the allocation itself is not an
            # escape; passing the pointer to any other call is.
            safe_self = (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.attr in ("load", "store", "delete")
            )
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for name in _names_in(arg):
                    if name in allocated:
                        escaping.add(name)
            if not safe_self and isinstance(node.func, ast.Attribute):
                value = node.func.value
                if isinstance(value, ast.Name) and value.id in allocated:
                    escaping.add(value.id)
            self.generic_visit(node)

        def visit_Assign(self, node: ast.Assign) -> None:
            # Storing the pointer into a subscript/attribute lets it outlive
            # the frame.
            stores_out = any(
                isinstance(t, (ast.Subscript, ast.Attribute)) for t in node.targets
            )
            if stores_out:
                for name in _names_in(node.value):
                    if name in allocated:
                        escaping.add(name)
            self.generic_visit(node)

        def visit_Global(self, node: ast.Global) -> None:
            escaping.update(n for n in node.names if n in allocated)

        def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
            escaping.update(n for n in node.names if n in allocated)

    _Visitor().visit(tree)
    return EscapeReport(escaping=escaping, local=allocated - escaping)


def _names_in(node: ast.AST | None) -> Iterator[str]:
    if node is None:
        return
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
