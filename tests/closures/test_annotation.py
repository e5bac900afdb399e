"""@closure / @user_data annotation behaviour."""

import os
import subprocess
import sys
from dataclasses import dataclass

import pytest

import repro

from repro.closures.analysis import infer_units
from repro.closures.annotation import (
    CLOSURE_REGISTRY,
    USER_DATA_REGISTRY,
    closure,
    is_user_data,
    user_data,
)
from repro.closures.context import ops
from repro.errors import NoActiveContext
from repro.machine.units import Unit
from repro.runtime.orthrus import OrthrusRuntime


class TestClosureDecorator:
    def test_registered_by_qualname(self):
        @closure
        def my_operator(x):
            return x

        assert "TestClosureDecorator.test_registered_by_qualname.<locals>.my_operator" in CLOSURE_REGISTRY

    def test_explicit_name(self):
        @closure(name="custom_op")
        def fn(x):
            return x

        assert "custom_op" in CLOSURE_REGISTRY
        assert CLOSURE_REGISTRY["custom_op"].fn is fn.__wrapped__ or CLOSURE_REGISTRY["custom_op"].fn

    def test_bare_invocation_raises(self):
        @closure(name="bare_op")
        def fn(x):
            return x

        with pytest.raises(NoActiveContext):
            fn(1)

    def test_invocation_under_runtime(self):
        @closure(name="runtime_op")
        def fn(x):
            return ops().alu.add(x, 1)

        runtime = OrthrusRuntime()
        with runtime:
            assert fn(4) == 5
        assert runtime.validations == 1

    def test_nested_closure_runs_inline(self):
        @closure(name="inner_op")
        def inner(x):
            return ops().alu.add(x, 1)

        @closure(name="outer_op")
        def outer(x):
            return inner(x) + 10

        runtime = OrthrusRuntime()
        with runtime:
            assert outer(0) == 11
        # Only the outer closure produced a log/validation.
        assert runtime.validations == 1

    def test_dispatch_does_not_depend_on_which_branch_ran_first(self):
        # The wrapper resolves closures.context.current and
        # runtime.orthrus.active on first use; every branch must behave the
        # same before and after that, in any order.
        @closure(name="dispatch_inner")
        def inner(x):
            return ops().alu.add(x, 1)

        @closure(name="dispatch_outer")
        def outer(x):
            return inner(x) + 10

        for _ in range(2):
            with pytest.raises(NoActiveContext, match="dispatch_outer"):
                outer(0)
            runtime = OrthrusRuntime()
            with runtime:
                assert outer(0) == 11
                assert inner(1) == 2
            assert runtime.validations == 2  # outer (inner inline) + inner

    def test_first_call_in_a_fresh_interpreter(self):
        # ``repro.closures`` imported first is the order in which a
        # module-level import of the runtime from annotation.py cycles.
        script = (
            "import repro.closures\n"
            "from repro.closures import closure, ops\n"
            "from repro.errors import NoActiveContext\n"
            "@closure(name='fresh_op')\n"
            "def fn(x):\n"
            "    return ops().alu.add(x, 1)\n"
            "try:\n"
            "    fn(1)\n"
            "except NoActiveContext:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('bare call did not raise')\n"
            "from repro.runtime.orthrus import OrthrusRuntime\n"
            "with OrthrusRuntime() as runtime:\n"
            "    assert fn(4) == 5\n"
            "assert runtime.validations == 1\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr

    def test_static_unit_tagging(self):
        @closure(name="fp_op")
        def fp_op(x):
            return ops().fpu.fmul(x, 2.0)

        @closure(name="int_op")
        def int_op(x):
            return ops().alu.add(x, 1)

        fp_units = infer_units(CLOSURE_REGISTRY["fp_op"].fn)
        assert Unit.FPU in fp_units
        assert any(unit.error_prone for unit in fp_units)
        assert not any(
            unit.error_prone for unit in infer_units(CLOSURE_REGISTRY["int_op"].fn)
        )

    def test_wrapper_preserves_metadata(self):
        @closure(name="documented_op")
        def fn(x):
            """Docs."""
            return x

        assert fn.__doc__ == "Docs."
        assert fn.__name__ == "fn"

    def test_caller_recorded_in_log(self):
        captured = {}

        @closure(name="caller_probe")
        def fn():
            return None

        runtime = OrthrusRuntime()
        runtime._on_log = lambda log: captured.setdefault("caller", log.caller)

        def some_control_function():
            fn()

        with runtime:
            some_control_function()
        assert captured["caller"] == "some_control_function"


class TestUserDataDecorator:
    def test_dataclass_payload(self):
        @user_data
        @dataclass
        class Pair:
            key: str
            value: int

        pair = Pair("k", 1)
        assert pair.__orthrus_payload__() == ("k", 1)
        assert is_user_data(pair)

    def test_plain_class_payload(self):
        @user_data
        class Blob:
            def __init__(self):
                self.b = 2
                self.a = 1

        assert Blob().__orthrus_payload__() == (("a", 1), ("b", 2))

    def test_equality_via_payload(self):
        @user_data
        class Cell:
            def __init__(self, v):
                self.v = v

        assert Cell(3) == Cell(3)
        assert Cell(3) != Cell(4)
        assert hash(Cell(3)) == hash(Cell(3))

    def test_registered(self):
        @user_data
        class Registered:
            pass

        assert any(name.endswith("Registered") for name in USER_DATA_REGISTRY)
