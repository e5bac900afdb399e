"""Developer-facing annotations: ``@closure`` and ``@user_data``.

These are the only two things a developer must do to protect an
application (§3.1): mark the classes that represent user data, and mark
the data operators — the units of validation.  The decorators are the
Python stand-in for the paper's ``#pragma closure`` / ``#pragma user-data``
plus the LLVM transformation pass: they register metadata and route
invocation through the active :class:`~repro.runtime.orthrus.OrthrusRuntime`.
The static analyses of :mod:`repro.closures.analysis` are not run here:
nothing at run time reads them (the sampler tags a log by the units it
actually issued), so a closure costs no source parse at import.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Callable

from repro.errors import NoActiveContext

#: All annotated closures, keyed by name — the campaign's injection targets
#: and the sampler's universe.
CLOSURE_REGISTRY: dict[str, "ClosureMeta"] = {}

#: All annotated user-data classes.
USER_DATA_REGISTRY: dict[str, type] = {}


def _current():
    """``repro.closures.context.current()``, imported on the first call.

    ``closures.context`` and ``runtime.orthrus`` both sit downstream of this
    module, so neither import can be at module level; as in
    ``memory.pointer._current``, the first call rebinds the name to the real
    function and later closure calls pay no import.
    """
    global _current
    from repro.closures.context import current

    _current = current
    return current()


def _active_runtime():
    """``repro.runtime.orthrus.active()``; rebinds itself like :func:`_current`."""
    global _active_runtime
    from repro.runtime.orthrus import active

    _active_runtime = active
    return active()


@dataclass
class ClosureMeta:
    """Compile-time record for one annotated data operator."""

    fn: Callable
    name: str
    compare: Callable | None


def closure(fn: Callable | None = None, *, name: str | None = None, compare: Callable | None = None):
    """Annotate a function as a data operator (a validation unit).

    The wrapped function must follow the single-threaded execution model of
    §3.1.  ``compare`` optionally overrides result comparison (the paper's
    ``==`` overload on the output pointer); the default is a structural /
    bitwise comparison.

    Invocation semantics:

    * called while another closure is executing → runs inline, as part of
      the enclosing closure's re-execution scope;
    * called under an active runtime → the runtime executes it on an
      application core, produces a closure log, and enqueues it for
      validation;
    * called bare → error, mirroring code compiled against the Orthrus
      runtime being run without it.
    """

    def decorate(func: Callable) -> Callable:
        closure_name = name or func.__qualname__
        meta = ClosureMeta(fn=func, name=closure_name, compare=compare)
        CLOSURE_REGISTRY[closure_name] = meta

        def wrapper(*args, **kwargs):
            if _current() is not None:
                return func(*args, **kwargs)
            runtime = _active_runtime()
            if runtime is None:
                raise NoActiveContext(
                    f"closure {closure_name!r} invoked without an active "
                    "OrthrusRuntime; wrap the call in `with runtime:`"
                )
            caller = sys._getframe(1).f_code.co_name
            return runtime.run_closure(meta, args, kwargs, caller=caller)

        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func
        wrapper.__orthrus_closure__ = meta
        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate


def user_data(cls: type) -> type:
    """Annotate a class as user data (§3.1).

    Instances are intended to live in versioned memory (allocate them with
    :func:`~repro.memory.pointer.orthrus_new`); the class gains a
    ``__orthrus_payload__`` method used by checksumming and comparison —
    the analogue of inheriting from ``OrthrusObj`` with its header CRC
    (Listing 7).
    """
    if dataclasses.is_dataclass(cls):
        def payload(self):
            return tuple(
                getattr(self, f.name) for f in dataclasses.fields(self)
            )
    else:
        def payload(self):
            return tuple(sorted(self.__dict__.items()))

    cls.__orthrus_payload__ = payload
    cls.__orthrus_user_data__ = True
    if not hasattr(cls, "__eq__") or cls.__eq__ is object.__eq__:
        cls.__eq__ = lambda self, other: (
            isinstance(other, type(self))
            and other.__orthrus_payload__() == self.__orthrus_payload__()
        )
        cls.__hash__ = lambda self: hash(self.__orthrus_payload__())
    USER_DATA_REGISTRY[cls.__qualname__] = cls
    return cls


def is_user_data(obj: object) -> bool:
    return getattr(type(obj), "__orthrus_user_data__", False)
