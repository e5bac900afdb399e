"""Result comparison between the original and the re-executed closure (§3.3).

The default comparison is the paper's bitwise memory compare, answered by
reading: :func:`payloads_match` walks the APP and the VAL payload together
and compares leaves in place (floats by their IEEE bits), mapping each
pointer through its side's allocation-order canonicalization as it is met.
Shapes the walk does not know are materialized, canonically serialized
(type-tagged, bit-exact) and compared as byte strings — the general case.
Closures may override the comparison with a custom ``compare`` callable —
the analogue of overloading ``==`` on the output pointer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable

from repro.memory.checksum import serialize

_float_bits = struct.Struct("<d").pack


def canonicalize_ptrs(value: Any, canon: Callable[[int], Any]) -> Any:
    """Recursively replace embedded Orthrus pointers with canonical ids.

    APP and VAL re-executions allocate the "same" logical objects at
    different raw ids (shared vs shadow), so pointer-valued fields inside
    output payloads must be mapped through each side's allocation-order
    canonicalization before a bitwise comparison is meaningful (§3.3).
    A tuple subtree that holds no pointer is returned as is — it is
    immutable, so sharing it is safe; lists and dicts are always copied.
    """
    kind = type(value)
    if kind is tuple:
        for index, item in enumerate(value):
            leaf = type(item)
            if leaf is int or leaf is str or leaf is float or item is None:
                continue
            mapped = canonicalize_ptrs(item, canon)
            if mapped is not item:
                return (
                    value[:index]
                    + (mapped,)
                    + tuple(canonicalize_ptrs(rest, canon) for rest in value[index + 1 :])
                )
        return value
    if kind is int or kind is str or kind is float or value is None:
        return value
    if getattr(value, "__orthrus_ptr__", False):
        return canon(value.obj_id)
    if isinstance(value, tuple):
        return tuple(canonicalize_ptrs(item, canon) for item in value)
    if isinstance(value, list):
        return [canonicalize_ptrs(item, canon) for item in value]
    if isinstance(value, dict):
        return {key: canonicalize_ptrs(item, canon) for key, item in value.items()}
    return value


def payloads_match(
    a: Any,
    b: Any,
    canon_a: Callable[[int], Any] | None = None,
    canon_b: Callable[[int], Any] | None = None,
) -> bool:
    """Bitwise comparison of two payloads, read in lockstep.

    Equal to comparing the canonical serializations of
    ``canonicalize_ptrs(a, canon_a)`` and ``canonicalize_ptrs(b, canon_b)``
    (``None``: pointers stay pointers): IEEE-754 doubles are compared by
    their bits, so ``nan == nan`` here and ``0.0 != -0.0``, and distinct
    types never match — a memcmp over the two memory regions.  Falls back
    to ``==`` for payloads the canonical serializer does not cover.
    """
    try:
        return _match(a, b, canon_a, canon_b)
    except TypeError:
        return bool(_canonical(a, canon_a) == _canonical(b, canon_b))


def _canonical(value: Any, canon) -> Any:
    return value if canon is None else canonicalize_ptrs(value, canon)


def _match(a: Any, b: Any, canon_a, canon_b) -> bool:
    kind = type(a)
    if kind is type(b):
        if kind is tuple or kind is list:
            if len(a) != len(b):
                return False
            for x, y in zip(a, b):
                leaf = type(x)
                if leaf is type(y):
                    if leaf is int or leaf is str:
                        if x != y:
                            return False
                        continue
                    if x is None:
                        continue
                    if leaf is float:
                        if _float_bits(x) != _float_bits(y):
                            return False
                        continue
                if not _match(x, y, canon_a, canon_b):
                    return False
            return True
        if kind is int or kind is str or kind is bool:
            return a == b
        if a is None:
            return True
        if kind is float:
            return _float_bits(a) == _float_bits(b)
        if (
            canon_a is not None
            and canon_b is not None
            and getattr(a, "__orthrus_ptr__", False)
            and getattr(b, "__orthrus_ptr__", False)
        ):
            return _match(canon_a(a.obj_id), canon_b(b.obj_id), None, None)
    # The general case: differing types, dicts, bytes, @user_data, builtin
    # subclasses, a pointer opposite a non-pointer — materialize both
    # canonical values and compare their serializations.
    return serialize(_canonical(a, canon_a)) == serialize(_canonical(b, canon_b))


def values_equal(a: Any, b: Any) -> bool:
    """:func:`payloads_match` for two payloads whose pointers are not mapped."""
    return payloads_match(a, b)


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """Outcome of comparing one APP execution against its VAL re-execution."""

    matches: bool
    detail: str = ""

    @staticmethod
    def ok() -> "ComparisonResult":
        return ComparisonResult(True)

    @staticmethod
    def mismatch(detail: str) -> "ComparisonResult":
        return ComparisonResult(False, detail)


def compare_execution(
    app_outputs: list[Any],
    val_outputs: list[Any],
    app_retval: Any,
    val_retval: Any,
    app_deletes: list[Any],
    val_deletes: list[Any],
    compare: Callable[[Any, Any], bool] | None = None,
) -> ComparisonResult:
    """Compare the full observable effect of a closure execution.

    Outputs are the version payloads created by stores/allocations, in
    creation order (§3.1: the output is the set of new data versions plus
    the return value); a count difference means the two executions took
    different paths.  ``compare`` overrides per-value output comparison.
    """
    equal = compare if compare is not None else values_equal
    if len(app_outputs) != len(val_outputs):
        return ComparisonResult.mismatch(
            f"output count diverged: app={len(app_outputs)} val={len(val_outputs)}"
        )
    for index, (app_value, val_value) in enumerate(zip(app_outputs, val_outputs)):
        if not equal(app_value, val_value):
            return ComparisonResult.mismatch(f"output #{index} diverged")
    if app_deletes != val_deletes:
        return ComparisonResult.mismatch("delete sets diverged")
    if not values_equal(app_retval, val_retval):
        return ComparisonResult.mismatch("return value diverged")
    return ComparisonResult.ok()
