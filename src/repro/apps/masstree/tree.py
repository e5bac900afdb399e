"""Masstree-style ordered index: a B+-tree in versioned memory.

The data path of the paper's Masstree evaluation: point/range reads and
updates over a multi-level tree with leaf chaining.  Every node is a
user-data object; structural changes (leaf splits, root growth) create
bursts of new versions, which is why the paper sees Masstree's memory
overhead (35%) and its sensitivity to memory-constrained sampling
(Fig 10) — small writes trigger significant updates.

Instruction mix: ALU (key compares, branching), SIMD (vectorized in-node
key search, as in real Masstree's permuter/SSE search), CACHE (coherent
node reads under optimistic concurrency).  No floating point (Masstree's
fp-SDC column in Table 2 is zero).

Node payloads:
* leaf  — ``("leaf", keys, values, next_leaf_ptr_or_None)``
* inner — ``("inner", keys, children_ptrs)`` where ``children[i]`` holds
  keys < ``keys[i]``; ``children[-1]`` holds the rest.
"""

from __future__ import annotations

from repro.closures.annotation import closure
from repro.closures.context import ops
from repro.memory.pointer import OrthrusPtr, orthrus_new
from repro.runtime.orthrus import OrthrusRuntime

#: sentinel key padding for the fixed-width vector compare
_PAD_KEY = 1 << 60


class Masstree:
    """Handle to a B+-tree rooted in versioned memory."""

    def __init__(self, runtime: OrthrusRuntime, order: int = 8):
        if order < 4:
            raise ValueError("order must be at least 4")
        self.order = order
        empty_leaf = runtime.new(("leaf", (), (), None))
        #: versioned root holder, so root growth is itself a data write
        self.root_holder = runtime.new(("root", empty_leaf))


def _vector_search(o, keys: tuple, key: int, width: int) -> int:
    """Index of the first stored key greater than ``key``.

    One SIMD subtract across the (padded) key array models Masstree's
    vectorized in-node search; the per-lane sign tests consume its output,
    so a corrupted lane sends the descent down the wrong child.
    """
    padded = tuple(keys) + (_PAD_KEY,) * (width - len(keys))
    diffs = o.simd.vsub(padded, (key,) * width)
    for index in range(len(keys)):
        if o.alu.lt(0, diffs[index]):  # keys[index] > key
            return index
    return len(keys)


def _descend(o, tree: Masstree, key: int) -> tuple:
    """Walk from the root to the leaf covering ``key``; returns
    ``(leaf_ptr, leaf_node, path)`` where path is [(inner_ptr, child_idx)]."""
    _, root = o.cache.load_shared(tree.root_holder.load())
    node_ptr = root
    path = []
    node = o.cache.load_shared(node_ptr.load())
    while node[0] == "inner":
        _, keys, children = node
        index = _vector_search(o, keys, key, tree.order + 1)
        path.append((node_ptr, index))
        node_ptr = children[index]
        node = o.cache.load_shared(node_ptr.load())
    return node_ptr, node, path


@closure(name="mt.get")
def mt_get(tree: Masstree, key: int):
    """Point lookup (externalizing)."""
    o = ops()
    _, node, _ = _descend(o, tree, key)
    _, keys, values, _ = node
    for index in range(len(keys)):
        if o.alu.eq(keys[index], key):
            return values[index]
    return None


@closure(name="mt.update")
def mt_update(tree: Masstree, kv_ptr: OrthrusPtr):
    """Insert or update a key; splits nodes on overflow.

    ``kv_ptr`` holds the ``(key, value)`` pair received from the control
    path; the first load verifies its transported CRC.  Returns True when
    a new key was inserted, False on in-place update.
    """
    o = ops()
    key, value = kv_ptr.load()
    leaf_ptr, node, path = _descend(o, tree, key)
    _, keys, values, next_leaf = node

    position = 0
    while position < len(keys) and o.alu.lt(keys[position], key):
        position += 1
    if position < len(keys) and o.alu.eq(keys[position], key):
        new_values = values[:position] + (value,) + values[position + 1 :]
        leaf_ptr.store(o.cache.store_shared(("leaf", keys, new_values, next_leaf)))
        return False

    new_keys = keys[:position] + (key,) + keys[position:]
    new_values = values[:position] + (value,) + values[position:]
    if len(new_keys) <= tree.order:
        leaf_ptr.store(o.cache.store_shared(("leaf", new_keys, new_values, next_leaf)))
        return True

    # Leaf split: left half stays in place, right half is a new leaf.
    middle = len(new_keys) // 2
    right = orthrus_new(
        ("leaf", new_keys[middle:], new_values[middle:], next_leaf)
    )
    leaf_ptr.store(
        o.cache.store_shared(("leaf", new_keys[:middle], new_values[:middle], right))
    )
    _insert_separator(o, tree, path, new_keys[middle], leaf_ptr, right)
    return True


def _insert_separator(
    o,
    tree: Masstree,
    path: list,
    separator: int,
    left: OrthrusPtr,
    right: OrthrusPtr,
) -> None:
    """Propagate a split upward, possibly splitting inner nodes and
    growing a new root."""
    while path:
        inner_ptr, child_index = path.pop()
        _, keys, children = o.cache.load_shared(inner_ptr.load())
        new_keys = keys[:child_index] + (separator,) + keys[child_index:]
        new_children = (
            children[:child_index]
            + (left, right)
            + children[child_index + 1 :]
        )
        if len(new_keys) <= tree.order:
            inner_ptr.store(o.cache.store_shared(("inner", new_keys, new_children)))
            return
        middle = len(new_keys) // 2
        up_separator = new_keys[middle]
        right_inner = orthrus_new(
            ("inner", new_keys[middle + 1 :], new_children[middle + 1 :])
        )
        inner_ptr.store(
            o.cache.store_shared(
                ("inner", new_keys[:middle], new_children[: middle + 1])
            )
        )
        separator, left, right = up_separator, inner_ptr, right_inner
    # Root split: grow the tree by one level.
    new_root = orthrus_new(("inner", (separator,), (left, right)))
    tree.root_holder.store(o.cache.store_shared(("root", new_root)))


@closure(name="mt.remove")
def mt_remove(tree: Masstree, key: int) -> bool:
    """Delete a key from its leaf (lazy deletion: leaves may underflow but
    are never merged, as in many production B+-trees).  Returns True when
    the key existed."""
    o = ops()
    leaf_ptr, node, _ = _descend(o, tree, key)
    _, keys, values, next_leaf = node
    for index in range(len(keys)):
        if o.alu.eq(keys[index], key):
            new_keys = keys[:index] + keys[index + 1 :]
            new_values = values[:index] + values[index + 1 :]
            leaf_ptr.store(
                o.cache.store_shared(("leaf", new_keys, new_values, next_leaf))
            )
            return True
    return False


def _descend_scalar(o, tree: Masstree, key: int):
    """Scalar descent used by scans.

    Real Masstree's range scans locate the start leaf with plain compares
    and then walk the leaf chain; the vectorized in-node search is a
    point-lookup/update optimization.  Keeping scans vector-free means the
    compiler does not tag ``mt.scan`` error-prone (§3.5) — only the
    update/get paths carry SIMD instructions.
    """
    _, root = o.cache.load_shared(tree.root_holder.load())
    node_ptr = root
    node = o.cache.load_shared(node_ptr.load())
    while node[0] == "inner":
        _, keys, children = node
        index = 0
        while index < len(keys) and not o.alu.lt(key, keys[index]):
            index += 1
        node_ptr = children[index]
        node = o.cache.load_shared(node_ptr.load())
    return node


@closure(name="mt.scan")
def mt_scan(tree: Masstree, start_key: int, count: int):
    """Range query: locate ``start_key``'s leaf, scan forward through the
    leaf chain collecting up to ``count`` pairs (externalizing).  The
    pairs return as a tuple, so the response is sealed and reaches the
    client without a CRC check or a decode."""
    o = ops()
    node = _descend_scalar(o, tree, start_key)
    results: list[tuple[int, int]] = []
    while node is not None and len(results) < count:
        _, keys, values, next_leaf = node
        for index in range(len(keys)):
            if len(results) >= count:
                break
            if o.alu.le(start_key, keys[index]):
                results.append((keys[index], values[index]))
        if next_leaf is None or len(results) >= count:
            break
        node = o.cache.load_shared(next_leaf.load())
    return tuple(results)
