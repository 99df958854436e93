"""Structural validators: B+-tree shape and UB-Tree Z-region tiling.

These are the invariants the paper's algorithms *assume* rather than
re-derive: separator keys bound their subtrees, all leaves sit at the
same depth, and the Z-regions recovered from the separators tile the
universe disjointly — the property that makes the Tetris sweep's static
region keys valid (Section 3.3: "the UB-Tree partitions the
multidimensional space into Z-regions").

Everything here works duck-typed against :class:`repro.btree.bptree.
BPlusTree` and :class:`repro.core.ubtree.UBTree` so the package has no
import cycle back into the engine.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from .errors import InvariantViolation, check

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..btree.bptree import BPlusTree
    from ..core.ubtree import UBTree
    from ..storage.page import Page


def validate_leaf(
    tree: "BPlusTree", leaf: "Page", low: Any = None, high: Any = None
) -> None:
    """Local leaf contract: sorted records, bounded by separators.

    Cheap enough (O(page)) to run after every insert/delete when checks
    are enabled; ``low``/``high`` are the covering separator interval
    ``(low, high]`` when the caller knows it (``None`` = unbounded).
    """
    keys = [record[0] for record in leaf.records]
    for previous, current in zip(keys, keys[1:]):
        check(
            not current < previous,
            f"leaf {leaf.page_id} records out of key order",
        )
    if keys:
        if low is not None:
            check(
                keys[0] > low,
                f"leaf {leaf.page_id} holds key {keys[0]!r} at or below its "
                f"lower separator bound {low!r}",
            )
        if high is not None:
            check(
                keys[-1] <= high,
                f"leaf {leaf.page_id} holds key {keys[-1]!r} above its upper "
                f"separator bound {high!r}",
            )
    if len(leaf.records) > leaf.capacity:
        # legal only for an overflow page (equal-key run kept together)
        check(
            tree.overflow_pages > 0,
            f"leaf {leaf.page_id} exceeds its capacity "
            f"({len(leaf.records)}/{leaf.capacity}) but the tree reports no "
            "overflow pages",
        )


def validate_bptree(tree: "BPlusTree") -> None:
    """Full B+-tree contract: ordering, containment, arity, balance,
    occupancy and leaf-chain completeness.

    O(n); run after bulk loads and from debug entry points, not per
    operation.
    """
    leaf_depths: set[int] = set()
    over_capacity = 0
    chain_expected: list[int] = []

    def walk(page_id: int, low: Any, high: Any, depth: int) -> None:
        nonlocal over_capacity
        page = tree.disk.peek(page_id)
        if tree._is_leaf(page):
            leaf_depths.add(depth)
            validate_leaf(tree, page, low, high)
            if len(page.records) > page.capacity:
                over_capacity += 1
            chain_expected.append(page.page_id)
            return
        node = page.payload
        keys = node.keys
        for previous, current in zip(keys, keys[1:]):
            check(
                not current < previous,
                f"inner node {page_id} separator keys out of order",
            )
        check(
            len(node.children) == len(keys) + 1,
            f"inner node {page_id} arity mismatch: {len(node.children)} "
            f"children for {len(keys)} separators",
        )
        check(
            len(keys) <= tree.fanout,
            f"inner node {page_id} holds {len(keys)} separators, over the "
            f"fanout of {tree.fanout}",
        )
        bounds = [low, *keys, high]
        for index, child in enumerate(node.children):
            walk(child, bounds[index], bounds[index + 1], depth + 1)

    walk(tree.root_id, None, None, 1)

    check(
        leaf_depths == {tree.height},
        f"tree is unbalanced: leaves at depths {sorted(leaf_depths)}, "
        f"height says {tree.height}",
    )
    check(
        over_capacity <= tree.overflow_pages,
        f"{over_capacity} leaves exceed their capacity but only "
        f"{tree.overflow_pages} overflow pages are accounted for",
    )
    check(
        len(chain_expected) == tree.leaf_count,
        f"tree holds {len(chain_expected)} leaves, leaf_count says "
        f"{tree.leaf_count}",
    )

    # the sibling chain must visit exactly the in-order leaves
    chain_seen: list[int] = []
    previous_key: Any = None
    records = 0
    page_id: int | None = tree.first_leaf_id
    while page_id is not None:
        leaf = tree.disk.peek(page_id)
        chain_seen.append(page_id)
        for key, _ in leaf.records:
            check(
                previous_key is None or not key < previous_key,
                f"leaf chain key order broken at page {page_id}",
            )
            previous_key = key
            records += 1
        if len(chain_seen) > len(chain_expected):
            raise InvariantViolation("leaf chain is longer than the tree (cycle?)")
        page_id = leaf.payload["next"]
    check(
        chain_seen == chain_expected,
        "leaf sibling chain disagrees with the tree's in-order leaves",
    )
    check(
        records == tree.record_count,
        f"leaf chain holds {records} records, record_count says "
        f"{tree.record_count}",
    )


def validate_ubtree(ubtree: "UBTree") -> None:
    """Z-region partitioning contract plus the underlying tree's.

    The regions recovered from the separator keys must tile
    ``[0, address_max]`` disjointly and completely, every stored tuple
    must lie inside its region, and its stored Z-address must re-derive
    from its point — the invariants the Tetris sweep's "regions are
    disjoint, so region keys are static" argument rests on.
    """
    validate_bptree(ubtree.tree)
    # the leaf partitioning is read with ``disk.peek`` only: a checks-on
    # run must leave the pool, the I/O statistics and the fault sites
    # exactly as a checks-off run does
    lasts, page_ids = ubtree.tree.leaf_bounds()
    lasts[-1] = ubtree.space.address_max
    total = 0
    previous_last = -1
    for last, page_id in zip(lasts, page_ids):
        check(
            last > previous_last,
            f"Z-regions do not tile the universe: a region ends at {last}, "
            f"the previous one at {previous_last} (universe ends at "
            f"{ubtree.space.address_max})",
        )
        first = previous_last + 1
        previous_last = last
        for z_address, (point, _) in ubtree.tree.disk.peek(page_id).records:
            check(
                first <= z_address <= last,
                f"tuple with Z-address {z_address} stored outside its "
                f"Z-region [{first}:{last}]",
            )
            check(
                ubtree.space.z_address(point) == z_address,
                f"stored Z-address {z_address} inconsistent with point "
                f"{point}",
            )
            total += 1
    check(
        total == len(ubtree),
        f"Z-region pages hold {total} tuples, the tree counts {len(ubtree)}",
    )
