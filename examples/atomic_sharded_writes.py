"""Atomic cross-shard writes: every shard commits, or none does.

Builds a range-sharded table with a write-ahead log on every shard and
attaches a two-phase-commit coordinator.  Then the disk under one shard
starts failing every read: the next insert batch reaches the healthy
shards first, fails on that one with a typed error, and the coordinator
rolls every shard back — each shard's rows, pages and tree descriptors
end exactly where they were.  With the disk healthy again, the same
batch commits everywhere.

Run:  python examples/atomic_sharded_writes.py
"""

import random

from repro.relational import Attribute, IntEncoder, Schema
from repro.shard import ShardedDatabase
from repro.storage import NO_RETRY, FaultPlan
from repro.txn import TransactionCoordinator, TxnAbortedError


def shard_state(sdb: ShardedDatabase) -> tuple:
    """Every shard's rows in sort order, plus its row count."""
    result = sdb.sorted_scan(None, "day")
    return tuple(result.rows), result.per_shard_rows


def main() -> None:
    schema = Schema(
        [
            Attribute("key", IntEncoder(0, 1023)),
            Attribute("day", IntEncoder(0, 1023)),
            Attribute("amount", IntEncoder(0, 10**6)),
        ]
    )
    rng = random.Random(7)
    rows = [(rng.randrange(1024), rng.randrange(1024), n) for n in range(600)]
    batch = [(rng.randrange(1024), rng.randrange(1024), n) for n in range(40)]

    # shard 2's disk fails every read once its fault plan is armed, and
    # no read is retried: the first failure is the insert's
    failing = FaultPlan(seed=1, transient_rate=1.0)
    sdb = ShardedDatabase(
        schema,
        ("key", "day"),
        "key",
        shards=3,
        page_capacity=8,
        retry_policy=NO_RETRY,
        wal=True,
        fault_plans={(2, 0): failing},
    )
    txn = TransactionCoordinator(sdb)
    loaded = txn.atomic_load(rows)
    before, counts = shard_state(sdb)
    print(f"{loaded.gid}: {loaded.rows} rows committed on {loaded.participants}")
    print(f"rows per shard: {counts}")

    sdb.reset_measurement()  # cold caches: the insert must read shard 2's disk
    sdb.arm_faults()
    try:
        txn.atomic_insert(batch)
    except TxnAbortedError as exc:
        print(f"\n{exc.gid} aborted on every shard: {exc.reason}")
    else:
        raise SystemExit("the failing shard did not stop the insert")
    finally:
        sdb.disarm_faults()
    after, counts = shard_state(sdb)
    assert after == before, "an aborted insert left rows behind"
    print(f"every shard unchanged: rows per shard {counts}")

    committed = txn.atomic_insert(batch)
    after, counts = shard_state(sdb)
    print(f"\n{committed.gid} retried on a healthy disk: {committed.rows} rows")
    print(f"rows per shard: {counts}")
    assert len(after) == len(before) + len(batch)


if __name__ == "__main__":
    main()
