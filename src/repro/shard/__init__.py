"""Range-sharded Tetris engine with chaos-tested shard failover.

Scale-out layer over the single-node engine: ``k`` range shards along
one index dimension, each a fully independent engine instance with
optional peer copies, scattered restricted sorted scans merged back
into a stream bit-identical to the unsharded scan, and a per-shard
failure ladder (repair → retry → failover → typed loss) that never
returns silently wrong rows.
"""

from ..telemetry import compat_aliases
from .coordinator import (
    CoPartitionedJoin,
    RowSource,
    Shard,
    ShardCopy,
    ShardedDatabase,
    ShardedJoinResult,
    ShardedScanResult,
)
from .errors import ShardCopyKilledError, ShardFailedError
from .events import ShardDegradationEvent
from .merge import merge_shard_streams

# Kept only for the frozen benchmark harness; deleted by the harness-v2 PR.
register_shard_observer, unregister_shard_observer = compat_aliases(
    ShardDegradationEvent
)

__all__ = [
    "CoPartitionedJoin",
    "RowSource",
    "Shard",
    "ShardCopy",
    "ShardCopyKilledError",
    "ShardDegradationEvent",
    "ShardFailedError",
    "ShardedDatabase",
    "ShardedJoinResult",
    "ShardedScanResult",
    "merge_shard_streams",
]
