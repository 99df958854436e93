"""Atomic cross-shard transactions: 2PC over the per-shard WALs.

The sharded engine gives every shard copy an independent write-ahead
log; this package adds the layer that makes a *multi-shard* write
atomic across all of them.  A
:class:`~repro.txn.coordinator.TransactionCoordinator` runs classical
presumed-abort two-phase commit: participants journal ``prepare``
records in their own WALs and hold their before-images in-doubt, the
coordinator forces its verdict onto a dedicated
:class:`~repro.txn.log.DecisionLog` (the decision force *is* the commit
point), and recovery replays that log to drive every shard to
all-committed or all-aborted — never a mix.

Every durable step is priced on the simulated clock, every device
(coordinator log, shard WALs, shard data disks) carries a deterministic
crash hook, and the crash-schedule explorer in ``tools.crashgrid``
re-executes the workload with a crash at *every* append index to prove
the atomicity claim exhaustively.  See ``docs/ROBUSTNESS.md``.
"""

from ..telemetry import compat_aliases
from .coordinator import TransactionCoordinator, TxnRecoveryReport, TxnResult
from .errors import CoordinatorStateError, TxnAbortedError, TxnError
from .events import TxnEvent
from .log import DecisionLog

# Kept only for the frozen benchmark harness; deleted by the harness-v2 PR.
register_txn_observer, unregister_txn_observer = compat_aliases(TxnEvent)

__all__ = [
    "CoordinatorStateError",
    "DecisionLog",
    "TransactionCoordinator",
    "TxnAbortedError",
    "TxnError",
    "TxnEvent",
    "TxnRecoveryReport",
    "TxnResult",
]
