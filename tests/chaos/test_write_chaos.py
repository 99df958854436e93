"""Write-path chaos tests: torn writes during WAL-journaled bulk loads
and inserts, redo recovery, the simulated-crash rollback leg, and the
pinned degraded -> clean replica-repair seed.

These back the CI chaos job's ``python -m tools.chaos --write`` and
``--replicas 2`` steps (run with ``REPRO_CHECKS=1`` on both kernel
backends).  The write sweep already raises ``ChaosViolation`` on any
divergence from the fault-free oracle, so reaching an outcome at all
*is* the contract check.
"""

import pytest

from sweep_contract import BACKENDS, pinned, sweep_contract
from tools.chaos import SWEEPS, run_schedule


class TestWriteSweep(sweep_contract("write")):
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SWEEPS["write"].seeds)
    def test_schedule_recovers_bit_identically(self, seed, backend):
        """Every pinned write seed must tear at least one page and end
        bit-identical to a fault-free load (verified inside the run)."""
        outcome = pinned("write", seed, backend)[-1]
        assert outcome.status == "recovered"  # the pinned seeds all tear
        assert outcome.faults_injected > 0
        assert outcome.healed > 0  # redo did real work
        assert any(kind == "torn" for _, kind, _, _ in outcome.fault_log)


class TestReplicaRepairSeed:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pinned_degraded_seed_turns_clean_with_replicas(self, backend):
        """The acceptance pin: seed 17 — "degraded" on the plain sweep —
        classifies "clean" on a replicated world, because the corrupt
        page is repaired in place and the planner keeps the full
        design."""
        plain = pinned("read", 17, backend)[-1]
        assert plain.status == "degraded"
        repaired = run_schedule("read", 17, backend=backend, replicas=2)[-1]
        assert repaired.status == "clean"
        assert repaired.repaired >= 1
        assert repaired.degradations == ()
        assert repaired.rows == plain.rows
