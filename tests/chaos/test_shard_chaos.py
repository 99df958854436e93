"""Shard-chaos sweep tests: kill/corrupt/slow one shard copy mid-scan.

The CI shard job's payload: every pinned seed must land on its graded
outcome — bit-identical rows across failover and cross-copy repair,
typed :class:`~repro.shard.ShardFailedError` or a flagged partial when
no replica is left — and :mod:`tools.chaos` raises ``ChaosViolation``
on any silent wrong answer, so reaching an outcome at all *is* the
contract check.
"""

from sweep_contract import DEFAULT_BACKEND, pinned, sweep_contract
from tools.chaos import SWEEPS, shard_scenario

#: the graded outcome each pinned seed must reproduce on every backend
EXPECTED_STATUS = {
    2: "failed",  # lone copy killed, no allow_partial -> typed error
    6: "clean",  # nothing armed
    7: "clean",  # latency only; must still finish bit-identical
    10: "degraded",  # kill mid-scan -> failover to the replica copy
    13: "degraded",  # corruption -> quarantine -> cross-copy repair
    29: "partial",  # lone copy killed, odd seed opts into allow_partial
}


class TestScenarioGrid:
    def test_pinned_seeds_span_the_grid(self):
        cells = {shard_scenario(seed) for seed in SWEEPS["shard"].seeds}
        assert ("failover", "kill") in cells
        assert ("failover", "corrupt") in cells
        assert ("failover", "slow") in cells
        assert ("lone", "kill") in cells
        assert any(scenario == "clean" for scenario, _ in cells)

    def test_grid_is_deterministic(self):
        assert shard_scenario(13) == ("failover", "corrupt")
        assert shard_scenario(13) == shard_scenario(13)


def outcome_of(seed):
    return pinned("shard", seed, DEFAULT_BACKEND)[-1]


class TestShardSweep(sweep_contract("shard")):
    def test_pinned_seeds_land_on_their_graded_outcomes(self):
        statuses = {seed: outcome_of(seed).status for seed in SWEEPS["shard"].seeds}
        assert statuses == EXPECTED_STATUS

    def test_typed_failure_carries_its_trail(self):
        assert outcome_of(2).degradations

    def test_slow_schedule_actually_injected(self):
        outcome = outcome_of(7)
        assert outcome.status == "clean"
        assert outcome.faults_injected > 0  # latency fired, scan survived

    def test_repair_schedule_heals_from_the_peer(self):
        outcome = outcome_of(13)
        assert outcome.status == "degraded"
        assert outcome.repaired > 0
        assert outcome.lifted > 0
