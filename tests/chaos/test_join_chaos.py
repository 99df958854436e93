"""Join-chaos sweep tests: shard copies killed/corrupted mid-join.

The CI join job's fault-tolerance payload: every pinned seed must land
on its graded outcome — the co-partitioned join's concatenated output
bit-identical to the serial merge join across mid-join failover and
cross-copy repair, a typed :class:`~repro.shard.ShardFailedError` or a
flagged partial when no replica is left — and :mod:`tools.chaos` raises
``ChaosViolation`` on any silent wrong answer, so reaching an outcome
at all *is* the contract check.
"""

from sweep_contract import DEFAULT_BACKEND, pinned, sweep_contract
from tools.chaos import SWEEPS, join_scenario

#: the graded outcome each pinned seed must reproduce on every backend
EXPECTED_STATUS = {
    2: "failed",  # lone probe copy killed, no allow_partial -> typed error
    6: "clean",  # nothing armed (inner join)
    7: "clean",  # latency only; join must still finish bit-identical
    10: "degraded",  # kill mid-join -> failover to the replica copy (semi)
    13: "degraded",  # corruption -> quarantine -> cross-copy repair (semi)
    29: "partial",  # lone copy killed, odd seed opts into allow_partial
}


class TestScenarioGrid:
    def test_pinned_seeds_span_the_grid(self):
        cells = {join_scenario(seed) for seed in SWEEPS["join"].seeds}
        scenarios = {(scenario, fault) for scenario, fault, _ in cells}
        kinds = {kind for _, _, kind in cells}
        assert ("failover", "kill") in scenarios
        assert ("failover", "corrupt") in scenarios
        assert ("failover", "slow") in scenarios
        assert ("lone", "kill") in scenarios
        assert any(scenario == "clean" for scenario, _ in scenarios)
        assert kinds == {"inner", "semi"}  # both merge loops exercised

    def test_grid_is_deterministic(self):
        assert join_scenario(13) == ("failover", "corrupt", "semi")
        assert join_scenario(13) == join_scenario(13)


def outcome_of(seed):
    return pinned("join", seed, DEFAULT_BACKEND)[-1]


class TestJoinSweep(sweep_contract("join")):
    def test_pinned_seeds_land_on_their_graded_outcomes(self):
        statuses = {seed: outcome_of(seed).status for seed in SWEEPS["join"].seeds}
        assert statuses == EXPECTED_STATUS

    def test_typed_failure_carries_its_trail(self):
        assert outcome_of(2).degradations

    def test_slow_schedule_actually_injected(self):
        outcome = outcome_of(7)
        assert outcome.status == "clean"
        assert outcome.faults_injected > 0  # latency fired, join survived

    def test_repair_schedule_heals_from_the_peer(self):
        outcome = outcome_of(13)
        assert outcome.status == "degraded"
        assert outcome.repaired > 0
        assert outcome.lifted > 0

    def test_partial_outcome_flags_the_lost_rows(self):
        outcome = outcome_of(29)
        assert outcome.status == "partial"
        assert outcome.rows > 0  # the surviving legs still produced output
