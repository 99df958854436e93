"""The pair campaign's summariser, on canned harness contract lines, and
its argument handling with the harness stubbed out."""

from __future__ import annotations

import pytest

import tools.pairs as pairs
from tools.pairs import order_of, parse_seeds, summarise

METRICS = [
    ("op_wall_ms_p50", "lower"),
    ("throughput_ops_s", "higher"),
    ("op_sim_s_p50", "lower"),
]


def contract(wall: float, throughput: float, sim: float, correct: bool = True) -> dict:
    """A harness contract line with three metrics."""
    return {
        "correct": correct,
        "attempted": 15,
        "failed": 0 if correct else 1,
        "metrics": {
            "op_wall_ms_p50": {"value": wall, "unit": "ms"},
            "throughput_ops_s": {"value": throughput, "unit": "1/s"},
            "op_sim_s_p50": {"value": sim, "unit": "s"},
        },
    }


def campaign(head_sim: float = 4.3265) -> dict:
    """Four pairs: the head is faster in three, slower in one."""
    parent_walls = [70.0, 68.0, 72.0, 66.0]
    head_walls = [31.0, 30.0, 73.0, 29.0]
    return {
        seed: {
            "parent": contract(p, 1000 / p, 4.3265),
            "head": contract(h, 1000 / h, head_sim if seed == 13 else 4.3265),
        }
        for seed, p, h in zip((11, 12, 13, 14), parent_walls, head_walls)
    }


def test_parse_seeds():
    assert parse_seeds("11-14") == [11, 12, 13, 14]
    assert parse_seeds("11,13,20-21") == [11, 13, 20, 21]
    assert parse_seeds("7") == [7]


def test_the_parent_runs_first_on_even_seeds():
    assert order_of(12) == ("parent", "head")
    assert order_of(13) == ("head", "parent")


def test_medians_quartiles_and_wins():
    lines, clean = summarise(campaign(), METRICS)
    assert clean
    wall = next(line for line in lines if line.startswith("op_wall_ms_p50:"))
    # parent 66 68 70 72: median 69, quartiles 67.5 / 70.5 (IQR 3);
    # head 29 30 31 73: median 30.5, quartiles 29.75 / 41.5
    assert wall == (
        "op_wall_ms_p50: 69 [67.5-70.5] -> 30.5 [29.75-41.5], -55.8%, "
        "head better in 3/4, gap/IQR 12.83"
    )
    throughput = next(line for line in lines if line.startswith("throughput_ops_s:"))
    assert "head better in 3/4" in throughput
    sim = next(line for line in lines if line.startswith("op_sim_s_p50:"))
    assert "head better in 0/4, gap/IQR inf" in sim
    assert lines[-1] == "# every run correct; simulated metrics equal on every seed"


def test_every_run_is_listed_in_run_order():
    lines, _ = summarise(campaign(), METRICS)
    runs = [line.split()[:2] for line in lines[1:9]]
    assert runs == [
        ["11", "head"], ["11", "parent"], ["12", "parent"], ["12", "head"],
        ["13", "head"], ["13", "parent"], ["14", "parent"], ["14", "head"],
    ]
    assert lines[1] == "11 head   31 32.2581 4.3265"


@pytest.mark.parametrize("head_sim", [4.32650001, 4.3264])
def test_a_simulated_metric_that_moves_on_one_seed_is_flagged(head_sim):
    lines, clean = summarise(campaign(head_sim), METRICS)
    assert not clean
    assert f"# SIMULATED DIFFERS: op_sim_s_p50 seed 13: 4.3265 -> {head_sim!r}" in lines


class TestCheckouts:
    """Which tree each side runs in; the harness itself is stubbed out."""

    def run_main(self, monkeypatch, capsys, *argv):
        extracted, ran = {}, []

        def extract(revision, destination):
            assert destination.is_dir() and destination not in extracted
            extracted[destination] = revision

        def run_harness(checkout, workload, seed):
            ran.append((extracted.get(checkout, "working tree"), workload, seed))
            return contract(30.0, 33.3, 4.3265)

        monkeypatch.setattr(pairs, "extract", extract)
        monkeypatch.setattr(pairs, "run_harness", run_harness)
        monkeypatch.setattr(pairs, "end_to_end_metrics", lambda: METRICS)
        status = pairs.main(["--workload", "q3", "--seeds", "11-12", *argv])
        return status, sorted(extracted.values()), ran, capsys.readouterr().out

    def test_the_head_defaults_to_the_working_tree(self, monkeypatch, capsys):
        status, extracted, ran, out = self.run_main(
            monkeypatch, capsys, "--parent", "abc"
        )
        assert status == 0 and extracted == ["abc"]
        assert ran == [
            ("working tree", "q3", 11), ("abc", "q3", 11),
            ("abc", "q3", 12), ("working tree", "q3", 12),
        ]
        assert "# q3: parent abc vs head (working tree)" in out

    def test_head_extracts_a_revision_too(self, monkeypatch, capsys):
        status, extracted, ran, out = self.run_main(
            monkeypatch, capsys, "--parent", "abc", "--head", "def"
        )
        assert status == 0 and extracted == ["abc", "def"]
        assert [side for side, _, _ in ran] == ["def", "abc", "abc", "def"]
        assert "# q3: parent abc vs head def" in out

    def test_the_same_revision_twice_is_an_a_a_campaign(self, monkeypatch, capsys):
        status, extracted, ran, out = self.run_main(
            monkeypatch, capsys, "--parent", "abc", "--head", "abc"
        )
        # two separate extractions: neither side runs in the working tree
        assert status == 0 and extracted == ["abc", "abc"]
        assert len(ran) == 4 and all(side == "abc" for side, _, _ in ran)
        assert "# q3: parent abc vs head abc" in out

    def test_the_parent_is_still_required(self, monkeypatch, capsys):
        with pytest.raises(SystemExit):
            self.run_main(monkeypatch, capsys, "--head", "abc")


def test_a_run_that_is_not_correct_is_flagged():
    pairs = campaign()
    pairs[12]["head"] = contract(30.0, 33.3, 4.3265, correct=False)
    lines, clean = summarise(pairs, METRICS)
    assert not clean
    assert "# NOT CORRECT: seed 12 head" in lines
