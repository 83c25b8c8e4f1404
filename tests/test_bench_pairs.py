"""tools/bench_pairs.py: the pair summary on fixed inputs, and its refusals.

No timed run happens here: the summary is fed fixed values, and the
refusals stop before any worktree or benchmark invocation.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = [{"name": "wall_s", "unit": "s", "better": "lower"},
            {"name": "oracle_calls_per_s", "unit": "1/s", "better": "higher"}]


def test_summary_of_fixed_pairs():
    walls = [(1.0, 0.9), (1.2, 1.0), (1.1, 1.1), (0.9, 1.0), (1.0, 0.8)]
    pairs = [({"wall_s": b, "oracle_calls_per_s": 10.0 / b},
              {"wall_s": c, "oracle_calls_per_s": 10.0 / c}) for b, c in walls]
    summary = bench_pairs.summarize(pairs, DECLARED)
    wall = summary["wall_s"]
    assert wall["pairs"] == [list(pair) for pair in walls]
    # exclusive quartiles of five values: midway between the 1st and 2nd, 4th and 5th
    assert wall["base"] == pytest.approx({"median": 1.0, "q1": 0.95, "q3": 1.15})
    assert wall["change"] == pytest.approx({"median": 1.0, "q1": 0.85, "q3": 1.05})
    assert wall["median_change"] == 0.0
    assert (wall["wins"], wall["ties"]) == (3, 1)
    rate = summary["oracle_calls_per_s"]
    # higher is better: the same pairs win
    assert (rate["wins"], rate["ties"], rate["better"]) == (3, 1, "higher")
    assert rate["base"]["median"] == 10.0


def test_one_pair_is_its_own_median_and_quartiles():
    summary = bench_pairs.summarize([({"wall_s": 2.0}, {"wall_s": 1.0})], DECLARED[:1])
    assert summary["wall_s"]["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert summary["wall_s"]["median_change"] == -0.5


@pytest.fixture
def checkout(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                        *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "BENCHMARK.json").write_text("{}")
    git("add", "BENCHMARK.json")
    git("commit", "-q", "-m", "one")
    return tmp_path


def test_refuses_an_unknown_revision(checkout, capsys):
    assert bench_pairs.main(["--base", "no-such-rev", "--label", "x"], root=checkout) == 2
    assert "unknown revision: no-such-rev" in capsys.readouterr().err
    assert not (checkout / "BENCH_x.json").exists()


def test_refuses_a_dirty_tree(checkout, capsys):
    (checkout / "BENCHMARK.json").write_text('{"changed": 1}')
    assert bench_pairs.main(["--base", "HEAD", "--label", "x"], root=checkout) == 2
    assert "uncommitted changes" in capsys.readouterr().err
    assert not (checkout / "BENCH_x.json").exists()
