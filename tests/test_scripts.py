"""The experiment scripts under scripts/ run end to end on minimal arguments."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, expected",
    [
        ("compare_topologies", ["--seeds", "1", "--kill-hub"], "mesh faster in"),
        ("loss_sweep", ["--losses", "0.1", "--seeds", "1"], "0.10"),
        ("run_all_scenarios", ["basic_pair"], "basic_pair"),
        ("retained_memory", ["--durations", "4", "6"], "retained_mb"),
    ],
)
def test_script_runs(name, argv, expected, capsys):
    assert _script(name).main(argv) == 0
    assert expected in capsys.readouterr().out


def test_run_all_scenarios_writes_canonical_reports(tmp_path):
    assert _script("run_all_scenarios").main(["basic_pair", "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "basic_pair.json").read_text()
    assert json.loads(text)["scenario"] == "basic_pair"
    assert text.endswith("\n")


def test_bench_pairs_compares_a_tree_with_itself(capsys):
    root = str(SCRIPTS.parent)
    argv = ["--base", root, "--change", root, "--workloads", "grid_flood", "--pairs", "1", "--seconds", "0.05"]
    assert _script("bench_pairs").main(argv) == 0
    out = capsys.readouterr().out
    assert "grid_flood       radio_ops_per_ref" in out
    assert "grid_flood       digests match; failed passes base 0/" in out
    assert "differs" not in out


RATE = {"name": "radio_ops_per_ref", "better": "higher", "bound": 0.25}
TIME = {"name": "wall_ref", "better": "lower", "bound": 0.25}


@pytest.mark.parametrize(
    "metric, base, change, verdict",
    [
        # medians 100 -> 80: 20 % worse, inside the 25 % bound
        (RATE, [99, 100, 101], [79, 80, 81], "ok"),
        # medians 100 -> 70: 30 % worse
        (RATE, [99, 100, 101], [69, 70, 71], "worse"),
        (TIME, [99, 100, 101], [129, 130, 131], "worse"),
        # the base's q1-q3 (60-130) is wider than 25 of its median 100 ...
        (RATE, [40, 80, 100, 120, 140], [90, 95, 100, 105, 110], "unresolved"),
        # ... unless every change run beats every base run
        (RATE, [40, 80, 100, 120, 140], [150, 151, 152, 153, 154], "ok"),
        (TIME, [40, 80, 100, 120, 140], [30, 31, 32, 33, 34], "ok"),
        # worse outranks unresolved
        (RATE, [40, 80, 100, 120, 140], [10, 11, 12, 13, 14], "worse"),
    ],
)
def test_bench_pairs_verdict_mirrors_the_no_regression_rule(metric, base, change, verdict):
    assert _script("bench_pairs").summarise(metric, base, change)["verdict"] == verdict


def test_bench_pairs_summarise_reports_both_sides_wins_and_the_claim():
    row = _script("bench_pairs").summarise(RATE, [100, 101, 102, 103], [130, 131, 132, 100])
    assert row["base"] == (101.5, 100.75, 102.25)  # median, q1, q3
    assert row["change"] == (130.5, 122.5, 131.25)
    assert row["win"] == 0.75 and not row["claim"]  # 3 wins in 4 pairs
    row = _script("bench_pairs").summarise(RATE, [100, 101, 102, 103], [130, 131, 132, 133])
    assert row["win"] == 1.0 and row["claim"] and row["verdict"] == "ok"


def test_regen_run_digests_names_each_moved_digest(tmp_path, monkeypatch, capsys):
    # One shipped scenario only, written to a copy: the committed file is never touched.
    committed = json.loads((SCRIPTS.parent / "tests" / "golden" / "run_digests.json").read_text())
    regen = _script("regen_run_digests")
    monkeypatch.setattr(regen, "SHIPPED_SCENARIOS", ("basic_pair",))
    monkeypatch.setattr(regen, "generated_scenarios", dict)
    monkeypatch.setattr(regen, "OUT", tmp_path / "run_digests.json")
    regen.OUT.write_text(json.dumps({"basic_pair": committed["basic_pair"]}))
    assert regen.main() == 0
    assert "no digest moved" in capsys.readouterr().out
    regen.OUT.write_text(json.dumps({"basic_pair": "0" * 64, "gone": "0" * 64}))
    assert regen.main() == 0
    out = capsys.readouterr().out
    assert "digest moved: basic_pair" in out and "digest moved: gone" in out
    assert "no digest moved" not in out
    assert json.loads(regen.OUT.read_text()) == {"basic_pair": committed["basic_pair"]}


def test_sample_profile_names_the_event_loop(capsys):
    argv = ["--workload", "contested_churn", "--seed", "1", "--seconds", "0.2"]
    assert _script("sample_profile").main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("contested_churn seed 1: ")
    assert "sim.py:run\n" in out
