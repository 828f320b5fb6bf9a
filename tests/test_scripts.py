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
