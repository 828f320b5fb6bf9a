"""The experiment scripts under scripts/ run end to end on minimal arguments."""

import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from swarmlink.cli import resolve_scenario

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
        ("retained_memory", ["--scenario", "contested13_replay", "--durations", "4", "6"], "retained_mb"),
    ],
)
def test_script_runs(name, argv, expected, capsys):
    assert _script(name).main(argv) == 0
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("loss", ["1.5", "-0.1", "nan"])
def test_loss_sweep_refuses_a_loss_outside_the_unit_interval(loss, capsys):
    with pytest.raises(SystemExit) as refused:
        _script("loss_sweep").main(["--losses", loss, "--seeds", "1"])
    assert refused.value.code == 2 and "--losses" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, argv, flag",
    [
        ("digest_sweep", ["--reference", "--count", "0"], "--count"),
        ("bench_pairs", ["--base", ".", "--pairs", "0"], "--pairs"),
        ("loss_sweep", ["--seeds", "0"], "--seeds"),
        ("compare_topologies", ["--seeds", "-1"], "--seeds"),
        ("retained_memory", ["--durations", "4", "0"], "--durations"),
        ("retained_memory", ["--durations", "-4"], "--durations"),
        ("retained_memory", ["--durations", "inf"], "--durations"),
        ("retained_memory", ["--durations", "nan"], "--durations"),
    ],
)
def test_scripts_refuse_a_count_or_duration_that_is_not_positive(name, argv, flag, capsys):
    with pytest.raises(SystemExit) as refused:
        _script(name).main(argv)
    assert refused.value.code == 2 and flag in capsys.readouterr().err


def test_retained_memory_gives_two_runs_of_one_duration_the_same_row():
    # A fresh interpreter, so the first row would pay cryptography's lazy
    # imports (about 0.5 MB) if the untraced warm-up did not.
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "retained_memory.py"), "--durations", "4", "4"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")},
    ).stdout.splitlines()
    (_, first, _), (_, second, _) = [map(float, line.split()) for line in out[1:]]
    assert abs(first - second) <= 0.05


def test_run_all_scenarios_exits_1_when_a_run_is_unbalanced(monkeypatch, capsys):
    script = _script("run_all_scenarios")
    run_scenario = script.run_scenario

    def unbalanced(sc):
        report, trace = run_scenario(sc)
        report["conservation"]["balanced"] = False
        return report, trace

    monkeypatch.setattr(script, "run_scenario", unbalanced)
    assert script.main(["basic_pair"]) == 1
    assert "basic_pair failed packet conservation" in capsys.readouterr().err


def test_run_all_scenarios_writes_canonical_reports(tmp_path):
    assert _script("run_all_scenarios").main(["basic_pair", "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "basic_pair.json").read_text()
    assert json.loads(text)["scenario"] == "basic_pair"
    assert text.endswith("\n")


def test_bench_pairs_compares_a_tree_with_itself(capsys):
    # One pair of 0.05 s runs can swing past a metric's bound from noise
    # alone, so the exit status is not asserted here; exiting 1 on a
    # `worse` verdict is covered by the stubbed test below.
    root = str(SCRIPTS.parent)
    argv = ["--base", root, "--change", root, "--workloads", "grid_flood", "--pairs", "1", "--seconds", "0.05"]
    _script("bench_pairs").main(argv)
    lines = capsys.readouterr().out.splitlines()
    declared = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    rows = [line.split() for line in lines if line.startswith("grid_flood ") and "digests" not in line]
    assert [row[1] for row in rows] == [metric["name"] for metric in declared]
    assert all(row[-1] in ("ok", "unresolved", "worse") for row in rows)
    digest_line = next(line for line in lines if "digests" in line)
    assert re.fullmatch(r"grid_flood +digests match; failed passes base 0/\d+, change 0/\d+", digest_line)
    assert not any("differs" in line for line in lines)


@pytest.mark.parametrize(
    "change_digest, change_failed, worse, status",
    [
        pytest.param("same", 0, False, 0, id="same-0-0"),
        pytest.param("moved", 0, False, 1, id="moved-0-1"),  # digests DIFFER
        pytest.param("same", 1, False, 1, id="same-1-1"),  # the change failed more passes than the base
        pytest.param("same", 0, True, 1, id="worse"),  # every metric 50 % worse than the base
    ],
)
def test_bench_pairs_exits_1_when_digests_differ_or_the_change_fails_more(
    monkeypatch, capsys, tmp_path, change_digest, change_failed, worse, status
):
    bench_pairs = _script("bench_pairs")
    root = SCRIPTS.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())

    def stub_run_bench(tree, workload, seed, seconds):
        change = tree == tmp_path

        def value(metric):
            if change and worse:
                return 0.5 if metric["better"] == "higher" else 1.5
            return 1.0

        return {
            "metrics": {m["name"]: {"value": value(m)} for m in declared["end_to_end"]},
            "digest": change_digest if change else "same",
            "failed": change_failed if change else 0,
            "attempted": 2,
        }

    monkeypatch.setattr(bench_pairs, "run_bench", stub_run_bench)
    (tmp_path / "bench").symlink_to(root / "bench")
    (tmp_path / "BENCHMARK.json").symlink_to(root / "BENCHMARK.json")
    argv = ["--base", str(root), "--change", str(tmp_path), "--workloads", "grid_flood", "star_fanout", "--pairs", "2"]
    assert bench_pairs.main(argv) == status
    out = capsys.readouterr().out
    assert ("DIFFER" in out) == (change_digest == "moved")
    assert (" worse" in out) == worse


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
    monkeypatch.setattr(regen, "locked_scenarios", lambda: {"basic_pair": resolve_scenario("basic_pair")})
    monkeypatch.setattr(regen, "OUT", tmp_path / "run_digests.json")
    regen.OUT.write_text(json.dumps({"basic_pair": committed["basic_pair"]}))
    assert regen.main([]) == 0
    assert "no digest moved" in capsys.readouterr().out
    regen.OUT.write_text(json.dumps({"basic_pair": "0" * 64, "gone": "0" * 64}))
    assert regen.main([]) == 0
    out = capsys.readouterr().out
    assert "digest moved: basic_pair" in out and "digest moved: gone" in out
    assert "no digest moved" not in out
    assert json.loads(regen.OUT.read_text()) == {"basic_pair": committed["basic_pair"]}


def test_regen_run_digests_check_writes_nothing_and_exits_1_when_a_digest_moved(tmp_path, monkeypatch, capsys):
    regen = _script("regen_run_digests")
    monkeypatch.setattr(regen, "locked_scenarios", lambda: {"basic_pair": resolve_scenario("basic_pair")})
    monkeypatch.setattr(regen, "OUT", tmp_path / "run_digests.json")
    moved = json.dumps({"basic_pair": "0" * 64})
    regen.OUT.write_text(moved)
    assert regen.main(["--check"]) == 1
    assert "digest moved: basic_pair" in capsys.readouterr().out
    assert regen.OUT.read_text() == moved


def test_regen_run_digests_check_passes_on_the_committed_lock(capsys):
    committed = SCRIPTS.parent / "tests" / "golden" / "run_digests.json"
    before = committed.read_bytes()
    assert _script("regen_run_digests").main(["--check"]) == 0
    assert "no digest moved" in capsys.readouterr().out
    assert committed.read_bytes() == before


def test_digest_sweep_of_a_tree_against_itself_moves_no_digest(capsys):
    assert _script("digest_sweep").main(["--base", str(SCRIPTS.parent), "--count", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "no digest moved" in out and "digest moved:" not in out
    # Each locked scenario runs in mesh, and in star where it validates.
    assert re.search(r"^(\d+) runs swept: seeds 3\.\.3, mesh and star$", out, re.M)


def test_digest_sweep_names_each_moved_run_and_exits_1(monkeypatch, capsys, tmp_path):
    sweep = _script("digest_sweep")
    runs = {"basic_pair 5 mesh": "a" * 64, "basic_pair 5 star": "b" * 64, "mitm_attack 5 star": None}

    def stub_tree_digests(trees, seed, count):
        assert (trees, seed, count) == ([tmp_path, sweep.ROOT], 5, 1)
        return [runs, {**runs, "basic_pair 5 star": "c" * 64, "mitm_attack 5 star": "d" * 64}]

    monkeypatch.setattr(sweep, "tree_digests", stub_tree_digests)
    assert sweep.main(["--base", str(tmp_path), "--count", "1", "--seed", "5"]) == 1
    out = capsys.readouterr().out
    assert "digest moved: basic_pair 5 star" in out
    assert "digest moved: mitm_attack 5 star" in out  # refused in the base, run in the change
    assert "basic_pair 5 mesh" not in out and "no digest moved" not in out


def test_digest_sweep_against_the_reference_finds_no_run_that_differs(monkeypatch, capsys):
    sweep = _script("digest_sweep")
    monkeypatch.setattr(sweep, "SCENARIOS", ["basic_pair"])
    assert sweep.main(["--reference", "--count", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "no run differs from its reference" in out and "differs from reference:" not in out
    assert re.search(r"^2 runs swept: seeds 3\.\.3, mesh and star$", out, re.M)


def test_digest_sweep_names_each_run_that_differs_from_its_reference_and_exits_1(monkeypatch, capsys):
    sweep = _script("digest_sweep")
    runs = {"basic_pair 5 mesh": "a" * 64, "basic_pair 5 star": "b" * 64}

    def stub_tree_digests(trees, seed, count, reference=False):
        assert (trees, seed, count, reference) == ([sweep.ROOT, sweep.ROOT], 5, 1, True)
        return [runs, {**runs, "basic_pair 5 star": "c" * 64}]

    monkeypatch.setattr(sweep, "tree_digests", stub_tree_digests)
    assert sweep.main(["--reference", "--count", "1", "--seed", "5"]) == 1
    out = capsys.readouterr().out
    assert "differs from reference: basic_pair 5 star" in out
    assert "basic_pair 5 mesh" not in out and "no run differs" not in out
    with pytest.raises(SystemExit) as refused:  # one of --base and --reference, not both
        sweep.main(["--reference", "--base", str(sweep.ROOT)])
    assert refused.value.code == 2


def test_bench_record_writes_every_section_on_a_tiny_configuration(tmp_path, monkeypatch):
    record_script = _script("bench_record")
    monkeypatch.setattr(record_script, "WORKLOADS", ("grid_flood",))
    monkeypatch.setattr(record_script, "WORKLOAD_SECONDS", 0.05)
    monkeypatch.setattr(record_script, "LADDER_SIDES", (2, 3))
    monkeypatch.setattr(record_script, "PROFILE_SIDE", 3)
    monkeypatch.setattr(record_script, "RUNG_DURATION_S", 4.0)
    monkeypatch.setattr(record_script, "REPEATS", 1)
    monkeypatch.setattr(record_script, "RETAINED_DURATIONS", (4.0, 6.0))
    out = tmp_path / "BENCH_test.json"
    assert record_script.main(["--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert sorted(record) == ["grid_ladder", "host", "module_shares", "python", "retained_memory", "workloads"]
    assert [row["duration_s"] for row in record["retained_memory"]] == [4.0, 6.0]
    for row in record["retained_memory"]:
        assert sorted(row) == ["duration_s", "peak_mb", "retained_mb", "scenario"]
        assert 0 < row["retained_mb"] <= row["peak_mb"]
    run = record["workloads"]["grid_flood"]
    assert run["seed"] == 1 and run["result"]["correct"] and "wall_ref" in run["result"]["metrics"]
    assert run["traced"]["correct"] and "codec.share" in run["traced"]["metrics"]
    assert [rung["nodes"] for rung in record["grid_ladder"]] == [4, 9]
    for rung in record["grid_ladder"]:
        assert sorted(rung) == [
            "duration_s", "max_rss_mb", "nodes", "receptions", "render_s", "report_bytes", "report_mb",
            "run_s", "state_mb", "transmissions", "wall_ref", "wall_s",
        ]
        assert rung["transmissions"] > 0 and rung["receptions"] > 0 and rung["report_bytes"] > 0
        assert rung["duration_s"] == 4.0 and 0 < rung["render_s"] < rung["wall_s"] and rung["max_rss_mb"] > 0
        assert 0 < rung["state_mb"] < rung["max_rss_mb"]
        assert 0 < rung["report_mb"] < rung["max_rss_mb"]
        # One run per rung here, so wall_s / wall_ref is its mean chunk time,
        # about 2 ms on an idle core (hostspeed.NOMINAL_CHUNK_S).
        assert 1e-4 < rung["wall_s"] / rung["wall_ref"] < 0.5
    profile = record["module_shares"]
    assert (profile["nodes"], profile["duration_s"], profile["runs"]) == (9, 4.0, 1)
    assert profile["samples"] > 0 and profile["interval_ms"] > 0
    assert set(profile["shares"]) <= {path.stem for path in (SCRIPTS.parent / "src" / "swarmlink").glob("*.py")} | {"other"}
    assert abs(sum(profile["shares"].values()) - 1.0) < 1e-9


def test_bench_record_without_out_writes_nothing(capsys):
    committed = SCRIPTS.parent / "BENCH_1.json"
    before = committed.read_bytes()
    with pytest.raises(SystemExit) as refused:
        _script("bench_record").main([])
    assert refused.value.code == 2 and "--out" in capsys.readouterr().err
    assert committed.read_bytes() == before


def test_sample_profile_names_the_event_loop(capsys):
    argv = ["--workload", "contested_churn", "--seed", "1", "--seconds", "0.2"]
    assert _script("sample_profile").main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("contested_churn seed 1: ")
    assert " s of CPU time, one per " in out.splitlines()[0]
    assert "sim.py:run\n" in out


def test_sample_profile_counts_the_heap_events_a_pass_pops_by_kind(capsys):
    argv = ["--workload", "contested_churn", "--seed", "1", "--seconds", "0"]
    assert _script("sample_profile").main(argv) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    line = re.fullmatch(r"heap events popped per pass: ([\d,]+) \(tx_done ([\d,]+), rx ([\d,]+), advrx ([\d,]+), timer ([\d,]+)\)", last)
    assert line, last
    total, *kinds = (int(n.replace(",", "")) for n in line.groups())
    assert total == sum(kinds) and all(kinds)


def test_sample_profile_counts_the_trace_lines_and_refusals_of_a_pass(capsys):
    argv = ["--workload", "contested_churn", "--seed", "1", "--seconds", "0"]
    assert _script("sample_profile").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    tallies = {}
    for label, line in zip(("trace lines", "refusals"), lines[-4:-2]):
        found = re.fullmatch(rf"{label} per pass: ([\d,]+) \((.+)\)", line)
        assert found, line
        parts = {name: int(n.replace(",", "")) for name, n in (part.split(" ") for part in found[2].split(", "))}
        assert int(found[1].replace(",", "")) == sum(parts.values())
        assert list(parts.values()) == sorted(parts.values(), reverse=True)
        tallies[label] = parts
    # Every refusal is one security line; the replay injector's are mostly keyless.
    assert sum(tallies["refusals"].values()) == tallies["trace lines"]["security"]
    assert tallies["trace lines"]["replay_inject"] > 0 and tallies["refusals"]["UnknownEpoch"] > 0


def test_sample_profile_counts_the_python_calls_of_a_bare_pass(capsys):
    # The count is that of the pass alone: the script's own wrappers, on
    # the heap and on AES-GCM, are left out, and so are the callbacks of a
    # collection, as the cyclic collector is paused.
    module = _script("sample_profile")
    assert module.main(["--workload", "contested_churn", "--seed", "1", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    line = re.fullmatch(r"python calls per pass: ([\d,]+) \(per transmission ([\d.]+)\)", lines[-5])
    assert line, lines[-5]
    here, seen = module.run_pass.__code__.co_filename, 0

    def count(frame, event, _arg):
        nonlocal seen
        seen += event == "call" and frame.f_code.co_filename != here

    data = module._workloads()["contested_churn"](1)
    gc.disable()
    sys.setprofile(count)
    try:
        simulation = module.run_pass(data)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert int(line[1].replace(",", "")) == seen > 0
    assert line[2] == f"{seen / sum(simulation.per_link_tx.values()):.1f}"


def test_sample_profile_counts_the_aes_gcm_calls_of_a_pass(capsys):
    # Every star copy is opened by the holder of the key that sealed it,
    # so it takes the frame its packet's seal kept: no open at all.
    argv = ["--workload", "star_fanout", "--seed", "1", "--seconds", "0"]
    assert _script("sample_profile").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    line = re.fullmatch(r"aead per pass: seal ([\d,]+), open ([\d,]+)", lines[-2])
    assert line, lines[-2]
    seals, opens = (int(n.replace(",", "")) for n in line.groups())
    assert seals > 0 and opens == 0
