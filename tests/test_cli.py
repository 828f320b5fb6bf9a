"""Command-line interface tests: exit codes, outputs, overrides."""

import json

import pytest

from swarmlink.cli import SHIPPED_SCENARIOS, main, resolve_scenario

from conftest import base_scenario_dict


@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "unit.json"
    p.write_text(json.dumps(base_scenario_dict()))
    return str(p)


def test_run_writes_report(tmp_path, scenario_file):
    out = tmp_path / "report.json"
    rc = main(["run", "--scenario", scenario_file, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["scenario"] == "unit"
    assert report["delivery"]["overall_ratio"] == 1.0


def test_run_accepts_shipped_names(tmp_path):
    out = tmp_path / "basic.json"
    rc = main(["run", "--scenario", "basic_pair", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["scenario"] == "basic_pair"


def test_run_to_stdout(capsys, scenario_file):
    rc = main(["run", "--scenario", scenario_file, "--out", "-"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "unit"


@pytest.mark.parametrize("verbose", [["-v"], ["-vv"]])
def test_verbose_summary_leaves_stdout_one_json_document(capsys, verbose):
    assert main([*verbose, "run", "--scenario", "basic_pair", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["scenario"] == "basic_pair"
    assert captured.err.startswith("basic_pair seed=")


def test_report_and_trace_both_on_stdout_is_a_usage_error(capsys, scenario_file):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", scenario_file, "--out", "-", "--trace", "-"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--trace -" in captured.err


def test_trace_on_stdout_holds_only_trace_lines(tmp_path, capsys, scenario_file):
    out = tmp_path / "r.json"
    assert main(["-v", "run", "--scenario", scenario_file, "--out", str(out), "--trace", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(json.loads(line)["event"] for line in lines)
    assert json.loads(out.read_text())["scenario"] == "unit"


def test_run_csv_format(tmp_path, scenario_file):
    out = tmp_path / "report.csv"
    rc = main(["run", "--scenario", scenario_file, "--out", str(out), "--format", "csv"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "scenario,seed,mode,src,dst,sent,delivered,ratio"
    assert len(lines) > 1


def test_run_seed_and_mode_overrides(tmp_path, scenario_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", "--scenario", scenario_file, "--seed", "7", "--out", str(out1)]) == 0
    assert main(["run", "--scenario", scenario_file, "--seed", "7", "--out", str(out2), "--mode", "star"]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["seed"] == b["seed"] == 7
    assert a["mode"] == "mesh" and b["mode"] == "star"


def test_run_writes_trace(tmp_path, scenario_file):
    out = tmp_path / "r.json"
    trace = tmp_path / "r.trace"
    assert main(["run", "--scenario", scenario_file, "--out", str(out), "--trace", str(trace)]) == 0
    for line in trace.read_text().strip().splitlines():
        json.loads(line)


def test_default_out_respects_env(tmp_path, monkeypatch, scenario_file):
    monkeypatch.setenv("SWARMLINK_OUT_DIR", str(tmp_path))
    assert main(["run", "--scenario", scenario_file]) == 0
    assert (tmp_path / "unit_report.json").exists()


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", "--scenario", scenario_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_rejects_bad_scenario(tmp_path):
    d = base_scenario_dict()
    d["nodes"] = [d["nodes"][0]]  # no uavs
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    assert main(["validate", "--scenario", str(p)]) == 1


def test_validate_rejects_a_repeated_key(tmp_path, capsys):
    p = tmp_path / "twice.json"
    p.write_text(json.dumps(base_scenario_dict()).replace('"seed": 1', '"seed": 1, "seed": 2'))
    assert main(["validate", "--scenario", str(p)]) == 1
    assert "seed: duplicate key" in capsys.readouterr().err


def test_plaintext_star_fails_validate_and_run_alike(tmp_path):
    p = tmp_path / "star_plain.json"
    p.write_text(json.dumps(base_scenario_dict(mode="star", security={"encryption": False})))
    assert main(["validate", "--scenario", str(p)]) == 1
    assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "r.json")]) == 1
    p.write_text(json.dumps(base_scenario_dict(security={"encryption": False})))
    assert main(["validate", "--scenario", str(p)]) == 0
    assert main(["run", "--scenario", str(p), "--mode", "star", "--out", "-"]) == 1


def test_non_utf8_scenario_is_invalid(tmp_path):
    p = tmp_path / "latin1.json"
    text = json.dumps(base_scenario_dict(name="caf\u00e9"), ensure_ascii=False)
    p.write_text(text, encoding="latin-1")  # the name's last byte is not UTF-8
    assert main(["validate", "--scenario", str(p)]) == 1


def test_missing_scenario_is_io_error(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == 2
    assert main(["validate", "--scenario", "not_a_shipped_name"]) == 2


def test_golden_regenerates(tmp_path):
    out = tmp_path / "golden.json"
    assert main(["golden", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert "frame_samples" in data and "packet_samples" in data


def test_all_shipped_scenarios_resolve():
    for name in SHIPPED_SCENARIOS:
        sc = resolve_scenario(name)
        sc.validate()
        assert sc.name == name
