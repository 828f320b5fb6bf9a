"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import SPANS, TRACED_MODULES, UNWRAPPED, ModuleTracer, public_callables  # noqa: E402
from watchdog import RunAborted, Watchdog  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

swarmlink = run.import_swarmlink()


def _namespace_snapshot():
    """Every attribute of every swarmlink module and of the classes they define."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("swarmlink"):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in vars(value).items():
                    snap[(name, attr, member)] = raw
    return snap


def test_benchmark_json_declares_what_the_result_line_reports():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        (name, run.E2E_UNITS[name]) for name in run.DECLARED_E2E
    ]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        *run.LAYER_UNITS.items(),
        (run.OVERHEAD, "ratio"),
    ]
    assert {w["name"] for w in declared["workloads"]} < set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_always_generates_the_same_scenario(name):
    make = WORKLOADS[name]
    assert json.dumps(make(7), sort_keys=True) == json.dumps(make(7), sort_keys=True)
    assert make(7) != make(8)
    swarmlink.scenario_from_dict(make(7))  # and it validates


def test_every_public_callable_is_wrapped_or_listed_as_unwrapped():
    declared = set(SPANS) | set(UNWRAPPED)
    found = set()
    for mod_name in TRACED_MODULES:
        module = importlib.import_module(f"swarmlink.{mod_name}")
        found |= {(mod_name, q) for q in public_callables(module)}
    found.add(("handshake", "_HandshakeMessage.from_bytes"))
    assert found - declared == set(), "public callables neither wrapped nor listed"
    assert declared - found == set(), "listed names that no longer exist"


def test_tracer_wraps_aliases_and_classmethods_and_restores_everything():
    before = _namespace_snapshot()
    sim_mod, codec, handshake, rekey = swarmlink.sim, swarmlink.codec, swarmlink.handshake, swarmlink.rekey
    tracer = ModuleTracer()
    with tracer:
        assert sim_mod.render_json is not before[("swarmlink.sim", "render_json")]
        assert sim_mod.latency_summary is not before[("swarmlink.sim", "latency_summary")]
        offer_bytes = bytes([swarmlink.wire.MSG_KEY_OFFER]) + bytes(handshake.HANDSHAKE_WIRE_LEN - 1)
        handshake.KeyOffer.from_bytes(offer_bytes)
        packet = codec.WirePacket(1, 2, 3, 4, 5, b"abc", bytes(16))
        assert codec.WirePacket.from_bytes(packet.to_bytes()) == packet
        with pytest.raises(swarmlink.ValidationError):
            rekey.RekeyMessage.from_bytes(b"")
        sim_mod.render_json({})
    spans = {callee for _caller, callee in tracer.edges}
    assert {
        "handshake._HandshakeMessage.from_bytes",
        "codec.WirePacket.from_bytes",
        "rekey.RekeyMessage.from_bytes",
        "metrics.render_json",
    } <= spans
    after = _namespace_snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []


def test_tracer_restores_when_the_traced_code_raises():
    before = _namespace_snapshot()
    with pytest.raises(ZeroDivisionError):
        with ModuleTracer():
            1 / 0
    after = _namespace_snapshot()
    assert [key for key in before if after.get(key) is not before[key]] == []


def test_untraced_run_after_traced_run_reproduces_the_untraced_digest():
    bench = run.Bench(swarmlink, WORKLOADS["contested_churn"](3))
    first = bench.run_pass()
    with ModuleTracer():
        traced = bench.run_pass()
    after = bench.run_pass()
    assert first.failure is None and traced.failure is None and after.failure is None
    assert first.digest == traced.digest == after.digest


def test_digest_mismatch_fails_the_pass():
    bench = run.Bench(swarmlink, WORKLOADS["star_fanout"](1))
    bench.reference = "0" * 64
    result = bench.run_pass()
    assert result.failure == "digest_mismatch"
    assert bench.failed == [result]


def test_watchdog_stops_the_duty_rollover_livelock_as_a_stall():
    bench = run.Bench(swarmlink, WORKLOADS["duty_rollover"](1))
    start = time.perf_counter()
    result = bench.run_pass()
    assert result.failure == "stalled", result.detail
    assert time.perf_counter() - start < run.DEADLINE_S


def test_watchdog_deadline_stops_a_block_that_advances():
    clock = iter(range(10**9))
    with pytest.raises(RunAborted) as info:
        with Watchdog(deadline_s=0.5, stall_cpu_s=60.0, tick_s=0.05).guard(lambda: next(clock)):
            while True:
                pass
    assert info.value.cause == "deadline"


def test_bench_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "star_fanout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
