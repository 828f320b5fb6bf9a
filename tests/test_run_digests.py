"""Whole-run behaviour lock: every run must reproduce its committed digest.

run_digests.json holds, per scenario, the SHA-256 of the canonical report
followed by the trace, taken from a known-good build. Rerunning the same
build twice cannot catch a refactor that shifts one RNG draw or reorders
two events; comparing against these stored bytes does. Regenerate with
scripts/regen_run_digests.py only when output is meant to change.
"""

import json
import pathlib
import re
from collections import Counter

import pytest

from swarmlink import sim as sim_module
from swarmlink.cli import SHIPPED_SCENARIOS
from swarmlink.golden import generated_scenarios, locked_scenarios, run_digest
from swarmlink.report import COUNT_NAMES, SHOWN_COUNTS, UNREPORTED_COUNTS
from swarmlink.sim import Simulation, run_scenario

DIGESTS_PATH = pathlib.Path(__file__).parent / "golden" / "run_digests.json"
GENERATED = generated_scenarios()
STORED = json.loads(DIGESTS_PATH.read_text())
LOCKED = locked_scenarios()


def test_lock_covers_exactly_the_shipped_and_generated_scenarios():
    assert sorted(STORED) == sorted([*SHIPPED_SCENARIOS, *GENERATED])


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_shipped_scenario_matches_stored_digest(name):
    assert run_digest(LOCKED[name]) == STORED[name]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_scenario_matches_stored_digest(name):
    assert run_digest(LOCKED[name]) == STORED[name]


@pytest.mark.parametrize("name", LOCKED)
def test_every_first_delivery_has_one_latency_and_every_delivery_one_count(name):
    """The report takes its delivery totals from the ledger: messages x
    (N - 1) sent, one first delivery per latency. Summed over the per-pair
    block, which counts each (source, destination), they must agree."""
    sc = LOCKED[name]
    report, _ = run_scenario(sc)
    delivery = report["delivery"]
    assert report["latency"]["count"] == delivery["delivered"]
    assert report["traffic"]["messages_delivered"] == delivery["delivered"] + delivery["duplicate_deliveries"]
    pairs = delivery["pairs"]
    uav_ids = {node.id for node in sc.uavs()}
    uav_pairs = [stats for key, stats in pairs.items() if {int(i) for i in key.split("->")} <= uav_ids]
    assert delivery["sent"] == sum(stats["sent"] for stats in pairs.values())
    assert delivery["delivered"] == sum(stats["delivered"] for stats in pairs.values())
    assert delivery["uav_to_uav"]["sent"] == sum(stats["sent"] for stats in uav_pairs)
    assert delivery["uav_to_uav"]["delivered"] == sum(stats["delivered"] for stats in uav_pairs)


@pytest.mark.parametrize("name", LOCKED)
def test_the_ledger_holds_one_send_time_per_message_each_source_originated(name, monkeypatch):
    """A message is originated by each traffic event of a sender that is not
    down, shipped or not; the ledger's per-source rows must count exactly those."""
    sc = LOCKED[name]
    originated = Counter()
    traffic_event = Simulation._traffic_event

    def counting(sim, sender_id):
        if sender_id not in sim.air.down:
            originated[sender_id] += 1
        traffic_event(sim, sender_id)

    monkeypatch.setattr(Simulation, "_traffic_event", counting)
    sim = Simulation(sc)
    report = sim.run()
    assert originated
    assert {source: len(times) for source, times in sim.audit.sent.items()} == originated
    assert report["traffic"]["messages_originated"] == sum(originated.values())


@pytest.mark.parametrize("name", LOCKED)
def test_a_run_keeps_exactly_the_declared_counts_and_reports_each_shown_one_where_declared(name):
    sim = Simulation(LOCKED[name])
    report = sim.run()
    assert list(sim.counts) == list(COUNT_NAMES)
    for block, keys in SHOWN_COUNTS.items():
        for key, count in keys.items():
            assert report[block][key] == sim.counts[count], (block, key, count)


def test_the_declaration_names_every_count_the_simulator_increments_and_no_other():
    """Read from sim.py's source: each `counts["name"]` increment, and the
    count each receive event names for _deliver. A count some locked run
    never reaches is checked here too."""
    source = pathlib.Path(sim_module.__file__).read_text(encoding="utf-8")
    incremented = set(re.findall(r'counts\["(\w+)"\] \+=', source))
    incremented |= set(re.findall(r'partial\(self\._deliver, "(\w+)"', source))
    assert sorted(incremented) == sorted(COUNT_NAMES)


def test_the_counts_no_report_shows_yet_are_the_four_receive_and_rekey_set_asides():
    shown = {name for keys in SHOWN_COUNTS.values() for name in keys.values()}
    assert sorted(UNREPORTED_COUNTS) == ["rekey_without_session", "rx_duplicates", "rx_ignored_down", "rx_unparseable"]
    assert shown.isdisjoint(UNREPORTED_COUNTS)
