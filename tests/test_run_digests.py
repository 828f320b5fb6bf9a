"""Whole-run behaviour lock: every run must reproduce its committed digest.

run_digests.json holds, per scenario, the SHA-256 of the canonical report
followed by the trace, taken from a known-good build. Rerunning the same
build twice cannot catch a refactor that shifts one RNG draw or reorders
two events; comparing against these stored bytes does. Regenerate with
scripts/regen_run_digests.py only when output is meant to change.
"""

import json
import pathlib

import pytest

from swarmlink.cli import SHIPPED_SCENARIOS, resolve_scenario
from swarmlink.golden import generated_scenarios, run_digest
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import run_scenario

DIGESTS_PATH = pathlib.Path(__file__).parent / "golden" / "run_digests.json"
GENERATED = generated_scenarios()
STORED = json.loads(DIGESTS_PATH.read_text())


def test_lock_covers_exactly_the_shipped_and_generated_scenarios():
    assert sorted(STORED) == sorted([*SHIPPED_SCENARIOS, *GENERATED])


@pytest.mark.parametrize("name", SHIPPED_SCENARIOS)
def test_shipped_scenario_matches_stored_digest(name):
    assert run_digest(resolve_scenario(name)) == STORED[name]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_scenario_matches_stored_digest(name):
    assert run_digest(scenario_from_dict(GENERATED[name])) == STORED[name]


@pytest.mark.parametrize("name", [*SHIPPED_SCENARIOS, *sorted(GENERATED)])
def test_every_first_delivery_has_one_latency_and_every_delivery_one_count(name):
    sc = scenario_from_dict(GENERATED[name]) if name in GENERATED else resolve_scenario(name)
    report, _ = run_scenario(sc)
    delivery = report["delivery"]
    assert report["latency"]["count"] == delivery["delivered"]
    assert report["traffic"]["messages_delivered"] == delivery["delivered"] + delivery["duplicate_deliveries"]
