"""Adversary taps: one per declared kind, and the simulator names none."""

import inspect
import types

import pytest

from swarmlink import adversary, codec, crypto, sim
from swarmlink.cli import resolve_scenario
from swarmlink.golden import generated_scenarios
from swarmlink.scenario import ADVERSARY_KINDS, scenario_from_dict
from swarmlink.sim import run_scenario


def test_every_adversary_kind_has_a_tap():
    assert sorted(adversary.TAPS) == sorted(ADVERSARY_KINDS)
    assert len({tap.name for tap in adversary.TAPS.values()}) == len(ADVERSARY_KINDS)


def test_the_simulator_names_no_adversary_kind():
    source = inspect.getsource(sim)
    assert [kind for kind in ADVERSARY_KINDS if kind in source] == []


def test_replay_outcomes_account_for_every_injected_reception():
    report, _ = run_scenario(resolve_scenario("replay_attack"))
    replay = report["adversary"]["replay"]
    tallied = sum(replay["rejected"].values()) + replay["delivered_new"]
    assert tallied == report["conservation"]["adv_rx_processed"] > 0


def test_eavesdropper_builds_one_key_per_leaked_epoch_not_per_packet(monkeypatch):
    built = []

    def counted_key(*args, **kwargs):
        built.append(args)
        return crypto.SymmetricKey(*args, **kwargs)

    spy = types.SimpleNamespace(**{**vars(crypto), "SymmetricKey": counted_key})
    monkeypatch.setattr(adversary, "crypto", spy)
    report, _ = run_scenario(resolve_scenario("eavesdrop_keyleak"))
    spied = report["adversary"]["eavesdrop"]
    assert spied["leaked_epochs"] == [1] and spied["recovered_packets"] > 1
    assert len(built) == 1


@pytest.mark.parametrize(
    "name, recovered",  # recovered counts as read before the tap kept its table of opened frames
    [("eavesdrop_keyleak", {"1": 96}), ("contested13_replay", {"2": 1261})],
)
def test_eavesdropper_opens_each_leaked_ciphertext_once_and_still_counts_every_copy(monkeypatch, name, recovered):
    scenarios = generated_scenarios()
    sc = scenario_from_dict(scenarios[name]) if name in scenarios else resolve_scenario(name)
    opens = []
    real_open = crypto.aead_open

    def counted_open(key, nonce, box, aad):
        opens.append((key, nonce, aad, box.ciphertext, box.tag))
        return real_open(key, nonce, box, aad)

    monkeypatch.setattr(crypto, "aead_open", counted_open)
    simulation = sim.Simulation(sc)
    report = simulation.run()
    tap = next(t for t in simulation.taps if t.name == "eavesdrop")
    tap_opens = [entry[1:] for entry in opens if any(entry[0] is key for key in tap.leaked.values())]
    assert report["adversary"]["eavesdrop"]["recovered_by_epoch"] == recovered
    assert 0 < len(tap_opens) == len(set(tap_opens)) < sum(recovered.values())
    assert len(tap.opened) <= codec.OPENED_FRAMES_CAPACITY
