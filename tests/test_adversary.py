"""Adversary taps: one per declared kind, and the simulator names none."""

import inspect
import types

from swarmlink import adversary, crypto, sim
from swarmlink.cli import resolve_scenario
from swarmlink.scenario import ADVERSARY_KINDS
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
