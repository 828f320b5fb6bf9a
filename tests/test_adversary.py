"""Adversary taps: one per declared kind, and the simulator names none."""

import inspect

from swarmlink import adversary, sim
from swarmlink.scenario import ADVERSARY_KINDS


def test_every_adversary_kind_has_a_tap():
    assert sorted(adversary.TAPS) == sorted(ADVERSARY_KINDS)
    assert len({tap.name for tap in adversary.TAPS.values()}) == len(ADVERSARY_KINDS)


def test_the_simulator_names_no_adversary_kind():
    source = inspect.getsource(sim)
    assert [kind for kind in ADVERSARY_KINDS if kind in source] == []
