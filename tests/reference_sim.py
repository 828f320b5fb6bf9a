"""The simulator with every fast path off, which the fast one must match.

`Reference` keeps `swarmlink.sim.Simulation`'s protocol handlers and, in
place of each rule sim.py's docstring says holds "exactly as if", applies
the plainer rule; that docstring names the override that does. Its heap
holds every tx_done, one per send, where the simulator runs a node's
queued sends back to back in one tx_done event while each next one is
the event run() would pop. Run on one scenario, both must show the same
`observed` run, and `observed` asserts on either that events, popped or
drained in place, start in strictly increasing (t, seq) order and that
`now` never goes back. Both share every protocol handler, so this proves
the fast paths, not the protocol: a fault in a handler shows in both.
"""

import heapq
import types
from functools import partial

import pytest

from swarmlink import links, mesh
from swarmlink import sim as sim_module
from swarmlink.air import Air
from swarmlink.errors import SwarmLinkError, ValidationError
from swarmlink.metrics import render_json
from swarmlink.sim import Simulation


class BruteForceAir(Air):
    """Who hears a send, from the positions, ranges and `down` on every
    call: no neighbour index, no covering cache."""

    def hears(self, sender, other, link):
        here, there = self.positions[sender], self.positions[other]
        return self.profiles[link].covers(links.distance(here, there))

    def neighbours(self, sender, link):
        return [n for n in self.positions if n != sender and self.hears(sender, n, link)]

    def covering(self, sender, dest):
        live = [n for n in self.positions if n != sender and n not in self.down]
        if not live or dest in self.down:
            return frozenset(self.profiles)  # the send reaches nobody, on any link
        targets = live if dest is None else [dest]
        return frozenset(name for name in self.profiles if any(self.hears(sender, n, name) for n in targets))

    def receivers(self, sender, dest, link):
        if dest is None:
            return [n for n in self.neighbours(sender, link) if n not in self.down]
        return (dest,) if dest not in self.down and self.hears(sender, dest, link) else ()


class Reference(Simulation):
    def __init__(self, sc):
        super().__init__(sc)
        self.air = BruteForceAir(self.air.positions, self.air.profiles)  # nothing read it yet

    def _reserve_tx_done(self, node, end):
        node.tx_end = end  # until Simulation._tx_done clears it
        self._schedule(end, "tx_done", node.tx_done)

    def _on_air(self, node):
        return node.tx_end is not None

    def _tx_done(self, node):
        """One send per event: the next one's tx_done goes on the heap as it starts."""
        node.tx_end = None
        if node.id not in self.air.down:
            self._pump(node)

    def _enqueue(self, node, items):
        for item in items:
            super()._enqueue(node, (item,))

    def _deliver(self, counter, receivers, data, _carried, tally=None):
        """Each live receiver parses the bytes itself, so no two share a
        packet or box, no box starts with a memo, and each receiver goes
        to its handler."""
        self.counts[counter] += len(receivers)
        for receiver_id in receivers:
            if receiver_id in self.air.down:
                self.counts["rx_ignored_down"] += 1
                continue
            entry = self._rx_table.get(data[0]) if data else None
            try:
                message = entry[0].from_bytes(data) if entry else None
            except ValidationError:
                message = None
            if message is None:
                self.counts["rx_unparseable"] += 1
                continue
            node = self.nodes[receiver_id]
            try:
                outcome = entry[1](node, message)
            except SwarmLinkError as exc:
                outcome = self._security_event(node, exc)
            if tally is not None and outcome is not None:
                tally(outcome)

    def _rx_data_mesh(self, node, packet):
        """Simulation._rx_data_mesh, taking `mesh.handle_rx`'s own duplicate result."""
        result = mesh.handle_rx(node.mesh, node.keyring, node.window, packet, self.now)
        if result.duplicate:
            self.counts["rx_duplicates"] += 1
            return "rejected_dedup"
        self._deliver_frame(node, result.deliver)
        if result.forward is not None:
            jitter_max = self.sc.protocol.forward_jitter_max_s
            delay = self.rng_jitter.uniform(0.0, jitter_max) if jitter_max > 0 else 0.0
            forward = (sim_module._TxItem("data", result.forward.to_bytes(), None, result.forward),)
            self._schedule(self.now + delay, "timer", partial(self._enqueue, node, forward))
        return "delivered_new"


def observed(sim):
    """Run `sim`; its report bytes, trace lines, every count (the unreported
    ones too) and the popped (t, seq, kind) of every event but tx_done,
    which only the reference always queues. Asserts that the keys (t, seq)
    of the events run() pops, and of the tx_done events a drain runs in
    place, strictly increase, and that `now` never goes back while they run."""
    popped, keys, times = [], [], []

    def recording_pop(heap):
        popped.append(heapq.heappop(heap))
        return popped[-1]

    class Watched(type(sim)):
        """Records each value set as `_event` or `now`: each event's, as it starts."""

        def __setattr__(self, name, value):
            if name == "_event":
                keys.append(value[:2])
            elif name == "now":
                times.append(value)
            super().__setattr__(name, value)

    cls, sim.__class__ = type(sim), Watched
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim_module, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=recording_pop))
            report = sim.run()
    finally:
        sim.__class__ = cls
    assert all(a < b for a, b in zip(keys, keys[1:])), "event keys out of order"
    # run() sets `now` to the duration as it ends, which may be below the last event's time.
    *steps, end = times
    assert end == sim.sc.duration_s and all(a <= b for a, b in zip(steps, steps[1:])), "now went back"
    return render_json(report), list(sim.trace), sim.counts, [e[:3] for e in popped if e[2] != "tx_done"]
