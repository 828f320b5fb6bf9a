"""A cache-free air that the fast one must match.

`BruteForceAir` answers `swarmlink.air.Air`'s three questions from the
positions, the link ranges and `down` on every call: no neighbour index,
no covering cache. Swapped in for a built Simulation's `air` before
`run()`, it must give the same report bytes, trace bytes and counts as the
fast air. That proves the caches, not the protocol: both runs share every
protocol handler, so a fault there shows in both.
"""

from swarmlink import links
from swarmlink.air import Air


class BruteForceAir(Air):
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
