"""Who hears a send: one reach cache per run, over the unit discs of
`links.LinkProfile.covers`.

`profiles` is the run's one copy of its link profiles: a link event
replaces an entry, and the link selector reads them from here. The cache,
per (sender, destination), is exact: positions are static, a link event
changes only fields `Air` does not read (range_m is not a
scenario.MutableLinkField), and `down` only grows. So an entry holds until
a node goes down, the one change to who hears a send, and `node_down`
clears the cache. A miss fills its entry whole, every link at once, from
one distance per peer. An unbounded link's receivers are every live peer,
kept as one tuple per broadcasting sender: on a swarm of N nodes that is
N tuples of N - 1 ids, about 8 N^2 bytes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

from . import links

Reach = Tuple[FrozenSet[str], Dict[str, Tuple[int, ...]]]


class Air:
    """The reach of one run's nodes over its links."""

    def __init__(self, positions: Mapping[int, Tuple[float, float]], profiles: Mapping[str, links.LinkProfile]):
        self.positions = dict(positions)  # node id -> position, in node order
        self.profiles = dict(profiles)
        self.down: Set[int] = set()
        self._reach: Dict[Tuple[int, Optional[int]], Reach] = {}

    def node_down(self, node_id: int) -> None:
        self.down.add(node_id)
        self._reach.clear()

    def reach(self, sender: int, dest: Optional[int]) -> Reach:
        """The links that cover a send from `sender` to `dest` (None
        broadcasts), and each link's receivers. A broadcast reaches the
        live peers in a link's range, in node order, and is covered by the
        links that reach one; a unicast reaches a live `dest` on the links
        whose range holds it. With no live peer at all, or a down `dest`,
        every link covers, and the send reaches nobody."""
        key = (sender, dest)
        found = self._reach.get(key)
        if found is not None:
            return found
        down, positions, profiles = self.down, self.positions, self.profiles
        here = positions[sender]
        if dest is None:
            live = [
                (other, links.distance(here, there)) for other, there in positions.items()
                if other != sender and other not in down
            ]
            heard = {name: tuple(n for n, d in live if p.covers(d)) for name, p in profiles.items()}
        else:
            live = () if dest in down else (dest,)
            dist = links.distance(here, positions[dest])
            heard = {name: live if p.covers(dist) else () for name, p in profiles.items()}
        covering = frozenset(name for name, hearing in heard.items() if hearing) if live else frozenset(profiles)
        found = self._reach[key] = (covering, heard)
        return found
