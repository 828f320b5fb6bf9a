"""Who hears a send: the neighbour index, the reach cache and the
receiver pick of one run, over the unit discs of `links.LinkProfile.covers`.

`profiles` is the run's one copy of its link profiles: a link event
replaces an entry, and the link selector reads them from here. Both caches
are exact: positions are static, a link event changes only fields `Air`
does not read (range_m is not a scenario.MutableLinkField), and `down` only
grows. So a neighbour list holds for good once built, and the one reach
cache, per (sender, destination), holds until a node goes down, the one
change to who hears a send: `node_down` clears it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from . import links

Reach = Tuple[FrozenSet[str], Dict[str, Sequence[int]]]


class Air:
    """The reach of one run's nodes over its links."""

    def __init__(self, positions: Mapping[int, Tuple[float, float]], profiles: Mapping[str, links.LinkProfile]):
        self.positions = dict(positions)  # node id -> position, in node order
        self.profiles = dict(profiles)
        self.down: Set[int] = set()
        # (node, link) -> neighbours(), built on first use: set-up does not grow with N^2.
        self._neighbours: Dict[Tuple[int, str], List[int]] = {}
        self._reach: Dict[Tuple[int, Optional[int]], Reach] = {}

    def node_down(self, node_id: int) -> None:
        self.down.add(node_id)
        self._reach.clear()

    def neighbours(self, sender: int, link: str) -> List[int]:
        """The peers `link` reaches from `sender`, in node order, down or not."""
        key = (sender, link)
        found = self._neighbours.get(key)
        if found is None:
            covers = self.profiles[link].covers
            here = self.positions[sender]
            found = [
                other for other, there in self.positions.items()
                if other != sender and covers(links.distance(here, there))
            ]
            self._neighbours[key] = found
        return found

    def reach(self, sender: int, dest: Optional[int]) -> Reach:
        """The links that cover a send from `sender` to `dest` (None
        broadcasts), and a dict of link -> `receivers()` that fills as they
        are picked. A broadcast is covered by unbounded links (whose
        neighbour lists are not built) and links with a live neighbour; a
        unicast by the links whose range holds `dest`. With no live peer at
        all, or a down `dest`, every link covers, and the send reaches nobody."""
        key = (sender, dest)
        found = self._reach.get(key)
        if found is None:
            down = self.down
            if dest in down or len(down) + 1 == len(self.positions):
                covering = frozenset(self.profiles)
            elif dest is None:
                covering = frozenset(
                    name for name, p in self.profiles.items()
                    if p.range_m is None or any(n not in down for n in self.neighbours(sender, name))
                )
            else:
                dist = links.distance(self.positions[sender], self.positions[dest])
                covering = frozenset(name for name, p in self.profiles.items() if p.covers(dist))
            found = self._reach[key] = (covering, {})
        return found

    def covering(self, sender: int, dest: Optional[int]) -> FrozenSet[str]:
        """The names of the links that cover a send (see `reach`)."""
        return self.reach(sender, dest)[0]

    def receivers(self, sender: int, dest: Optional[int], link: str) -> Sequence[int]:
        """Who a send on `link` reaches: a broadcast, every live neighbour in
        node order; a unicast, its destination if live and covered, else nobody."""
        covering, heard = self.reach(sender, dest)
        found = heard.get(link)
        if found is None:
            down = self.down
            if dest is None:
                found = self.neighbours(sender, link)
                found = [n for n in found if n not in down] if down else found
            else:
                found = (dest,) if dest not in down and link in covering else ()
            heard[link] = found
        return found
