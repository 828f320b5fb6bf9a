"""Delivery accounting and summary statistics tests."""

import copy
import json
import math
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmlink.errors import UnknownMessage
from swarmlink.metrics import DeliveryAudit, latency_summary, percentile, render_csv, render_json


def test_percentile_nearest_rank():
    vals = [1.0, 2.0, 3.0, 4.0]
    # nearest-rank: index ceil(f * n) - 1 into the sorted list
    assert percentile(vals, 0.50) == 2.0
    assert percentile(vals, 0.95) == 4.0
    assert percentile(vals, 0.25) == 1.0
    assert percentile([7.0], 0.5) == 7.0
    assert percentile([], 0.5) is None


def _tag(number):
    return number.to_bytes(8, "big")


def test_audit_pair_stats():
    a = DeliveryAudit()
    first = a.record_send(source=2, t=1.0)
    second = a.record_send(source=2, t=2.0)
    assert (first, second) == (_tag(1), _tag(2))  # numbered per source, from 1
    a.record_delivery(source=2, payload=first, node=3, t=1.2)
    a.record_delivery(source=2, payload=second + bytes(4), node=3, t=2.4)  # the tag opens the payload
    a.record_delivery(source=2, payload=first, node=1, t=1.3)
    stats = a.pair_stats((1, 2, 3))
    assert stats["2->3"] == {"sent": 2, "delivered": 2, "ratio": 1.0}
    assert stats["2->1"] == {"sent": 2, "delivered": 1, "ratio": 0.5}
    assert "3->1" not in stats  # only sources that actually sent get rows


def test_pair_stats_shares_one_entry_per_distinct_count():
    a = DeliveryAudit()
    one, two = a.record_send(source=1, t=0.0), a.record_send(source=2, t=0.0)
    for source, payload, node in ((1, one, 2), (1, one, 3), (2, two, 1)):
        a.record_delivery(source=source, payload=payload, node=node, t=0.5)
    stats = a.pair_stats((1, 2, 3))
    assert stats["1->2"] is stats["1->3"] is stats["2->1"]  # each (1 sent, 1 delivered)
    assert stats["2->3"] == {"sent": 1, "delivered": 0, "ratio": 0.0}


def test_audit_counts_duplicates_without_double_latency():
    a = DeliveryAudit()
    tag = a.record_send(source=2, t=0.0)
    a.record_delivery(source=2, payload=tag, node=3, t=0.5)
    a.record_delivery(source=2, payload=tag, node=3, t=0.9)  # same pair again
    assert a.duplicate_deliveries == 1
    assert a.latencies() == [0.5]


def test_latencies_between_filters_pairs():
    a = DeliveryAudit()
    assert a.record_send(source=1, t=0.0) == a.record_send(source=2, t=0.0) == _tag(1)
    a.record_delivery(source=1, payload=_tag(1), node=2, t=0.3)
    a.record_delivery(source=2, payload=_tag(1), node=3, t=0.7)
    assert a.latencies_between((2,), (3,)) == [0.7]
    assert a.latencies_between((1, 2), (2, 3)) == [0.3, 0.7]


def test_ledger_keeps_two_flat_rows_per_source_not_an_object_per_pair():
    a = DeliveryAudit()
    for src, t in ((1, 0.0), (1, 0.25), (2, 0.0)):
        a.record_send(source=src, t=t)
    for src, number, node, t in ((1, 1, 2, 0.3), (1, 1, 65535, 0.4), (1, 2, 2, 0.5), (2, 1, 1, 0.6), (1, 1, 2, 0.9)):
        a.record_delivery(source=src, payload=_tag(number), node=node, t=t)
    assert sorted(a.sent) == sorted(a.reach) == sorted(a.rows) == [1, 2]
    assert a.sent[1].typecode == "d" and list(a.sent[1]) == [0.0, 0.25]
    assert a.reach[1] == [a.node_bits[2] | a.node_bits[65535], a.node_bits[2]]
    latencies, dests = a.rows[1]
    assert (latencies.typecode, dests.typecode) == ("d", "H")
    assert (list(latencies), list(dests)) == ([0.3, 0.4, 0.25], [2, 65535, 2])  # delivery order
    assert a.pair_stats((1, 2, 65535))["1->2"] == {"sent": 2, "delivered": 2, "ratio": 1.0}


@pytest.mark.parametrize(
    "source, payload",
    [
        pytest.param(2, _tag(1)[:7], id="short_payload"),
        pytest.param(3, _tag(1), id="unknown_source"),
        pytest.param(2, _tag(0), id="number_0"),
        pytest.param(2, _tag(3), id="number_past_the_count"),
    ],
)
def test_ledger_refuses_a_tag_no_source_sent_and_stays_unchanged(source, payload):
    a = DeliveryAudit()
    a.record_send(source=2, t=0.0)
    a.record_send(source=2, t=1.0)
    a.record_delivery(source=2, payload=_tag(1), node=3, t=0.5)
    before = copy.deepcopy(a)
    with pytest.raises(UnknownMessage):
        a.record_delivery(source=source, payload=payload, node=4, t=2.0)
    assert a == before


def test_latency_summary_shape():
    s = latency_summary([0.1, 0.2, 0.3])
    assert s["count"] == 3
    assert math.isclose(s["mean_s"], 0.2)
    assert s["p50_s"] == 0.2
    assert s["max_s"] == 0.3
    empty = latency_summary([])
    assert empty["count"] == 0 and empty["mean_s"] is None


def test_latency_mean_folds_left_to_right_on_every_python():
    # Ten 0.1s fold to 0.9999999999999999; a compensated sum() gives 1.0.
    assert latency_summary([0.1] * 10)["mean_s"] == 0.09999999999999999


def test_render_csv_rows():
    report = {
        "scenario": "unit",
        "seed": 1,
        "mode": "mesh",
        "delivery": {
            "pairs": {
                "2->3": {"sent": 4, "delivered": 3, "ratio": 0.75},
            }
        },
    }
    out = render_csv(report)
    lines = out.strip().splitlines()
    assert lines[0].startswith("scenario,")
    assert lines[1] == "unit,1,mesh,2,3,4,3,0.750000"


class _Str(str):
    def __str__(self):
        return "not this"


class _Int(int):
    def __repr__(self):
        return "not this"


class _Float(float):
    def __repr__(self):
        return "not this"


class _List(list):
    pass


_texts = st.one_of(
    st.text(max_size=8),
    # Non-ASCII, control characters, quotes, a lone surrogate and %-format syntax.
    st.lists(
        st.sampled_from(['\x00', '\x1f', '"', '\\', '%', '%(', ')s', '\u00e9', '\u2028', '\ud800', '\U0001f600', 'a']),
        max_size=5,
    ).map("".join),
)
_floats = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-7]))
# What a report holds: dicts with str keys, lists, and exact scalars.
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-(2**80), 2**80), _floats, _texts)


def _dicts(values):
    return st.dictionaries(_texts, values, max_size=4)


_json_trees = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        _dicts(inner),
        # One dict of scalars at three depths, so it is indented for each.
        _dicts(_scalars).map(lambda leaf: {"leaf": leaf, "deeper": {"leaf": leaf, "list": [leaf]}}),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(tree=_json_trees)
@example(tree={
    "pairs": {"1->2": {"sent": 1, "ratio": 1.0, "delivered": 1}},
    "latency": {"by_node": {"2": math.nan, "10": -math.inf, "-1": math.inf}, "sent": 1, "ratio": 0.5, "delivered": 0},
    "text": ["\u00e9\x00\ud800", {"%(x)s": "100%"}],
})
# A str subclass key, in two dicts of scalars and in a dict of containers.
@example(tree={"a": {_Str("str_subclass_key"): 1}, "b": {_Str("str_subclass_key"): 2}, _Str("c"): [{}]})
def test_render_json_writes_exactly_what_json_dumps_writes(tree):
    assert render_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_render_json_reuses_a_shared_dict_text_only_at_its_own_depth():
    # One entry object under several keys of one level, then again one and
    # two levels deeper: each place must show it indented for its own depth.
    entry = {"delivered": 1, "ratio": 0.5, "sent": 2}
    nested = {"inner": entry, "list": [entry, {"leaf": entry}]}
    tree = {"a": entry, "b": entry, "c": nested, "d": nested, "e": {"x": entry, "y": entry}, "f": 1}
    assert render_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_render_json_of_a_dict_that_holds_itself_ends_in_recursion_error():
    tree = {"a": {"sent": 1}}
    tree["b"] = tree
    with pytest.raises(ValueError):
        json.dumps(tree, sort_keys=True, indent=2)
    with pytest.raises(RecursionError):
        render_json(tree)


@pytest.mark.parametrize("tree", [
    {"a": object()},  # an unserialisable value
    {"a": [1, {2, 3}]},
    {"a": {"b": b"bytes"}},
    {(1, 2): 1},  # an unsupported key type
    {"a": {frozenset(): [1]}},
    {"a": 1, 2: 3},  # str and int keys: no order between them
    {"nested": {"a": {}, 1: []}},
])
def test_render_json_raises_type_error_where_json_dumps_does(tree):
    with pytest.raises(TypeError):
        json.dumps(tree, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        render_json(tree)


@pytest.mark.parametrize("tree", [
    {1: "a"},  # keys json would convert to text
    {"a": {1.5: 2}},
    {True: 1},
    {None: 1},
    {"a": (1, 2)},  # a tuple
    {"a": [()]},
    {"a": _Str("b")},  # subclasses
    {"a": [_Int(1)]},
    {"a": {"b": _Float(0.5)}},
    {"a": OrderedDict(b=1)},
    {"a": _List([1])},
])
def test_render_json_raises_type_error_on_what_json_dumps_writes_but_no_report_holds(tree):
    json.dumps(tree, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        render_json(tree)


class _ReferenceAudit:
    """The brute-force audit the ledger replaced: one ((source, number), node)
    -> time entry per first delivery, and every statistic rebuilt from those
    entries. pair_stats keeps only sources in `node_ids`, as the ledger's
    does; the ledger refuses messages never sent, so the reference never sees them."""

    def __init__(self):
        self.originated = {}  # (source, number) -> t
        self.delivered = {}
        self.duplicate_deliveries = 0

    def record_delivery(self, message, node, t):
        if (message, node) in self.delivered:
            self.duplicate_deliveries += 1
        else:
            self.delivered[(message, node)] = t

    def pair_stats(self, node_ids):
        sent, got = {}, {}
        for message in self.originated:
            src = message[0]
            if src not in node_ids:
                continue
            for dst in node_ids:
                if dst != src:
                    sent[(src, dst)] = sent.get((src, dst), 0) + 1
                    if (message, dst) in self.delivered:
                        got[(src, dst)] = got.get((src, dst), 0) + 1
        return {
            f"{src}->{dst}": {"sent": n, "delivered": got.get((src, dst), 0), "ratio": got.get((src, dst), 0) / n}
            for (src, dst), n in sorted(sent.items())
        }

    def latencies_between(self, sources, dests):
        return sorted(
            t - self.originated[message]
            for (message, node), t in self.delivered.items()
            if message[0] in sources and node in dests
        )


# Node ids span the 16-bit range, so the ledger's bitmask cannot use them as bit indexes.
_NODES = (1, 2, 7, 300, 65535)
_times = st.floats(0.0, 100.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    sources=st.lists(st.tuples(st.sampled_from(_NODES), _times), max_size=12),
    # numbers 0..6 per source, so some were never sent; repeats and self-deliveries both occur.
    deliveries=st.lists(
        st.tuples(st.sampled_from(_NODES), st.integers(0, 6), st.sampled_from(_NODES), _times), max_size=60
    ),
    subset=st.sets(st.sampled_from(_NODES)),
)
def test_ledger_matches_the_per_delivery_reference(sources, deliveries, subset):
    ledger, ref = DeliveryAudit(), _ReferenceAudit()
    for source, t in sources:
        tag = ledger.record_send(source, t)
        number = sum(1 for message in ref.originated if message[0] == source) + 1
        assert tag == _tag(number)
        ref.originated[(source, number)] = t
    for source, number, node, t in deliveries:
        if (source, number) in ref.originated:
            ledger.record_delivery(source, _tag(number), node, t)
            ref.record_delivery((source, number), node, t)
        else:
            with pytest.raises(UnknownMessage):
                ledger.record_delivery(source, _tag(number), node, t)
    assert ledger.duplicate_deliveries == ref.duplicate_deliveries
    assert ledger.latencies() == ref.latencies_between(_NODES, _NODES)
    for node_ids in (_NODES, tuple(sorted(subset))):
        assert ledger.pair_stats(node_ids) == ref.pair_stats(node_ids)
        assert list(ledger.pair_stats(node_ids)) == list(ref.pair_stats(node_ids))
        assert ledger.latencies_between(node_ids, _NODES) == ref.latencies_between(node_ids, _NODES)
        assert ledger.latencies_between(_NODES, node_ids) == ref.latencies_between(_NODES, node_ids)
