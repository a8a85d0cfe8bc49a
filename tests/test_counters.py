"""The cost model stays fixed, and per-operation records cost only a sink.

The deterministic counters (links, comparisons, walk iterations, cuts,
state changes, rank clamps) and the potential are the laboratory's cost
model.  The pins below were taken before the telemetry boundaries were made
sink-gated; any change that moves one of them changes what the experiments
measure and has to say why.
"""

from __future__ import annotations

import hashlib
import random
import struct

import pytest

from fibcascade import POLICY_TAGS, Policy, Universe
from fibcascade.cli import dijkstra_policy, gen_graph
from fibcascade.instrumentation import COUNTER_FIELDS, Telemetry
from fibcascade.oracle import gen_trace, replay_ops, run_trace

# counters in COUNTER_FIELDS order, then phi; the randomized rows of these
# two tables and of TRACE_SHAPE_PINS were taken again when its walk moved
# to start at the parent
TRACE_PINS = {
    "simple": (257, 363, 620, 170, 127, 127, 81, 58, 81),
    "heap-order": (182, 240, 565, 22, 18, 18, 4, 5, 32),
    "increasing-rank": (254, 362, 616, 148, 127, 110, 70, 37, 75),
    "passive-child": (244, 367, 611, 86, 127, 46, 29, 0, 47),
    "eager": (255, 359, 614, 116, 127, 211, 152, 0, 143),
    "naive-increasing": (262, 353, 615, 195, 127, 0, 0, 51, 43),
    "zero-rank": (260, 355, 615, 150, 127, 0, 0, 0, 47),
    "randomized": (262, 358, 620, 182, 127, 0, 0, 65, 26),
    "non-cascading": (242, 375, 617, 0, 127, 0, 0, 40, 18),
    "classic": (222, 0, 661, 14, 14, 11, 5, 0, 16),
}

DIJKSTRA_PINS = {
    "simple": (1697, 1265, 2962, 439, 303, 303, 221, 38, 35),
    "heap-order": (1661, 1180, 3144, 309, 216, 216, 143, 41, 36),
    "increasing-rank": (1714, 1282, 2996, 399, 303, 270, 198, 20, 32),
    "passive-child": (1698, 1266, 2964, 292, 303, 197, 193, 0, 9),
    "eager": (1731, 1225, 2956, 484, 303, 1021, 945, 0, 42),
    "naive-increasing": (1764, 1253, 3017, 694, 303, 0, 0, 49, 7),
    "zero-rank": (1803, 1228, 3031, 745, 303, 0, 0, 0, 9),
    "randomized": (1728, 1238, 2966, 555, 303, 0, 0, 68, 6),
    "non-cascading": (1712, 1297, 3009, 0, 303, 0, 0, 13, 7),
    "classic": (1809, 0, 3497, 257, 257, 206, 204, 0, 8),
}

# 3,000 inserts, then delete-min to empty, taken before the fair link moved
# into the registry pass: ranks outgrow the registry's first 8 slots, so its
# growth is pinned as well
DRAIN_PINS = {
    "simple": (25708, 12371, 38079, 0, 0, 0, 0, 0, 0),
    "heap-order": (25708, 12371, 38079, 0, 0, 0, 0, 0, 0),
    "increasing-rank": (25708, 12371, 38079, 0, 0, 0, 0, 0, 0),
    "passive-child": (25708, 12371, 38079, 0, 0, 0, 0, 0, 0),
    "eager": (25708, 12371, 38079, 0, 0, 9291, 7059, 0, 0),
    "naive-increasing": (25708, 12371, 38079, 0, 0, 0, 0, 0, 0),
    "zero-rank": (25708, 12371, 38079, 0, 0, 0, 0, 0, 0),
    "randomized": (25708, 12371, 38079, 0, 0, 0, 0, 0, 0),
    "non-cascading": (25708, 12371, 38079, 0, 0, 0, 0, 0, 0),
    "classic": (27095, 0, 43923, 0, 0, 0, 0, 0, 0),
}

# sha256 (first 16 hex digits) of the shape of every live heap after every
# operation, taken before delete-min walked the child chain in one pass:
# these pin tie-breaking, child order and the registry's scan order, which
# the counter totals above do not see
TRACE_SHAPE_PINS = {
    "simple": "d5af9ede68aae1f7",
    "heap-order": "d014ddbdb14b9b56",
    "increasing-rank": "4ee74b465d12bd07",
    "passive-child": "fa52a3f5f99a77a1",
    "eager": "d0891e3f5668f61f",
    "naive-increasing": "a660f42c3dd1b7a8",
    "zero-rank": "652ba9a82597ed06",
    "randomized": "500815bfc860ca9e",
    "non-cascading": "d6f1e8a6e4b3ca9d",
    "classic": "ff40ef1037a6eec8",
}

# the drain of DRAIN_PINS, after every insert and every delete-min; with no
# decrease-key, the policies that give a link's loser no state share a shape
DRAIN_SHAPE_PINS = {
    "simple": "f59f2a0f581fffa3",
    "heap-order": "f59f2a0f581fffa3",
    "increasing-rank": "f59f2a0f581fffa3",
    "passive-child": "53d6f61963e9439d",
    "eager": "3adbe320556d3c57",
    "naive-increasing": "f59f2a0f581fffa3",
    "zero-rank": "f59f2a0f581fffa3",
    "randomized": "f59f2a0f581fffa3",
    "non-cascading": "f59f2a0f581fffa3",
    "classic": "1aeba05a3136c6d1",
}

# sha256 (first 16 hex digits) of every record of _TRACE's replay, in order:
# its kind, then n_before, each counter delta in COUNTER_FIELDS order and
# d_phi; taken before op_begin read the counters slot by slot and op_end
# filled the record field by field.  These pin which operation each delta
# lands in, which the sums over a trace do not see
RECORD_STREAM_PINS = {
    "simple": "c7bbb1ba77f3a333",
    "heap-order": "3923641733568b49",
    "increasing-rank": "d5ec51c16ee5a793",
    "passive-child": "ca2089a607cad8ee",
    "eager": "397ebd9b9644de4d",
    "naive-increasing": "fe4cfc1acbb35c45",
    "zero-rank": "bfef668a9755db15",
    "randomized": "a3746b6461d687d2",
    "non-cascading": "908a217520899b71",
    "classic": "f3013b3021084031",
}

_TRACE = gen_trace(400, seed=11)


def _snapshot(tele) -> tuple[int, ...]:
    return tuple(tele.counters().values()) + (tele.phi,)


def _add_shapes(universe, digest) -> None:
    """Feed ``digest`` every live heap's name, node count and preorder
    ``(uid, rank, state, parent uid)`` in child order, roots in list order."""
    for heap in universe.live_heaps():
        out: list[int] = []
        for root in heap.iter_roots():
            node = root
            while True:
                out += (node.uid, node.rank, node.state, node.parent.uid)
                if node.child is not None:
                    node = node.child
                    continue
                while node.after is None and node is not root:
                    node = node.parent
                if node is root:
                    break
                node = node.after
        digest.update(f"{heap.name} {len(out) // 4};".encode())
        digest.update(struct.pack(f"<{len(out)}q", *out))


def test_pins_cover_every_policy():
    assert set(TRACE_PINS) == set(DIJKSTRA_PINS) == set(POLICY_TAGS)
    assert set(DRAIN_PINS) == set(TRACE_SHAPE_PINS) == set(POLICY_TAGS)
    assert set(DRAIN_SHAPE_PINS) == set(RECORD_STREAM_PINS) == set(POLICY_TAGS)
    assert tuple(Universe().telemetry.counters()) == COUNTER_FIELDS


def test_no_pinned_potential_is_negative():
    # run_checks asserts phi >= 0, so a negative pin would record a defect
    for pins in (TRACE_PINS, DIJKSTRA_PINS):
        assert {tag: row[-1] for tag, row in pins.items() if row[-1] < 0} == {}


@pytest.mark.parametrize("tag", POLICY_TAGS)
def test_trace_counters_are_pinned(tag):
    universe, _ = replay_ops(_TRACE, policy=tag, seed=2)
    assert _snapshot(universe.telemetry) == TRACE_PINS[tag]


@pytest.mark.parametrize("tag", POLICY_TAGS)
def test_trace_shapes_are_pinned(tag):
    digest = hashlib.sha256()
    replay_ops(
        _TRACE,
        policy=tag,
        seed=2,
        on_op=lambda index, universe, heaps: _add_shapes(universe, digest),
    )
    assert digest.hexdigest()[:16] == TRACE_SHAPE_PINS[tag]


@pytest.mark.parametrize("tag", POLICY_TAGS)
def test_dijkstra_counters_are_pinned(tag):
    adj = gen_graph(300, 750, seed=4)
    _, stats, phi = dijkstra_policy(adj, Policy(tag), 2)
    assert tuple(stats[f] for f in COUNTER_FIELDS) + (phi,) == DIJKSTRA_PINS[tag]


def _drain(tag, on_op=None) -> Universe:
    """Insert 3,000 keys, then delete-min to empty, calling
    ``on_op(universe)`` after every operation."""
    universe = Universe(seed=5)
    heap = universe.make_heap(tag)
    for key in random.Random(3).sample(range(10**6), 3000):
        heap.insert(universe.make_item(key))
        if on_op is not None:
            on_op(universe)
    keys = []
    for _ in range(3000):
        keys.append(heap.delete_min().key)
        if on_op is not None:
            on_op(universe)
    assert keys == sorted(keys) and heap.is_empty
    return universe


@pytest.mark.parametrize("tag", POLICY_TAGS)
def test_drain_counters_are_pinned(tag):
    universe = _drain(tag)
    assert len(universe.registry) > 8
    assert _snapshot(universe.telemetry) == DRAIN_PINS[tag]


@pytest.mark.parametrize("tag", POLICY_TAGS)
def test_drain_shapes_are_pinned(tag):
    digest = hashlib.sha256()
    _drain(tag, lambda universe: _add_shapes(universe, digest))
    assert digest.hexdigest()[:16] == DRAIN_SHAPE_PINS[tag]


@pytest.mark.parametrize("tag", POLICY_TAGS)
def test_record_streams_are_pinned(tag):
    digest = hashlib.sha256()

    def add(rec):
        digest.update(rec.kind.encode() + b";")
        fields = (getattr(rec, f) for f in COUNTER_FIELDS)
        digest.update(struct.pack("<10q", rec.n_before, *fields, rec.d_phi))

    replay_ops(_TRACE, policy=tag, seed=2, record_sink=add)
    assert digest.hexdigest()[:16] == RECORD_STREAM_PINS[tag]


def test_no_record_is_built_without_a_sink(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a record was opened or built with no sink attached")

    # without a sink the heap operations call no record boundary at all, and
    # op_end is the one place a heap operation's record is built
    monkeypatch.setattr(Telemetry, "op_begin", forbidden)
    monkeypatch.setattr(Telemetry, "op_end", forbidden)
    for tag in POLICY_TAGS:
        universe, _ = replay_ops(_TRACE, policy=tag, seed=2)
        assert _snapshot(universe.telemetry) == TRACE_PINS[tag]


@pytest.mark.parametrize(
    "tag, attach_at, detach_at",
    [pytest.param(tag, 100, 300, id=tag) for tag in POLICY_TAGS]
    + [pytest.param(tag, None, None, id=f"{tag}-whole") for tag in POLICY_TAGS],
)
def test_a_sink_attached_between_operations_sees_every_later_delta(
    tag, attach_at, detach_at
):
    # a window edge of None is the trace's own: attached before the first
    # operation, or never detached
    universe = Universe(seed=2)
    tele = universe.telemetry
    records = []

    def attach():
        tele.record_sink = records.append
        return _snapshot(tele)

    def check_sums():
        moved = tuple(a - b for a, b in zip(_snapshot(tele), base))
        sums = tuple(
            sum(getattr(rec, f) for rec in records)
            for f in COUNTER_FIELDS + ("d_phi",)
        )
        assert sums == moved
        return len(records)

    base = attach() if attach_at is None else None
    after_detach = None
    for index, _, _, _ in run_trace(_TRACE, universe, {}, tag):
        if index == attach_at:
            base = attach()
        elif index == detach_at:
            tele.record_sink = None
            after_detach = check_sums()
    if detach_at is None:
        after_detach = check_sums()
    assert base is not None and after_detach is not None
    assert records, "the attached sink saw no operation"
    assert len(records) == after_detach  # detaching stops the records
    assert _snapshot(tele) == TRACE_PINS[tag]
