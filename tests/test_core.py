"""Heap mechanics shared by every policy: links, delete-min consolidation,
meld, delete, and the potential bookkeeping."""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, strategies as st

from fibcascade import (
    BOTTOM,
    Heap,
    HeapError,
    MARKED,
    Policy,
    PreconditionError,
    UNMARKED,
    Universe,
)
from fibcascade.instrumentation import degree
from fibcascade.oracle import run_checks
from fibcascade.policies import RULES

from _reference import subtree_size
from _shaping import adopt, assert_phi_consistent, child_keys, counters_delta, wire

TREE_POLICIES = [p for p in Policy if p is not Policy.CLASSIC]


def test_make_heap_names_and_live_list():
    u = Universe()
    h0 = u.make_heap(Policy.SIMPLE)
    h1 = u.make_heap(Policy.SIMPLE, "special")
    assert h0.name == "h0"
    assert h1.name == "special"
    assert set(u.live_heaps()) == {h0, h1}


def test_a_universe_holds_only_its_live_heaps_after_melds():
    def heaps_alive():
        return sum(isinstance(o, Heap) for o in gc.get_objects())

    gc.collect()
    before = heaps_alive()
    u = Universe()
    made = [u.make_heap(Policy.SIMPLE) for _ in range(5)]
    made[1].meld(made[2])
    made.append(u.make_heap(Policy.SIMPLE))
    made[5].meld(made[1])
    made.append(u.make_heap(Policy.SIMPLE, "special"))
    made.append(u.make_heap(Policy.SIMPLE))
    # default names count every heap made, the melded-away ones too
    assert [h.name for h in made] == [
        "h0", "h1", "h2", "h3", "h4", "h5", "special", "h7"
    ]
    live = [made[i] for i in (0, 3, 4, 5, 6, 7)]
    assert u.live_heaps() == live  # in creation order
    del made
    assert heaps_alive() - before == len(live)  # the melded-away are freed


def test_make_heap_rejects_an_unknown_policy_tag():
    with pytest.raises(HeapError, match="^unknown policy tag 'bogus'$"):
        Universe().make_heap("bogus")


def test_make_item_rejects_the_sentinel_key():
    u = Universe()
    with pytest.raises(HeapError):
        u.make_item(BOTTOM)


def test_node_uses_slots():
    u = Universe()
    node = u.make_item(1)
    with pytest.raises(AttributeError):
        node.unexpected = True


def test_an_item_in_no_heap_has_no_parent():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    x = u.make_item(1)
    assert x.parent is None
    h.insert(x)
    assert x.parent is x  # a root is its own parent


@pytest.mark.parametrize("policy", list(Policy))
def test_removed_items_do_not_refer_to_themselves(policy):
    # a removed item is freed by reference count, not left for the collector
    u = Universe()
    h = u.make_heap(policy)
    nodes = [u.make_item(k) for k in (5, 3, 8, 1, 9, 4)]
    for node in nodes:
        h.insert(node)
    removed = [h.delete_min(), h.delete(nodes[2]), h.delete_min()]
    assert removed == [nodes[3], nodes[2], nodes[1]]
    for x in removed:
        assert x.parent is None
        assert x not in gc.get_referents(x)


def test_insert_and_find_min():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    keys = [5, 3, 9, 3, 7]
    for k in keys:
        h.insert(u.make_item(k))
    assert len(h) == 5
    assert h.find_min().key == 3
    assert_phi_consistent(u)


def test_insert_tie_goes_to_the_new_item():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    first = u.make_item(5)
    second = u.make_item(5)
    h.insert(first)
    h.insert(second)
    assert h.root is second


def test_insert_same_node_twice_is_rejected():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    node = u.make_item(1)
    h.insert(node)
    with pytest.raises(PreconditionError, match="is already in a heap"):
        h.insert(node)
    h.delete_min()
    with pytest.raises(PreconditionError, match=f"item {node.uid} was already removed"):
        h.insert(node)


def test_find_min_on_empty_heap_returns_none():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    assert h.find_min() is None


def test_delete_min_on_empty_heap_raises():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    with pytest.raises(PreconditionError):
        h.delete_min()


def test_delete_min_consolidation_shape():
    # root 0 with children [3, 2, 5]; the 5 carries one child of its own.
    # Scanning first-to-last pairs 3 with 2 (2 wins, rank 1), then that
    # winner with the rank-1 node 5 (2 wins again, rank 2).
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    r = u.make_item(0)
    a = u.make_item(3)
    b = u.make_item(2)
    c = u.make_item(5)
    d = u.make_item(7)
    wire(r, a, b, c)
    wire(c, d)
    c.rank = 1
    h.root = r
    adopt(u, h, [r, a, b, c, d])
    base = u.telemetry.counters()

    removed = h.delete_min()

    assert removed is r
    assert not removed.in_heap
    assert h.root is b and b.rank == 2
    assert child_keys(h.root) == [5, 3]
    delta = counters_delta(u, base)
    assert delta["fair_links"] == 2 and delta["naive_links"] == 0
    assert u.registry_is_clear()
    assert_phi_consistent(u)


def test_delete_min_returns_nodes_in_key_order():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    rng = random.Random(4)
    keys = rng.sample(range(10_000), 300)
    for k in keys:
        h.insert(u.make_item(k))
    drained = [h.delete_min().key for _ in range(len(keys))]
    assert drained == sorted(keys)
    assert len(h) == 0
    assert u.telemetry.phi == 0
    assert u.registry_is_clear()


@pytest.mark.parametrize("policy", ["simple", "classic"])
def test_registry_is_clear_between_operations(policy):
    # each class's delete-min empties the registry and makes its roots itself
    u = Universe()
    h = u.make_heap(policy)
    for k in range(64):
        h.insert(u.make_item(k ^ 21))
    for _ in range(64):
        h.delete_min()
        assert u.registry_is_clear()
        for root in h.iter_roots():
            assert root.parent is root
            assert root.before is None and root.after is None


def test_meld_keeps_the_smaller_root_and_consumes_the_other():
    u = Universe()
    h1 = u.make_heap(Policy.SIMPLE)
    h2 = u.make_heap(Policy.SIMPLE)
    h1.insert(u.make_item(2))
    h2.insert(u.make_item(9))
    phi_before = u.telemetry.phi

    out = h1.meld(h2)

    assert out is h1
    assert h1.root.key == 2
    assert len(h1) == 2
    assert not h2.live
    assert u.telemetry.phi == phi_before  # two roots became root + child
    with pytest.raises(PreconditionError):
        h2.insert(u.make_item(1))


# every entry point, called on (or, for meld, with) the consumed heap; x is
# its item, which went to the absorber, and spare an item in no heap
_ON_CONSUMED = {
    "find_min": lambda gone, live, x, spare: gone.find_min(),
    "insert": lambda gone, live, x, spare: gone.insert(spare),
    "meld-absorbed": lambda gone, live, x, spare: live.meld(gone),
    "meld-absorber": lambda gone, live, x, spare: gone.meld(live),
    "decrease_key": lambda gone, live, x, spare: gone.decrease_key(x, 0),
    "delete": lambda gone, live, x, spare: gone.delete(x),
    "delete_min": lambda gone, live, x, spare: gone.delete_min(),
}


@pytest.mark.parametrize("entry", _ON_CONSUMED)
def test_every_operation_on_a_consumed_heap_names_it(entry):
    u = Universe()
    absorber = u.make_heap(Policy.SIMPLE)
    gone = u.make_heap(Policy.SIMPLE)
    live = u.make_heap(Policy.SIMPLE)
    x = u.make_item(5)
    gone.insert(x)
    live.insert(u.make_item(7))
    absorber.meld(gone)
    with pytest.raises(PreconditionError, match="^heap 'h1' was consumed by a meld$"):
        _ON_CONSUMED[entry](gone, live, x, u.make_item(1))
    assert x.key == 5 and len(absorber) == 1 and len(live) == 1


def test_meld_rejects_self_and_mismatches():
    u = Universe()
    h1 = u.make_heap(Policy.SIMPLE)
    h2 = u.make_heap(Policy.EAGER_MARKING)
    with pytest.raises(HeapError):
        h1.meld(h1)
    with pytest.raises(HeapError):
        h1.meld(h2)
    other = Universe()
    h3 = other.make_heap(Policy.SIMPLE)
    with pytest.raises(HeapError):
        h1.meld(h3)


def test_meld_empty_sides():
    u = Universe()
    h1 = u.make_heap(Policy.SIMPLE)
    h2 = u.make_heap(Policy.SIMPLE)
    h2.insert(u.make_item(4))
    h1.meld(h2)
    assert h1.find_min().key == 4
    h3 = u.make_heap(Policy.SIMPLE)
    h1.meld(h3)
    assert len(h1) == 1


def test_decrease_key_rejects_increases_and_allows_equal():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    node = u.make_item(10)
    h.insert(node)
    with pytest.raises(PreconditionError):
        h.decrease_key(node, 11)
    h.decrease_key(node, 10)  # no-op re-key is fine
    assert node.key == 10


def test_decrease_key_rejects_the_sentinel_and_dead_nodes():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    node = u.make_item(10)
    h.insert(node)
    with pytest.raises(HeapError):
        h.decrease_key(node, BOTTOM)
    h.delete_min()
    with pytest.raises(PreconditionError, match=f"item {node.uid} was already removed"):
        h.decrease_key(node, 1)
    loose = u.make_item(10)  # made but never inserted
    with pytest.raises(PreconditionError, match=f"item {loose.uid} is not in a heap"):
        h.decrease_key(loose, 1)
    with pytest.raises(PreconditionError, match=f"item {loose.uid} is not in a heap"):
        h.delete(loose)


def test_decrease_key_to_new_minimum_moves_the_root():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    nodes = [u.make_item(k) for k in (8, 6, 4)]
    for n in nodes:
        h.insert(n)
    h.decrease_key(nodes[0], 1)
    assert h.find_min() is nodes[0]
    assert_phi_consistent(u)


SINGLE_TREE_ROWS = [p for p, rule in RULES.items() if rule.heap_class is Heap]


@pytest.mark.parametrize("key", [-1, 0, 3], ids=["beats", "ties", "loses"])
@pytest.mark.parametrize("policy", SINGLE_TREE_ROWS, ids=lambda p: p.value)
def test_relink_splices_the_node_against_the_root(policy, key):
    # root r (key 0) over a, x, c; x, a middle sibling, carries its child g
    # along and, as the first link argument, wins a tie
    u = Universe()
    h = u.make_heap(policy)
    r, a, x, c, g = (u.make_item(k) for k in (0, 5, 6, 7, 9))
    wire(r, a, x, c)
    wire(x, g)
    h.root = r
    adopt(u, h, [r, a, x, c, g])
    r.active = x.active = True
    loser_state = RULES[policy].losers[1]
    base = u.telemetry.counters()
    x.key = key
    h._relink(x)
    delta = counters_delta(u, base)
    assert (delta["cuts"], delta["comparisons"], delta["naive_links"]) == (1, 1, 1)
    if key <= 0:
        assert h.root is x and x.parent is x
        assert x.before is None and x.after is None
        assert child_keys(x) == [0, 9]
        assert child_keys(r) == [5, 7]
        loser = r
    else:
        assert h.root is r
        assert child_keys(r) == [3, 5, 7]
        assert child_keys(x) == [9]
        loser = x
    assert loser.parent is h.root and not loser.active
    assert loser.state == (UNMARKED if loser_state is None else loser_state)
    assert run_checks(u) == []


def test_delete_removes_by_identity_not_by_key():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    keep = u.make_item(5)
    target = u.make_item(5)
    low = u.make_item(1)
    for n in (keep, target, low):
        h.insert(n)

    h.delete(target)

    assert len(h) == 2
    assert not target.in_heap
    assert keep.in_heap
    assert h.find_min() is low


def test_delete_emits_decrease_key_then_delete_min_records():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    a, b = u.make_item(3), u.make_item(8)
    h.insert(a)
    h.insert(b)
    seen = []
    u.telemetry.record_sink = seen.append
    h.delete(b)
    assert [rec.kind for rec in seen] == ["decrease-key", "delete-min"]


def test_operation_records_carry_the_size_before():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    for k in range(5):
        h.insert(u.make_item(k))
    seen = []
    u.telemetry.record_sink = seen.append
    h.delete_min()
    assert seen[-1].kind == "delete-min"
    assert seen[-1].n_before == 5


def test_classic_keeps_a_root_list_and_cuts_cascade():
    u = Universe()
    h = u.make_heap(Policy.CLASSIC)
    rt, g, p, x = (u.make_item(k) for k in (0, 1, 2, 3))
    wire(rt, g)
    wire(g, p)
    wire(p, x)
    rt.rank = 1
    g.rank = 1
    p.rank = 1
    g.state = MARKED
    p.state = MARKED
    h.roots = [rt]
    h.root = rt
    adopt(u, h, [rt, g, p, x])
    base = u.telemetry.counters()

    h.decrease_key(x, 1)

    delta = counters_delta(u, base)
    assert delta["cuts"] == 3  # x plus both marked ancestors
    assert [n.key for n in h.roots] == [0, 1, 2, 1]
    assert g.state == UNMARKED and p.state == UNMARKED
    assert h.root is rt
    assert_phi_consistent(u)


def test_classic_delete_min_relinks_and_finds_new_min():
    u = Universe()
    h = u.make_heap(Policy.CLASSIC)
    keys = [7, 2, 9, 4, 11, 3]
    for k in keys:
        h.insert(u.make_item(k))
    assert h.delete_min().key == 2
    assert h.find_min().key == 3
    assert len(h.roots) >= 1
    assert_phi_consistent(u)


@pytest.mark.parametrize("absorber_size, absorbed_size", [(1, 50), (50, 1)])
def test_classic_meld_keeps_the_longer_root_list(absorber_size, absorbed_size):
    # copying the longer list makes a chain of melds into fresh one-item heaps
    # quadratic; the order stays the absorber's roots, then the absorbed roots
    u = Universe()
    h, g = u.make_heap(Policy.CLASSIC), u.make_heap(Policy.CLASSIC)
    for heap, size, base in ((h, absorber_size, 0), (g, absorbed_size, 1000)):
        for k in range(size):
            heap.insert(u.make_item(base - k))
    order = h.roots + g.roots
    longer = max(h.roots, g.roots, key=len)
    before = u.telemetry.comparisons
    h.meld(g)
    assert h.roots is longer
    assert h.roots == order and g.roots == []
    assert u.telemetry.comparisons == before + 1
    assert h.root is min(order, key=lambda n: n.key)
    assert_phi_consistent(u)


def test_subtree_helpers_agree_with_the_tree():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    for k in (0, 1, 2, 3):
        h.insert(u.make_item(k))
    root = h.root
    assert root.key == 0
    assert degree(root) == 3
    assert subtree_size(root) == 4


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
def test_sorted_drain_every_policy(policy):
    u = Universe(seed=7)
    h = u.make_heap(policy)
    rng = random.Random(123)
    keys = [rng.randrange(1000) for _ in range(200)]
    for k in keys:
        h.insert(u.make_item(k))
    out = [h.delete_min().key for _ in range(len(keys))]
    assert out == sorted(keys)
    assert len(h) == 0
    assert u.telemetry.phi == 0


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
def test_mixed_workload_drains_to_the_reference(policy):
    u = Universe(seed=3)
    h = u.make_heap(policy)
    rng = random.Random(99)
    live = {}
    for _ in range(300):
        node = u.make_item(rng.randrange(10**6) + 10**6)
        live[node.uid] = node
        h.insert(node)
    for _ in range(120):
        node = live[rng.choice(list(live))]
        h.decrease_key(node, node.key - rng.randrange(10**5))
    for _ in range(50):
        h.delete(live.pop(rng.choice(list(live))))
    got = sorted(h.delete_min().key for _ in range(len(h)))
    assert got == sorted(node.key for node in live.values())


@given(st.lists(st.integers(-(2**40), 2**40), unique=True, min_size=1, max_size=40))
def test_drain_matches_sorted_hypothesis(keys):
    for policy in (Policy.SIMPLE, Policy.CLASSIC, Policy.NON_CASCADING):
        u = Universe()
        h = u.make_heap(policy)
        for k in keys:
            h.insert(u.make_item(k))
        assert [h.delete_min().key for _ in keys] == sorted(keys)


@given(
    st.lists(st.integers(0, 2**30), unique=True, min_size=2, max_size=30),
    st.data(),
)
def test_decrease_key_keeps_min_correct_hypothesis(keys, data):
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    nodes = [u.make_item(k + 2**31) for k in keys]
    for n in nodes:
        h.insert(n)
    victim = data.draw(st.sampled_from(nodes))
    new_key = data.draw(st.integers(0, victim.key))
    h.decrease_key(victim, new_key)
    expected = min(n.key for n in nodes)
    assert h.find_min().key == expected
