"""Trace format, generator, reference heap, and lockstep replay."""

from __future__ import annotations

import gc
import hashlib
import importlib
import io
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fibcascade.oracle
from fibcascade import POLICY_TAGS, Heap, Node, Policy
from fibcascade.instrumentation import COUNTER_FIELDS, iter_children
from fibcascade.oracle import (
    OracleHeap,
    TraceError,
    format_trace,
    gen_trace,
    iter_trace,
    parse_trace,
    replay_differential,
    replay_ops,
    run_checks,
)
from fibcascade.policies import RULES, _guarded, _one_cut

from _reference import iter_subtree, run_checks_per_heap
from _shaping import guarded_increasing_rank, toggle_walk_without_unmark


# ---------------------------------------------------------------------------
# trace text

SAMPLE = """\
# build two heaps and shuffle items between them
newheap h0 simple
newheap h1 simple
item x0 -5
insert h0 x0
insert h1 x3 42
findmin h1
decreasekey x3 7
meld h0 h1
deletemin h0
delete x3
"""


def test_parse_and_format_round_trip():
    ops = parse_trace(SAMPLE)
    assert ops[0] == ("newheap", "h0", "simple")
    assert ("insert", "h1", "x3", 42) in ops
    assert ("item", "x0", -5) in ops
    text = format_trace(ops)
    assert "insert h1 x3 42\n" in text
    assert parse_trace(text) == ops


@pytest.mark.parametrize("tag", POLICY_TAGS)
def test_the_readme_trace_sample_replays(tag):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Trace format", 1)[1].split("```", 2)[1]
    ops = parse_trace(block)
    assert ops[0] == ("newheap", "h0", "simple")
    verdict = replay_differential(
        ops, policy=tag, strict_identity=True, check_interval=1
    )
    assert verdict.ok, verdict
    assert verdict.steps == len(ops)


def test_parse_shares_one_string_per_distinct_token():
    ops = parse_trace(SAMPLE)
    # an item name, a heap name and a verb, each on several lines
    for token in ("x3", "h0", "insert"):
        first, *rest = [part for op in ops for part in op if part == token]
        assert rest and all(part is first for part in rest), token


def read_as_lines(text):
    """The ops of ``text`` read line by line, as ``replay`` reads a file."""
    return list(iter_trace(io.StringIO(text)))


def test_parse_skips_comments_and_blank_lines():
    assert parse_trace("\n  # nothing here\n\nfindmin h0  # trailing\n") == [
        ("findmin", "h0")
    ]
    text = "\n  # nothing here\n\nfindmin h0  # trailing\n"
    assert read_as_lines(text) == [("findmin", "h0")]


def test_a_form_feed_ends_a_line_whole_or_read_as_lines():
    text = "newheap h0 simple\ninsert h0 x0 5\finsert h0 x1 3\n"
    ops = [
        ("newheap", "h0", "simple"),
        ("insert", "h0", "x0", 5),
        ("insert", "h0", "x1", 3),
    ]
    assert parse_trace(text) == ops
    assert read_as_lines(text) == ops


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("frobnicate h0", "unknown verb"),
        ("insert h0", "takes 2 arguments"),
        ("insert h0 x0 1 2", "takes 2 arguments"),
        ("deletemin", "takes 1 arguments"),
        ("item x0 twelve", "must be an integer"),
        ("insert h0 x0 1.5", "must be an integer"),
        ("newheap h0 bogus", "unknown policy"),
        # keys are ASCII signed decimals, not everything int() accepts
        ("item x0 1_000", "must be an integer"),
        ("decreasekey x0 \uff15", "must be an integer"),
        # a form feed ends a line, and the lines after it count on
        ("findmin h0\f\ninsert h0", "line 3: insert takes 2 arguments"),
    ],
)
def test_parse_rejections(line, fragment):
    with pytest.raises(TraceError, match=fragment):
        parse_trace(line)
    with pytest.raises(TraceError, match=fragment):
        read_as_lines(line)


@pytest.mark.parametrize(
    "line,message",
    [
        # every verb with one argument too few and one too many
        ("newheap h0", "newheap takes 2 arguments, got 1"),
        ("newheap h0 simple x", "newheap takes 2 arguments, got 3"),
        ("item x0", "item takes 2 arguments, got 1"),
        ("item x0 1 2", "item takes 2 arguments, got 3"),
        ("insert h0", "insert takes 2 arguments, got 1"),
        ("insert h0 x0 1 2", "insert takes 2 arguments, got 4"),
        ("deletemin", "deletemin takes 1 arguments, got 0"),
        ("deletemin h0 h1", "deletemin takes 1 arguments, got 2"),
        ("decreasekey x0", "decreasekey takes 2 arguments, got 1"),
        ("decreasekey x0 1 2", "decreasekey takes 2 arguments, got 3"),
        ("delete", "delete takes 1 arguments, got 0"),
        ("delete x0 x1", "delete takes 1 arguments, got 2"),
        ("meld h0", "meld takes 2 arguments, got 1"),
        ("meld h0 h1 h2", "meld takes 2 arguments, got 3"),
        ("findmin", "findmin takes 1 arguments, got 0"),
        ("findmin h0 h1", "findmin takes 1 arguments, got 2"),
        # the verbs whose last argument is a key
        ("item x0 k", "item argument 2 must be an integer, got 'k'"),
        ("decreasekey x0 k", "decreasekey argument 2 must be an integer, got 'k'"),
        ("insert h0 x0 k", "insert argument 3 must be an integer, got 'k'"),
    ],
)
def test_parse_arity_table_is_pinned(line, message):
    with pytest.raises(TraceError) as err:
        parse_trace(f"# header\n{line}")
    assert str(err.value) == f"line 2: {message}"


def test_every_policy_tag_parses():
    for tag in POLICY_TAGS:
        assert parse_trace(f"newheap h0 {tag}") == [("newheap", "h0", tag)]


# ---------------------------------------------------------------------------
# generator

def test_gen_trace_shape_and_determinism():
    ops = gen_trace(400, seed=7)
    assert ops == gen_trace(400, seed=7)
    assert ops[0] == ("newheap", "h0", "simple")
    assert len(ops) == 400
    for tag in POLICY_TAGS:  # well formed: no policy raises TraceError
        replay_ops(ops, policy=tag)


def test_gen_trace_keys_are_globally_unique():
    ops = gen_trace(600, seed=3)
    keys = [op[3] for op in ops if op[0] == "insert"]
    keys += [op[2] for op in ops if op[0] == "decreasekey"]
    assert len(keys) == len(set(keys))


def test_gen_trace_moves_a_decreased_key_past_drawn_keys(monkeypatch):
    # 600 insert keys and decrements of 1..2 put decreases on keys already
    # drawn (21 repeats in this trace without the step down), so the keys
    # stay distinct only if the generator moves each one further down
    monkeypatch.setattr(fibcascade.oracle, "KEY_SPAN", 300)
    monkeypatch.setattr(fibcascade.oracle, "DECREMENT_SPAN", 2)
    ops = gen_trace(400, seed=1)
    keys = [op[3] for op in ops if op[0] == "insert"]
    keys += [op[2] for op in ops if op[0] == "decreasekey"]
    assert len(keys) == len(set(keys))
    for tag in POLICY_TAGS:
        verdict = replay_differential(ops, policy=tag, strict_identity=True)
        assert verdict.ok, (tag, verdict)


def test_gen_trace_seeds_differ():
    a = gen_trace(200, seed=0)
    b = gen_trace(200, seed=1)
    assert a != b


def test_gen_trace_emits_as_many_ops_as_asked():
    for seed in range(3):
        for n_ops in range(4):
            assert len(gen_trace(n_ops, seed=seed)) == n_ops


def test_profile_validation():
    with pytest.raises(TraceError):
        gen_trace(-1)


def test_gen_trace_output_is_pinned(monkeypatch):
    # the acceptance corpora are generated traces: they must not move by a
    # byte (a zero-op trace is empty)
    digest = hashlib.sha256()
    for seed in range(8):
        for n_ops in (0, 1, 51, 1000):
            for max_heaps in (4, 6):
                monkeypatch.setattr(fibcascade.oracle, "MAX_HEAPS", max_heaps)
                ops = gen_trace(n_ops, seed=seed)
                digest.update(format_trace(ops).encode())
    assert digest.hexdigest() == (
        "3b806dc1061ca45c8b261afc0fa1cff8bdae090474ccdbca0aa5f5ee1244e8cc"
    )


# ---------------------------------------------------------------------------
# reference heap

def test_oracle_orders_by_key_then_uid():
    o = OracleHeap()
    o.insert(20, 5)
    o.insert(10, 5)
    o.insert(30, 4)
    assert o.find_min() == (4, 30)
    o.remove(30)
    assert o.find_min() == (5, 10)
    assert o.delete_min() == (5, 10)
    assert o.delete_min() == (5, 20)
    assert o.find_min() is None
    with pytest.raises(TraceError):
        o.delete_min()


def test_oracle_decrease_and_meld():
    a, b = OracleHeap(), OracleHeap()
    a.insert(1, 50)
    b.insert(2, 40)
    b.decrease_key(2, 35)
    with pytest.raises(TraceError):
        b.decrease_key(2, 99)
    a.meld(b)
    assert len(a) == 2 and len(b) == 0
    assert a.min_key() == 35
    with pytest.raises(TraceError):
        a.insert(1, 0)


def test_oracle_remove_tolerates_stale_entries():
    o = OracleHeap()
    o.insert(1, 9)
    o.decrease_key(1, 4)
    o.decrease_key(1, 2)
    o.remove(1)
    assert len(o) == 0 and o.find_min() is None


def _least_live(o: OracleHeap):
    return min(((key, uid) for uid, key in o._key.items()), default=None)


def test_oracle_top_is_the_least_live_pair_after_every_mutation():
    rng = random.Random(7)
    heaps = [OracleHeap() for _ in range(3)]
    covered = set()
    uid = 0
    for _ in range(6000):
        o = heaps[rng.randrange(3)]
        entries = o._entries
        roll = rng.random()
        if not o or roll < 0.3:
            o.insert(uid, rng.randrange(40))  # few keys: ties go to the uid
            uid += 1
        elif roll < 0.6:
            victim = rng.choice(list(o._key))
            drop = rng.randrange(3)
            key = o._key[victim] - drop
            if victim == o.top[1]:
                covered.add("decrease the top")
            elif (key, victim) < o.top:
                covered.add("decrease another below the top")
            else:
                covered.add("decrease another")
            o.decrease_key(victim, key)
            if o._entries is not entries:
                covered.add("compaction on a decrease-key")
            if drop == 0:
                covered.add("decrease-key to an equal key")
        elif roll < 0.75:
            victim = rng.choice(list(o._key))
            covered.add("remove the top" if victim == o.top[1] else "remove another")
            o.remove(victim)
        elif roll < 0.9:
            want = _least_live(o)
            assert o.delete_min() == want
        else:
            i = heaps.index(o)
            other = heaps[(i + 1) % 3]
            covered.add(
                "meld a larger one in"
                if len(other._entries) > len(o._entries)
                else "meld a smaller one in"
            )
            o.meld(other)
            assert other.top is None and not other._entries
            heaps[(i + 1) % 3] = OracleHeap()
            entries = o._entries
        if o._entries is not entries:
            covered.add("compaction")
        for h in heaps:
            assert h.top == _least_live(h)
            assert len(h._entries) <= 2 * len(h)
    assert covered == {
        "decrease-key to an equal key",
        "decrease the top",
        "decrease another",
        "decrease another below the top",
        "compaction on a decrease-key",
        "remove the top",
        "remove another",
        "meld a larger one in",
        "meld a smaller one in",
        "compaction",
    }


def test_meld_pushes_the_smaller_side_without_a_heapify(monkeypatch):
    # a heapify of both sides makes every meld O(n): a meld-heavy replay
    # would be quadratic
    big, small = OracleHeap(), OracleHeap()
    for uid in range(1000):
        big.insert(uid, uid)
    small.insert(1000, -1)
    heapified = []
    real = fibcascade.oracle.heapq.heapify

    def recording(entries):
        heapified.append(len(entries))
        real(entries)

    monkeypatch.setattr(fibcascade.oracle.heapq, "heapify", recording)
    big_keys = big._key
    small.meld(big)  # the larger side's tables are swapped in first
    assert heapified == []
    assert small._key is big_keys  # its keys are not copied either
    assert len(small) == 1001 and small.top == (-1, 1000)
    assert len(big) == 0 and big.top is None


def test_mirror_entries_stay_within_twice_the_live_items(monkeypatch):
    over = []

    def bounded(method):
        def call(self, *args):
            result = method(self, *args)
            if len(self._entries) > 2 * len(self) + 1:
                over.append((method.__name__, len(self._entries), len(self)))
            return result

        return call

    for name in ("insert", "decrease_key", "delete_min", "remove", "meld"):
        monkeypatch.setattr(OracleHeap, name, bounded(getattr(OracleHeap, name)))
    ops = gen_trace(100000, seed=1)  # the generator's own heaps count as well
    assert replay_differential(ops, policy="simple").ok
    assert over[:3] == []


# ---------------------------------------------------------------------------
# lockstep replay

@pytest.mark.parametrize("tag", POLICY_TAGS)
def test_replay_clean_for_every_policy(tag):
    ops = gen_trace(500, seed=11)
    verdict = replay_differential(ops, policy=tag, strict_identity=True)
    assert verdict.ok, verdict
    assert verdict.steps == len(ops)
    assert verdict.policy == tag


def meld_chain(fresh_absorbs: bool, items: int = 200, melds: int = 50):
    """A trace whose heap melds ``melds`` times with a fresh one-item heap,
    the fresh heap absorbing the chain or the chain absorbing it; then
    decrease-keys on the first items between a few delete-mins.  Returns
    the ops, the last heap's name and its end keys, sorted."""
    base = items - melds
    keys = {f"x{i}": 10 * ((i * 37) % base) + 5 for i in range(base)}
    ops = [("newheap", "h0", "simple")]
    ops += [("insert", "h0", x, key) for x, key in keys.items()]
    last = "h0"
    for j in range(1, melds + 1):
        fresh, key = f"h{j}", 10 * ((j * 7) % base)
        keys[f"y{j}"] = key
        ops += [("newheap", fresh, "simple"), ("insert", fresh, f"y{j}", key)]
        ops.append(("meld", fresh, last) if fresh_absorbs else ("meld", last, fresh))
        last = fresh if fresh_absorbs else last
    for first in (0, 20):
        for i in range(first, first + 20):
            keys[f"x{i}"] = -(i + 1)
            ops.append(("decreasekey", f"x{i}", -(i + 1)))
        for _ in range(5):
            del keys[min(keys, key=keys.get)]
            ops.append(("deletemin", last))
    return ops, last, sorted(keys.values())


@pytest.mark.parametrize("fresh_absorbs", [True, False], ids=["fresh", "chain"])
@pytest.mark.parametrize("tag", POLICY_TAGS)
def test_a_long_meld_chain_replays_clean(tag, fresh_absorbs):
    ops, last, keys = meld_chain(fresh_absorbs)
    verdict = replay_differential(
        ops, policy=tag, strict_identity=True, check_interval=25
    )
    assert verdict.ok, verdict
    assert verdict.steps == len(ops)
    _, heaps = replay_ops(ops, policy=tag)
    assert list(heaps) == [last]
    assert len(heaps[last]) == len(keys)
    assert heaps[last].peek().key == keys[0]


def test_replay_without_override_uses_recorded_policies():
    verdict = replay_differential(parse_trace(SAMPLE))
    assert verdict.ok
    assert verdict.policy == "recorded"


def test_replay_reports_a_sabotaged_reference(monkeypatch):
    real = OracleHeap.decrease_key

    def skewed(self, uid, key):
        real(self, uid, key + 1)

    monkeypatch.setattr(OracleHeap, "decrease_key", skewed)
    ops = parse_trace(
        "newheap h0 simple\ninsert h0 x0 100\ninsert h0 x1 200\n"
        "decreasekey x1 50\nfindmin h0"
    )
    verdict = replay_differential(ops)
    assert not verdict.ok
    assert "finds min 50" in verdict.divergence
    assert verdict.step_index == 3


def test_the_compare_reports_a_heap_the_op_did_not_touch(monkeypatch):
    # every live heap is compared after every op: a fault that an insert
    # into h1 leaves in h0 is reported at that insert, under h0's name
    real = Heap.insert

    def insert_and_lower_h0(self, node):
        real(self, node)
        if self.name == "h1":
            (h0,) = (h for h in self.universe.live_heaps() if h.name == "h0")
            h0.root.key -= 40

    monkeypatch.setattr(Heap, "insert", insert_and_lower_h0)
    ops = parse_trace(
        "newheap h0 simple\nnewheap h1 simple\ninsert h0 x0 50\n"
        "insert h1 x1 70\nfindmin h0"
    )
    verdict = replay_differential(ops)
    assert verdict.divergence == (
        "after insert h1 x1 70: heap h0 finds min 10, reference finds 50"
        " (sizes 1/1)"
    )
    assert verdict.step_index == 3


TIED = "newheap h0 simple\ninsert h0 a 5\ninsert h0 b 5\ndeletemin h0\n"


def test_strict_replay_names_the_item_a_tied_delete_min_removed():
    ops = parse_trace(TIED)
    verdict = replay_differential(ops, policy="simple", strict_identity=True)
    assert verdict.divergence == (
        "delete-min on h0 removed item 1, reference minimum is item 0"
    )
    assert verdict.step_index == 3
    # equal keys are a legal choice without strict identity; classic keeps
    # the first of them
    assert replay_differential(ops, policy="simple").ok
    assert replay_differential(ops, policy="classic", strict_identity=True).ok


def test_replay_names_the_key_a_wrong_delete_min_returned(monkeypatch):
    real = Heap.delete_min

    def returns_the_new_root(self):
        real(self)
        return self.peek()

    monkeypatch.setattr(Heap, "delete_min", returns_the_new_root)
    ops = parse_trace(TIED.replace("b 5", "b 6"))
    verdict = replay_differential(ops)
    assert verdict.divergence == (
        "delete-min on h0 removed key 6, reference minimum is 5"
    )
    assert verdict.step_index == 3


def test_replay_names_the_key_a_wrong_find_min_returned(monkeypatch):
    # a find-min that answers with the root's first child
    monkeypatch.setattr(Heap, "peek", lambda heap: heap.root and heap.root.child)
    ops = parse_trace(TIED.replace("b 5", "b 6").replace("deletemin", "findmin"))
    verdict = replay_differential(ops)
    assert verdict.divergence == "find-min on h0 found key 6, reference minimum is 5"
    assert verdict.step_index == 3


def test_strict_replay_names_the_item_a_tied_find_min_returned():
    # as a tied delete-min would remove it
    ops = parse_trace(TIED.replace("deletemin", "findmin"))
    verdict = replay_differential(ops, policy="simple", strict_identity=True)
    assert verdict.divergence == (
        "find-min on h0 found item 1, reference minimum is item 0"
    )
    assert verdict.step_index == 3
    assert replay_differential(ops, policy="simple").ok
    assert replay_differential(ops, policy="classic", strict_identity=True).ok


def test_replay_wraps_precondition_failures():
    ops = [
        ("newheap", "h0", "simple"),
        ("insert", "h0", "x0", 5),
        ("decreasekey", "x0", 9),
    ]
    with pytest.raises(TraceError, match="precondition failed"):
        replay_differential(ops)


class _Sink:
    """A record sink that a weak reference can follow."""

    def __init__(self) -> None:
        self.records = []

    def __call__(self, rec) -> None:
        self.records.append(rec)


def test_a_finished_replay_keeps_nothing_of_the_callers(monkeypatch):
    # a finished universe is cyclic garbage (each root is its own parent):
    # with the collector off, only reference counts can free the sink
    monkeypatch.setitem(
        RULES,
        Policy.INCREASING_RANK,
        RULES[Policy.INCREASING_RANK]._replace(walk=guarded_increasing_rank),
    )
    paths = {
        "clean": (gen_trace(300, seed=3), "simple", lambda v: v.ok),
        "divergence": (parse_trace(TIED), "simple", lambda v: v.divergence),
        "failed check": (
            gen_trace(1000, seed=0),
            "increasing-rank",
            lambda v: v.check_failures,
        ),
        "malformed": (
            [H0, ("insert", "h0", "x0", 5), ("decreasekey", "x0", 9)],
            "simple",
            lambda v: v is None,
        ),
    }
    gc.disable()
    try:
        for path, (ops, tag, expect) in paths.items():
            sink = _Sink()
            gone = weakref.ref(sink)
            try:
                verdict = replay_differential(
                    ops,
                    policy=tag,
                    strict_identity=True,
                    check_interval=25,
                    record_sink=sink,
                )
            except TraceError:
                verdict = None  # the error and its traceback are dropped
            assert sink.records, path
            assert expect(verdict), path
            del verdict, sink
            assert gone() is None, path
    finally:
        gc.enable()


REPLAYS = pytest.mark.parametrize(
    "replay", [replay_differential, replay_ops], ids=["differential", "ops"]
)


H0 = ("newheap", "h0", "simple")


@REPLAYS
@pytest.mark.parametrize(
    "ops,fragment",
    [
        ([H0, ("insert", "h0", "xZ")], "op 1: unknown heap or item"),
        ([H0, ("deletemin", "h9")], "op 1: unknown heap or item"),
        ([H0, ("decreasekey", "xZ", 1)], "op 1: unknown heap or item"),
        (
            [H0, ("insert", "h0", "x0", 5), ("deletemin", "h0"),
             ("decreasekey", "x0", 1)],
            "op 3: item 'x0' is in no live heap",
        ),
        (
            [H0, ("insert", "h0", "x0", 5), ("delete", "x0"), ("delete", "x0")],
            "op 3: item 'x0' is in no live heap",
        ),
        ([H0, H0], "op 1: heap name 'h0' reused"),
        (
            [H0, ("newheap", "h1", "simple"), ("meld", "h0", "h1"),
             ("newheap", "h1", "simple")],
            "op 3: heap name 'h1' reused",
        ),
        ([H0, ("item", "x0", 1), ("insert", "h0", "x0", 2)], "op 2: item name"),
        ([H0, ("frobnicate", "h0")], "op 1: unknown verb"),
        ([H0, ("deletemin", "h0")], "op 1: precondition failed: delete-min on an"),
        (
            [H0, ("insert", "h0", "x0", 5), ("decreasekey", "x0", 9)],
            "op 2: precondition failed: decrease-key must not increase",
        ),
        ([H0, ("meld", "h0", "h0")], "op 1: precondition failed: cannot meld a heap"),
        (
            [H0, ("item", "x0", 5), ("insert", "h0", "x0"), ("deletemin", "h0"),
             ("insert", "h0", "x0")],
            "op 4: item 'x0' was already removed",
        ),
        (
            [H0, ("insert", "h0", "x0", 5), ("delete", "x0"), ("insert", "h0", "x0")],
            "op 3: item 'x0' was already removed",
        ),
        (
            [H0, ("insert", "h0", "x0", 5), ("insert", "h0", "x0")],
            "op 2: item 'x0' is already in a heap",
        ),
    ],
    ids=[
        "insert-unknown-item",
        "unknown-heap",
        "decreasekey-unknown-item",
        "decreasekey-removed-item",
        "double-delete",
        "heap-name-reused",
        "melded-heap-name-reused",
        "item-name-reused",
        "unknown-verb",
        "deletemin-empty-heap",
        "decreasekey-raises-key",
        "meld-with-itself",
        "reinsert-after-deletemin",
        "reinsert-after-delete",
        "insert-item-already-in-a-heap",
    ],
)
def test_replay_wraps_unknown_names(replay, ops, fragment):
    with pytest.raises(TraceError, match=fragment):
        replay(ops)


def test_replay_holds_only_the_live_items():
    n = 2000
    ops = [H0]
    ops += [("insert", "h0", f"x{i}", i) for i in range(n)]
    ops += [("deletemin", "h0")] * n
    alive = []

    def nodes():
        return sum(isinstance(o, Node) for o in gc.get_objects())

    def on_op(index, universe, heaps):
        if index == len(ops) - 1:
            alive.append(nodes() - before)

    gc.collect()  # other tests' heaps are cyclic garbage
    before = nodes()
    replay_ops(ops, on_op=on_op)
    # the item the last delete-min hands back, and nothing else
    assert alive and alive[0] <= 3


@REPLAYS
@pytest.mark.parametrize("tag", ["simple", "classic"])
def test_replay_routes_ownership_through_melds(replay, tag):
    # h0 absorbs h1, then h2 absorbs h0: x2 (inserted into h1) is two melds
    # away from its heap when it is decreased, x1 (inserted into h0) one
    ops = parse_trace(
        f"newheap h0 {tag}\nnewheap h1 {tag}\nnewheap h2 {tag}\n"
        "insert h1 x0 70\ninsert h1 x2 90\ninsert h0 x1 80\n"
        "insert h2 x3 60\ndeletemin h1\nmeld h0 h1\nmeld h2 h0\n"
        "decreasekey x2 10\nfindmin h2\ndelete x1\ndeletemin h2\nfindmin h2"
    )
    if replay is replay_differential:
        verdict = replay(ops, strict_identity=True)
        assert verdict.ok, verdict
        assert verdict.steps == len(ops)
    else:
        _, heaps = replay(ops)
        assert list(heaps) == ["h2"]
        assert len(heaps["h2"]) == 1
        assert heaps["h2"].find_min().key == 60


def test_ownership_lookups_walk_a_meld_chain_once():
    # n items go into h0, m melds chain h0 into h1 into ... into hm, then
    # every item is decreased: a walk per lookup hashes O(n * m) heap names
    hashes = [0]

    class Name(str):
        def __hash__(self):
            hashes[0] += 1
            return str.__hash__(self)

    n = m = 300
    names = [Name(f"h{j}") for j in range(m + 1)]
    ops = [("newheap", names[0], "simple")]
    ops += [("insert", names[0], f"x{i}", 10 * i + 5) for i in range(n)]
    for j in range(1, m + 1):
        ops += [("newheap", names[j], "simple"), ("meld", names[j], names[j - 1])]
    ops += [("decreasekey", f"x{i}", 10 * i) for i in range(n)]
    _, heaps = replay_ops(ops)
    assert list(heaps) == [f"h{m}"]
    assert len(heaps[f"h{m}"]) == n and heaps[f"h{m}"].find_min().key == 0
    assert hashes[0] <= 20 * (n + m)


def test_mirror_observes_without_touching_the_policy_heaps():
    # one multi-heap trace per policy: the reference mirror and the
    # lockstep checks must not change a single counter or potential step
    ops = gen_trace(600, seed=4)
    assert sum(op[0] == "meld" for op in ops) > 0
    for tag in POLICY_TAGS:
        seen = {}
        for replay in (replay_differential, replay_ops):
            records = []
            replay(ops, policy=tag, seed=9, record_sink=records.append)
            seen[replay] = [
                (r.kind, r.n_before, r.d_phi)
                + tuple(getattr(r, f) for f in COUNTER_FIELDS)
                for r in records
            ]
        assert seen[replay_differential] == seen[replay_ops], tag


def test_periodic_checks_pass_for_the_sound_policy():
    ops = gen_trace(800, seed=5)
    verdict = replay_differential(ops, policy="simple", check_interval=25)
    assert verdict.ok, verdict.check_failures[:3]


def test_periodic_checks_expose_the_rank_walk_defect(monkeypatch):
    # a rank guard in front of the increasing-rank walk leaves trees too
    # small for their ranks; the asserted size bound catches it under
    # random traffic
    monkeypatch.setitem(
        RULES,
        Policy.INCREASING_RANK,
        RULES[Policy.INCREASING_RANK]._replace(walk=guarded_increasing_rank),
    )
    ops = gen_trace(1000, seed=0)
    verdict = replay_differential(
        ops, policy="increasing-rank", check_interval=25
    )
    assert not verdict.ok
    assert any("size" in f for f in verdict.check_failures)


def test_final_check_runs_only_after_an_unchecked_step(monkeypatch):
    # 50 ops at interval 25 end on a check point; 51 ops end one step past it
    calls = []

    def counting(universe):
        calls.append(universe)
        return run_checks(universe)

    monkeypatch.setattr(fibcascade.oracle, "run_checks", counting)
    ops = gen_trace(51, seed=2)
    for n_ops, want in ((50, 2), (51, 3)):
        calls.clear()
        verdict = replay_differential(ops[:n_ops], policy="simple", check_interval=25)
        assert verdict.ok and verdict.steps == n_ops
        assert len(calls) == want, n_ops


def test_run_checks_clean_heap_with_and_without_active_tracking():
    from fibcascade import Universe

    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    for k in range(30):
        h.insert(u.make_item(k))
    for _ in range(6):
        h.delete_min()
    assert run_checks(u) == []


def test_run_checks_asserts_the_ledger_in_a_plain_universe():
    from fibcascade import Universe

    u = Universe()
    h = u.make_heap("simple", "h0")
    for k in range(20):
        h.insert(u.make_item(k))
    h.delete_min()
    while h.root.rank == 0:
        h.delete_min()
    assert run_checks(u) == []
    root = h.root
    fair = [child for child in iter_children(root) if child.active]
    assert len(fair) == root.rank  # without decrease-keys, one per fair link
    fair[0].active = False
    want = [
        f"h0/active-children: node {root.uid}: {root.rank - 1} active"
        f" children < rank {root.rank}"
    ]
    assert run_checks(u) == run_checks_per_heap(u) == want


def test_run_checks_reports_the_universe_potential_once():
    from fibcascade import Universe

    u = Universe()
    for name in ("h0", "h1", "h2"):
        h = u.make_heap("simple", name)
        for k in range(10):
            h.insert(u.make_item(k))
        h.delete_min()
    phi = u.telemetry.phi
    u.telemetry.phi = -1
    assert run_checks(u) == [
        f"universe/potential: incremental phi -1 != recomputed {phi}",
        "universe/potential: negative phi -1",
    ]


def _compare_checks(ops, policy, every):
    """Replay ``ops`` and, after every ``every``-th op, require run_checks to
    give the standalone checkers' messages; return how many states failed."""
    failing = 0

    def compare(i, universe, heaps):
        nonlocal failing
        if i % every == 0:
            want = run_checks_per_heap(universe)
            assert run_checks(universe) == want, (policy, i)
            failing += bool(want)

    replay_ops(ops, policy=policy, on_op=compare)
    return failing


@pytest.mark.parametrize("tag", POLICY_TAGS)
def test_run_checks_matches_the_checkers_on_generated_states(monkeypatch, tag):
    monkeypatch.setattr(fibcascade.oracle, "MAX_HEAPS", 6)
    for seed in range(3):
        ops = gen_trace(300, seed=seed)
        assert any(op[0] == "meld" for op in ops)
        assert _compare_checks(ops, tag, every=3) == 0


def test_run_checks_matches_the_checkers_on_undersized_trees(monkeypatch):
    monkeypatch.setitem(
        RULES,
        Policy.INCREASING_RANK,
        RULES[Policy.INCREASING_RANK]._replace(walk=guarded_increasing_rank),
    )
    monkeypatch.setattr(fibcascade.oracle, "MAX_HEAPS", 6)
    failing = 0
    for seed in range(2):
        ops = gen_trace(1000, seed=seed)
        failing += _compare_checks(ops, "increasing-rank", every=5)
    assert failing > 20


@pytest.mark.parametrize("tag", ["simple", "heap-order"])
def test_run_checks_matches_the_checkers_without_unmarking(monkeypatch, tag):
    step = _one_cut(toggle_walk_without_unmark)
    if tag == "heap-order":
        step = _guarded(step)
    policy = Policy(tag)
    monkeypatch.setitem(RULES, policy, RULES[policy]._replace(walk=step))
    monkeypatch.setattr(fibcascade.oracle, "MAX_HEAPS", 6)
    for seed in range(2):
        ops = gen_trace(600, seed=seed)
        _compare_checks(ops, tag, every=3)


def _inner_node(heap):
    """The first node, in walk order, with at least two children."""
    for root in heap.iter_roots():
        for node in iter_subtree(root):
            if node.child is not None and node.child.after is not None:
                return node
    raise AssertionError(f"{heap.name} has no node with two children")


def _raise_every_rank(universe, heap):
    for root in heap.iter_roots():
        for node in iter_subtree(root):
            node.rank += 2


def _clear_every_active_flag(universe):
    for heap in universe.live_heaps():
        for root in heap.iter_roots():
            for node in iter_subtree(root):
                node.active = False


CORRUPTIONS = {
    "rank": lambda u, h: setattr(_inner_node(h), "rank", _inner_node(h).rank + 3),
    "every-rank": _raise_every_rank,
    "negative-rank": lambda u, h: setattr(_inner_node(h).child, "rank", -1),
    "key": lambda u, h: setattr(_inner_node(h).child, "key", _inner_node(h).key - 1),
    "parent": lambda u, h: setattr(
        _inner_node(h).child, "parent", _inner_node(h).child.after
    ),
    "back-link": lambda u, h: setattr(_inner_node(h).child.after, "before", None),
    "phi": lambda u, h: setattr(u.telemetry, "phi", u.telemetry.phi + 3),
    "negative-phi": lambda u, h: setattr(u.telemetry, "phi", -1),
    "active": lambda u, h: _clear_every_active_flag(u),
    "root-parent": lambda u, h: setattr(next(h.iter_roots()), "parent", None),
}


@pytest.mark.parametrize("tag", ["simple", "classic", "eager", "randomized"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_run_checks_matches_the_checkers_on_corrupted_heaps(tag, corruption):
    from fibcascade import Universe

    u = Universe()
    heaps = {}
    for name in ("simple", "classic", "eager", "randomized"):
        h = heaps[name] = u.make_heap(name, name)
        for k in range(60):
            h.insert(u.make_item(k * 17 % 61))
        for _ in range(6):
            h.delete_min()
    assert run_checks(u) == []
    CORRUPTIONS[corruption](u, heaps[tag])
    want = run_checks_per_heap(u)
    assert run_checks(u) == want
    assert want


@pytest.mark.parametrize("tag", ["simple", "classic"])
def test_run_checks_reports_a_root_with_a_sibling(tag):
    from fibcascade import Universe

    u = Universe()
    h = u.make_heap(tag, "h0")
    for k in range(20):
        h.insert(u.make_item(k))
    h.delete_min()
    assert run_checks(u) == []
    root = next(h.iter_roots())
    root.after = u.make_item(99)  # a root's siblings are never walked
    want = [f"h0/structure: node {root.uid}: root has a sibling link"]
    assert run_checks(u) == run_checks_per_heap(u) == want


def test_run_checks_reports_a_node_reached_twice_once():
    from fibcascade import Universe

    u = Universe()
    h = u.make_heap("classic", "h0")
    for k in range(20):
        h.insert(u.make_item(k))
    h.delete_min()
    h.roots.append(h.roots[-1])  # a one-node tree, listed twice
    assert run_checks(u) == [
        "h0/structure: node 1 reachable twice",
        "universe/potential: incremental phi 3 != recomputed 4",
    ]


def test_run_checks_reports_a_size_that_does_not_match_the_nodes():
    # an item decreased or deleted through a heap it does not belong to
    # moves between the heaps while their sizes stay put
    from fibcascade import Universe

    u = Universe()
    h0, h1 = u.make_heap("simple"), u.make_heap("simple")
    items = {}
    for heap, keys in ((h0, (1, 2, 3)), (h1, (10, 20, 30))):
        for k in keys:
            items[k] = u.make_item(k)
            heap.insert(items[k])
    assert run_checks(u) == []
    h0.decrease_key(items[30], 0)
    want = [
        "h0/structure: size 3 != 4 nodes reached",
        "h1/structure: size 3 != 2 nodes reached",
    ]
    assert run_checks(u) == run_checks_per_heap(u) == want
    h0.delete(items[20])
    want = [
        "h0/structure: size 2 != 4 nodes reached",
        "h1/structure: size 3 != 1 nodes reached",
    ]
    assert run_checks(u) == run_checks_per_heap(u) == want


def test_run_checks_ends_on_a_pointer_cycle():
    from fibcascade import Universe

    u = Universe()
    h = u.make_heap("simple", "h0")
    for k in range(20):
        h.insert(u.make_item(k))
    h.delete_min()
    h.root.child.child = h.root
    found = run_checks(u)
    assert f"h0/structure: node {h.root.uid} reachable twice" in found


def test_run_checks_ends_on_a_sibling_cycle():
    # only run_checks: the reference walkers would follow the loop for ever
    from fibcascade import Universe

    u = Universe()
    h = u.make_heap("simple", "h0")
    for k in range(20):
        h.insert(u.make_item(k))
    h.delete_min()
    first = h.root.child
    first.after = first
    assert run_checks(u) == [
        f"h0/structure: node {h.root.uid}: child chain longer than the"
        " universe's 20 items",
        *[f"h0/structure: node {first.uid}: broken sibling back-link"] * 4,
        "universe/potential: incremental phi 3 != recomputed 21",
    ]


def test_the_traced_benchmark_sees_the_mirror_and_the_checks(monkeypatch):
    # benchmarks/tracing.py wraps the mirror's methods and the module-level
    # run_checks; the replay has to keep reaching both through those names
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    monkeypatch.syspath_prepend(str(benchmarks))
    tracing = importlib.import_module("tracing")
    recorder = tracing.Recorder()
    with recorder.installed():
        verdict = replay_differential(
            gen_trace(200, seed=3), policy="simple", check_interval=25
        )
    assert verdict.ok and verdict.steps == 200
    spans = recorder.summarize()
    assert spans["oracle.mirror"]["calls"] > 0
    assert spans["instrumentation.checks"]["calls"] == 8


def test_failing_replay_verdicts_are_pinned(monkeypatch):
    # both verdicts as the per-heap checks gave them before the checks of a
    # universe became one walk per heap
    ops = gen_trace(1000, seed=0)
    with monkeypatch.context() as patch:
        patch.setitem(
            RULES,
            Policy.INCREASING_RANK,
            RULES[Policy.INCREASING_RANK]._replace(walk=guarded_increasing_rank),
        )
        verdict = replay_differential(
            ops, policy="increasing-rank", check_interval=25
        )
    assert verdict.step_index == 424
    assert verdict.check_failures == [
        "h0/structure: node 77: degree 0 < rank 1",
        "h0/rank-bound-fibonacci: node 77: size 1 < bound 2 for rank 1",
    ]
    # marks the walk forgot to clear break the amortized audit, not the
    # invariants these checks assert
    monkeypatch.setitem(
        RULES,
        Policy.SIMPLE,
        RULES[Policy.SIMPLE]._replace(walk=_one_cut(toggle_walk_without_unmark)),
    )
    verdict = replay_differential(ops, policy="simple", check_interval=25)
    assert verdict.step_index is None
    assert verdict.check_failures == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(["simple", "classic", "randomized"]))
def test_replay_random_traces(seed, tag):
    ops = gen_trace(120, seed=seed)
    assert replay_differential(ops, policy=tag, strict_identity=True).ok
