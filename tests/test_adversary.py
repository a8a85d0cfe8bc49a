"""The worst-case schedule builder and its shape verifier."""

from __future__ import annotations

import gc
import hashlib
import math
import tracemalloc
import weakref

import pytest

from fibcascade import Heap, Policy, Universe, instrumentation
from fibcascade.adversary import (
    RUNG_BASE,
    RUNG_STRIDE,
    SIGMA_STRIDE,
    VERIFY_ROUNDS,
    AdversaryBuilder,
    Recording,
    ShapeError,
    _KeyAllocator,
    build_ops_needed,
    max_k_within,
    run_lower_bound,
    steady_tree_size,
    verify_t_shape,
)
from fibcascade.instrumentation import log_phi
from fibcascade.oracle import format_trace, replay_ops


def test_shape_sizes():
    assert [steady_tree_size(k) for k in (1, 2, 3, 4, 10)] == [2, 4, 7, 11, 56]


def test_build_budgets():
    assert [build_ops_needed(k) for k in (1, 2, 3, 4, 5, 10)] == [
        2, 6, 14, 27, 46, 266,
    ]
    assert build_ops_needed(100) == 176651
    with pytest.raises(ValueError):
        build_ops_needed(0)


def test_max_k_within_matches_the_budget_table():
    assert max_k_within(10_000 / 3) == 25
    assert max_k_within(30_000 / 3) == 37
    assert max_k_within(100_000 / 3) == 56
    for k in (25, 37, 56):
        assert build_ops_needed(k) <= (k_budget := build_ops_needed(k + 1) - 1)
        assert max_k_within(k_budget) == k


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
def test_build_verified_at_every_step(k, monkeypatch):
    # build verifies each phase's end; every conversion in between that
    # leaves a broom missing is checked here, on the raw pointers
    checked = []
    real = AdversaryBuilder._convert

    def convert(self, phase, i):
        real(self, phase, i)
        if i > 1:
            assert verify_t_shape(self.heap, phase, missing=i - 1) == []
            checked.append((phase, i))

    monkeypatch.setattr(AdversaryBuilder, "_convert", convert)
    builder = AdversaryBuilder(seed=0)
    builder.build(k)
    assert len(checked) == sum(phase - 1 for phase in range(1, k))
    assert builder.k == k
    assert builder.op_count == build_ops_needed(k)
    assert len(builder.heap) == steady_tree_size(k)
    assert verify_t_shape(builder.heap, k) == []


def test_the_record_sink_is_attached_only_around_the_reads(monkeypatch):
    builder = AdversaryBuilder()
    tele = builder.universe.telemetry
    seen: dict[str, list] = {"insert": [], "delete_min": [], "decrease_key": []}

    def spy(name):
        real = getattr(Heap, name)

        def spied(heap, *args):
            seen[name].append(tele.record_sink)
            return real(heap, *args)

        monkeypatch.setattr(Heap, name, spied)

    for name in seen:
        spy(name)
    builder.build(3)
    builder.run_rounds(2)
    assert all(seen.values())
    for name in ("delete_min", "decrease_key"):
        assert all(sink == builder._read for sink in seen[name])
    assert all(sink is None for sink in seen["insert"])
    assert tele.record_sink is None


def test_a_finished_schedule_is_freed_by_reference_count():
    gc.disable()
    try:
        builder = AdversaryBuilder(recording=True)
        builder.build(6)
        builder.run_rounds(3)
        assert builder.est_total > 0
        freed = weakref.ref(builder)
        del builder
        assert freed() is None
    finally:
        gc.enable()


def test_est_total_sums_the_replayed_records_and_inserts_build_none(
    monkeypatch,
):
    # op_begin opens each record, once per record and only under a sink
    built = []
    real = instrumentation.Telemetry.op_begin

    def counted(tele, kind, n_before):
        built.append(kind)
        real(tele, kind, n_before)

    with monkeypatch.context() as patch:
        patch.setattr(instrumentation.Telemetry, "op_begin", counted)
        builder = run_lower_bound(3000, recording=True)
    verbs = [op[0] for op in builder.trace]
    assert built.count("delete-min") == verbs.count("deletemin") > 0
    assert built.count("decrease-key") == verbs.count("decreasekey") > 0
    assert len(built) == verbs.count("deletemin") + verbs.count("decreasekey")

    records = []
    replay_ops(builder.trace, policy="non-cascading", record_sink=records.append)
    assert records[0].kind == "make-heap"
    total = 0.0
    for rec in records[1:]:  # in order, as the builder adds them
        total += rec.estimated_time
    assert builder.est_total == total


def test_steady_round_counters_are_exact():
    builder = AdversaryBuilder(seed=0)
    builder.build(4)
    rounds = builder.run_rounds(3)
    for stats in rounds:
        assert stats.n_before == steady_tree_size(4) + 1
        assert stats.fair_links == 4
        assert stats.naive_links == 0
        assert stats.iterations == 0
        assert stats.comparisons == 4
        assert math.isclose(stats.estimated_time, 1 + log_phi(12) + 4)


def test_rounds_reproduce_the_shape_and_advance_the_root():
    builder = AdversaryBuilder(seed=0)
    builder.build(6)
    builder.start_rounds()
    roots = []
    for _ in range(10):
        builder.steady_round(verify=True)
        roots.append(builder.heap.root.key)
        assert verify_t_shape(builder.heap, 6) == []
    assert roots == sorted(roots) and len(set(roots)) == 10


def test_verifier_rejects_a_random_heap():
    u = Universe()
    h = u.make_heap(Policy.NON_CASCADING)
    for key in (5, 3, 8, 1, 9, 2):
        h.insert(u.make_item(key))
    h.delete_min()
    assert verify_t_shape(h, 3)


def test_verifier_names_the_broken_invariant():
    builder = AdversaryBuilder(seed=0)
    builder.build(4)
    victim = builder.heap.root.child  # some broom root
    victim.rank += 1
    problems = verify_t_shape(builder.heap, 4)
    assert any("child ranks" in p for p in problems)


def test_broken_round_raises_shape_error():
    builder = AdversaryBuilder(seed=0)
    builder.build(3)
    builder.start_rounds()
    # vandalize the shape: cut a leaf off a broom behind the builder's back
    broom = builder.heap.root.child
    while broom.child is None:
        broom = broom.after
    leaf = broom.child
    leaf.after.before = leaf.before
    if leaf.before is not None:
        leaf.before.after = leaf.after
    else:
        broom.child = leaf.after
    with pytest.raises(ShapeError):
        builder.steady_round(verify=True)


def test_low_zone_overflow_raises_shape_error():
    # the low zone's last barrier stays below the broom keys
    alloc = _KeyAllocator()
    alloc._low = RUNG_BASE - SIGMA_STRIDE - 1
    assert alloc.barrier() == RUNG_BASE - 1
    alloc._low = RUNG_BASE - SIGMA_STRIDE
    with pytest.raises(ShapeError, match="low-zone keys exhausted"):
        alloc.barrier()
    assert alloc._low == RUNG_BASE - SIGMA_STRIDE


def test_key_allocator_failures_name_their_window():
    # the round window is the builder's: the keys between the root and S_0
    builder, root = _built(3)
    builder.s0.key = root.key
    with pytest.raises(ShapeError) as err:
        builder.start_rounds()
    assert str(err.value) == (
        "round key must fall between the root and everything else"
    )
    alloc = _KeyAllocator()
    with pytest.raises(ShapeError) as err:
        alloc.gap_pair(100, 103)  # the gap's first pair is 102, 103
    assert str(err.value) == "conversion pair 102,103 does not fit below 103"
    alloc._gap_next[100] = RUNG_STRIDE - 1
    with pytest.raises(ShapeError) as err:
        alloc.gap_pair(100, None)
    assert str(err.value) == "gap above 100 is exhausted"


def _built(k):
    builder = AdversaryBuilder()
    builder.build(k)
    return builder, builder.heap.root


def _broom(root, rank):
    broom = root.child
    while broom.rank != rank:
        broom = broom.after
    return broom


def test_verifier_reports_an_empty_heap():
    heap = Universe().make_heap(Policy.NON_CASCADING)
    assert verify_t_shape(heap, 3) == ["expected the 3-stage shape, heap is empty"]


def test_verifier_reports_a_registry_left_full():
    builder, root = _built(3)
    builder.universe.registry[0] = root
    assert verify_t_shape(builder.heap, 3) == [
        "rank registry is not empty between operations"
    ]


def test_verifier_reports_a_leaf_of_nonzero_rank():
    builder, root = _built(3)
    leaf = _broom(root, 2).child
    leaf.rank = 1
    assert verify_t_shape(builder.heap, 3) == [f"leaf {leaf.uid}: rank 1 != 0"]


def test_verifier_reports_a_leaf_with_children():
    # move one leaf of the rank-2 broom under the other
    builder, root = _built(3)
    broom = _broom(root, 2)
    first, second = broom.child, broom.child.after
    first.after = second.before = None
    first.child = second
    second.parent = first
    assert verify_t_shape(builder.heap, 3) == [
        f"broom root {broom.uid}: 1 children, expected 2",
        f"leaf {first.uid}: has children",
    ]


def test_verifier_reports_keys_out_of_order():
    builder, root = _built(3)
    broom = _broom(root, 2)
    leaf = broom.child
    leaf.key = broom.key
    assert verify_t_shape(builder.heap, 3) == [
        f"leaf {leaf.uid}: key not above broom root"
    ]
    leaf.key = broom.key + 1
    broom.key = root.key
    assert verify_t_shape(builder.heap, 3) == [
        f"broom {broom.uid}: key not above the tree root"
    ]


@pytest.mark.parametrize(
    "k, want", [(2, "build on a used heap"), (0, "k must be at least 1")]
)
def test_build_refuses_a_used_heap_and_no_stages(k, want):
    builder = AdversaryBuilder()
    if k:
        builder.build(k)
    with pytest.raises(ShapeError) as err:
        builder.build(k)
    assert str(err.value) == want


def _round_error(builder):
    with pytest.raises(ShapeError) as err:
        builder.steady_round()
    return str(err.value)


def test_steady_round_refuses_a_key_off_its_window():
    # S_0 just above the root leaves no key for the round's insert
    builder, root = _built(3)
    builder.start_rounds()
    builder.s0.key = root.key + 1
    assert _round_error(builder) == (
        "round key must fall between the root and everything else"
    )


def test_start_rounds_refuses_where_the_first_round_would():
    # S_0 just above the root: the window is not empty, but holds no key
    builder, root = _built(3)
    builder.s0.key = root.key + 1
    with pytest.raises(ShapeError) as err:
        builder.start_rounds()
    assert str(err.value) == _round_error(builder)


def test_steady_round_refuses_a_delete_min_that_misses_the_root(monkeypatch):
    # no heap state makes delete-min remove anything but the root
    builder, root = _built(3)
    builder.start_rounds()
    real = builder._delete_min

    def off_root():
        real()
        return builder.heap.root

    monkeypatch.setattr(builder, "_delete_min", off_root)
    assert _round_error(builder) == "round delete-min missed the root"


def test_steady_round_refuses_a_root_other_than_the_insert():
    # a broom keyed as low as the root outbids the round's insert
    builder, root = _built(3)
    builder.start_rounds()
    _broom(root, 2).key = root.key
    assert _round_error(builder) == "round insert did not take the root"


def test_steady_round_refuses_a_link_count_off_the_stage():
    builder, _ = _built(3)
    builder.start_rounds()
    builder.k = 4  # the heap still has three brooms: three fair links
    assert _round_error(builder) == (
        "round delete-min did 3 fair / 0 naive links, expected 4 / 0"
    )


def test_recorded_trace_rebuilds_the_same_state():
    builder = AdversaryBuilder(seed=0, recording=True)
    builder.build(5)
    builder.run_rounds(4)
    universe, heaps = replay_ops(builder.trace)
    heap = heaps["h0"]
    assert heap.policy is Policy.NON_CASCADING
    assert verify_t_shape(heap, 5) == []
    assert len(heap) == len(builder.heap)
    assert heap.root.key == builder.heap.root.key
    ours = universe.telemetry.counters()
    theirs = builder.universe.telemetry.counters()
    assert ours == theirs


def test_recorded_schedule_text_is_pinned():
    # the replayed schedules are recorded traces: they must not move by a byte
    trace = run_lower_bound(3000, recording=True).trace
    assert hashlib.sha256(format_trace(trace).encode()).hexdigest() == (
        "6ac888e06ca4d0d1c59d5e88b5cfd081793fe0c28fb8f4da49cb49745b50491f"
    )


def test_a_recording_decodes_to_the_operations_the_builder_ran(monkeypatch):
    ran = [("newheap", "h0", "non-cascading")]
    insert, delete_min, decrease_key = (
        Heap.insert, Heap.delete_min, Heap.decrease_key
    )

    def logged_insert(heap, node):
        ran.append(("insert", heap.name, f"x{node.uid}", node.key))
        insert(heap, node)

    def logged_delete_min(heap):
        ran.append(("deletemin", heap.name))
        return delete_min(heap)

    def logged_decrease_key(heap, node, key):
        ran.append(("decreasekey", f"x{node.uid}", key))
        decrease_key(heap, node, key)

    monkeypatch.setattr(Heap, "insert", logged_insert)
    monkeypatch.setattr(Heap, "delete_min", logged_delete_min)
    monkeypatch.setattr(Heap, "decrease_key", logged_decrease_key)
    builder = AdversaryBuilder(recording=True)
    builder.build(6)
    builder.run_rounds(3)
    assert any(op[0] == "decreasekey" for op in ran)
    assert len(builder.trace) == len(ran) == builder.op_count + 1
    assert list(builder.trace) == ran
    assert list(builder.trace) == ran  # a recording iterates again
    assert len(AdversaryBuilder().trace) == 0  # only a recording builder records


def test_a_recording_keeps_machine_integers_and_one_delete_min():
    builder = AdversaryBuilder(recording=True)
    builder.build(4)
    builder.start_rounds()
    for _ in range(100):
        builder.steady_round(verify=False)
    rounds = 2000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(rounds):
            builder.steady_round(verify=False)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= 16 * 2 * rounds  # an insert and a delete-min per round
    deletes = [op for op in builder.trace if op[0] == "deletemin"]
    assert len(deletes) > 1 and all(op is deletes[0] for op in deletes)


@pytest.mark.parametrize("key", [1 << 63, -(1 << 63) - 1])
def test_a_recording_refuses_a_key_outside_int64(key):
    trace = Recording()
    with pytest.raises(OverflowError):
        trace.insert(key)
    with pytest.raises(OverflowError):
        trace.decrease_key(0, key)
    assert list(trace) == [("newheap", "h0", "non-cascading")]


def test_replay_on_simple_takes_a_different_path():
    builder = AdversaryBuilder(seed=0, recording=True)
    builder.build(5)
    builder.run_rounds(4)
    universe, heaps = replay_ops(builder.trace, policy="simple")
    assert heaps["h0"].root.key == builder.heap.root.key  # same minimum...
    ours = universe.telemetry.counters()
    theirs = builder.universe.telemetry.counters()
    assert ours != theirs  # ...through different link work


def test_replay_on_op_callback_sees_every_step():
    builder = AdversaryBuilder(seed=0, recording=True)
    builder.build(3)
    seen = []
    replay_ops(builder.trace, on_op=lambda i, u, hs: seen.append(i))
    # one callback per trace line, the newheap declaration included
    assert seen == list(range(len(builder.trace)))
    assert len(builder.trace) == builder.op_count + 1


def test_lower_bound_schedule_invariants():
    # every round's exact k fair links is asserted by steady_round itself
    builder = run_lower_bound(2000)
    k = builder.k
    assert k == max_k_within(2000 / 3)
    rounds = (2000 - build_ops_needed(k)) // 2
    assert rounds > 2 * VERIFY_ROUNDS
    assert builder.op_count == build_ops_needed(k) + 2 * rounds <= 2000
    assert len(builder.heap) == steady_tree_size(k)
    assert verify_t_shape(builder.heap, k) == []
    assert builder.est_total > rounds * k


def test_lower_bound_rejects_tiny_budgets():
    with pytest.raises(ValueError):
        run_lower_bound(5)
