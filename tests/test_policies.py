"""Decrease-key restructuring rules, one policy at a time.

Each hand trace starts from an explicitly wired shape so the walk's exact
iteration count, the rank changes, and the state flips can be asserted
against values worked out by hand.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

import fibcascade
from fibcascade import MARKED, PASSIVE, POLICY_TAGS, Heap, Policy, UNMARKED, Universe
from fibcascade.oracle import gen_trace, parse_trace, replay_differential, replay_ops
from fibcascade.policies import RULES

from _reference import rank_bound_violations
from _shaping import adopt, assert_phi_consistent, counters_delta, wire


def test_every_policy_has_a_decrease_rule():
    assert list(RULES) == list(Policy)
    assert all(callable(rule.walk) for rule in RULES.values())


def test_single_tree_decrease_keys_cut_once():
    # claim (ii): a decrease-key is one cut plus a cascade of rank changes;
    # classic, the multi-root baseline, cascades its cuts instead
    most = {}
    for policy in RULES:
        cuts = []

        def sink(record):
            if record.kind == "decrease-key":
                cuts.append(record.cuts)

        for seed in range(5):
            replay_ops(gen_trace(1000, seed=seed), policy=policy, record_sink=sink)
        most[policy] = max(cuts)
    for policy, rule in RULES.items():
        if rule.heap_class is Heap:
            assert most[policy] <= 1, policy
    assert most[Policy.CLASSIC] > 1


def test_no_module_outside_the_table_names_a_policy():
    # what a policy does and what is checked of it come from its row; these
    # modules name a policy only in the enum, where the experiment does (the
    # adversary's target and control) or in the trace tag gen_trace writes
    exempt = {
        "core.py": {"Policy"},
        "instrumentation.py": set(),
        "oracle.py": {"gen_trace"},
        "cli.py": {"cmd_adversary", "_steady_rows"},
    }
    members = {p.name for p in Policy}
    src = Path(fibcascade.__file__).parent
    found = []
    for module, skip in exempt.items():
        for top in ast.parse((src / module).read_text()).body:
            if getattr(top, "name", None) in skip:
                continue
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "Policy"
                    and node.attr in members
                ) or (isinstance(node, ast.Constant) and node.value in POLICY_TAGS):
                    found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_readme_policy_table_states_each_rows_checks():
    # the last column: the asserted floor (or none), then the audited mark
    # where it applies; every row asserts degree >= rank, so none is exempt
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Policies", 1)[1].split("\n\n", 2)[1]
    cells = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in table.splitlines()[2:]
    ]
    assert [tag.strip("`") for tag, _, _ in cells] == [p.value for p in Policy]
    for (tag, _, checks), rule in zip(cells, RULES.values()):
        floor, *notes = checks.split("; ")
        assert floor == ("none" if rule.bound is None else f"`{rule.bound}`"), tag
        assert "exempt" not in checks, tag
        assert ("audited" in notes) == rule.audited, tag


def test_simple_walk_unmarks_marked_and_stops_at_first_unmarked():
    # chain y3(rank 5) -> y2(marked, rank 0) -> y1(marked, rank 3) -> x
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    y3, y2, y1, x = (u.make_item(k) for k in (0, 1, 2, 3))
    wire(y3, y2)
    wire(y2, y1)
    wire(y1, x)
    y3.rank = 5
    y2.rank = 0
    y1.rank = 3
    y2.state = MARKED
    y1.state = MARKED
    h.root = y3
    adopt(u, h, [y3, y2, y1, x])
    base = u.telemetry.counters()

    h.decrease_key(x, 3)

    delta = counters_delta(u, base)
    assert delta["iterations"] == 3
    assert delta["rank_clamps"] == 1  # y2 already sat at rank 0
    assert (y1.state, y1.rank) == (UNMARKED, 2)
    assert (y2.state, y2.rank) == (UNMARKED, 0)
    assert (y3.state, y3.rank) == (MARKED, 4)
    assert h.root is y3 and x.parent is y3
    assert_phi_consistent(u)


def test_simple_walk_reaching_the_root_marks_it_after_unmarking():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    rt, p, x = (u.make_item(k) for k in (0, 1, 2))
    wire(rt, p)
    wire(p, x)
    rt.rank = 1
    p.state = MARKED
    h.root = rt
    adopt(u, h, [rt, p, x])
    base = u.telemetry.counters()

    h.decrease_key(x, 2)

    delta = counters_delta(u, base)
    assert delta["iterations"] == 2
    assert (p.state, p.rank) == (UNMARKED, 0)
    assert rt.state == MARKED and rt.rank == 0
    assert_phi_consistent(u)


def test_simple_decrease_on_root_changes_nothing_structural():
    u = Universe()
    h = u.make_heap(Policy.SIMPLE)
    a = u.make_item(5)
    b = u.make_item(9)
    h.insert(a)
    h.insert(b)
    base = u.telemetry.counters()
    h.decrease_key(a, 1)
    delta = counters_delta(u, base)
    assert delta["iterations"] == 0
    assert delta["fair_links"] + delta["naive_links"] == 0
    assert h.root is a


def test_heap_order_guard_skips_restructuring_when_order_holds():
    u = Universe()
    h = u.make_heap(Policy.HEAP_ORDER)
    rt, x = u.make_item(0), u.make_item(10)
    wire(rt, x)
    h.root = rt
    adopt(u, h, [rt, x])
    base = u.telemetry.counters()

    h.decrease_key(x, 5)  # still above the parent: nothing moves

    delta = counters_delta(u, base)
    assert delta["iterations"] == 0
    assert delta["comparisons"] == 1  # the guard itself
    assert x.parent is rt

    h.decrease_key(x, -1)  # now below: cut and relink as usual
    assert x.parent is x or x.parent is h.root
    assert h.root is x
    assert_phi_consistent(u)


def test_increasing_rank_walk_stops_on_old_rank_reaching_parents():
    # marked ancestors with old ranks 1, 2, 5 under a rank-5 root: the walk
    # unmarks the first three and stops where old rank matches the parent.
    u = Universe()
    h = u.make_heap(Policy.INCREASING_RANK)
    a4, a3, a2, a1, x = (u.make_item(k) for k in (0, 1, 2, 3, 4))
    wire(a4, a3)
    wire(a3, a2)
    wire(a2, a1)
    wire(a1, x)
    a4.rank = 5
    a3.rank = 5
    a2.rank = 2
    a1.rank = 1
    for n in (a1, a2, a3):
        n.state = MARKED
    h.root = a4
    adopt(u, h, [a4, a3, a2, a1, x])
    base = u.telemetry.counters()

    h.decrease_key(x, 4)

    delta = counters_delta(u, base)
    assert delta["iterations"] == 3
    assert (a1.state, a1.rank) == (UNMARKED, 0)
    assert (a2.state, a2.rank) == (UNMARKED, 1)
    assert (a3.state, a3.rank) == (UNMARKED, 4)
    assert (a4.state, a4.rank) == (UNMARKED, 5)
    assert_phi_consistent(u)


@pytest.mark.parametrize(
    "policy",
    [Policy.INCREASING_RANK, Policy.NAIVE_INCREASING_RANK],
    ids=lambda p: p.value,
)
def test_rank_guard_skip_leaves_rank_above_degree(policy):
    """A cut child whose rank matches its parent's still starts the walk at
    the parent: losing any child can leave the parent short of the children
    its rank promises, so the parent is decremented whatever the child's
    rank.  Without that step the parent would keep rank 1 with no children
    left."""
    u = Universe()
    h = u.make_heap(policy)
    r = u.make_item(0)
    p = u.make_item(1)
    x0 = u.make_item(2)
    x1 = u.make_item(3)
    w = u.make_item(4)
    wire(r, p)
    wire(p, x1, x0)  # x1 was fair-linked last, so it sits first
    wire(x1, w)
    p.rank = 2
    x1.rank = 1
    h.root = r
    adopt(u, h, [r, p, x0, x1, w])

    h.decrease_key(x0, 2)
    assert p.rank == 1  # the rank-0 cut walked and decremented p

    base = u.telemetry.counters()
    h.decrease_key(x1, 3)
    delta = counters_delta(u, base)
    assert delta["iterations"] == 1  # the tied cut walks to p and stops
    assert p.rank == 0 and p.child is None
    assert_phi_consistent(u)


# Traces that broke the size floors of both increasing-rank walks while the
# walk ran only for a cut child of lower rank than its parent: the first
# cuts a child whose rank equals its parent's, the second one whose rank
# is above it, after the parent has lost two other children.
FLOOR_REGRESSIONS = {
    "tied-rank-cut": """\
newheap h0 simple
insert h0 x2 761841363055
insert h0 x4 491145775259
insert h0 x6 1053340307443
insert h0 x9 -258492351228
insert h0 x10 -881959036176
decreasekey x2 761839660889
decreasekey x4 491145335371
insert h0 x14 155104647467
decreasekey x6 1053338624315
deletemin h0
decreasekey x6 1053338075202
decreasekey x4 491144977364
""",
    "higher-rank-cut": """\
newheap h0 simple
insert h0 x31 603601414620
insert h0 x34 912805913490
insert h0 x36 -573604335865
insert h0 x52 179157082839
insert h0 x53 1048505517923
insert h0 x114 429397532428
insert h0 x123 633171588250
insert h0 x126 378644051983
decreasekey x31 603593723263
insert h0 x149 451579310587
insert h0 x150 499730673928
decreasekey x123 633171239531
decreasekey x34 912802488657
deletemin h0
decreasekey x114 429394850808
decreasekey x31 603592896275
decreasekey x149 451578759135
""",
}


@pytest.mark.parametrize("trace", sorted(FLOOR_REGRESSIONS))
@pytest.mark.parametrize(
    "policy",
    [Policy.INCREASING_RANK, Policy.NAIVE_INCREASING_RANK],
    ids=lambda p: p.value,
)
def test_increasing_rank_walks_keep_the_size_floor(policy, trace):
    failures = []

    def watch(i, universe, heaps):
        for heap in heaps.values():
            report = rank_bound_violations(heap)
            assert report.asserted
            failures.extend(f"op {i}: {v}" for v in report.violations)

    replay_ops(parse_trace(FLOOR_REGRESSIONS[trace]), policy=policy, on_op=watch)
    assert failures == []


def test_passive_child_walk():
    u = Universe()
    h = u.make_heap(Policy.PASSIVE_CHILD)
    rt, g, p, x = (u.make_item(k) for k in (0, 1, 2, 3))
    wire(rt, g)
    wire(g, p)
    wire(p, x)
    rt.rank = 1
    g.rank = 1
    p.rank = 1
    p.state = MARKED
    h.root = rt
    adopt(u, h, [rt, g, p, x])
    base = u.telemetry.counters()

    h.decrease_key(x, 3)

    delta = counters_delta(u, base)
    assert delta["iterations"] == 2
    assert (p.state, p.rank) == (PASSIVE, 0)
    assert (g.state, g.rank) == (MARKED, 0)  # stopping node is promoted
    assert rt.state == PASSIVE  # roots sit passive under this policy
    assert_phi_consistent(u)


def test_passive_child_skips_the_walk_for_a_passive_child():
    u = Universe()
    h = u.make_heap(Policy.PASSIVE_CHILD)
    rt, p, x = (u.make_item(k) for k in (0, 1, 2))
    wire(rt, p)
    wire(p, x)
    rt.rank = 1
    p.rank = 1
    x.state = PASSIVE
    h.root = rt
    adopt(u, h, [rt, p, x])
    base = u.telemetry.counters()
    h.decrease_key(x, 2)
    delta = counters_delta(u, base)
    assert delta["iterations"] == 0
    assert p.rank == 1


def test_eager_walk_unmarked_child_is_free():
    u = Universe()
    h = u.make_heap(Policy.EAGER_MARKING)
    rt, p, x = (u.make_item(k) for k in (0, 1, 2))
    wire(rt, p)
    wire(p, x)
    rt.rank = 1
    p.rank = 1
    h.root = rt
    adopt(u, h, [rt, p, x])
    base = u.telemetry.counters()
    h.decrease_key(x, 2)
    delta = counters_delta(u, base)
    assert delta["iterations"] == 0
    assert p.rank == 1


def test_eager_walk_marked_child_settles_one_level():
    u = Universe()
    h = u.make_heap(Policy.EAGER_MARKING)
    rt, p, x = (u.make_item(k) for k in (0, 1, 2))
    wire(rt, p)
    wire(p, x)
    rt.rank = 1
    p.rank = 1
    x.state = MARKED
    h.root = rt
    adopt(u, h, [rt, p, x])
    base = u.telemetry.counters()

    h.decrease_key(x, 2)

    delta = counters_delta(u, base)
    assert delta["iterations"] == 1
    assert x.state == UNMARKED
    assert p.rank == 0
    assert_phi_consistent(u)


def test_eager_fair_link_marks_the_loser():
    # inserts only naive-link, so the fair link comes from consolidation:
    # after the min goes, the two rank-0 roots pair up.
    u = Universe()
    h = u.make_heap(Policy.EAGER_MARKING)
    a, b, c = u.make_item(0), u.make_item(1), u.make_item(2)
    for n in (a, b, c):
        h.insert(n)
    assert b.state == UNMARKED and c.state == UNMARKED  # naive-link children
    h.delete_min()
    assert h.root is b and b.rank == 1
    assert c.state == MARKED  # fair-link loser under eager marking


def test_zero_rank_walk_runs_until_a_rank_zero_parent():
    u = Universe()
    h = u.make_heap(Policy.ZERO_RANK)
    rt, p3, p2, p1, x = (u.make_item(k) for k in (0, 1, 2, 3, 4))
    wire(rt, p3)
    wire(p3, p2)
    wire(p2, p1)
    wire(p1, x)
    rt.rank = 0
    p3.rank = 1
    p2.rank = 2
    p1.rank = 3
    h.root = rt
    adopt(u, h, [rt, p3, p2, p1, x])
    base = u.telemetry.counters()

    h.decrease_key(x, 4)

    delta = counters_delta(u, base)
    assert delta["iterations"] == 3
    assert (p1.rank, p2.rank, p3.rank, rt.rank) == (2, 1, 0, 0)
    assert_phi_consistent(u)


def test_zero_rank_guard_skips_when_parent_rank_is_zero():
    u = Universe()
    h = u.make_heap(Policy.ZERO_RANK)
    rt, p, x = (u.make_item(k) for k in (0, 1, 2))
    wire(rt, p)
    wire(p, x)
    h.root = rt
    adopt(u, h, [rt, p, x])
    base = u.telemetry.counters()
    h.decrease_key(x, 2)
    assert counters_delta(u, base)["iterations"] == 0


def test_randomized_walk_first_heads_stops_after_one_step():
    stop_seed = next(
        s for s in range(100) if random.Random(s).getrandbits(1) == 1
    )
    u = Universe(seed=stop_seed)
    h = u.make_heap(Policy.RANDOMIZED)
    rt, g, p, x = (u.make_item(k) for k in (0, 1, 2, 3))
    wire(rt, g)
    wire(g, p)
    wire(p, x)
    x.rank = 2
    p.rank = 1
    g.rank = 1
    h.root = rt
    adopt(u, h, [rt, g, p, x])
    base = u.telemetry.counters()

    h.decrease_key(x, 3)

    delta = counters_delta(u, base)
    assert delta["iterations"] == 1
    assert p.rank == 0  # the walk starts at the parent
    assert x.rank == 2 and g.rank == 1
    assert_phi_consistent(u)


def test_randomized_same_seed_same_walks():
    def campaign(universe_seed):
        u = Universe(seed=universe_seed)
        h = u.make_heap(Policy.RANDOMIZED)
        rng = random.Random(5)
        nodes = [u.make_item(10**9 - i) for i in range(400)]
        for n in nodes:
            h.insert(n)
        for n in rng.sample(nodes, 200):
            if n.in_heap:
                h.decrease_key(n, n.key - 10**6)
        return u.telemetry.counters()

    assert campaign(11) == campaign(11)
    assert campaign(11) != campaign(12)


@pytest.mark.parametrize("trace_seed, seed", [(31, 31), (41, 0)])
def test_randomized_checked_replays_keep_phi_nonnegative(trace_seed, seed):
    # a walk that started at the cut node itself failed these at steps 124
    # and 74: its parent could keep its rank, and phi went negative
    verdict = replay_differential(
        gen_trace(1000, seed=trace_seed),
        policy="randomized",
        seed=seed,
        strict_identity=True,
        check_interval=25,
    )
    assert verdict.ok, (verdict.step_index, verdict.check_failures)


def test_non_cascading_decrements_only_the_parent():
    u = Universe()
    h = u.make_heap(Policy.NON_CASCADING)
    rt, g, p, x = (u.make_item(k) for k in (0, 1, 2, 3))
    wire(rt, g)
    wire(g, p)
    wire(p, x)
    g.rank = 4
    p.rank = 2
    h.root = rt
    adopt(u, h, [rt, g, p, x])
    base = u.telemetry.counters()

    h.decrease_key(x, 3)

    delta = counters_delta(u, base)
    assert delta["iterations"] == 0
    assert p.rank == 1 and g.rank == 4 and rt.rank == 0
    assert x.parent is rt or h.root is x
    assert_phi_consistent(u)


def test_classic_decrease_without_violation_only_rekeys():
    u = Universe()
    h = u.make_heap(Policy.CLASSIC)
    a, b = u.make_item(1), u.make_item(5)
    h.insert(a)
    h.insert(b)
    h.delete_min()  # leaves b alone in the root list
    c = u.make_item(9)
    h.insert(c)
    base = u.telemetry.counters()
    h.decrease_key(c, 6)  # still above b's 5... c is a root though
    delta = counters_delta(u, base)
    assert delta["cuts"] == 0
    assert h.find_min().key == 5


@pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
def test_decrease_key_below_everything_becomes_the_min(policy):
    u = Universe(seed=2)
    h = u.make_heap(policy)
    rng = random.Random(8)
    nodes = [u.make_item(rng.randrange(10**6) + 10**6) for _ in range(150)]
    for n in nodes:
        h.insert(n)
    target = nodes[77]
    h.decrease_key(target, 3)
    assert h.find_min() is target
    drained = [h.delete_min().key for _ in range(len(h))]
    assert drained == sorted(drained)
