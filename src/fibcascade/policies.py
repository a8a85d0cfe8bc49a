"""The pluggable part of decrease-key: rank maintenance.

Every single-tree policy's step is :func:`_one_cut` of its walk: repair
ranks and states above the decreased node, then make the one cut and
naive-link the node back against the root (as the first link argument, so
it wins ties).  Most walks are climbs, the paper's cascading rank changes:
:func:`_climb` decrements each node that lost a child on the way up,
:func:`_marking_climb` also flips marks, and such a row is only its stop
rule (the table of rules follows the two climbs).  ``passive-child`` and
``eager`` climb on tests of their own, ``non-cascading`` decrements the
parent alone, ``heap-order`` is ``simple`` behind :func:`_guarded`, and
``classic`` cuts and cascades in one loop.

A marking climb stops at the root because the root is unmarked up front;
a mark-free climb tests for the root before its stop rule, so
``randomized`` spends no coin there.

All rank decrements clamp at zero (and count the clamped attempts); the walk
step counter feeds the per-operation time estimate.

Each policy's row of :data:`RULES` holds its heap class, decrease-key step,
link losers' states and checked contract; other modules read only the row.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import (
    MARKED,
    PASSIVE,
    UNMARKED,
    ClassicHeap,
    Heap,
    Node,
    Policy,
    dec_rank_floor,
    set_state,
)
from .instrumentation import fib


Step = Callable[[Heap, Node], None]
#: A climb's stop rule: given the heap, the node just decremented and its
#: rank before the decrement, whether the climb ends there.
Stop = Callable[[Heap, Node, int], object]


def _one_cut(repair: Step) -> Step:
    """The single-tree decrease-key step: unless x is the root, ``repair``
    the path above x, then cut x and link it back as the first argument."""

    def step(heap: Heap, x: Node) -> None:
        if x is heap.root:
            return
        repair(heap, x)
        heap._cut(x)
        heap._add_root(x)

    return step


def _guarded(step: Step) -> Step:
    """``step`` only when heap order actually broke.  The guard comparison
    is paid even at the root, its own parent, where it is always false."""

    def guarded(heap: Heap, x: Node) -> None:
        heap.universe.telemetry.comparisons += 1
        if x.key < x.parent.key:
            step(heap, x)

    return guarded


def _climb(stop: Stop) -> Step:
    """The mark-free cascade: from x's parent up, decrement each node that
    lost a child, until the root (tested first, so ``stop`` is never asked
    there) or until ``stop`` says so."""

    def climb(heap: Heap, x: Node) -> None:
        tele = heap.universe.telemetry
        y = x
        while True:
            y = y.parent
            tele.iterations += 1
            k = y.rank
            dec_rank_floor(y, tele)
            if y is heap.root or stop(heap, y, k):
                break

    return climb


def _marking_climb(stop: Stop) -> Step:
    """The cascade with marks: from x's parent up, decrement each node that
    lost a child.  An unmarked node takes a mark, absorbing the half-loss,
    and ends the climb; a marked one has now paid for two lost children, so
    it is unmarked and the climb goes on unless ``stop`` says so.  The root
    is unmarked up front, which makes it a guaranteed stopping point."""

    def climb(heap: Heap, x: Node) -> None:
        tele = heap.universe.telemetry
        set_state(heap.root, UNMARKED, tele)
        y = x
        while True:
            y = y.parent
            tele.iterations += 1
            k = y.rank
            dec_rank_floor(y, tele)
            if y.state != MARKED:
                set_state(y, MARKED, tele)
                break
            set_state(y, UNMARKED, tele)
            if stop(heap, y, k):
                break

    return climb


# The stop rules.  Losing any child can leave the parent short of what its
# rank promises, so every climb takes its first step; higher up, a node whose
# old rank reached its parent's rank cannot leave that parent short, so the
# increasing-rank climbs go on only while ranks keep increasing.
_toggle_walk = _marking_climb(lambda heap, y, k: False)
_increasing_rank = _marking_climb(lambda heap, y, k: k >= y.parent.rank)
_naive_increasing = _climb(lambda heap, y, k: k >= y.parent.rank)
_zero_rank_climb = _climb(lambda heap, y, k: y.parent.rank == 0)
# the non-cascading step, continued up the path on the universe's coin
_randomized = _climb(lambda heap, y, k: heap.universe.coin.getrandbits(1))


def _zero_rank(heap: Heap, x: Node) -> None:
    if x.parent.rank > 0:
        _zero_rank_climb(heap, x)


def _passive_child(heap: Heap, x: Node) -> None:
    """Three-state variant: passive children do not count toward ranks.

    Cutting a passive child is free.  Cutting a counted child demotes the
    marked ancestors above it to passive (decrementing each, since their own
    parents stop counting them) until a node that can absorb the loss is
    found; that node is decremented and, if it was unmarked, marked.
    """
    tele = heap.universe.telemetry
    set_state(heap.root, PASSIVE, tele)
    if x.state != PASSIVE:
        y = x.parent
        while y.state == MARKED:
            set_state(y, PASSIVE, tele)
            dec_rank_floor(y, tele)
            y = y.parent
            tele.iterations += 1
        tele.iterations += 1
        dec_rank_floor(y, tele)
        if y.state == UNMARKED:
            set_state(y, MARKED, tele)


def _eager(heap: Heap, x: Node) -> None:
    # Fairly linked children are born marked; the mark means "my parent's
    # rank still counts me".  The walk settles all outstanding marks on the
    # path before the cut, so no lazy debt is left behind.
    tele = heap.universe.telemetry
    set_state(heap.root, UNMARKED, tele)
    y = x
    while y.state == MARKED:
        tele.iterations += 1
        set_state(y, UNMARKED, tele)
        y = y.parent
        dec_rank_floor(y, tele)


def _non_cascading(heap: Heap, x: Node) -> None:
    dec_rank_floor(x.parent, heap.universe.telemetry)


def _dk_classic(heap: ClassicHeap, x: Node) -> None:
    """Multi-root variant with cascading cuts.

    A root only refreshes the minimum, ``root``.  A non-root is cut when heap
    order broke, in one loop with its cascade: each pass cuts a node,
    decrements its old parent and unmarks the node into the root list, and
    the loop climbs while the old parent is a marked non-root; the first
    unmarked non-root ancestor takes a mark.  Only x, offered after the
    loop, can displace the minimum: cascaded roots were in the heap all along.
    """
    tele = heap.universe.telemetry
    if x.parent is x:
        if x is not heap.root:
            heap._offer_min(x)
        return
    tele.comparisons += 1
    if not x.key < x.parent.key:
        return
    y = x
    while True:
        above = y.parent
        heap._cut(y)
        tele.iterations += 1
        dec_rank_floor(above, tele)
        set_state(y, UNMARKED, tele)
        heap.roots.append(y)
        y = above
        if y.parent is y:
            break
        if y.state != MARKED:
            set_state(y, MARKED, tele)
            break
    heap._offer_min(x)


class Rule(NamedTuple):
    """One policy's row.  ``walk`` is the whole decrease-key step, run
    after the key is lowered: :func:`_one_cut` of a repair, most often a
    climb, or :func:`_dk_classic`.  ``losers`` is the state a link's loser
    takes (after a fair link, after a naive link; None keeps its state).
    ``bound`` names the report of the asserted size floor and ``floor``
    gives the least subtree size by the root's rank (None: no floor).  The
    ``audited`` policy's heaps are checked against the activity ledger that
    every node keeps, and its operations pass the amortized audit, which
    also asserts that it keeps every comparison as a link."""

    walk: Step
    bound: str | None = None
    floor: Callable[[int], int] | None = None
    losers: tuple[int | None, int | None] = (None, None)
    heap_class: type[Heap] = Heap
    audited: bool = False


# size >= F_{rank+2} where the full analysis holds, >= 2**rank for the eager trio
_FIBONACCI = ("rank-bound-fibonacci", lambda r: fib(r + 2))
_POW2 = ("rank-bound-pow2", lambda r: 1 << r)

#: Every policy's rule, in :class:`Policy` order.
RULES: dict[Policy, Rule] = {
    Policy.SIMPLE: Rule(_one_cut(_toggle_walk), *_FIBONACCI, audited=True),
    Policy.HEAP_ORDER: Rule(_guarded(_one_cut(_toggle_walk)), *_FIBONACCI),
    Policy.INCREASING_RANK: Rule(_one_cut(_increasing_rank), *_FIBONACCI),
    Policy.PASSIVE_CHILD: Rule(
        _one_cut(_passive_child), *_FIBONACCI, (UNMARKED, PASSIVE)
    ),
    Policy.EAGER_MARKING: Rule(_one_cut(_eager), *_POW2, (MARKED, UNMARKED)),
    Policy.NAIVE_INCREASING_RANK: Rule(_one_cut(_naive_increasing), *_POW2),
    Policy.ZERO_RANK: Rule(_one_cut(_zero_rank), *_POW2),
    Policy.RANDOMIZED: Rule(_one_cut(_randomized)),
    Policy.NON_CASCADING: Rule(_one_cut(_non_cascading)),
    Policy.CLASSIC: Rule(_dk_classic, *_FIBONACCI, (UNMARKED, None), ClassicHeap),
}
