"""The pluggable part of decrease-key: rank maintenance.

Every single-tree policy's step is :func:`_one_cut` of its walk: repair
ranks and states above the decreased node, then make the one cut and
naive-link the node back against the root (as the first link argument, so
it wins ties).  What varies is the walk: when it starts, what it decrements,
and how it decides to stop.  ``heap-order`` is ``simple`` behind
:func:`_guarded`; ``classic`` cascades its cuts in a step of its own.

The walks terminate at the root without special-casing it: the policies
that use node states pin the root's state beforehand so the stop test fires
there, and the rank-comparison stops are self-satisfied at the root because
a root is its own parent.

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


def _toggle_walk(heap: Heap, x: Node) -> None:
    """Shared cascade of the plain and heap-order policies.

    Each step decrements an ancestor's rank and flips its state; a node that
    was already marked has now paid for two lost children, so it is reset and
    the walk continues to charge its parent.  A freshly marked node absorbs
    the half-loss and stops the walk.  The root is unmarked up front, which
    makes it a guaranteed stopping point.
    """
    tele = heap.universe.telemetry
    set_state(heap.root, UNMARKED, tele)
    y = x
    while True:
        y = y.parent
        tele.iterations += 1
        dec_rank_floor(y, tele)
        if y.state == MARKED:
            set_state(y, UNMARKED, tele)
        else:
            set_state(y, MARKED, tele)
            break


def _increasing_rank(heap: Heap, x: Node) -> None:
    # The parent step is unconditional: losing any child, whatever its rank,
    # can leave the parent with fewer children than its rank promises, and
    # one decrement restores the promise.  Higher up, a node whose old rank
    # already reached its parent's rank cannot leave that parent short, so
    # the walk climbs only while ranks keep increasing, flipping states, and
    # stops at the first node it marks.
    tele = heap.universe.telemetry
    set_state(heap.root, UNMARKED, tele)
    y = x
    while True:
        y = y.parent
        tele.iterations += 1
        if y.state == MARKED:
            set_state(y, UNMARKED, tele)
        else:
            set_state(y, MARKED, tele)
        k = y.rank
        dec_rank_floor(y, tele)
        if y.state == MARKED:
            break
        if k >= y.parent.rank:
            break


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


def _naive_increasing(heap: Heap, x: Node) -> None:
    # The increasing-rank walk without marks; its parent step is
    # unconditional for the same reason.
    tele = heap.universe.telemetry
    y = x
    while True:
        y = y.parent
        tele.iterations += 1
        k = y.rank
        dec_rank_floor(y, tele)
        if y is heap.root:
            break
        if k >= y.parent.rank:
            break


def _zero_rank(heap: Heap, x: Node) -> None:
    tele = heap.universe.telemetry
    if x.parent.rank > 0:
        y = x
        while True:
            y = y.parent
            tele.iterations += 1
            dec_rank_floor(y, tele)
            if y is heap.root:
                break
            if y.parent.rank == 0:
                break


def _randomized(heap: Heap, x: Node) -> None:
    """The non-cascading step, continued up the path on a coin flip.

    Each step decrements the node that lost a child, starting at the
    parent; the walk stops at the root, spending no coin there, or when the
    universe's coin says stop, and otherwise moves one node up.
    """
    tele = heap.universe.telemetry
    coin = heap.universe.coin
    y = x
    while True:
        y = y.parent
        tele.iterations += 1
        dec_rank_floor(y, tele)
        if y is heap.root:
            break
        if coin.getrandbits(1):
            break


def _non_cascading(heap: Heap, x: Node) -> None:
    dec_rank_floor(x.parent, heap.universe.telemetry)


def _dk_classic(heap: ClassicHeap, x: Node) -> None:
    """Multi-root variant with cascading cuts.

    A root only refreshes the minimum, ``root``.  A non-root is cut when heap
    order broke; its parent is cut in turn if already marked, and so on,
    with the first unmarked non-root ancestor picking up a mark.  Nodes are
    unmarked as they enter the root list.  Cascaded roots have been in the
    heap all along, so only the decreased node can displace the minimum.
    """
    tele = heap.universe.telemetry
    if x.parent is x:
        if x is not heap.root:
            heap._offer_min(x)
        return
    tele.comparisons += 1
    if not x.key < x.parent.key:
        return
    parent = x.parent
    heap._cut(x)
    tele.iterations += 1
    dec_rank_floor(parent, tele)
    set_state(x, UNMARKED, tele)
    heap._add_root(x)
    y = parent
    while y.parent is not y and y.state == MARKED:
        above = y.parent
        heap._cut(y)
        tele.iterations += 1
        dec_rank_floor(above, tele)
        set_state(y, UNMARKED, tele)
        heap.roots.append(y)
        y = above
    if y.parent is not y:
        set_state(y, MARKED, tele)


class Rule(NamedTuple):
    """One policy's row.  ``walk`` is the whole decrease-key step, run
    after the key is lowered.  ``losers`` is the state a link's loser takes
    (after a fair link, after a naive link; None keeps its state).
    ``bound`` names the report of the asserted size floor and ``floor``
    gives the least subtree size by the root's rank (None: no floor).  The
    ``audited`` policy's heaps are checked against the activity ledger that
    every node keeps, its operations pass the amortized audit, and it keeps
    every comparison as a link."""

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
