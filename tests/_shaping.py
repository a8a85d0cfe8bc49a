"""Hand-wiring helpers: build exact tree shapes without going through the
public operations, so tests can start from a known arrangement."""

from fibcascade.core import MARKED, UNMARKED, dec_rank_floor, set_state
from fibcascade.instrumentation import iter_children
from fibcascade.policies import _increasing_rank, _one_cut

from _reference import compute_potential


def wire(parent, *children):
    """Attach children in the given list order (first = parent.child)."""
    prev = None
    for c in children:
        c.parent = parent
        c.before = prev
        c.after = None
        if prev is None:
            parent.child = c
        else:
            prev.after = c
        prev = c


def adopt(universe, heap, nodes):
    """Register hand-wired nodes as the heap's contents and sync telemetry;
    a node that ``wire`` gave no parent is a root, its own parent."""
    for n in nodes:
        n.in_heap = True
        if n.parent is None:
            n.parent = n
    heap._size = len(nodes)
    universe.telemetry.phi = compute_potential(heap.iter_roots())


def child_keys(node):
    return [c.key for c in iter_children(node)]


def counters_delta(universe, base):
    now = universe.telemetry.counters()
    return {k: now[k] - base[k] for k in base}


def assert_phi_consistent(universe, label=""):
    total = sum(
        compute_potential(h.iter_roots()) for h in universe.live_heaps()
    )
    assert total == universe.telemetry.phi, (
        f"{label}: tracked potential {universe.telemetry.phi} != recomputed {total}"
    )


def _walk_below_parent_rank(heap, x):
    # no walk unless the cut child's rank is below its parent's
    if x.rank < x.parent.rank:
        _increasing_rank(heap, x)


#: The increasing-rank decrease-key with a rank guard in front of its walk.
#: Cutting a child of equal or higher rank then leaves the parent's rank
#: unpaid, so random traffic soon grows trees too small for their ranks.
#: Tests install it as the walk of the policy's row in ``RULES`` as a source
#: of undersized trees.
guarded_increasing_rank = _one_cut(_walk_below_parent_rank)


def toggle_walk_without_unmark(heap, x):
    """``policies._toggle_walk`` with a bookkeeping bug: a marked node the
    walk passes is left marked.  Tests install it in place of the real walk
    to show that the amortized audit catches a bug that the asserted
    invariants do not."""
    tele = heap.universe.telemetry
    set_state(heap.root, UNMARKED, tele)
    y = x
    while True:
        y = y.parent
        tele.iterations += 1
        dec_rank_floor(y, tele)
        if y.state != MARKED:
            set_state(y, MARKED, tele)
            break
