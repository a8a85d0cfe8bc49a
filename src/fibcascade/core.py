"""Mergeable heaps built from a single heap-ordered tree.

The data structure keeps one tree per heap; the textbook multi-root baseline,
:class:`ClassicHeap`, overrides only the private root hooks.  Roots are
combined by *naive* links that ignore ranks; delete-min's registry pass
(:meth:`Heap._fill_registry`) combines roots of equal rank with *fair* links
that bump the winner's rank.  That pass is the only place fair links happen
and ranks grow; it walks the sibling chain of the deleted root's children
(for :class:`ClassicHeap`, the other roots threaded ahead of them) once,
following ``after`` itself, and leaves its survivors in their registry
slots; each heap's delete-min empties the registry in one ascending sweep
that does its root pass there, resetting only the nodes that end up as
roots.  What happens to ranks when a node loses a child is the pluggable
part: each :class:`Policy` names one rank-maintenance rule, implemented in
:mod:`fibcascade.policies`.

Ties: ``link(x, y)`` compares with a strict ``x.key > y.key``, so the first
argument wins ties everywhere (inserted singletons beat equal-keyed roots,
the consolidation accumulator beats equal-keyed registry occupants, and so
on).  This makes every run bit-for-bit deterministic.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterator

from .instrumentation import Telemetry

if TYPE_CHECKING:  # policies imports this module
    from .policies import Rule

UNMARKED = 0
MARKED = 1
PASSIVE = 2

STATE_NAMES = {UNMARKED: "unmarked", MARKED: "marked", PASSIVE: "passive"}


class Policy(Enum):
    """Rank-maintenance rule applied when decrease-key detaches a subtree."""

    SIMPLE = "simple"
    HEAP_ORDER = "heap-order"
    INCREASING_RANK = "increasing-rank"
    PASSIVE_CHILD = "passive-child"
    EAGER_MARKING = "eager"
    NAIVE_INCREASING_RANK = "naive-increasing"
    ZERO_RANK = "zero-rank"
    RANDOMIZED = "randomized"
    NON_CASCADING = "non-cascading"
    CLASSIC = "classic"

    @classmethod
    def from_tag(cls, tag: "str | Policy") -> "Policy":
        """The policy a tag names; a policy names itself."""
        try:
            return cls(tag)
        except ValueError:
            raise HeapError(f"unknown policy tag {tag!r}") from None


POLICY_TAGS = tuple(p.value for p in Policy)


class HeapError(Exception):
    """Usage violation on a heap operation."""


class PreconditionError(HeapError):
    """The operation's precondition does not hold in the current state
    (empty heap, removed item, consumed heap, ...)."""


class _Bottom:
    """Reserved key that compares below every other key.

    Used internally by :meth:`Heap.delete`; it is rejected as an item key and
    as a public decrease-key target.
    """

    __slots__ = ()

    def __lt__(self, other: Any) -> bool:
        return other is not BOTTOM

    def __gt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return True

    def __ge__(self, other: Any) -> bool:
        return other is BOTTOM

    def __repr__(self) -> str:
        return "BOTTOM"


BOTTOM = _Bottom()


class Node:
    """One heap item: key, payload, rank, state, and tree pointers.

    ``parent`` of a root is the root itself (the heap-order and classic
    walks read it), and ``None`` for an item in no heap, so a removed item
    holds no reference to itself and is freed by reference count.  ``live`` turns
    False when the item is removed, making dangling use a detectable error.
    ``active`` is the activity ledger: True while the node is a child that
    arrived by a fair link and has not since been unmarked or naive-linked.
    Only the checks read it; it never influences heap behavior.
    """

    __slots__ = (
        "key",
        "info",
        "rank",
        "state",
        "parent",
        "child",
        "before",
        "after",
        "uid",
        "live",
        "in_heap",
        "active",
    )

    def __init__(self, key: Any, info: Any, uid: int) -> None:
        self.key = key
        self.info = info
        self.rank = 0
        self.state = UNMARKED
        self.parent: Node | None = None
        self.child: Node | None = None
        self.before: Node | None = None
        self.after: Node | None = None
        self.uid = uid
        self.live = True
        self.in_heap = False
        self.active = False

    def __repr__(self) -> str:
        return (
            f"<Node {self.uid} key={self.key!r} rank={self.rank}"
            f" {STATE_NAMES[self.state]}>"
        )


class Universe:
    """Shared context for a family of heaps.

    Holds the telemetry (counters and potential), the item id sequence, the
    coin the randomized walk flips (seeded by ``seed``, so a replay is
    deterministic per trace and seed), the consolidation registry, which
    is reused across delete-mins and must be all-``None`` between
    operations, and the live heaps in creation order (a meld drops the
    heap it consumes; default heap names count every heap made).
    """

    def __init__(self, seed: int = 0) -> None:
        self.coin = random.Random(seed)
        self.telemetry = Telemetry()
        self.registry: list[Node | None] = [None] * 8
        self.item_count = 0  # items made so far: the next item's uid
        self.heap_count = 0  # heaps made so far: the next default name
        self._heaps: dict[Heap, None] = {}  # the live heaps, in creation order

    def make_item(self, key: Any, info: Any = None) -> Node:
        if isinstance(key, _Bottom):
            raise HeapError("the reserved bottom key cannot be used for items")
        node = Node(key, info, self.item_count)
        self.item_count += 1
        return node

    def make_heap(self, policy: Policy | str, name: str | None = None) -> "Heap":
        policy = Policy.from_tag(policy)
        if name is None:
            name = f"h{self.heap_count}"
        from .policies import RULES

        rule = RULES[policy]
        heap = rule.heap_class(self, policy, rule, name)
        self.heap_count += 1
        self._heaps[heap] = None
        tele = self.telemetry
        if tele.record_sink is not None:
            tele.op_begin("make-heap", 0)
            tele.op_end()
        return heap

    def live_heaps(self) -> list["Heap"]:
        return list(self._heaps)

    def registry_is_clear(self) -> bool:
        return all(slot is None for slot in self.registry)


# ---------------------------------------------------------------------------
# state / rank helpers shared with the policy implementations


def set_state(node: Node, new_state: int, tele: Telemetry) -> None:
    """Transition a node's state, keeping counters, phi, and the activity
    ledger consistent.  Transitions into/out of the marked state move phi by
    +/-2; a child leaving the marked state clears its ``active`` flag."""
    old = node.state
    if old == new_state:
        return
    if old == MARKED:
        tele.unmarkings += 1
        tele.phi -= 2
        if node.parent is not node:
            node.active = False
    if new_state == MARKED:
        tele.markings += 1
        tele.phi += 2
    node.state = new_state


def dec_rank_floor(node: Node, tele: Telemetry) -> None:
    """Decrement a rank, clamping at zero; every clamped attempt is counted."""
    if node.rank > 0:
        node.rank -= 1
        tele.phi += 1
    else:
        tele.rank_clamps += 1


class Heap:
    """A mergeable heap bound to one policy and one universe.

    Every public operation reads the telemetry's record sink once and, when
    one is attached, brackets itself with the record boundaries, so
    per-operation counter deltas and potential changes reach the sink;
    without one no boundary is called.
    """

    __slots__ = (
        "universe",
        "policy",
        "name",
        "root",
        "_size",
        "live",
        "rule",
        "_walk",
        "_fair_loser_state",
        "_naive_loser_state",
    )

    def __init__(
        self, universe: Universe, policy: Policy, rule: Rule, name: str
    ) -> None:
        self.universe = universe
        self.policy = policy
        self.rule = rule  # the policy's row, which the checks read
        # bound once per heap from that row: its decrease-key walk, and the
        # state a link loser takes (None: it keeps its state)
        self._walk = rule.walk
        self._fair_loser_state, self._naive_loser_state = rule.losers
        self.name = name
        self.root: Node | None = None
        self._size = 0
        self.live = True

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    def iter_roots(self) -> Iterator[Node]:
        if self.root is not None:
            yield self.root

    def peek(self) -> Node | None:
        """The minimum item, without counting an operation (for observers)."""
        return self.root

    def _check_live(self) -> None:
        """Raise if this heap was melded away; the operations test
        ``self.live`` inline and call this only when it is false."""
        if not self.live:
            raise PreconditionError(f"heap {self.name!r} was consumed by a meld")

    # -- primitive mutations ------------------------------------------------

    def _link(self, x: Node, y: Node) -> Node:
        """Naive-link two roots; the smaller key wins, first argument on ties.

        A naive link leaves all ranks alone and costs no potential at all;
        the loser's state is adjusted where the policy calls for it.  Fair
        links happen only in :meth:`_fill_registry`.  This is the link of
        insert and meld; the single-tree decrease-key's relink splice
        (:meth:`_relink`) and delete-min's root pass (:meth:`_remove_min`)
        write the same splice inline.
        """
        tele = self.universe.telemetry
        tele.comparisons += 1
        if x.key > y.key:
            winner, loser = y, x
        else:
            winner, loser = x, y
        # splice loser in as the first child of winner
        loser.parent = winner
        z = winner.child
        loser.before = None
        loser.after = z
        if z is not None:
            z.before = loser
        winner.child = loser
        tele.naive_links += 1
        state = self._naive_loser_state
        if state is not None:
            set_state(loser, state, tele)
        loser.active = False
        return winner

    def _cut(self, x: Node) -> None:
        """Detach x from its parent; x becomes a root (phi net zero).
        ``classic``'s cut; the single-tree rows cut in :meth:`_relink`."""
        tele = self.universe.telemetry
        tele.cuts += 1
        y = x.parent
        if y.child is x:
            y.child = x.after
        if x.before is not None:
            x.before.after = x.after
        if x.after is not None:
            x.after.before = x.before
        x.before = None
        x.after = None
        x.parent = x

    def _relink(self, x: Node) -> None:
        """Detach non-root x and naive-link it against the root in one
        splice: the single-tree decrease-key's cut.

        The counters, the loser's state and its ``active`` flag move as
        :meth:`_cut` then :meth:`_add_root` would move them (one cut, one
        comparison, one naive link, phi net zero), with x the first link
        argument, so x wins ties; the splice is :meth:`_link`'s, written
        inline as delete-min's passes write theirs.
        """
        tele = self.universe.telemetry
        tele.cuts += 1
        tele.comparisons += 1
        tele.naive_links += 1
        # detach x; the first child is the one with no back-link
        before = x.before
        after = x.after
        if before is None:
            x.parent.child = after
        else:
            before.after = after
        if after is not None:
            after.before = before
        root = self.root
        if x.key > root.key:
            loser = x
            x.parent = root
        else:
            loser = root
            root.parent = x
            x.parent = x
            x.before = None
            x.after = None
            self.root = root = x
        # splice the loser in as the root's first child
        z = root.child
        loser.before = None
        loser.after = z
        if z is not None:
            z.before = loser
        root.child = loser
        state = self._naive_loser_state
        if state is not None and loser.state != state:
            set_state(loser, state, tele)
        loser.active = False

    def _destroy(self, node: Node) -> None:
        """Remove a childless root from the universe and settle its phi."""
        tele = self.universe.telemetry
        tele.phi += node.rank - 1 - (2 if node.state == MARKED else 0)
        node.live = False
        node.in_heap = False
        node.child = None
        node.before = None
        node.after = None
        node.parent = None

    # -- operations ---------------------------------------------------------

    def find_min(self) -> Node | None:
        if not self.live:
            self._check_live()
        tele = self.universe.telemetry
        if tele.record_sink is None:
            return self.peek()
        tele.op_begin("find-min", self._size)
        out = self.peek()
        tele.op_end()
        return out

    def insert(self, x: Node) -> None:
        if not self.live:
            self._check_live()
        if not x.live:
            raise PreconditionError(f"item {x.uid} was already removed")
        if x.in_heap:
            raise PreconditionError(f"item {x.uid} is already in a heap")
        tele = self.universe.telemetry
        recording = tele.record_sink is not None
        if recording:
            tele.op_begin("insert", self._size)
        x.in_heap = True
        x.parent = x
        tele.phi += 1  # a fresh singleton root
        self._add_root(x)
        self._size += 1
        if recording:
            tele.op_end()

    def meld(self, other: "Heap") -> "Heap":
        if not (self.live and other.live):
            self._check_live()
            other._check_live()
        if other is self:
            raise HeapError("cannot meld a heap with itself")
        if other.universe is not self.universe:
            raise HeapError("cannot meld heaps from different universes")
        if other.policy is not self.policy:
            raise HeapError(
                f"cannot meld {self.policy.value} with {other.policy.value}"
            )
        tele = self.universe.telemetry
        recording = tele.record_sink is not None
        if recording:
            tele.op_begin("meld", self._size + other._size)
        self._absorb(other)
        self._size += other._size
        other._size = 0
        other.live = False
        del self.universe._heaps[other]  # a melded-away heap is dropped
        if recording:
            tele.op_end()
        return self

    def decrease_key(self, x: Node, new_key: Any) -> None:
        """Lower item x's key to ``new_key``.  x must be an item of this
        heap; that is not checked, as the check would climb to the root on
        every call (:func:`fibcascade.oracle.run_trace` checks ownership)."""
        if isinstance(new_key, _Bottom):
            raise HeapError("the reserved bottom key cannot be assigned directly")
        self._decrease_key(x, new_key)

    def _decrease_key(self, x: Node, new_key: Any) -> None:
        if not self.live:
            self._check_live()
        if not x.live:
            raise PreconditionError(f"item {x.uid} was already removed")
        if not x.in_heap:
            raise PreconditionError(f"item {x.uid} is not in a heap")
        if new_key > x.key:
            raise PreconditionError(
                f"decrease-key must not increase the key ({new_key!r} > {x.key!r})"
            )
        tele = self.universe.telemetry
        recording = tele.record_sink is not None
        if recording:
            tele.op_begin("decrease-key", self._size)
        x.key = new_key
        self._walk(self, x)
        if recording:
            tele.op_end()

    def delete_min(self) -> Node:
        if not self.live:
            self._check_live()
        if self._size == 0:
            raise PreconditionError("delete-min on an empty heap")
        tele = self.universe.telemetry
        recording = tele.record_sink is not None
        if recording:
            tele.op_begin("delete-min", self._size)
        removed = self._remove_min()
        self._size -= 1
        if recording:
            tele.op_end()
        return removed

    def delete(self, x: Node) -> Node:
        """Remove item x: an internal decrease to the bottom key, then a
        delete-min; telemetry sees the two constituent operations.  x must
        be an item of this heap, unchecked as in :meth:`decrease_key`."""
        self._decrease_key(x, BOTTOM)
        removed = self.delete_min()
        if removed is not x:  # pragma: no cover - structural impossibility
            raise HeapError("delete removed a different item than requested")
        return removed

    # -- root hooks (overridden by ClassicHeap) -----------------------------

    def _add_root(self, x: Node) -> None:
        if self.root is None:
            self.root = x
        else:
            # the inserted or cut node is the first link argument, so it wins ties
            self.root = self._link(x, self.root)

    def _absorb(self, other: "Heap") -> None:
        if self.root is None:
            self.root = other.root
        elif other.root is not None:
            self.root = self._link(self.root, other.root)
        other.root = None

    def _remove_min(self) -> Node:
        """Fair-link the root's children through the registry, then empty
        the registry in one ascending sweep that naive-links its survivors,
        the accumulated root being the first link argument.  The sweep
        writes :meth:`_link`'s splice inline, resets only the final root to
        a root and settles its counters once, after the sweep."""
        h = self.root
        assert h is not None
        A = self.universe.registry
        tele = self.universe.telemetry
        state = self._naive_loser_state
        root: Node | None = None
        links = 0
        for i in range(self._fill_registry(h.child) + 1):
            y = A[i]
            if y is None:
                continue
            A[i] = None
            if root is None:
                root = y
                continue
            links += 1
            if root.key > y.key:
                root, y = y, root
            # splice the loser in as the winner's first child
            y.parent = root
            z = root.child
            y.before = None
            y.after = z
            if z is not None:
                z.before = y
            root.child = y
            if state is not None and y.state != state:
                set_state(y, state, tele)
            y.active = False
        tele.comparisons += links
        tele.naive_links += links
        if root is not None:
            root.parent = root
            root.before = None
            root.after = None
        self.root = root
        self._destroy(h)
        return h

    def _fill_registry(self, y: Node | None) -> int:
        """Fair-link equal-rank roots through the registry, scanning the
        sibling chain that starts at ``y`` first to last; leave each
        survivor in the registry slot of its rank and return the highest
        occupied rank (0 when the chain is empty).

        Each node's ``after`` is read before the node can be linked, so the
        chain is walked once and needs no detaching first: a loser's three
        pointers are rewritten by its link, and a survivor's are left stale
        for the caller's sweep.  A fair link splices as :meth:`_link` does
        and bumps the winner's rank (phi -1 via the rank change; the loser's
        root bonus moves to the winner's new child slot, net zero).  The
        registry slot is cleared at the winner's pre-bump rank, and the
        scanned (or accumulated) node is always the first link argument.
        The counters and phi are settled once, after the scan.
        """
        A = self.universe.registry
        tele = self.universe.telemetry
        state = self._fair_loser_state
        links = 0
        max_rank = 0
        while y is not None:
            after = y.after
            r = y.rank
            while True:
                try:
                    occupant = A[r]
                except IndexError:
                    A.extend([None] * (r + 1 - len(A)))
                    break
                if occupant is None:
                    break
                A[r] = None
                links += 1
                if y.key > occupant.key:
                    y.rank = r  # the scanned node loses with its rank so far
                    y, occupant = occupant, y
                # splice the loser in as the winner's first child
                occupant.parent = y
                z = y.child
                occupant.before = None
                occupant.after = z
                if z is not None:
                    z.before = occupant
                y.child = occupant
                r += 1
                # a loser already in the policy's state needs no transition
                if state is not None and occupant.state != state:
                    set_state(occupant, state, tele)
                occupant.active = True
            y.rank = r
            A[r] = y
            if r > max_rank:
                max_rank = r
            y = after
        tele.comparisons += links
        tele.fair_links += links
        tele.phi -= links
        return max_rank


class ClassicHeap(Heap):
    """The textbook multi-root Fibonacci heap (:data:`Policy.CLASSIC`).

    Insert and meld append to the root list; delete-min fair-links the whole
    list (never a naive link), relists the survivors by increasing rank and
    recomputes the minimum with counted comparisons.  The minimum lives in
    ``root``, as the single tree's root does; ``roots`` lists every root.
    """

    __slots__ = ("roots",)

    def __init__(self, *args: Any) -> None:  # Heap's parameters
        super().__init__(*args)
        self.roots: list[Node] = []

    def iter_roots(self) -> Iterator[Node]:
        return iter(self.roots)

    def _offer_min(self, x: Node) -> None:
        """Make x the minimum if it beats the current one (one counted
        comparison, none when there is no minimum yet)."""
        if self.root is None:
            self.root = x
        else:
            self.universe.telemetry.comparisons += 1
            if x.key < self.root.key:
                self.root = x

    def _add_root(self, x: Node) -> None:
        self.roots.append(x)
        self._offer_min(x)

    def _absorb(self, other: "ClassicHeap") -> None:
        if len(other.roots) > len(self.roots):  # keep the longer list
            other.roots[:0] = self.roots
            self.roots = other.roots
        else:
            self.roots.extend(other.roots)
        other.roots = []
        if other.root is not None:
            self._offer_min(other.root)
        other.root = None

    def _remove_min(self) -> Node:
        """Thread the other roots, in list order, ahead of the minimum's
        children through ``after`` and fair-link the whole chain; then empty
        the registry in one ascending sweep that relists the survivors by
        increasing rank, resets each to a root and picks the minimum (one
        counted comparison per survivor after the first, the first minimum
        winning ties).  Only the survivors need unmarking (roots are never
        marked), as the fair-loser rule unmarks every loser; a survivor is
        made a root before it is unmarked, so it keeps its ``active`` flag.
        """
        tele = self.universe.telemetry
        m = self.root
        assert m is not None
        first = m.child
        for y in reversed(self.roots):
            if y is not m:
                y.after = first
                first = y
        A = self.universe.registry
        roots: list[Node] = []
        low: Node | None = None
        for i in range(self._fill_registry(first) + 1):
            y = A[i]
            if y is None:
                continue
            A[i] = None
            y.parent = y
            y.before = None
            y.after = None
            if y.state != UNMARKED:
                set_state(y, UNMARKED, tele)
            if low is None or y.key < low.key:
                low = y
            roots.append(y)
        if roots:
            tele.comparisons += len(roots) - 1
        self.roots = roots
        self.root = low
        self._destroy(m)
        return m
