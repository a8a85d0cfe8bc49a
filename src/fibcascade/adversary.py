"""Worst-case schedules for the non-cascading policy, built from legal ops.

The target family: ``staircase(k)`` — here called the T-shapes — is a root
whose children are perfect "brooms" S_0..S_{k-1}: S_r is a rank-r node with
exactly r rank-0 leaf children.  On a heap whose decrease-key never cascades,
this shape is self-reproducing: one insert keyed just above the root followed
by one delete-min rebuilds it exactly, and the delete-min pays k fair links
every time — Theta(sqrt(n)) for a heap of n = 1 + k(k+1)/2 nodes.

The builder grows the shape bottom-up through phases.  Phase k turns the
complete k-stage shape into the complete (k+1)-stage one via k conversion
steps and one promoting insert.  One conversion step (2 inserts, 1
delete-min, i-1 decrease-keys) rebuilds the missing broom one index down:
the two fresh nodes are keyed to steer consolidation — the first fresh node
sweeps up the low brooms' roots with fair links, then loses to the root of
S_{i-1}, which thereby becomes a perfect S_i; the decrease-keys then pull
the swallowed roots back out (their keys unchanged), each pull shaving one
rank off the fresh node until it is an honest rank-0 leaf.

Everything depends on the heap core's pinned orders: children are prepended,
delete-min scans children first to last, the registry slot is cleared before
each fair link, and the final sweep goes over ascending ranks with the
accumulated root as first (tie-winning) link argument.  Key choices that make
the right nodes win are asserted before every delete-min, and
:func:`verify_t_shape` re-derives the shape from the raw pointers, so a
violated assumption fails loudly instead of producing a subtly wrong run.

Recorded schedules are rerun with :func:`fibcascade.oracle.replay_ops`, the
mirror-free consumer of the one trace interpreter, re-exported here.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Iterator

from .core import Heap, Node, Policy, Universe
from .instrumentation import (
    OpRecord,
    degree,
    iter_children,
)
from .oracle import replay_ops  # noqa: F401  (re-exported for benchmarks/workloads.py)

SIGMA_STRIDE = 1 << 24  # low zone: root-line keys (initial roots, promotes, repulls)
RUNG_BASE = 1 << 50  # high zone: broom roots and their leaves
RUNG_STRIDE = 1 << 20


def steady_tree_size(k: int) -> int:
    """Node count of the complete k-stage shape: root plus brooms S_0..S_{k-1}."""
    return 1 + k * (k + 1) // 2


def build_ops_needed(k: int) -> int:
    """Heap operations the builder spends to reach the k-stage shape.

    Two initial inserts, then phase j costs sum(i + 2 for i in j..1) + 1 =
    j(j+1)/2 + 2j + 1 operations.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return 2 + sum(j * (j + 1) // 2 + 2 * j + 1 for j in range(1, k))


class ShapeError(AssertionError):
    """The heap does not have the arrangement the construction relies on."""


class _KeyAllocator:
    """Key zones keeping every comparison's winner predetermined.

    Low zone: an ascending counter striding by 2**24, below the high zone;
    each stride ceiling is handed to a node that must sit directly above the
    root (a promoted S_0 or a re-pulled leaf), leaving the 2**24 - 1 keys
    underneath for the steady rounds' inserts, each keyed the root's key + 1
    (the previous round's insert is the root).

    High zone (from 2**50): broom keys.  Each phase's new S_1 root tops all
    previous high keys by a 2**20 stride; conversion pairs for rebuilding
    S_i live in the gap just above the current S_{i-1} root, below the next
    broom root up, allocated by a per-gap ascending counter so revisiting a
    gap in a later phase never collides.
    """

    def __init__(self) -> None:
        self._low = 0
        self._rung_top = RUNG_BASE
        self._gap_next: dict[int, int] = {}

    def barrier(self) -> int:
        if self._low + SIGMA_STRIDE >= RUNG_BASE:
            raise ShapeError(f"low-zone keys exhausted at {self._low}")
        self._low += SIGMA_STRIDE
        return self._low

    def top_rung_pair(self) -> tuple[int, int]:
        kappa = self._rung_top + RUNG_STRIDE
        lam = kappa + 1
        self._rung_top = lam
        return kappa, lam

    def gap_pair(self, lower: int, upper: int | None) -> tuple[int, int]:
        off = self._gap_next.get(lower, 2)
        if off + 1 >= RUNG_STRIDE:
            raise ShapeError(f"gap above {lower} is exhausted")
        self._gap_next[lower] = off + 2
        kappa, lam = lower + off, lower + off + 1
        if upper is not None and lam >= upper:
            raise ShapeError(
                f"conversion pair {kappa},{lam} does not fit below {upper}"
            )
        return kappa, lam


# ---------------------------------------------------------------------------
# shape verification (from raw pointers; never trusts the builder's notes)


def broom_problems(root: Node) -> list[str]:
    """Check that ``root`` heads a perfect broom of its own rank."""
    out: list[str] = []
    kids = list(iter_children(root))
    if len(kids) != root.rank:
        out.append(
            f"broom root {root.uid}: {len(kids)} children, expected {root.rank}"
        )
    for leaf in kids:
        if leaf.rank != 0:
            out.append(f"leaf {leaf.uid}: rank {leaf.rank} != 0")
        if leaf.child is not None:
            out.append(f"leaf {leaf.uid}: has children")
        if not leaf.key > root.key:
            out.append(f"leaf {leaf.uid}: key not above broom root")
    return out


def verify_t_shape(heap: Heap, k: int, missing: int | None = None) -> list[str]:
    """Problems with reading the heap as the k-stage shape.

    ``missing`` is the absent broom index mid-conversion; ``None`` means the
    complete shape (brooms 0..k-1, as after a build or a steady round).
    Child order is not constrained — a freshly promoted S_0 sits first, a
    settled one last; both are the same shape.
    """
    expected = set(range(k)) if missing is None else set(range(k + 1)) - {missing}
    out: list[str] = []
    root = heap.root
    if root is None:
        return [f"expected the {k}-stage shape, heap is empty"]
    if not heap.universe.registry_is_clear():
        out.append("rank registry is not empty between operations")
    want_size = 1 + sum(r + 1 for r in expected)
    got_size = len(heap)
    if got_size != want_size:
        out.append(f"heap size {got_size}, expected {want_size}")
    ranks: list[int] = []
    for child in iter_children(root):
        ranks.append(child.rank)
        out.extend(broom_problems(child))
        if not child.key > root.key:
            out.append(f"broom {child.uid}: key not above the tree root")
    if sorted(ranks) != sorted(expected):
        out.append(
            f"child ranks {sorted(ranks)} != expected {sorted(expected)};"
            " a consolidation met roots in an unplanned order"
            " (check child-prepend / first-to-last scan assumptions)"
        )
    return out


# ---------------------------------------------------------------------------
# the builder


_NEWHEAP = ("newheap", "h0", Policy.NON_CASCADING.value)
_DELETE_MIN = ("deletemin", "h0")  # every recorded delete-min shares this op
_INSERT_COST = OpRecord("insert", 0).estimated_time  # the cost model's insert
_INSERT, _DELETE, _DECREASE = range(3)  # verb bytes of a recording


class Recording:
    """A recorded schedule in the replayable trace format, stored as
    machine integers: one verb byte per operation, and in an int64 array
    an insert's key, or a decrease-key's new key then its item's uid --
    9 bytes per insert, 1 per delete-min and 17 per decrease-key.

    Iterating decodes the ops, the ``newheap`` declaration first; an
    insert's item is named by its ordinal among the inserts, which is its
    uid because the builder makes items only by inserting them.  Names
    are formatted as they are decoded, so a recording keeps no strings,
    and every delete-min is the one shared op.  A key outside int64
    raises :class:`OverflowError` at record time.
    """

    __slots__ = ("_verbs", "_ints")

    def __init__(self) -> None:
        self._verbs = bytearray()
        self._ints = array("q")

    def __len__(self) -> int:
        return 1 + len(self._verbs)

    def insert(self, key: int) -> None:
        self._ints.append(key)
        self._verbs.append(_INSERT)

    def delete_min(self) -> None:
        self._verbs.append(_DELETE)

    def decrease_key(self, uid: int, key: int) -> None:
        self._ints.append(key)  # first: a key that does not fit stores nothing
        self._ints.append(uid)
        self._verbs.append(_DECREASE)

    def __iter__(self) -> Iterator[tuple]:
        yield _NEWHEAP
        take = iter(self._ints).__next__
        uid = 0
        for verb in self._verbs:
            if verb == _DELETE:
                yield _DELETE_MIN
            elif verb == _INSERT:
                yield ("insert", "h0", f"x{uid}", take())
                uid += 1
            else:
                key = take()
                yield ("decreasekey", f"x{take()}", key)


class AdversaryBuilder:
    """Drives a non-cascading heap through the worst-case construction.

    All mutations go through the public heap operations; ``recording=True``
    additionally logs every operation as a :class:`Recording` in ``trace``,
    which iterates as the replayable trace, so the very same schedule can
    be rerun on other policies (without recording, ``trace`` is empty).
    The recording keeps no names and no tuples, so a replay's memory
    follows what it replays.  Telemetry builds records only for the
    delete-mins and decrease-keys, whose links and cascade steps the
    builder reads; an insert costs the cost model's constant, so
    ``est_total`` sums the same estimated times, in the same order, as a
    sink attached throughout.
    """

    def __init__(self, seed: int = 0, recording: bool = False) -> None:
        self.universe = Universe(seed=seed)
        self.heap = self.universe.make_heap(Policy.NON_CASCADING, "h0")
        self.alloc = _KeyAllocator()
        self.rungs: dict[int, Node] = {}  # broom index -> its root node
        self.s0: Node | None = None  # current S_0 (rank-0 child of the root)
        self.k = 0
        self.op_count = 0
        self.trace: Recording | tuple[()] = Recording() if recording else ()
        self.est_total = 0.0  # estimated time of every operation so far
        self._last: OpRecord | None = None

    # -- plumbing -----------------------------------------------------------

    def _read(self, rec: OpRecord) -> None:
        """The record sink, attached only by :meth:`_window`: between
        operations nothing in the universe refers to the builder."""
        self.est_total += rec.estimated_time
        self._last = rec

    def _window(self, op: Callable[..., Node | None], *args: object) -> Node | None:
        """Run one heap operation, whose record the builder reads, with
        :meth:`_read` attached for just that operation."""
        tele = self.universe.telemetry
        tele.record_sink = self._read
        try:
            out = op(*args)
        finally:
            tele.record_sink = None
        self.op_count += 1
        return out

    def _insert(self, key: int) -> Node:
        node = self.universe.make_item(key)
        if self.trace:
            self.trace.insert(key)
        self.heap.insert(node)
        self.est_total += _INSERT_COST
        self.op_count += 1
        return node

    def _delete_min(self) -> Node:
        if self.trace:
            self.trace.delete_min()
        return self._window(self.heap.delete_min)

    def _decrease_key(self, node: Node, key: int) -> None:
        if self.trace:
            self.trace.decrease_key(node.uid, key)
        self._window(self.heap.decrease_key, node, key)

    def _require(self, cond: bool, msg: str) -> None:
        if not cond:
            raise ShapeError(msg)

    def _verify(self, k: int) -> None:
        problems = verify_t_shape(self.heap, k)
        if problems:
            raise ShapeError("; ".join(problems[:4]))

    # -- construction -------------------------------------------------------

    def build(self, k: int) -> None:
        """Grow the complete k-stage shape from nothing, verified per phase."""
        self._require(self.k == 0 and len(self.heap) == 0, "build on a used heap")
        self._require(k >= 1, "k must be at least 1")
        root = self._insert(self.alloc.barrier())
        first = self._insert(self.alloc.barrier())
        self._require(self.heap.root is root, "initial insert order broke")
        self.s0 = first
        self.k = 1
        self._verify(1)
        for phase in range(1, k):
            for i in range(phase, 0, -1):
                self._convert(phase, i)
            self._promote()
            self.k = phase + 1
            self._verify(self.k)
        expected_ops = build_ops_needed(k)
        self._require(
            self.op_count == expected_ops,
            f"build used {self.op_count} ops, expected {expected_ops}",
        )

    def _convert(self, k: int, i: int) -> None:
        """Rebuild the missing broom one index down: the shape goes from
        "brooms 0..k minus S_i" to "brooms 0..k minus S_{i-1}"."""
        alloc = self.alloc
        heap = self.heap
        old_root = heap.root
        assert old_root is not None
        if i == 1:
            kappa_key, lam_key = alloc.top_rung_pair()
            chi = None
        else:
            chi = self.rungs[i - 1]
            upper = self.rungs[i - 2].key if i >= 3 else None
            kappa_key, lam_key = alloc.gap_pair(chi.key, upper)
        kappa = self._insert(kappa_key)
        lam = self._insert(lam_key)

        # the key orderings the coming consolidation counts on
        sigma = self.s0
        self._require(sigma is not None, "conversion needs an S_0 in place")
        assert sigma is not None
        self._require(old_root.key < sigma.key, "root is not the minimum")
        self._require(kappa.key < lam.key, "fresh pair out of order")
        if chi is not None:
            self._require(sigma.key < chi.key, "S_0 must outrank only the root")
            self._require(
                chi.key < kappa.key,
                "the S_{i-1} root must be smallest among the linked roots",
            )
            for j in range(1, i - 1):
                self._require(
                    kappa.key < self.rungs[j].key,
                    "the first fresh node must undercut the low broom roots",
                )

        removed = self._delete_min()
        rec = self._last
        self._require(removed is old_root, "delete-min removed a non-root")
        self._require(heap.root is sigma, "the old S_0 did not become the root")
        self._require(
            rec.fair_links == i and rec.naive_links == k - i + 1,
            f"conversion consolidation did {rec.fair_links} fair /"
            f" {rec.naive_links} naive links, expected {i} / {k - i + 1}",
        )

        if i == 1:
            self.rungs[1] = kappa
            self.s0 = None
        else:
            # pull the swallowed roots back out from under the fresh node;
            # the first pull rehomes the second fresh node next to the root
            self._decrease_key(lam, alloc.barrier())
            for j in range(1, i - 1):
                self._decrease_key(self.rungs[j], self.rungs[j].key)
            self._require(kappa.rank == 0, "fresh node kept rank after pulls")
            self._require(
                degree(kappa) == 0, "fresh node kept children after pulls"
            )
            assert chi is not None
            self._require(
                chi.rank == i, f"rebuilt broom has rank {chi.rank}, wanted {i}"
            )
            self.rungs[i] = self.rungs.pop(i - 1)
            self.s0 = lam

    def _promote(self) -> None:
        """One insert turns the gapless shape into the next complete one."""
        self._require(self.s0 is None, "promote expects no S_0 in place")
        root = self.heap.root
        assert root is not None
        self.s0 = self._insert(self.alloc.barrier())
        self._require(
            self.heap.root is root, "promoting insert displaced the root"
        )

    # -- the steady cycle ---------------------------------------------------

    def start_rounds(self) -> None:
        """Refuse unless a round can run now: its key, the root's key + 1,
        must fall below S_0's.  Every steady round makes this check first."""
        assert self.s0 is not None and self.heap.root is not None
        if self.heap.root.key + 1 >= self.s0.key:
            raise ShapeError(
                "round key must fall between the root and everything else"
            )

    def steady_round(self, verify: bool = True) -> OpRecord:
        """Check the window (:meth:`start_rounds`), insert keyed the root's
        key + 1, delete-min, land on the same shape, with the insert as the
        new root; return the delete-min's record (the insert's one naive
        link and one comparison are in the telemetry's counters, not in this
        record)."""
        self.start_rounds()
        heap = self.heap
        k = self.k
        old_root = heap.root
        fresh = self._insert(old_root.key + 1)
        removed = self._delete_min()
        rec = self._last
        if removed is not old_root:
            raise ShapeError("round delete-min missed the root")
        if heap.root is not fresh:
            raise ShapeError("round insert did not take the root")
        if rec.fair_links != k or rec.naive_links != 0:
            raise ShapeError(
                f"round delete-min did {rec.fair_links} fair / {rec.naive_links}"
                f" naive links, expected {k} / 0"
            )
        if verify:
            self._verify(k)
        return rec

    def run_rounds(self, rounds: int) -> list[OpRecord]:
        return [self.steady_round() for _ in range(rounds)]


def max_k_within(budget_ops: float) -> int:
    """Largest k whose build fits in the given operation budget."""
    k = 1
    while build_ops_needed(k + 1) <= budget_ops:
        k += 1
    return k


VERIFY_ROUNDS = 3  # steady rounds shape-verified at each end of a schedule
MIN_M = 12  # the smallest operation count run_lower_bound takes


def run_lower_bound(m: int, recording: bool = False) -> AdversaryBuilder:
    """The m-operation worst-case schedule: build the largest shape within
    m/3 operations, then alternate insert / delete-min for the rest; returns
    the builder, whose ``k``, ``op_count``, ``est_total`` and ``heap``
    describe the finished schedule.

    Shape verification is spot-checked (first/last :data:`VERIFY_ROUNDS`
    rounds); every round still asserts the exact k fair links, which is the
    property the cost bound rides on.
    """
    if m < MIN_M:
        raise ValueError("schedule too small to build anything")
    builder = AdversaryBuilder(recording=recording)
    builder.build(max_k_within(m / 3))
    rounds = (m - builder.op_count) // 2
    for r in range(rounds):
        verify = r < VERIFY_ROUNDS or r >= rounds - VERIFY_ROUNDS
        builder.steady_round(verify=verify)
    return builder
