"""Reference semantics, trace files, and differential replay.

A trace is a list of operations over named heaps and named items, written one
per line::

    newheap h0 simple
    item x0 42
    insert h0 x0
    insert h0 x1 17        # shorthand: declares x1 with key 17, then inserts
    decreasekey x0 5
    findmin h0
    deletemin h0
    meld h0 h1
    delete x1

``#`` starts a comment; keys are signed decimal integers; heap and item names
are single-use tokens (a melded-away heap name is never reused).

:func:`run_trace` is the one trace interpreter: it runs the ops on policy
heaps and yields after each one.  :func:`replay_ops` consumes it bare (to
rerun recorded schedules and inspect intermediate states);
:func:`replay_differential` consumes it with a reference mirror, running a
trace on a policy heap and on the sorted reference in lockstep and reporting
the first divergence.  Equality is on keys:
tie-breaking among equal keys is the policies' prerogative, so after checking
the removed key the reference drops the very item the policy dropped, keeping
both sides aligned.  Strict mode additionally compares item identities, which
is only sound when all keys are unique.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from itertools import chain
from random import Random
from typing import Any, Callable, Iterable, Iterator

from .core import MARKED, POLICY_TAGS, Heap, HeapError, Node, Policy, Universe

Op = tuple  # one parsed trace line: (verb, arg, ...)


class TraceError(ValueError):
    """A trace could not be parsed or fails its preconditions."""


# ---------------------------------------------------------------------------
# reference heap


class OracleHeap:
    """Sorted-multiset semantics via a lazy-deletion binary heap.

    Keeps (key, uid) pairs; the minimum is the lexicographically least live
    pair, and :attr:`top` holds it (``None`` when empty), settled after every
    mutation so that observers read it without a call.  A decrease pushes a
    fresh pair, the new top when it beats the old one or re-keys it (the
    old top is live, so no pop is due); a removal only forgets the item's
    key; stale pairs are dropped when they reach the top, and once they
    outnumber the live ones the entries are rebuilt from the live keys with
    one heapify.  So the entries stay within twice the live items, and every
    operation but meld is O(log n) amortized.  A meld keeps the larger
    side's tables and adds the smaller side's to them, at O(k log n) for k
    entries on the smaller side.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[Any, int]] = []
        self._key: dict[int, Any] = {}
        self.top: tuple[Any, int] | None = None

    def __len__(self) -> int:
        return len(self._key)

    def insert(self, uid: int, key: Any) -> None:
        if uid in self._key:
            raise TraceError(f"oracle: duplicate insert of item {uid}")
        self._key[uid] = key
        entries = self._entries
        heapq.heappush(entries, (key, uid))
        self.top = entries[0]  # the new pair or the live top it did not beat

    def decrease_key(self, uid: int, key: Any) -> None:
        old = self._key[uid]
        if key > old:
            raise TraceError(f"oracle: key increase {old!r} -> {key!r}")
        self._key[uid] = key
        entries = self._entries
        pair = (key, uid)
        heapq.heappush(entries, pair)
        if len(entries) > 2 * len(self._key):  # the old pair is stale now
            self._settle()
        elif pair <= self.top:  # it re-keys the top, or beats it
            self.top = pair

    def _settle(self) -> None:
        entries = self._entries
        live = self._key
        if len(entries) > 2 * len(live):
            self._entries = entries = [(key, uid) for uid, key in live.items()]
            heapq.heapify(entries)
        while entries:
            pair = entries[0]
            if live.get(pair[1], _ABSENT) == pair[0]:
                self.top = pair
                return
            heapq.heappop(entries)
        self.top = None

    def find_min(self) -> tuple[Any, int] | None:
        return self.top

    def min_key(self) -> Any:
        pair = self.top
        return None if pair is None else pair[0]

    def delete_min(self) -> tuple[Any, int]:
        pair = self.top
        if pair is None:
            raise TraceError("oracle: delete-min on empty heap")
        del self._key[pair[1]]
        heapq.heappop(self._entries)
        self._settle()
        return pair

    def remove(self, uid: int) -> None:
        """Drop a specific item (the policy heap chose it among equal keys,
        or a delete targeted it directly)."""
        del self._key[uid]
        self._settle()

    def meld(self, other: "OracleHeap") -> None:
        if len(other) > len(self):  # keep the larger side's tables
            self._entries, other._entries = other._entries, self._entries
            self._key, other._key = other._key, self._key
        for pair in other._entries:
            heapq.heappush(self._entries, pair)
        self._key.update(other._key)
        other._entries = []
        other._key = {}
        other.top = None
        self._settle()


_ABSENT = object()  # the _settle lookup's default: equal to no key


# ---------------------------------------------------------------------------
# trace text format

# verb -> (argument count, the count at which the last argument is an
# integer key, or None); an insert takes 2 arguments, or 3 with an inline key
_VERBS = {
    "newheap": (2, None),
    "item": (2, 2),
    "insert": (2, 3),
    "deletemin": (1, None),
    "decreasekey": (2, 2),
    "delete": (1, None),
    "meld": (2, None),
    "findmin": (1, None),
}
# ASCII signed decimals: bare int() would also take 1_000 and non-ASCII digits
_DECIMAL = re.compile(r"[+-]?[0-9]+").fullmatch


def parse_trace(text: str) -> list[Op]:
    """Parse trace text to a list of op tuples: :func:`iter_trace` of it."""
    return list(iter_trace((text,)))


def iter_trace(lines: Iterable[str]) -> Iterator[Op]:
    """Parse trace lines to op tuples as they are read; errors carry line numbers.

    ``lines`` is an open file or any iterable of text.  Each piece is split
    with :meth:`str.splitlines`, as whole text is (a form feed ends a line),
    and the lines of all pieces are numbered as one sequence.

    Equal tokens share one ``str`` object: every verb, heap name, item name
    and policy tag passes through one dict for the call; split lines alone
    would give one string per occurrence, about twice what the tuples need.
    """
    tokens: dict[str, str] = {}
    pieces = chain.from_iterable(map(str.splitlines, lines))
    for lineno, raw in enumerate(pieces, start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        verb = parts[0]
        arity = _VERBS.get(verb)
        if arity is None:
            raise TraceError(f"line {lineno}: unknown verb {verb!r}")
        want, key_at = arity
        argc = len(parts) - 1
        if argc != want and argc != key_at:
            raise TraceError(
                f"line {lineno}: {verb} takes {want} arguments, got {argc}"
            )
        if argc == key_at:
            key = parts.pop()
            if not _DECIMAL(key):
                raise TraceError(
                    f"line {lineno}: {verb} argument {argc} must be an"
                    f" integer, got {key!r}"
                )
            op = (*map(tokens.setdefault, parts, parts), int(key))
        else:
            op = tuple(map(tokens.setdefault, parts, parts))
        if verb == "newheap" and op[2] not in POLICY_TAGS:
            raise TraceError(f"line {lineno}: unknown policy {op[2]!r}")
        yield op


def format_trace(ops: Iterable[Op]) -> str:
    return "".join(" ".join(str(part) for part in op) + "\n" for op in ops)


# ---------------------------------------------------------------------------
# random trace generation


#: How often :func:`gen_trace` draws each verb; infeasible draws (delete-min
#: on empty, meld with one heap, ...) fall back to an insert.
TRACE_WEIGHTS = {
    "insert": 30,
    "deletemin": 15,
    "decreasekey": 30,
    "delete": 5,
    "findmin": 10,
    "meld": 4,
    "newheap": 6,
}
MAX_HEAPS = 4  # heaps a trace creates, melded ones included
KEY_SPAN = 1 << 40  # inserted keys are drawn from [-KEY_SPAN, KEY_SPAN)
DECREMENT_SPAN = 1 << 20  # a decrease-key lowers a key by 1..DECREMENT_SPAN


class _ModelHeap(OracleHeap):
    """Generator-side bookkeeping for one heap: the reference heap plus a
    swap-remove list of its item names, for O(1) uniform picks."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self.pos: dict[str, int] = {}

    def insert(self, x: str, key: int) -> None:
        super().insert(x, key)
        self.pos[x] = len(self.names)
        self.names.append(x)

    def remove(self, x: str) -> None:
        super().remove(x)
        i = self.pos.pop(x)
        last = self.names.pop()
        if last != x:
            self.names[i] = last
            self.pos[last] = i

    def meld(self, other: "_ModelHeap") -> None:
        for x in other.pos:  # in joining order; `names` is swap-removed
            self.pos[x] = len(self.names)
            self.names.append(x)
        super().meld(other)


def gen_trace(n_ops: int, seed: int = 0) -> list[Op]:
    """Generate a random, precondition-respecting trace; same arguments =>
    same trace.

    The trace has exactly ``n_ops`` lines.  Verbs are drawn by
    :data:`TRACE_WEIGHTS`, and a draw whose precondition fails is written as
    an insert, as is a ``newheap`` past :data:`MAX_HEAPS` heaps.  Every
    ``newheap`` line names ``simple``: callers choose the policy at replay,
    so one trace serves all ten.  Generated keys are globally unique so that
    the trace is valid under every tie-breaking choice a policy might make.
    """
    if n_ops < 0:
        raise TraceError("n_ops must be nonnegative")
    if n_ops == 0:
        return []
    rng = Random(seed)
    verbs = sorted(TRACE_WEIGHTS)
    weights = [TRACE_WEIGHTS[v] for v in verbs]
    ops: list[Op] = [("newheap", "h0", "simple")]
    n_heaps = 1
    n_items = 0
    members: dict[str, _ModelHeap] = {"h0": _ModelHeap()}  # the live heaps
    seen_keys: set[int] = set()

    def some(names: list[str]) -> str:
        return names[rng.randrange(len(names))]

    for _ in range(n_ops - 1):
        verb = rng.choices(verbs, weights)[0]
        if verb == "newheap" and n_heaps < MAX_HEAPS:
            h = f"h{n_heaps}"
            n_heaps += 1
            members[h] = _ModelHeap()
            ops.append(("newheap", h, "simple"))
        elif verb == "findmin":
            ops.append(("findmin", some(list(members))))
        elif verb == "meld" and len(members) > 1:
            h1, h2 = rng.sample(list(members), 2)
            members[h1].meld(members.pop(h2))
            ops.append(("meld", h1, h2))
        elif verb in ("deletemin", "decreasekey", "delete") and (
            loaded := [h for h, model in members.items() if model]
        ):
            h = some(loaded)
            model = members[h]
            if verb == "deletemin":
                model.remove(model.top[1])
                ops.append(("deletemin", h))
            elif verb == "delete":
                x = some(model.names)
                model.remove(x)
                ops.append(("delete", x))
            else:
                x = some(model.names)
                key = model._key[x] - 1 - rng.randrange(DECREMENT_SPAN)
                while key in seen_keys:
                    key -= 1
                seen_keys.add(key)
                model.decrease_key(x, key)
                ops.append(("decreasekey", x, key))
        else:  # an insert, drawn or in place of an infeasible draw
            h = some(list(members))
            key = rng.randrange(-KEY_SPAN, KEY_SPAN)
            while key in seen_keys:
                key = rng.randrange(-KEY_SPAN, KEY_SPAN)
            seen_keys.add(key)
            x = f"x{n_items}"
            n_items += 1
            members[h].insert(x, key)
            ops.append(("insert", h, x, key))
    return ops


# ---------------------------------------------------------------------------
# differential replay


@dataclass
class ReplayVerdict:
    """Outcome of one lockstep run; ``ok`` means no divergence and no
    invariant-check failure."""

    policy: str
    steps: int = 0
    divergence: str | None = None
    step_index: int | None = None
    check_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.check_failures


def _walk_checks(heap: Heap) -> tuple[list[str], list[str], list[str], int]:
    """One walk of a heap's trees for every asserted clause: the program's
    only copy of them.

    Returns, in walk order, the structure violations (pointer discipline,
    each root its own parent with no siblings, heap order, rank sanity and
    degree >= rank; last, the heap's size against the nodes it reached),
    the nodes whose subtree is smaller than the floor of their rank that
    ``heap.rule``, the heap's policy row, asserts (none without a floor),
    the nodes with fewer ``active`` children than their rank (asserted only
    when that row is ``audited``), and the heap's share of the potential.
    A node reached a second time is reported once, as reachable twice, and
    not walked again.  A child chain longer than the universe has items
    must loop: its scan stops there, and the cut is reported ahead of the
    other structure violations, whose first five would otherwise be the
    loop's repeats.  So the walk ends on any pointer graph, a cycle of
    child or sibling links included.
    """
    floor = heap.rule.floor
    audited = heap.rule.audited
    most = heap.universe.item_count
    cut: list[str] = []
    bad: list[str] = []
    short: list[str] = []
    idle: list[str] = []
    phi = 0
    seen: set[Node] = set()
    for root in heap.iter_roots():
        phi += 1  # each root contributes one
        if root.parent is not root:
            bad.append(f"node {root.uid}: root is not its own parent")
        if root.before is not None or root.after is not None:
            bad.append(f"node {root.uid}: root has a sibling link")
        order = []
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                bad.append(f"node {node.uid} reachable twice")
                continue
            seen.add(node)
            order.append(node)
            rank = node.rank
            if rank < 0:
                bad.append(f"node {node.uid}: negative rank {rank}")
            key = node.key
            d = 0
            live = 0
            prev = None
            child = node.child
            while child is not None:
                if d == most:
                    cut.append(
                        f"node {node.uid}: child chain longer than the"
                        f" universe's {most} items"
                    )
                    break
                stack.append(child)
                if child.parent is not node:
                    bad.append(f"node {child.uid}: parent pointer does not match")
                if child.before is not prev:
                    bad.append(f"node {child.uid}: broken sibling back-link")
                if child.key < key:
                    bad.append(
                        f"node {child.uid}: key {child.key!r} below parent's {key!r}"
                    )
                if audited and child.active:
                    live += 1
                d += 1
                prev = child
                child = child.after
            if d < rank:
                bad.append(f"node {node.uid}: degree {d} < rank {rank}")
            phi += d - rank
            if node.state == MARKED:
                phi += 2
            if audited and live < rank:
                idle.append(f"node {node.uid}: {live} active children < rank {rank}")
        if floor is not None:
            # each subtree is a run of the walk, which visits a node's first
            # child last: a subtree ends where the one of that child ends (a
            # node whose first child this tree did not walk later is alone)
            ends: dict[Node, int] = {}
            i = len(order)
            for node in reversed(order):
                i -= 1
                end = ends[node] = ends.get(node.child, i + 1)
                rank = node.rank
                if rank > 0 and end - i < floor(rank):  # rank 0 asks for 1
                    short.append(
                        f"node {node.uid}: size {end - i} < bound {floor(rank)}"
                        f" for rank {rank}"
                    )
    if len(seen) != len(heap):
        bad.append(f"size {len(heap)} != {len(seen)} nodes reached")
    if cut:
        bad[:0] = cut
    return bad, short, idle, phi


def run_checks(universe: Universe) -> list[str]:
    """Asserted invariant checks of every live heap of ``universe``, one
    walk per heap; failures as messages.

    Per heap, in order: structure, the rank bound its policy's row asserts
    and, on the audited policy's heaps, the active-children ledger; at most
    five messages of each.  Then, once, as ``universe/potential``, the
    potential: the tracked phi against the total of every heap's share,
    and never negative.  :func:`_walk_checks` holds the clauses.
    """
    tele = universe.telemetry
    out: list[str] = []
    phi = 0
    for heap in universe.live_heaps():
        bad, short, idle, share = _walk_checks(heap)
        phi += share
        if bad or short or idle:
            for check, found in (
                ("structure", bad),
                (heap.rule.bound, short),
                ("active-children", idle),
            ):
                out.extend(f"{heap.name}/{check}: {v}" for v in found[:5])
    if phi != tele.phi:
        out.append(
            f"universe/potential: incremental phi {tele.phi} != recomputed {phi}"
        )
    if tele.phi < 0:
        out.append(f"universe/potential: negative phi {tele.phi}")
    return out


def run_trace(
    ops: Iterable[Op],
    universe: Universe,
    heaps: dict[str, Heap],
    policy: Policy | str | None = None,
) -> Iterator[tuple[int, Op, Heap | None, Node | None]]:
    """The trace interpreter: run ops on policy heaps created in ``universe``
    and kept by name in ``heaps`` while live, and after each op yield
    ``(index, op, heap, node)``: the heap it ran on (the absorber for meld)
    and the item it touched (removed or found, for delete-min and find-min).
    ``policy`` overrides every ``newheap`` line's recorded policy.

    Item ownership is tracked by heap name (insert records the heap, meld
    the absorber), never by walking the tree; a lookup points every heap on
    the absorber chain it walked at the live heap, so a chain of melds is
    walked once, not once per item.  A removed item keeps its name,
    so the name cannot be reused, but drops its node: memory follows the
    live items and the names seen so far.  Malformed ops raise
    :class:`TraceError` naming the op's index.
    """
    items: dict[str, Node | None] = {}  # None: removed, the name stays taken
    home: dict[str, str] = {}  # live item -> the heap it went into, or its absorber
    absorber: dict[str, str] = {}  # melded-away heap -> the heap that took it

    def new_item(i: int, name: str, key: Any) -> Node:
        if name in items:
            raise TraceError(f"op {i}: item name {name!r} reused")
        items[name] = universe.make_item(key, info=name)
        return items[name]

    def owner(i: int, name: str) -> tuple[Heap, Node]:
        node = items[name]
        if node is None or node.parent is None:
            raise TraceError(f"op {i}: item {name!r} is in no live heap")
        h = home[name]
        if h in absorber:
            walked = []
            while h in absorber:
                walked.append(h)
                h = absorber[h]
            for w in walked:  # path compression: the next walk is one step
                absorber[w] = h
            home[name] = h
        return heaps[h], node

    try:
        for i, op in enumerate(ops):
            verb = op[0]
            heap: Heap | None = None
            node: Node | None = None
            if verb == "insert":
                name = op[2]
                node = new_item(i, name, op[3]) if len(op) == 4 else items[name]
                if node is None:
                    raise TraceError(f"op {i}: item {name!r} was already removed")
                if node.parent is not None:
                    raise TraceError(f"op {i}: item {name!r} is already in a heap")
                heap = heaps[op[1]]
                heap.insert(node)
                home[name] = op[1]
            elif verb == "decreasekey":
                heap, node = owner(i, op[1])
                heap.decrease_key(node, op[2])
            elif verb == "deletemin":
                heap = heaps[op[1]]
                node = heap.delete_min()
                items[node.info] = None  # every item is made with its name
                del home[node.info]
            elif verb == "findmin":
                heap = heaps[op[1]]
                node = heap.find_min()
            elif verb == "delete":
                heap, node = owner(i, op[1])
                heap.delete(node)
                items[op[1]] = None
                del home[op[1]]
            elif verb == "meld":
                heap = heaps[op[1]]
                heap.meld(heaps[op[2]])
                del heaps[op[2]]
                absorber[op[2]] = op[1]
            elif verb == "newheap":
                _, name, tag = op
                if name in heaps or name in absorber:
                    raise TraceError(f"op {i}: heap name {name!r} reused")
                heap = universe.make_heap(tag if policy is None else policy, name)
                heaps[name] = heap
            elif verb == "item":
                node = new_item(i, op[1], op[2])
            else:
                raise TraceError(f"op {i}: unknown verb {verb!r}")
            yield i, op, heap, node
    except HeapError as exc:
        raise TraceError(f"op {i}: precondition failed: {exc}") from exc
    except KeyError as exc:
        raise TraceError(f"op {i}: unknown heap or item name {exc}") from exc


def replay_ops(
    ops: Iterable[Op],
    policy: Policy | str | None = None,
    seed: int = 0,
    record_sink: Callable | None = None,
    on_op: Callable | None = None,
) -> tuple[Universe, dict[str, Heap]]:
    """Execute a trace (no reference mirror) and hand back the end state.

    Used to rerun recorded adversary schedules on other policies and to
    verify that a dumped trace rebuilds the shape it came from.  ``on_op``
    is called as ``on_op(index, universe, heaps)`` after every operation,
    for callers that want to inspect intermediate states.
    """
    universe = Universe(seed=seed)
    universe.telemetry.record_sink = record_sink
    heaps: dict[str, Heap] = {}
    for index, _, _, _ in run_trace(ops, universe, heaps, policy):
        if on_op is not None:
            on_op(index, universe, heaps)
    return universe, heaps


# the verbs that answer with an item, and how a divergence says what each did
_ANSWER = {"deletemin": "delete-min on {} removed", "findmin": "find-min on {} found"}


def replay_differential(
    ops: Iterable[Op],
    policy: Policy | str | None = None,
    seed: int = 0,
    strict_identity: bool = False,
    check_interval: int = 0,
    record_sink: Callable | None = None,
) -> ReplayVerdict:
    """Run a trace against a policy heap and the reference in lockstep.

    ``policy`` overrides every ``newheap`` line's recorded policy, which is
    how one generated trace is replayed across all ten.  After each step the
    root key of every live heap, not only the one the step touched, is
    compared with its mirror's settled :attr:`OracleHeap.top` (quietly —
    observation does not disturb the counters), and so is the item a
    delete-min removed or a find-min found: by key, and by item too under
    ``strict_identity``.  ``check_interval`` > 0 additionally runs
    :func:`run_checks`, looked up as this module's global on every call,
    every that-many steps, and once more at the end unless the last step was
    one of those.  The reference only observes what :func:`run_trace`
    yields.  ``record_sink`` is attached to the universe only while the
    replay runs, however it ends: a finished universe is cyclic garbage
    (each root is its own parent), and would keep the sink alive until a
    full collection.
    """
    tag = "recorded" if policy is None else Policy.from_tag(policy).value
    universe = Universe(seed=seed)
    heaps: dict[str, Heap] = {}
    mirrors: dict[str, tuple[Heap, OracleHeap]] = {}  # live, in creation order
    verdict = ReplayVerdict(policy=tag)

    def diverged(i: int, msg: str) -> ReplayVerdict:
        verdict.divergence = msg
        verdict.step_index = i
        return verdict

    def checks_failed(i: int) -> bool:
        verdict.check_failures.extend(run_checks(universe))
        if verdict.check_failures:
            verdict.step_index = i
        return bool(verdict.check_failures)

    universe.telemetry.record_sink = record_sink
    try:
        for i, op, heap, node in run_trace(ops, universe, heaps, policy):
            verb = op[0]
            if verb == "insert":
                mirrors[op[1]][1].insert(node.uid, node.key)
            elif verb == "decreasekey":
                mirrors[heap.name][1].decrease_key(node.uid, op[2])
            elif verb in _ANSWER:
                name = op[1]
                mirror = mirrors[name][1]
                pair = mirror.top
                want = None if pair is None else pair[0]
                got = None if node is None else node.key
                if got != want:
                    return diverged(
                        i,
                        f"{_ANSWER[verb].format(name)} key {got!r},"
                        f" reference minimum is {want!r}",
                    )
                if strict_identity and pair is not None and pair[1] != node.uid:
                    return diverged(
                        i,
                        f"{_ANSWER[verb].format(name)} item {node.uid},"
                        f" reference minimum is item {pair[1]}",
                    )
                if verb == "deletemin":
                    mirror.remove(node.uid)
            elif verb == "delete":
                mirrors[heap.name][1].remove(node.uid)
            elif verb == "meld":
                mirrors[op[1]][1].meld(mirrors.pop(op[2])[1])
            elif verb == "newheap":
                mirrors[op[1]] = (heap, OracleHeap())
            verdict.steps = i + 1
            for name, (live, mirror) in mirrors.items():  # not just this op's
                least = live.root
                got = None if least is None else least.key
                pair = mirror.top
                want = None if pair is None else pair[0]
                if got != want:
                    return diverged(
                        i,
                        f"after {' '.join(map(str, op))}: heap {name} finds min"
                        f" {got!r}, reference finds {want!r}"
                        f" (sizes {len(live)}/{len(mirror)})",
                    )
            if check_interval and (i + 1) % check_interval == 0 and checks_failed(i):
                return verdict
        if check_interval and verdict.steps % check_interval:
            checks_failed(verdict.steps - 1)
        return verdict
    finally:
        universe.telemetry.record_sink = None
