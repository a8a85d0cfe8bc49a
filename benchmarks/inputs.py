"""Seeded inputs for the benchmark workloads.

Every input a workload consumes is generated here from the run's seed, so a
change to the package's own generators (``cli.gen_graph``,
``oracle.gen_trace``) cannot change what the benchmark measures.  Each
generator is a pure function of its ``random.Random`` argument.
"""

from __future__ import annotations

import hashlib
import heapq
import random

KEY_SPAN = 1 << 40
DECREMENT_SPAN = 1 << 20

# Operation mix of the trace corpus; infeasible draws (a delete-min with
# every heap empty, a meld with one heap left) fall back to an insert.
TRACE_WEIGHTS = {
    "insert": 30,
    "decreasekey": 30,
    "deletemin": 15,
    "findmin": 10,
    "newheap": 6,
    "delete": 5,
    "meld": 4,
}
MAX_LIVE_HEAPS = 4


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent stream per input, so resizing one input leaves the
    others unchanged.  String seeds hash through SHA-512, not ``hash()``."""
    return random.Random(f"{purpose}/{seed}")


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def unique_keys(rng: random.Random, count: int) -> list[int]:
    """``count`` distinct keys in [0, 2**40), in draw order."""
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        key = rng.randrange(KEY_SPAN)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def random_digraph(
    rng: random.Random, vertices: int, edges: int
) -> list[tuple[int, int, int]]:
    """Uniform simple digraph (no loops, no parallel arcs), 32-bit weights."""
    seen: set[int] = set()
    out: list[tuple[int, int, int]] = []
    while len(out) < edges:
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        code = u * vertices + v
        if u == v or code in seen:
            continue
        seen.add(code)
        out.append((u, v, rng.getrandbits(32)))
    return out


def edge_text(edges: list[tuple[int, int, int]]) -> str:
    return "".join(f"{u} {v} {w}\n" for u, v, w in edges)


class _Members:
    """One generated heap: O(1) random member pick, lazy min-heap."""

    __slots__ = ("key", "names", "pos", "pq")

    def __init__(self) -> None:
        self.key: dict[str, int] = {}
        self.names: list[str] = []
        self.pos: dict[str, int] = {}
        self.pq: list[tuple[int, str]] = []

    def add(self, name: str, key: int) -> None:
        self.key[name] = key
        self.pos[name] = len(self.names)
        self.names.append(name)
        heapq.heappush(self.pq, (key, name))

    def drop(self, name: str) -> None:
        del self.key[name]
        i = self.pos.pop(name)
        last = self.names.pop()
        if last != name:
            self.names[i] = last
            self.pos[last] = i

    def min_name(self) -> str:
        while True:
            key, name = self.pq[0]
            if self.key.get(name) == key:
                return name
            heapq.heappop(self.pq)

    def absorb(self, other: "_Members") -> None:
        for name, key in other.key.items():
            self.add(name, key)


def trace_text(rng: random.Random, n_ops: int) -> str:
    """A valid multi-heap trace of ``n_ops`` lines in the trace text format.

    Keys are globally unique, so delete-min has a single right answer under
    every policy and strict identity checking is sound.
    """
    verbs = list(TRACE_WEIGHTS)
    weights = [TRACE_WEIGHTS[v] for v in verbs]
    lines = ["newheap h0 simple"]
    heaps: dict[str, _Members] = {"h0": _Members()}
    n_heaps = 1
    n_items = 0
    used: set[int] = set()

    def insert() -> None:
        nonlocal n_items
        h = rng.choice(list(heaps))
        name = f"x{n_items}"
        n_items += 1
        key = rng.randrange(-KEY_SPAN, KEY_SPAN)
        while key in used:
            key += 1
        used.add(key)
        heaps[h].add(name, key)
        lines.append(f"insert {h} {name} {key}")

    while len(lines) < n_ops:
        verb = rng.choices(verbs, weights)[0]
        loaded = [h for h, m in heaps.items() if m.key]
        if verb == "newheap" and len(heaps) < MAX_LIVE_HEAPS:
            h = f"h{n_heaps}"
            n_heaps += 1
            heaps[h] = _Members()
            lines.append(f"newheap {h} simple")
        elif verb == "meld" and len(heaps) >= 2:
            h1, h2 = rng.sample(list(heaps), 2)
            heaps[h1].absorb(heaps.pop(h2))
            lines.append(f"meld {h1} {h2}")
        elif verb == "findmin":
            lines.append(f"findmin {rng.choice(list(heaps))}")
        elif verb in ("deletemin", "decreasekey", "delete") and loaded:
            h = rng.choice(loaded)
            members = heaps[h]
            if verb == "deletemin":
                members.drop(members.min_name())
                lines.append(f"deletemin {h}")
                continue
            name = members.names[rng.randrange(len(members.names))]
            if verb == "delete":
                members.drop(name)
                lines.append(f"delete {name}")
                continue
            key = members.key[name] - 1 - rng.randrange(DECREMENT_SPAN)
            while key in used:
                key -= 1
            used.add(key)
            members.key[name] = key
            heapq.heappush(members.pq, (key, name))
            lines.append(f"decreasekey {name} {key}")
        else:
            insert()
    return "".join(line + "\n" for line in lines)
