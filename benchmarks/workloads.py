"""The four benchmark workloads, driven through fibcascade's public API.

A workload is built from a seed, then ``setup()`` generates its inputs and
the reference answers its checks need, and ``run_round()`` does one full
pass of the timed work and checks every output against those answers.  The
checks are written here, independently of the package: a ``heapq`` Dijkstra,
a sorted key list, exact link counts, the benchmark's own exponent fit.

A round times its work in short parts (a chunk of operations, one replay)
and corrects each part for the machine's speed around it; see
``calibration``.  Rounds repeat the same inputs, so every deterministic
counter must repeat exactly; ``run.py`` enforces that.
"""

from __future__ import annotations

import heapq
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager

from fibcascade import POLICY_TAGS, AmortizedAuditor, Universe
from fibcascade import adversary, oracle
from fibcascade.instrumentation import COUNTER_FIELDS

import calibration
import inputs

Span = Callable[[str], ContextManager]
_NO_SPAN = nullcontext()
_now = time.perf_counter


def no_span(name: str) -> ContextManager:
    return _NO_SPAN


@dataclass
class Round:
    """One pass of a workload: timed work plus its checked outcome."""

    ops: int = 0  # public heap operations completed
    raw_seconds: float = 0.0  # wall time of the timed parts
    seconds: float = 0.0  # the same, at the calibration's reference speed
    attempted: int = 0  # units checked
    failed: int = 0  # units that failed any check
    wrong: list[str] = field(default_factory=list)  # wrong outputs
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    _cal: float = field(default_factory=calibration.measure, repr=False)

    def lap(self, t0: float) -> float:
        """Book the part timed since ``t0``, scaled by the calibrations just
        before and just after it; return the start of the next part."""
        raw = _now() - t0
        cal = calibration.measure()
        self.raw_seconds += raw
        self.seconds += raw * 2 * calibration.REFERENCE_S / (self._cal + cal)
        self._cal = cal
        return _now()


def counter_block(tele, ops: int) -> dict[str, int]:
    block = {name: getattr(tele, name) for name in COUNTER_FIELDS}
    block["phi"] = tele.phi
    block["ops"] = ops
    return block


class Sssp:
    """Dijkstra on a seeded sparse digraph, once per policy.

    Every vertex goes in up front at an unreached sentinel key, relaxing an
    edge is a decrease-key and settling a vertex is a delete-min, the shape
    of ``cli.dijkstra_policy``.  About half the heap calls are decrease-keys.
    Unit: one (vertex, policy) distance.
    """

    name = "sssp"
    VERTICES = 2_500
    EDGES = 25_000
    UNREACHED = 1 << 62
    CHUNK = 500  # delete-mins per timed part

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> dict:
        edges = inputs.random_digraph(
            inputs.rng_for(self.seed, "sssp"), self.VERTICES, self.EDGES
        )
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.VERTICES)]
        for u, v, w in edges:
            adj[u].append((v, w))
        self.adj = adj
        self.want = self._reference(adj)
        return {
            "graph": {
                "vertices": self.VERTICES,
                "edges": self.EDGES,
                "reached": sum(d is not None for d in self.want),
                "sha256": inputs.fingerprint(inputs.edge_text(edges)),
            }
        }

    @staticmethod
    def _reference(adj: list[list[tuple[int, int]]]) -> list[int | None]:
        dist: list[int | None] = [None] * len(adj)
        pq = [(0, 0)]
        while pq:
            d, u = heapq.heappop(pq)
            if dist[u] is not None:
                continue
            dist[u] = d
            for v, w in adj[u]:
                if dist[v] is None:
                    heapq.heappush(pq, (d + w, v))
        return dist

    def run_round(self, span: Span = no_span) -> Round:
        out = Round()
        adj = self.adj
        n = self.VERTICES
        unreached = self.UNREACHED
        chunk = self.CHUNK
        for tag in POLICY_TAGS:
            with span("sssp.policy"):
                t0 = _now()
                universe = Universe(seed=self.seed)
                heap = universe.make_heap(tag, "sssp")
                nodes = [
                    universe.make_item(0 if v == 0 else unreached, info=v)
                    for v in range(n)
                ]
                for node in nodes:
                    heap.insert(node)
                dist: list[int | None] = [None] * n
                deletes = decreases = 0
                while not heap.is_empty:
                    if deletes % chunk == 0:
                        t0 = out.lap(t0)
                    node = heap.delete_min()
                    deletes += 1
                    d = node.key
                    if d >= unreached:
                        break
                    dist[node.info] = d
                    for v, w in adj[node.info]:
                        other = nodes[v]
                        alt = d + w
                        if other.in_heap and alt < other.key:
                            heap.decrease_key(other, alt)
                            decreases += 1
                out.lap(t0)
            ops = 1 + n + deletes + decreases
            out.ops += ops
            out.counters[tag] = counter_block(universe.telemetry, ops)
            bad = [v for v in range(n) if dist[v] != self.want[v]]
            out.attempted += n
            out.failed += len(bad)
            if bad:
                v = bad[0]
                out.wrong.append(
                    f"{tag}: {len(bad)} wrong distances, first at vertex {v}:"
                    f" {dist[v]} != {self.want[v]}"
                )
        return out


class Drain:
    """Insert n unique keys, then delete-min until empty (heapsort shape).

    Runs on ``simple`` and ``classic``, the two delete-min paths.  No
    decrease-key happens, so a change to the policy walks must not move this
    workload.  Unit: one delete-min; it fails when its key is not the next
    sorted key, and every key still missing at the end fails too.
    """

    name = "drain"
    POLICIES = ("simple", "classic")
    SIZE = 50_000
    CHUNK = 2_500  # operations per timed part

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> dict:
        self.keys = inputs.unique_keys(inputs.rng_for(self.seed, "drain"), self.SIZE)
        self.want = sorted(self.keys)
        return {
            "keys": {
                "count": self.SIZE,
                "sha256": inputs.fingerprint(",".join(map(str, self.keys))),
            }
        }

    def run_round(self, span: Span = no_span) -> Round:
        out = Round()
        keys = self.keys
        chunk = self.CHUNK
        for tag in self.POLICIES:
            with span("drain.policy"):
                t0 = _now()
                universe = Universe(seed=self.seed)
                heap = universe.make_heap(tag, "drain")
                make_item = universe.make_item
                for start in range(0, len(keys), chunk):
                    for key in keys[start : start + chunk]:
                        heap.insert(make_item(key))
                    t0 = out.lap(t0)
                got: list[int] = []
                while not heap.is_empty:
                    for _ in range(chunk):
                        if heap.is_empty:
                            break
                        got.append(heap.delete_min().key)
                    t0 = out.lap(t0)
            ops = 1 + len(keys) + len(got)
            out.ops += ops
            out.counters[tag] = counter_block(universe.telemetry, ops)
            bad = sum(a != b for a, b in zip(got, self.want))
            bad += abs(len(self.want) - len(got))
            out.attempted += len(self.want)
            out.failed += bad
            if bad:
                out.wrong.append(f"{tag}: {bad} delete-mins out of order or missing")
        return out


class Fuzz:
    """Lockstep differential replay of a seeded trace corpus, the path of
    ``fibcascade verify``: all ten policies, strict identity, invariant
    checks every 25 operations, a record sink on every policy and the
    amortized auditor on ``simple``.

    Unit: one policy's verdict over the whole corpus.  It fails when any of
    its traces ends in a divergence (a wrong output), an invariant-check
    failure, or an audit violation.  ``increasing-rank`` and
    ``naive-increasing`` break their size floors on most traces, so both
    fail whatever the seed and this workload's error rate is 2/10.  A
    (trace, policy) unit would make the failure count depend on which few
    traces happen to pass on a seed.
    """

    name = "fuzz"
    TRACES = 20
    OPS = 1000
    CHECK_INTERVAL = 25

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> dict:
        texts = [
            inputs.trace_text(inputs.rng_for(self.seed, f"fuzz/{t}"), self.OPS)
            for t in range(self.TRACES)
        ]
        t0 = _now()
        self.traces = [oracle.parse_trace(text) for text in texts]
        self.parse_s = _now() - t0
        return {
            "traces": {
                "count": self.TRACES,
                "ops": self.OPS,
                "sha256": inputs.fingerprint("".join(texts)),
            }
        }

    def run_round(self, span: Span = no_span) -> Round:
        out = Round()
        for tag in POLICY_TAGS:
            totals = dict.fromkeys(COUNTER_FIELDS, 0)
            totals["phi"] = 0
            totals["ops"] = 0
            failed = 0
            for t, ops in enumerate(self.traces):
                records: list = []
                auditor = AmortizedAuditor() if tag == "simple" else None

                def tap(rec, records=records, auditor=auditor) -> None:
                    records.append(rec)
                    if auditor is not None:
                        auditor(rec)

                t0 = _now()
                with span("oracle.replay"):
                    try:
                        verdict = oracle.replay_differential(
                            ops,
                            policy=tag,
                            seed=self.seed + t,
                            strict_identity=True,
                            check_interval=self.CHECK_INTERVAL,
                            record_sink=tap,
                        )
                    except oracle.TraceError as exc:
                        verdict = None
                        error = str(exc)
                out.lap(t0)
                if verdict is None:
                    failed += 1
                    out.wrong.append(f"{tag} trace {t}: {error}")
                    continue
                out.ops += verdict.steps
                totals["ops"] += verdict.steps
                for rec in records:
                    for name in COUNTER_FIELDS:
                        totals[name] += getattr(rec, name)
                    totals["phi"] += rec.d_phi
                if verdict.divergence:
                    out.wrong.append(f"{tag} trace {t}: {verdict.divergence}")
                if not verdict.ok or (auditor is not None and not auditor.ok):
                    failed += 1
            totals["failed_traces"] = failed
            out.counters[tag] = totals
            out.attempted += 1
            out.failed += int(failed > 0)
        return out


def fit_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(cost) against log(ops)."""
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return sxy / sum((a - mx) ** 2 for a in lx)


class Adversary:
    """The whole worst-case schedule on ``non-cascading`` at m/10, 3m/10 and
    m, as ``fibcascade adversary --m M --check`` runs it, then the recorded
    m schedule replayed on ``simple`` through ``adversary.replay_ops``.

    Each schedule is driven here the way ``adversary.run_lower_bound`` does
    it (the largest shape buildable in m/3 operations, then steady rounds
    with the first and last three shape-verified), so its rounds can be
    timed in parts.

    Unit: one schedule.  A lower-bound schedule fails on a ``ShapeError``,
    on any steady round without exactly k fair and no naive links, or on a
    final heap that is not the k-stage shape's size; the m schedule also
    fails when the total-cost exponent over the three falls below 1.25.
    The replay fails unless it ends with the same size and minimum key.
    """

    name = "adversary"
    M = 100_000
    MIN_EXPONENT = 1.25
    VERIFY_ROUNDS = 3
    CHUNK = 2_000  # steady rounds, or replayed operations, per timed part

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ms = (self.M // 10, 3 * self.M // 10, self.M)

    def setup(self) -> dict:
        return {"schedules": {"m": list(self.ms), "replay_policy": "simple"}}

    def _schedule(self, m: int, out: Round, span: Span):
        """Build, then steady rounds; returns (builder, problems)."""
        k = adversary.max_k_within(m / 3)
        with span("adversary.schedule"):
            t0 = _now()
            builder = adversary.AdversaryBuilder(seed=self.seed, recording=m == self.M)
            builder.build(k)
            rounds = (m - builder.op_count) // 2
            builder.start_rounds()
            t0 = out.lap(t0)
            off = 0
            for r in range(rounds):
                verify = r < self.VERIFY_ROUNDS or r >= rounds - self.VERIFY_ROUNDS
                stats = builder.steady_round(verify=verify)
                if stats.fair_links != k or stats.naive_links != 0:
                    off += 1
                if r % self.CHUNK == self.CHUNK - 1:
                    t0 = out.lap(t0)
            out.lap(t0)
        problems = []
        if off:
            problems.append(f"{off} steady rounds without exactly {k} fair links")
        if len(builder.heap) != 1 + k * (k + 1) // 2:
            problems.append(f"final size {len(builder.heap)} for k={k}")
        return builder, problems

    def run_round(self, span: Span = no_span) -> Round:
        out = Round()
        points: list[tuple[float, float]] = []
        builder = None
        for m in self.ms:
            out.attempted += 1
            try:
                builder, problems = self._schedule(m, out, span)
            except adversary.ShapeError as exc:
                out.failed += 1
                out.wrong.append(f"m={m}: {exc}")
                builder = None
                continue
            ops = builder.op_count + 1  # plus make-heap
            out.ops += ops
            out.counters[f"non-cascading/m{m}"] = counter_block(
                builder.universe.telemetry, ops
            )
            points.append((builder.op_count, builder.est_total))
            if m == self.M and len(points) == 3:
                slope = fit_slope(points)
                if slope < self.MIN_EXPONENT:
                    problems.append(f"exponent {slope:.4f} < {self.MIN_EXPONENT}")
            if problems:
                out.failed += 1
                out.wrong.append(f"m={m}: {problems[0]}")

        out.attempted += 1
        if builder is None:
            out.failed += 1
            out.wrong.append("replay: no recorded m schedule")
            return out
        chunk = self.CHUNK
        t0 = _now()

        def on_op(index: int, universe, heaps) -> None:
            nonlocal t0
            if index % chunk == chunk - 1:
                t0 = out.lap(t0)

        with span("adversary.replay_ops"):
            universe, heaps = adversary.replay_ops(
                builder.trace, policy="simple", seed=self.seed, on_op=on_op
            )
        out.lap(t0)
        ops = len(builder.trace)
        out.ops += ops
        out.counters["simple/replay"] = counter_block(universe.telemetry, ops)
        got, want = heaps["h0"], builder.heap
        if len(got) != len(want) or got.root.key != want.root.key:
            out.failed += 1
            out.wrong.append(
                f"replay on simple ends with {len(got)} items, min"
                f" {got.root.key}; schedule ends with {len(want)}, min"
                f" {want.root.key}"
            )
        return out


WORKLOADS = {w.name: w for w in (Sssp, Drain, Fuzz, Adversary)}
