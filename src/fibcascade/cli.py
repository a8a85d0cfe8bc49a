"""Command-line front end: fuzzing, worst-case runs, Dijkstra, replay.

Subcommands
-----------
verify
    Differential fuzz campaigns with the full invariant battery: structure
    checks, rank bounds, the active-children ledger, per-operation
    potential audits, and lockstep comparison against the reference heap;
    on ``simple`` also that every comparison is kept as a link.
adversary
    The self-reproducing worst-case schedules: either a k-sweep of steady
    cycles or whole lower-bound runs of a given operation count; replays
    the identical schedule on the one-tree cascading policy for contrast.
dijkstra
    Single-source shortest paths over a random graph on the selected
    policy heap, verified against a plain binary-heap reference; every run
    also checks the call counts against the graph and, on ``simple``, that
    every comparison is kept as a link.
replay
    Re-run a recorded trace file against the reference model.

Exit codes: 0 success, 1 a check or comparison failed, 2 usage error.
All measurements except ``wall_time_ns`` come from deterministic counters;
wall time is reported for orientation and never affects the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
import time
from collections import deque
from contextlib import nullcontext
from heapq import heappop, heappush
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NoReturn

from .adversary import (
    MIN_M,
    AdversaryBuilder,
    ShapeError,
    build_ops_needed,
    run_lower_bound,
    steady_tree_size,
)
from .core import POLICY_TAGS, HeapError, Policy, Universe
from .instrumentation import AmortizedAuditor, OpRecord, fit_exponent
from .oracle import (
    _DECIMAL,
    TraceError,
    gen_trace,
    iter_trace,
    replay_differential,
    replay_ops,
)
from .policies import RULES

RESULT_FIELDS = (
    "policy",
    "workload",
    "n",
    "op-kind",
    "fair_links",
    "naive_links",
    "iterations",
    "comparisons",
    "wall_time_ns",
    "phi",
)


# the four counters of a row, read off whatever object the row describes
_COUNTED = RESULT_FIELDS[4:8]
_counts = attrgetter(*_COUNTED)


def _row(
    policy: str,
    workload: str,
    n: int,
    op_kind: str,
    counted: Any,
    wall_ns: int,
    phi: float,
) -> dict:
    """One result row, keyed by :data:`RESULT_FIELDS`; the four counters are
    read off ``counted``: an :class:`OpRecord`, the ``Telemetry``, or the
    Dijkstra stats as a namespace."""
    values = (policy, workload, n, op_kind, *_counts(counted), wall_ns, phi)
    return dict(zip(RESULT_FIELDS, values))


class RowSink:
    """The owner of a command's output: result rows go to ``out`` (``-``:
    standard output) as CSV (header first) or JSON lines, and human lines
    go to standard output, or to standard error when the rows go there.
    A context manager: leaving it closes a rows file it opened."""

    def __init__(self, out: str | None, fmt: str) -> None:
        self._fmt = fmt
        self._writer = None
        self._owns = out not in (None, "-")
        if self._owns:
            self._file = open(out, "w", newline="")
        else:  # no rows, or rows on standard output
            self._file = None if out is None else sys.stdout
        self._human = sys.stderr if out == "-" else sys.stdout

    def __enter__(self) -> RowSink:
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._owns:
            self._file.close()

    def write(self, row: dict) -> None:
        if self._fmt == "csv":
            if self._writer is None:
                self._writer = csv.DictWriter(self._file, fieldnames=RESULT_FIELDS)
                self._writer.writeheader()
            self._writer.writerow(row)
        else:
            self._file.write(json.dumps(row) + "\n")

    def log(self, message: str) -> None:
        print(message, file=self._human)


def _usage_error(message: str) -> NoReturn:
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _parse_policies(values: list[str] | None, default: list[str]) -> list[Policy]:
    """The policies ``--policy`` names: every tag is checked, ``all`` among
    them, before ``all`` expands and a repeated tag drops out."""
    tags = [t for value in values or default for t in value.split(",") if t]
    choices = ", ".join(POLICY_TAGS)
    if values and not tags:
        _usage_error(f"--policy names no policy (choose from {choices})")
    for tag in tags:
        if tag != "all" and tag not in POLICY_TAGS:
            _usage_error(f"unknown policy {tag!r} (choose from {choices})")
    if "all" in tags:
        tags = POLICY_TAGS
    return [Policy.from_tag(tag) for tag in dict.fromkeys(tags)]


def _int(text: str) -> int:
    """``int(text)`` for ASCII signed decimals only; bare ``int()`` would
    also take ``1_0`` and non-ASCII digits.  Raises ValueError otherwise."""
    if not _DECIMAL(text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


class RowSums:
    """A record sink that sums rows as records arrive: per op kind, in one
    :class:`OpRecord`, the four row counters and the largest size an operation
    began at.  It keeps no record; ``then`` (the auditor) gets each one next."""

    def __init__(self, then: Callable[[OpRecord], None] | None = None) -> None:
        self.kinds: dict[str, OpRecord] = {}
        self._then = then

    def __call__(self, rec: OpRecord) -> None:
        total = self.kinds.get(rec.kind)
        if total is None:
            total = self.kinds[rec.kind] = OpRecord(rec.kind, 0)
        total.n_before = max(total.n_before, rec.n_before)
        total.fair_links += rec.fair_links
        total.naive_links += rec.naive_links
        total.iterations += rec.iterations
        total.comparisons += rec.comparisons
        if self._then is not None:
            self._then(rec)

    def kind_rows(self, policy: str, workload: str) -> list[dict]:
        """One row per op kind, by name, with no wall time (none is per op)."""
        return [
            _row(policy, workload, total.n_before, kind, total, 0, 0.0)
            for kind, total in sorted(self.kinds.items())
        ]

    def all_row(self, policy: str, workload: str, wall_ns: int) -> dict:
        """The sum over the kinds, at the largest size among them."""
        kinds = self.kinds.values()
        sums = dict(zip(_COUNTED, map(sum, zip(*map(_counts, kinds)))))
        total = OpRecord("all", max((t.n_before for t in kinds), default=0), **sums)
        return _row(policy, workload, total.n_before, "all", total, wall_ns, 0.0)


# ---------------------------------------------------------------------------
# verify

#: Operations between the invariant checks of ``verify`` and
#: ``replay --check``; both check once more at the end.
CHECK_INTERVAL = 25


def cmd_verify(args: argparse.Namespace) -> int:
    policies = _parse_policies(args.policy, ["all"])
    # one tally per selected policy, in order; its rows wait for the last trace
    tallies = [
        SimpleNamespace(divergences=0, checks=0, audits=0, first="", rows=[])
        for _ in policies
    ]
    failed = False
    with RowSink(args.out, args.format) as sink:
        for t in range(args.traces):
            trace_seed = args.seed + t
            ops = gen_trace(args.ops, trace_seed)
            for policy, tally in zip(policies, tallies):
                auditor = AmortizedAuditor() if RULES[policy].audited else None
                # rows are summed only to be written; without --out the
                # auditor, if any, is the only sink
                sums = None if args.out is None else RowSums(auditor)
                t0 = time.perf_counter_ns()
                verdict = replay_differential(
                    ops,
                    policy=policy,
                    seed=trace_seed,
                    strict_identity=True,
                    check_interval=CHECK_INTERVAL,
                    record_sink=auditor if sums is None else sums,
                )
                wall = time.perf_counter_ns() - t0
                if verdict.divergence:
                    tally.divergences += 1
                    tally.first = tally.first or verdict.divergence
                if verdict.check_failures:
                    tally.checks += len(verdict.check_failures)
                    tally.first = tally.first or verdict.check_failures[0]
                if auditor is not None and not auditor.ok:
                    tally.audits += auditor.violation_count
                    tally.first = tally.first or auditor.violations[0]
                if sums is not None:
                    workload = f"fuzz-seed{trace_seed}"
                    tally.rows.append(sums.all_row(policy.value, workload, wall))
        for policy, tally in zip(policies, tallies):
            for row in tally.rows:
                sink.write(row)
            ok = not (tally.divergences or tally.checks or tally.audits)
            failed = failed or not ok
            verdict_word = "ok" if ok else "FAIL"
            sink.log(
                f"verify {policy.value}: {args.traces} traces x {args.ops} ops"
                f" — {tally.divergences} divergences, {tally.checks} check"
                f" failures, {tally.audits} audit violations [{verdict_word}]"
                + (f" ({tally.first})" if tally.first else "")
            )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# adversary


def _steady_rows(
    ks: list[int], rounds: int, policy: Policy, sink: RowSink
) -> list[tuple[float, float]]:
    """Build each k-stage schedule and run its rounds shape-verified; write
    one ``delete-min`` row per round, taken on ``simple`` from a replay of
    the recorded schedule.  The replay keeps only the delete-min records it
    writes, the last ``rounds``, not one per build operation.  Returns
    (shape size, mean links) per k."""
    replayed = policy is not Policy.NON_CASCADING
    points = []
    for k in ks:
        builder = AdversaryBuilder(recording=replayed)
        builder.build(k)
        t0 = time.perf_counter_ns()
        records = builder.run_rounds(rounds)
        universe = builder.universe
        if replayed:
            last: deque[OpRecord] = deque(maxlen=rounds)

            def keep(rec: OpRecord) -> None:
                if rec.kind == "delete-min":
                    last.append(rec)

            universe, _ = replay_ops(builder.trace, policy=policy, record_sink=keep)
            records = last
        wall = time.perf_counter_ns() - t0
        phi = universe.telemetry.phi
        workload = f"steady-k{k}"
        for rec in records:
            row = _row(policy.value, workload, rec.n_before, "delete-min", rec, 0, phi)
            sink.write(row)
        points.append((steady_tree_size(k), sum(r.links for r in records) / rounds))
        sink.log(f"adversary k={k}: {rounds} rounds, wall {wall} ns")
    return points


#: The steady-cycle sweep ``adversary`` runs without ``--m``, unless given.
K_DEFAULT = "10..100"
ROUNDS_DEFAULT = 50

#: The least fitted total-cost exponent ``adversary --m --check`` accepts:
#: without cascading, the worst-case schedules cost more than linear in m.
MIN_EXPONENT = 1.25

#: The least value the largest ``--m`` may take under ``--check``: the fitted
#: total-cost exponent first reaches :data:`MIN_EXPONENT` there on correct
#: code (1.2462 at 50,000, 1.2501 at 70,000, 1.2561 at 100,000).
CHECK_MIN_M = 100_000


def cmd_adversary(args: argparse.Namespace) -> int:
    policies = _parse_policies(args.policy, [Policy.NON_CASCADING.value])
    if len(policies) != 1 or policies[0] not in (
        Policy.NON_CASCADING,
        Policy.SIMPLE,
    ):
        _usage_error("adversary takes exactly one policy: non-cascading or simple")
    policy = policies[0]
    if args.m:
        if policy is not Policy.NON_CASCADING:
            _usage_error("adversary --m runs the non-cascading schedule only")
        for flag, value in (("--k", args.k), ("--rounds", args.rounds)):
            if value is not None:
                _usage_error(f"adversary --m runs whole schedules; drop {flag}")
        if args.check and max(args.m) < CHECK_MIN_M:
            _usage_error(
                f"adversary --m {max(args.m)} --check: the total-cost exponent gate"
                f" (>= {MIN_EXPONENT}) needs a largest --m of at least {CHECK_MIN_M}"
            )
        ms = sorted(set(args.m))  # a repeated size runs once
        # --check fits an exponent, which takes at least three distinct sizes
        if args.check and len(ms) == 2:
            _usage_error(
                "adversary --check: give one distinct --m (expanded to m/10,"
                " 3m/10, m) or at least three distinct --m values"
            )
        if args.check and len(ms) == 1:
            ms = sorted({ms[0] // 10, 3 * ms[0] // 10, ms[0]})
    else:
        ks = args.k or _k_spec(K_DEFAULT)
        if args.check and len(ks) < 3:
            _usage_error(
                f"adversary --check: --k gives {len(ks)} stage value(s);"
                " the exponent fit needs at least three"
            )
    failed = False
    with RowSink(args.out, args.format) as sink:
        try:
            if args.m:
                points = []
                for m in ms:
                    builder = run_lower_bound(m)
                    tele = builder.universe.telemetry
                    workload = f"lower-bound-m{m}"
                    size = len(builder.heap)
                    sink.write(
                        _row(policy.value, workload, size, "all", tele, 0, tele.phi)
                    )
                    points.append((builder.op_count, builder.est_total))
                    rounds = (builder.op_count - build_ops_needed(builder.k)) // 2
                    sink.log(
                        f"adversary m={m}: k={builder.k} rounds={rounds}"
                        f" est-total={builder.est_total:.1f}"
                    )
                label = "total-cost exponent vs m"
                lo, hi, gate = MIN_EXPONENT, math.inf, f"< {MIN_EXPONENT}"
            else:
                points = _steady_rows(ks, args.rounds or ROUNDS_DEFAULT, policy, sink)
                label = f"links-per-delete-min exponent vs n ({policy.value})"
                if policy is Policy.NON_CASCADING:
                    lo, hi, gate = 0.45, 0.55, "outside [0.45, 0.55]"
                else:
                    lo, hi, gate = -math.inf, 0.1, "outside <= 0.1"
            if len(points) >= 3:
                slope = fit_exponent(points)
                sink.log(f"adversary {label}: {slope:.4f}")
                if args.check and (slope < lo or slope > hi):
                    failed = True
                    sink.log(f"FAIL: exponent {slope:.4f} {gate}")
        except ShapeError as exc:
            sink.log(f"FAIL: {exc}")
            failed = True
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# dijkstra


def gen_graph(
    vertices: int, edges: int, seed: int
) -> list[list[tuple[int, int]]]:
    """Uniform random simple directed graph as adjacency lists of (head,
    weight) pairs, each list in arc generation order; weights uniform in
    [0, 2^32)."""
    if vertices < 2 or edges > vertices * (vertices - 1):
        raise ValueError("impossible graph dimensions")
    rng = random.Random(seed)
    seen: set[int] = set()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(vertices)]
    while len(seen) < edges:
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        if u == v:
            continue
        code = u * vertices + v
        if code in seen:
            continue
        seen.add(code)
        adj[u].append((v, rng.getrandbits(32)))
    return adj


def dijkstra_reference(adj: list[list[tuple[int, int]]]) -> list[int | None]:
    """Distances from vertex 0 by a plain binary heap (None: unreached)."""
    dist: list[int | None] = [None] * len(adj)
    pq: list[tuple[int, int]] = [(0, 0)]
    while pq:
        d, u = heappop(pq)
        if dist[u] is not None:
            continue
        dist[u] = d
        for v, w in adj[u]:
            if dist[v] is None:
                heappush(pq, (d + w, v))
    return dist


UNREACHED = 1 << 62  # above any real path length at these sizes


def dijkstra_policy(
    adj: list[list[tuple[int, int]]], policy: Policy, seed: int
) -> tuple[list[int | None], dict, int]:
    """Distances from vertex 0.  All vertices go in up front at an unreached
    sentinel key; relaxing an edge is a decrease-key, settling a vertex is a
    delete-min."""
    universe = Universe(seed=seed)
    heap = universe.make_heap(policy, "sssp")
    nodes = [
        universe.make_item(0 if v == 0 else UNREACHED, info=v)
        for v in range(len(adj))
    ]
    for node in nodes:
        heap.insert(node)
    dist: list[int | None] = [None] * len(adj)
    decrease_calls = 0
    delete_calls = 0
    while not heap.is_empty:
        node = heap.delete_min()
        delete_calls += 1
        if node.key >= UNREACHED:
            break
        u = node.info
        dist[u] = node.key
        for v, w in adj[u]:
            other = nodes[v]
            alt = node.key + w
            if other.in_heap and alt < other.key:
                heap.decrease_key(other, alt)
                decrease_calls += 1
    stats = universe.telemetry.counters()
    stats["decrease_calls"] = decrease_calls
    stats["delete_calls"] = delete_calls
    return dist, stats, universe.telemetry.phi


def cmd_dijkstra(args: argparse.Namespace) -> int:
    policies = _parse_policies(args.policy, ["all"])
    try:
        adj = gen_graph(args.vertices, args.edges, args.seed)
    except ValueError as exc:
        _usage_error(f"--vertices {args.vertices} --edges {args.edges}: {exc}")
    failed = False
    with RowSink(args.out, args.format) as sink:
        reference = dijkstra_reference(adj)
        for policy in policies:
            t0 = time.perf_counter_ns()
            dist, stats, phi = dijkstra_policy(adj, policy, args.seed)
            wall = time.perf_counter_ns() - t0
            problems = []
            if dist != reference:
                bad = next(i for i in range(len(adj)) if dist[i] != reference[i])
                problems.append(
                    f"distance mismatch at vertex {bad}:"
                    f" {dist[bad]} != {reference[bad]}"
                )
            if stats["decrease_calls"] > args.edges:
                problems.append("more decrease-keys than edges")
            if stats["delete_calls"] > args.vertices:
                problems.append("more delete-mins than vertices")
            links = stats["fair_links"] + stats["naive_links"]
            if RULES[policy].audited and stats["comparisons"] != links:
                problems.append(f"comparisons {stats['comparisons']} != links {links}")
            if problems:
                failed = True
                sink.log(f"dijkstra {policy.value}: FAIL {problems[0]}")
            else:
                sink.log(
                    f"dijkstra {policy.value}: {args.vertices} vertices"
                    f" {args.edges} edges ok"
                    f" ({stats['decrease_calls']} decrease-keys)"
                )
            sink.write(
                _row(
                    policy.value,
                    f"dijkstra-v{args.vertices}-e{args.edges}",
                    args.vertices,
                    "all",
                    SimpleNamespace(**stats),
                    wall,
                    phi,
                )
            )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# replay


def cmd_replay(args: argparse.Namespace) -> int:
    policies = _parse_policies(args.policy, [])
    if len(policies) > 1:
        _usage_error("replay takes at most one policy")
    sums = None if args.out is None else RowSums()
    # the trace streams from its file, so the rows file opens after the
    # replay: --out may name the trace itself
    # a file decodes as stdin does in UTF-8 mode: a bad byte reaches the parser
    with nullcontext(sys.stdin) if args.trace == "-" else open(
        args.trace, encoding="utf-8", errors="surrogateescape"
    ) as lines:
        t0 = time.perf_counter_ns()
        verdict = replay_differential(
            iter_trace(lines),
            policy=policies[0] if policies else None,
            seed=args.seed,
            strict_identity=args.strict,
            check_interval=CHECK_INTERVAL if args.check else 0,
            record_sink=sums,
        )
        wall = time.perf_counter_ns() - t0
    name = "stdin" if args.trace == "-" else Path(args.trace).name
    with RowSink(args.out, args.format) as sink:
        if sums is not None:
            workload = f"replay-{name}"
            for row in sums.kind_rows(verdict.policy, workload):
                sink.write(row)
            sink.write(sums.all_row(verdict.policy, workload, wall))
        if verdict.ok:
            sink.log(f"replay {name}: {verdict.steps} ops ok ({verdict.policy})")
            return 0
        detail = verdict.divergence or verdict.check_failures[0]
        sink.log(f"replay {name}: FAIL at op {verdict.step_index}: {detail}")
        return 1


# ---------------------------------------------------------------------------
# argument plumbing


def _at_least(least: int | None, expected: str) -> Callable[[str], int]:
    """The argparse type of an integer flag whose values start at ``least``,
    or take any integer when ``least`` is None: text that is no integer, or
    an integer below ``least``, is told the flag's range, ``expected``."""

    def count(text: str) -> int:
        try:
            value = _int(text)
        except ValueError:
            pass
        else:
            if least is None or value >= least:
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return count


_nonnegative = _at_least(0, "a nonnegative integer")
_seed = _at_least(None, "an integer")  # negative seeds too


def _k_spec(text: str) -> list[int]:
    """The argparse type of ``adversary --k``: "25" -> [25]; "10..100" ->
    10,20,...,100; "10..50:5" -> step 5."""
    spec, colon, step_text = text.partition(":")
    lo_text, dots, hi_text = spec.partition("..")
    try:
        lo = _int(lo_text)
        hi = _int(hi_text) if dots else lo
        step = _int(step_text) if colon else 10
    except ValueError:
        pass
    else:
        if 1 <= lo <= hi and step >= 1:
            return list(range(lo, hi + 1, step))
    raise argparse.ArgumentTypeError(
        "expected K, LO..HI or LO..HI:STEP with 1 <= K, 1 <= LO <= HI"
        f" and STEP >= 1, got {text!r}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibcascade",
        description="heap policy laboratory: fuzzing, audits, worst cases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_out: str | None) -> None:
        p.add_argument(
            "--policy",
            action="append",
            metavar="TAG",
            help=f"policy tag or comma list ({', '.join(POLICY_TAGS)}, all)",
        )
        p.add_argument("--out", default=default_out, metavar="PATH")
        p.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    # verify and dijkstra always run every check they have: no --check
    p = sub.add_parser("verify", help="differential fuzzing with audits")
    common(p, None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--traces", type=_nonnegative, default=100)
    p.add_argument("--ops", type=_nonnegative, default=1000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("adversary", help="worst-case schedules")
    common(p, "-")
    p.add_argument(
        "--check",
        action="store_true",
        help="gate the fitted exponent (exit 1 when it is outside its band)",
    )
    p.add_argument(
        "--k",
        type=_k_spec,
        metavar="K|LO..HI[:STEP]",
        help=f"steady-cycle stage sweep (default {K_DEFAULT} step 10; with"
        " --check at least three values; not with --m)",
    )
    p.add_argument(
        "--rounds",
        type=_at_least(1, "a positive integer"),
        help=f"steady rounds per stage (default {ROUNDS_DEFAULT}; not with --m)",
    )
    p.add_argument(
        "--m",
        action="append",
        type=_at_least(MIN_M, f"at least {MIN_M} operations"),
        metavar="OPS",
        help=f"run whole lower-bound schedules of this many operations, at"
        f" least {MIN_M} (repeatable, a repeated value runs once; with --check"
        f" give one distinct value, which expands to m/10, 3m/10, m, or at"
        f" least three distinct values, and the largest must be at least"
        f" {CHECK_MIN_M:,}: below that the exponent falls short of"
        f" {MIN_EXPONENT} on correct code)",
    )
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("dijkstra", help="shortest paths vs reference")
    common(p, "-")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--vertices", type=_at_least(2, "at least 2 vertices"), default=1000
    )
    p.add_argument("--edges", type=_nonnegative, default=10000)
    p.set_defaults(func=cmd_dijkstra)

    p = sub.add_parser("replay", help="re-run a recorded trace")
    common(p, None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--check",
        action="store_true",
        help=f"run the invariant checks every {CHECK_INTERVAL} operations and at"
        " the end",
    )
    p.add_argument("trace", help="trace file path, or - for stdin")
    p.add_argument(
        "--strict",
        action="store_true",
        help="also require identity-level agreement on delete-min and find-min",
    )
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TraceError, HeapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
