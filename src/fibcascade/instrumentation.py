"""Counters, potential tracking, and the amortized audit.

One :class:`Telemetry` object is shared by every heap in an experiment
universe, so operations that span heaps (meld) stay accountable to a single
potential function:

    phi = sum over nodes of (degree - rank)  +  1 per root  +  2 per marked node

The heap code maintains ``phi`` incrementally as it mutates nodes.  The
invariant checks, the potential's among them, are
:func:`fibcascade.oracle.run_checks`; the rank bounds they assert of each
policy are in its row of :data:`fibcascade.policies.RULES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import linear_regression
from typing import Callable, Iterable, Iterator

PHI = (1.0 + math.sqrt(5.0)) / 2.0
_LOG_PHI = math.log(PHI)

#: Numeric slack for real-valued amortized bounds (integer quantities are exact).
SLACK = 1e-9

COUNTER_FIELDS = (
    "fair_links",
    "naive_links",
    "comparisons",
    "iterations",
    "cuts",
    "markings",
    "unmarkings",
    "rank_clamps",
)


def log_phi(n: float) -> float:
    """Logarithm of ``n`` in base golden ratio."""
    return math.log(n) / _LOG_PHI


_FIBS = [0, 1]


def fib(k: int) -> int:
    """F_k with F_0 = 0, F_1 = 1, computed exactly and memoized."""
    if k < 0:
        raise ValueError(f"negative Fibonacci index: {k}")
    while len(_FIBS) <= k:
        _FIBS.append(_FIBS[-1] + _FIBS[-2])
    return _FIBS[k]


def fit_exponent(points: Iterable[tuple[float, float]]) -> float:
    """Least-squares slope of log(cost) against log(n), by
    :func:`statistics.linear_regression`.

    Needs at least three points with positive coordinates and at least two
    distinct n values (``ValueError`` otherwise).  Exact power laws come
    back with their exponent to well under 1e-9.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f"need at least 3 points, got {len(pts)}")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("fit requires positive coordinates")
    lx = [math.log(x) for x, _ in pts]
    if len(set(lx)) < 2:  # the regression's own test misses some equal n
        raise ValueError("fit requires at least two distinct n values")
    return linear_regression(lx, [math.log(y) for _, y in pts]).slope


# ---------------------------------------------------------------------------
# per-operation records


@dataclass(slots=True)
class OpRecord:
    """Counter deltas and potential change for a single heap operation.

    Slotted: a record has no ``__dict__``, so a sink that keeps one per
    operation pays about a quarter less memory for each.
    """

    kind: str
    n_before: int
    fair_links: int = 0
    naive_links: int = 0
    comparisons: int = 0
    iterations: int = 0
    cuts: int = 0
    markings: int = 0
    unmarkings: int = 0
    rank_clamps: int = 0
    d_phi: int = 0

    @property
    def links(self) -> int:
        return self.fair_links + self.naive_links

    @property
    def estimated_time(self) -> float:
        """Cost in the accounting model used by the amortized audit.

        make-heap, find-min, meld and insert cost 1; decrease-key costs
        1 + #cascade-iterations; delete-min costs 1 + log_phi(n) + #links
        with n the heap size when the operation started.
        """
        if self.kind == "decrease-key":
            return 1.0 + self.iterations
        if self.kind == "delete-min":
            return 1.0 + log_phi(max(self.n_before, 1)) + self.links
        return 1.0

    @property
    def amortized_time(self) -> float:
        return self.estimated_time + self.d_phi


_new = object.__new__  # a record with its slots unset, for op_end to fill


class Telemetry:
    """Cumulative counters plus the incrementally maintained potential.

    ``record_sink``, when set, receives every finished :class:`OpRecord`
    (used by the streaming amortized auditor).  Records exist only for
    operations that begin while a sink is attached: each heap operation
    reads ``record_sink`` once and calls :meth:`op_begin` and
    :meth:`op_end` only when it is set, so without a sink the counters cost
    only their increments.  It keeps nothing per node: the activity ledger
    the checks read is each node's ``active`` flag.
    """

    __slots__ = COUNTER_FIELDS + ("phi", "record_sink", "_op_open")

    def __init__(self) -> None:
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)
        self.phi = 0
        self.record_sink: Callable[[OpRecord], None] | None = None
        # kind, size before, then every counter and phi: one flat tuple taken
        # by op_begin, read by the op_end that hands out the operation's record
        self._op_open: tuple | None = None

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def op_begin(self, kind: str, n_before: int) -> None:
        """Open an operation's record; called only under a record sink.

        Keeps one flat tuple: the kind, the size before, then every counter
        and phi in the order an :class:`OpRecord` holds their deltas, each
        read by its own slot load (cheaper than one ``attrgetter`` call).
        """
        self._op_open = (
            kind,
            n_before,
            self.fair_links,
            self.naive_links,
            self.comparisons,
            self.iterations,
            self.cuts,
            self.markings,
            self.unmarkings,
            self.rank_clamps,
            self.phi,
        )

    def op_end(self) -> None:
        """Hand the record of the operation :meth:`op_begin` opened to the
        record sink.

        The record is made bare and filled slot by slot, every field set:
        the same record as the dataclass ``__init__`` builds, without the
        cost of that eleven-argument call, paid once per operation.
        """
        (kind, n_before, fair, naive, compared, steps, cuts, marks, unmarks,
         clamps, phi) = self._op_open
        rec = _new(OpRecord)
        rec.kind = kind
        rec.n_before = n_before
        rec.fair_links = self.fair_links - fair
        rec.naive_links = self.naive_links - naive
        rec.comparisons = self.comparisons - compared
        rec.iterations = self.iterations - steps
        rec.cuts = self.cuts - cuts
        rec.markings = self.markings - marks
        rec.unmarkings = self.unmarkings - unmarks
        rec.rank_clamps = self.rank_clamps - clamps
        rec.d_phi = self.phi - phi
        self.record_sink(rec)


# ---------------------------------------------------------------------------
# pure structural helpers (observers only: no counter is ever touched here)


def iter_children(node) -> Iterator:
    child = node.child
    while child is not None:
        yield child
        child = child.after


def degree(node) -> int:
    """Number of children, always counted by traversal, never cached."""
    return sum(1 for _ in iter_children(node))


# ---------------------------------------------------------------------------
# amortized audit


def _exceeds(kind: str, bound_name: str, value: float, bound: float) -> str:
    return f"{kind}: {bound_name} {value:.12g} exceeds {bound:.12g}"


def audit_violations(rec: OpRecord) -> list[str]:
    """Per-operation potential-change bounds for the baseline policy.

    make-heap / find-min / meld leave phi unchanged; insert raises it by at
    most 1; decrease-key obeys d_phi <= 4 - iterations; delete-min obeys
    d_phi <= 2*log_phi(n) - 1 - links.  The derived amortized costs
    (<= 2 insert, <= 5 decrease-key, <= 3*log_phi(n) delete-min) are checked
    as well; all real-valued comparisons get SLACK.
    """
    out: list[str] = []
    kind = rec.kind
    d_phi = rec.d_phi
    if kind in ("make-heap", "find-min", "meld"):
        if d_phi != 0:
            out.append(_exceeds(kind, "d_phi", d_phi, 0))
    elif kind == "insert":
        if d_phi > 1 + SLACK:
            out.append(_exceeds(kind, "d_phi", d_phi, 1))
    elif kind == "decrease-key":
        if d_phi > 4 - rec.iterations + SLACK:
            out.append(_exceeds(kind, "d_phi", d_phi, 4 - rec.iterations))
        if rec.amortized_time > 5 + SLACK:
            out.append(_exceeds(kind, "amortized", rec.amortized_time, 5))
    elif kind == "delete-min":
        lg = log_phi(max(rec.n_before, 1))
        if d_phi > 2 * lg - 1 - rec.links + SLACK:
            out.append(_exceeds(kind, "d_phi", d_phi, 2 * lg - 1 - rec.links))
        if rec.amortized_time > 3 * lg + SLACK:
            out.append(_exceeds(kind, "amortized", rec.amortized_time, 3 * lg))
    return out


class AmortizedAuditor:
    """Streaming record sink that counts audit violations and keeps the
    first :attr:`KEEP` messages: those of :func:`audit_violations`, and the
    paper's claim (iii) that no comparison is wasted, as comparisons == links."""

    KEEP = 20

    def __init__(self) -> None:
        self.ops = 0
        self.violation_count = 0
        self.violations: list[str] = []

    def __call__(self, rec: OpRecord) -> None:
        self.ops += 1
        problems = audit_violations(rec)
        if rec.comparisons != rec.links:
            problems.append(
                f"{rec.kind}: comparisons {rec.comparisons} != links {rec.links}"
            )
        if problems:
            self.violation_count += len(problems)
            room = self.KEEP - len(self.violations)
            if room > 0:
                self.violations.extend(problems[:room])

    @property
    def ok(self) -> bool:
        return self.violation_count == 0
