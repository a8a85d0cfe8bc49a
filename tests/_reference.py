"""The reference that ``oracle.run_checks`` is tested against: standalone
checkers, one heap and one clause at a time, each with its own traversal;
and the exact Fibonacci-versus-golden-ratio arithmetic of criterion 9."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterable, Iterator

from fibcascade.core import MARKED
from fibcascade.instrumentation import degree, fib
from fibcascade.policies import RULES


def lucas(k: int) -> int:
    """L_k = F_{k-1} + F_{k+1} (L_0 = 2)."""
    if k == 0:
        return 2
    return fib(k - 1) + fib(k + 1)


def fib_dominates_phi_power(k: int) -> bool:
    """Exact-arithmetic check that F_{k+2} >= phi**k.

    phi**k equals (L_k + F_k*sqrt(5)) / 2, so the claim is equivalent to
    d = 2*F_{k+2} - L_k being nonnegative with d*d >= 5*F_k*F_k; both sides
    are plain integers, so no floating point is involved.
    """
    d = 2 * fib(k + 2) - lucas(k)
    return d >= 0 and d * d >= 5 * fib(k) * fib(k)


def iter_subtree(root) -> Iterator:
    """All nodes of the tree rooted at ``root``, iteratively (trees can be
    deep paths, so no recursion)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        child = node.child
        while child is not None:
            stack.append(child)
            child = child.after


def compute_potential(roots: Iterable) -> int:
    """Potential by full traversal; the reference for the incremental ``phi``."""
    phi = 0
    for root in roots:
        phi += 1  # each root contributes one
        for node in iter_subtree(root):
            phi += degree(node) - node.rank
            if node.state == MARKED:
                phi += 2
    return phi


def subtree_size(root) -> int:
    return sum(1 for _ in iter_subtree(root))


def subtree_sizes(root) -> dict:
    """Size of every subtree under ``root`` in one bottom-up pass."""
    order = list(iter_subtree(root))
    sizes: dict = {}
    for node in reversed(order):
        total = 1
        child = node.child
        while child is not None:
            total += sizes[child]
            child = child.after
        sizes[node] = total
    return sizes


@dataclass
class CheckReport:
    """Outcome of one checker pass over a heap."""

    name: str
    violations: list[str] = field(default_factory=list)
    asserted: bool = True

    @property
    def ok(self) -> bool:
        return not self.violations


def structure_violations(heap) -> CheckReport:
    """Pointer discipline (each root its own parent with no siblings), heap
    order, rank sanity, degree >= rank, and the size against the nodes
    reached."""
    report = CheckReport("structure")
    seen = set()
    for root in heap.iter_roots():
        if root.parent is not root:
            report.violations.append(f"node {root.uid}: root is not its own parent")
        if root.before is not None or root.after is not None:
            report.violations.append(f"node {root.uid}: root has a sibling link")
        for node in iter_subtree(root):
            if id(node) in seen:
                report.violations.append(f"node {node.uid} reachable twice")
                continue
            seen.add(id(node))
            if node.rank < 0:
                report.violations.append(f"node {node.uid}: negative rank {node.rank}")
            d = 0
            prev = None
            child = node.child
            while child is not None:
                d += 1
                if child.parent is not node:
                    report.violations.append(
                        f"node {child.uid}: parent pointer does not match"
                    )
                if child.before is not prev:
                    report.violations.append(
                        f"node {child.uid}: broken sibling back-link"
                    )
                if child.key < node.key:
                    report.violations.append(
                        f"node {child.uid}: key {child.key!r} below parent's {node.key!r}"
                    )
                prev = child
                child = child.after
            if d < node.rank:
                report.violations.append(
                    f"node {node.uid}: degree {d} < rank {node.rank}"
                )
    if len(seen) != len(heap):
        report.violations.append(f"size {len(heap)} != {len(seen)} nodes reached")
    return report


def rank_bound_violations(heap) -> CheckReport:
    """Subtree-size lower bounds implied by ranks, as the policy's row of
    :data:`fibcascade.policies.RULES` asserts them; the Fibonacci bound,
    report-only, for the policies without a floor.
    """
    rule = RULES[heap.policy]
    if rule.floor is None:
        report = CheckReport("rank-bound-report-only", asserted=False)
        bound = lambda r: fib(r + 2)
    else:
        bound = rule.floor
        report = CheckReport(rule.bound)
    for root in heap.iter_roots():
        sizes = subtree_sizes(root)
        for node, size in sizes.items():
            if node.rank >= 0 and size < bound(node.rank):
                report.violations.append(
                    f"node {node.uid}: size {size} < bound {bound(node.rank)}"
                    f" for rank {node.rank}"
                )
    return report


def active_children_violations(heap) -> CheckReport:
    """Every node must have at least ``rank`` active children.

    A child is active while its ``active`` flag, the activity ledger, is
    set (fair-linked and not since unmarked). Only meaningful for the policies that keep the classic
    correspondence; the caller decides whether the verdict is asserted.
    """
    report = CheckReport("active-children")
    for root in heap.iter_roots():
        for node in iter_subtree(root):
            live = 0
            child = node.child
            while child is not None:
                if child.active:
                    live += 1
                child = child.after
            if live < node.rank:
                report.violations.append(
                    f"node {node.uid}: {live} active children < rank {node.rank}"
                )
    return report


def potential_violations(heap) -> CheckReport:
    """Incremental phi must match the traversal and must never be negative.

    Checks the whole universe the heap belongs to, since phi is shared.
    """
    report = CheckReport("potential")
    tele = heap.universe.telemetry
    total = 0
    for h in heap.universe.live_heaps():
        total += compute_potential(h.iter_roots())
    if total != tele.phi:
        report.violations.append(
            f"incremental phi {tele.phi} != recomputed {total}"
        )
    if tele.phi < 0:
        report.violations.append(f"negative phi {tele.phi}")
    return report


def run_checks_per_heap(universe):
    """``oracle.run_checks`` as the standalone checkers give it: each live
    heap on its own, then the potential of the whole universe once."""
    out = []
    for heap in universe.live_heaps():
        for checker in (structure_violations, rank_bound_violations):
            report = checker(heap)
            if report.asserted and not report.ok:
                out.extend(
                    f"{heap.name}/{report.name}: {v}" for v in report.violations[:5]
                )
        if RULES[heap.policy].audited:
            report = active_children_violations(heap)
            out.extend(
                f"{heap.name}/{report.name}: {v}" for v in report.violations[:5]
            )
    # the checker reads nothing of its heap but the universe
    report = potential_violations(SimpleNamespace(universe=universe))
    out.extend(f"universe/{report.name}: {v}" for v in report.violations[:5])
    return out
