"""The reference that ``oracle.run_checks`` is tested against: the
standalone checkers, one heap at a time."""

from __future__ import annotations

from fibcascade import Policy
from fibcascade.instrumentation import (
    active_children_violations,
    potential_violations,
    rank_bound_violations,
    structure_violations,
)


def run_checks_per_heap(universe, include_active=False):
    """``oracle.run_checks`` as the standalone checkers give it: each live
    heap on its own, the potential re-walking the whole universe each time."""
    out = []
    for heap in universe.live_heaps():
        for checker in (
            structure_violations,
            rank_bound_violations,
            potential_violations,
        ):
            report = checker(heap)
            if report.asserted and not report.ok:
                out.extend(
                    f"{heap.name}/{report.name}: {v}" for v in report.violations[:5]
                )
        if include_active and heap.policy is Policy.SIMPLE:
            report = active_children_violations(heap, universe.telemetry.active)
            out.extend(
                f"{heap.name}/{report.name}: {v}" for v in report.violations[:5]
            )
    return out

