"""Single-tree mergeable heaps with pluggable rank-maintenance policies.

Quick start::

    from fibcascade import Universe, Policy

    u = Universe(seed=42)
    h = u.make_heap(Policy.SIMPLE)
    items = [u.make_item(k) for k in (5, 3, 8)]
    for it in items:
        h.insert(it)
    h.decrease_key(items[2], 1)
    assert h.find_min().key == 1
    assert h.delete_min().key == 1

Everything a heap does is counted (links, comparisons, cascade steps, ...)
and the structure's potential is tracked incrementally; see
:mod:`fibcascade.instrumentation` for the counters and the amortized audit,
:mod:`fibcascade.oracle` for the invariant checks (``run_checks``) and
differential testing against a reference heap,
:mod:`fibcascade.adversary` for the worst-case operation sequences, and
:mod:`fibcascade.cli` for the command-line front end.
"""

from .core import (
    BOTTOM,
    MARKED,
    PASSIVE,
    POLICY_TAGS,
    UNMARKED,
    Heap,
    HeapError,
    Node,
    Policy,
    PreconditionError,
    Universe,
)
from .instrumentation import (
    PHI,
    SLACK,
    AmortizedAuditor,
    OpRecord,
    Telemetry,
    audit_violations,
    fib,
    log_phi,
)

__all__ = [
    "BOTTOM",
    "MARKED",
    "PASSIVE",
    "PHI",
    "POLICY_TAGS",
    "SLACK",
    "UNMARKED",
    "AmortizedAuditor",
    "Heap",
    "HeapError",
    "Node",
    "OpRecord",
    "Policy",
    "PreconditionError",
    "Telemetry",
    "Universe",
    "audit_violations",
    "fib",
    "log_phi",
]

__version__ = "0.1.0"
