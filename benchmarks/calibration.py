"""Machine-speed reference for the benchmark's timings.

On a shared machine the same work runs up to twice as slow for tens of
seconds at a time, whenever other tenants load the host; medians over a
run cannot remove a slowdown that lasts the whole run.  So every timed part
of a round sits between two calibration passes: a fixed pure-Python pairing
heap, written here and independent of fibcascade, whose code is of the same
kind as the program's and which slows down with it.  A part's time is
scaled by ``REFERENCE_S`` over the calibration time measured around it,
which reports it at the speed where one calibration pass takes
``REFERENCE_S``.  A change to fibcascade moves the part's time and leaves
the calibration alone, so it shows in full.
"""

from __future__ import annotations

import gc
import random
import time

#: Calibration pass time that defines the reference speed: roughly the
#: undisturbed speed of the 2-core Xeon machine the benchmark was tuned on.
REFERENCE_S = 0.0005

_KEYS = [random.Random(20140721).randrange(1 << 40) for _ in range(400)]


class _Node:
    __slots__ = ("key", "child", "sibling")

    def __init__(self, key: int) -> None:
        self.key = key
        self.child: _Node | None = None
        self.sibling: _Node | None = None


def _meld(a: _Node | None, b: _Node | None) -> _Node | None:
    if a is None:
        return b
    if b is None:
        return a
    if b.key < a.key:
        a, b = b, a
    b.sibling = a.child
    a.child = b
    return a


def _heapsort_pass() -> None:
    root = None
    for key in _KEYS:
        root = _meld(root, _Node(key))
    while root is not None:
        pairs = []
        c = root.child
        while c is not None:
            a, b = c, c.sibling
            c = b.sibling if b is not None else None
            a.sibling = None
            if b is not None:
                b.sibling = None
            pairs.append(_meld(a, b))
        root = None
        for p in reversed(pairs):
            root = _meld(root, p)


def measure() -> float:
    """Seconds of the faster of two passes, with the cyclic collector off:
    the passes make no cycles, and a collection of the program's garbage
    must not be charged to the machine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _heapsort_pass()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()
