"""Spans, ablation and GC timing for the traced benchmark run.

Spans are recorded only from the benchmark's side: timers in the
workloads, and wrappers this module installs around the package's public
entry points for the length of one traced round.  Each span has a name, a
start, an end and a parent; they are kept in memory in columns and written
out once, when the run ends.  Nothing in the package is edited.
"""

from __future__ import annotations

import gc
import gzip
import math
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from fibcascade import POLICY_TAGS, AmortizedAuditor, Heap
from fibcascade import adversary, oracle
from fibcascade.instrumentation import Telemetry

import calibration

_now = time.perf_counter_ns

MIRROR_METHODS = (
    "insert",
    "decrease_key",
    "delete_min",
    "find_min",
    "min_key",
    "remove",
    "meld",
)


class Recorder:
    """Spans in columns: name id, parent index (-1 for none), start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        # counter deltas read at a boundary, keyed by boundary
        self.deltas: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(i)
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        self.stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, fn, name: str, flat: bool = False):
        """A recording wrapper; ``flat`` skips calls made from inside a span
        of the same name (the mirror's own methods calling each other)."""
        nid = self.name_id(name)
        rec = self

        def wrapper(*args, **kwargs):
            top = rec.stack[-1]
            if flat and top >= 0 and rec.name[top] == nid:
                return fn(*args, **kwargs)
            i = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(i)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the package's entry points for the duration of the block."""
        saved = []

        def patch(owner, attr: str, wrapper) -> None:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        for attr, name in (
            ("insert", "core.insert"),
            ("meld", "core.meld"),
            ("find_min", "core.find_min"),
            ("delete", "core.delete"),
        ):
            patch(Heap, attr, self.wrap(getattr(Heap, attr), name))
        patch(Heap, "delete_min", self._delete_min(Heap.delete_min))
        patch(Heap, "decrease_key", self._decrease_key(Heap.decrease_key))
        for attr in MIRROR_METHODS:
            method = getattr(oracle.OracleHeap, attr)
            patch(oracle.OracleHeap, attr, self.wrap(method, "oracle.mirror", True))
        patch(oracle, "run_checks", self.wrap(oracle.run_checks, "instrumentation.checks"))
        patch(
            AmortizedAuditor,
            "__call__",
            self.wrap(AmortizedAuditor.__call__, "instrumentation.audit"),
        )
        builder = adversary.AdversaryBuilder
        patch(builder, "build", self.wrap(builder.build, "adversary.build"))
        patch(
            builder,
            "steady_round",
            self.wrap(builder.steady_round, "adversary.steady_round"),
        )
        patch(
            adversary,
            "verify_t_shape",
            self.wrap(adversary.verify_t_shape, "adversary.verify_shape"),
        )
        patch(calibration, "measure", self.wrap(calibration.measure, "calibration"))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _delete_min(self, fn):
        nid = self.name_id("core.delete_min")
        rec = self
        deltas = self.deltas

        def delete_min(heap):
            tele = heap.universe.telemetry
            links = tele.fair_links + tele.naive_links
            i = rec.open(nid)
            try:
                return fn(heap)
            finally:
                rec.close(i)
                deltas["delete_min.links"] += (
                    tele.fair_links + tele.naive_links - links
                )

        return delete_min

    def _decrease_key(self, fn):
        by_tag = {
            tag: self.name_id(f"policies.{tag}.decrease_key") for tag in POLICY_TAGS
        }
        rec = self
        deltas = self.deltas

        def decrease_key(heap, x, new_key):
            tele = heap.universe.telemetry
            cuts, steps = tele.cuts, tele.iterations
            i = rec.open(by_tag[heap.policy.value])
            try:
                return fn(heap, x, new_key)
            finally:
                rec.close(i)
                deltas["decrease_key.cuts"] += tele.cuts - cuts
                deltas["decrease_key.iterations"] += tele.iterations - steps

        return decrease_key

    # -- analysis -----------------------------------------------------------

    def summarize(self) -> dict[str, dict]:
        """Per span name: call count, every duration (ns), the total
        duration less the calibration passes run inside it, and the self
        time (duration minus the time its child spans cover)."""
        n = len(self.name)
        dur = array("q", (self.end[i] - self.start[i] for i in range(n)))
        covered = array("q", bytes(8 * n))
        calibrating = array("q", bytes(8 * n))
        cal = self._ids.get("calibration")
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
                if self.name[i] == cal:
                    calibrating[p] += dur[i]
        out: dict[str, dict] = {
            name: {"calls": 0, "durations": array("q"), "total_ns": 0, "self_ns": 0}
            for name in self.names
        }
        for i in range(n):
            nid = self.name[i]
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["durations"].append(dur[i])
            entry["total_ns"] += dur[i] - calibrating[i]
            entry["self_ns"] += dur[i] - covered[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            for nid, name in enumerate(self.names):
                f.write(f"# name {nid} {name}\n")
            f.write("span\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.name)):
                f.write(
                    f"{i}\t{self.name[i]}\t{self.start[i]}\t{self.end[i]}"
                    f"\t{self.parent[i]}\n"
                )


def percentile_us(durations_ns: list[int], q: float) -> float:
    """Nearest-rank percentile in microseconds; 0.0 when nothing was timed."""
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1] / 1000.0


@contextmanager
def telemetry_stubbed() -> Iterator[None]:
    """Ablation: operation boundaries do nothing (no snapshot, no record)."""
    begin, end = Telemetry.op_begin, Telemetry.op_end
    Telemetry.op_begin = lambda self, kind, n_before: None
    Telemetry.op_end = lambda self: None
    try:
        yield
    finally:
        Telemetry.op_begin, Telemetry.op_end = begin, end


class GcClock:
    """Collector pauses seen through ``gc.callbacks`` while installed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1

    @contextmanager
    def installed(self) -> Iterator[None]:
        gc.callbacks.append(self)
        try:
            yield
        finally:
            gc.callbacks.remove(self)
