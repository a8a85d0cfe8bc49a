"""The benchmark under ``benchmarks/`` still runs against this package.

The benchmark drives the package through names it does not own (heap
methods, builder arguments, oracle functions), so a rename here would first
show as a failed benchmark run.  These tests run one round of every
workload and the tracing hooks, and only read ``benchmarks/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from fibcascade import POLICY_TAGS, AmortizedAuditor, Heap, adversary, oracle
from fibcascade.instrumentation import Telemetry

BENCH = str(Path(__file__).resolve().parent.parent / "benchmarks")
sys.path.insert(0, BENCH)
try:
    import calibration
    import run
    import tracing
    from workloads import WORKLOADS
finally:
    sys.path.remove(BENCH)

# everything the tracing hooks may patch, by the owner's own namespace
PATCHED = (
    Heap,
    oracle.OracleHeap,
    oracle,
    AmortizedAuditor,
    adversary.AdversaryBuilder,
    adversary,
    calibration,
    Telemetry,
)


def _namespaces() -> list[dict]:
    return [dict(vars(owner)) for owner in PATCHED]


def _changed(before: list[dict]) -> list[str]:
    return [
        f"{owner.__name__}.{attr}"
        for owner, saved in zip(PATCHED, before)
        for attr in saved.keys() | vars(owner).keys()
        if vars(owner).get(attr) is not saved.get(attr)
    ]


# the seed-1 counters of each workload, as run.py digests them into
# counters_sha256: a change that moves any counter shows here
COUNTER_DIGESTS = {
    "sssp": "cf3e60a3c7bdd7e0",
    "drain": "ce37fb5236d789e8",
    "fuzz": "4431664a0211aad1",
    "adversary": "549897f8115bc1c8",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_one_checked_round(name):
    workload = WORKLOADS[name](seed=1)
    workload.setup()
    rnd = workload.run_round()
    assert rnd.failed == 0 and rnd.wrong == []
    assert rnd.ops > 0 and rnd.attempted > 0
    assert run.digest(rnd.counters) == COUNTER_DIGESTS[name]


def test_tracing_hooks_run_and_restore_every_attribute():
    before = _namespaces()
    rec = tracing.Recorder()
    with rec.installed():
        assert _changed(before)
        oracle.replay_differential(
            oracle.gen_trace(300, seed=1),
            policy="simple",
            strict_identity=True,
            check_interval=25,
            record_sink=AmortizedAuditor(),
        )
        builder = adversary.AdversaryBuilder(seed=1, recording=True)
        builder.build(3)
        builder.start_rounds()
        builder.steady_round()
        calibration.measure()
    assert _changed(before) == []
    # every hook fired; of the decrease-key ones, those of the two policies run
    idle = {name for name, s in rec.summarize().items() if s["calls"] == 0}
    ran = ("simple", "non-cascading")
    assert idle == {f"policies.{t}.decrease_key" for t in POLICY_TAGS if t not in ran}

    with tracing.telemetry_stubbed():
        assert _changed(before)
    assert _changed(before) == []
