"""fibcascade benchmark: one workload per process, seeded, self-checking.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload sssp --seed 1 --seconds 12 --trace 0

The package is imported from ``src/`` next to this directory.  The run sets
up the workload several times (inputs plus reference answers; the median
counts), runs one untimed warm-up round, then repeats timed rounds until
``--seconds`` have passed, at least three.  Every round's outputs are
checked; ``attempted`` and ``failed`` are the warm-up round's, and every
later round must repeat them and its deterministic counters exactly.
Times are reported at the reference speed defined in ``calibration.py``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from untimed, ablated and
traced rounds.  Human-readable lines and a JSON report come first; the last
line of standard output is the result object.  Exit code 2 means the
package could not be imported from this checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
MIN_ROUNDS = 3
# Telemetry op boundaries are ablated only where no output check reads op
# records: fuzz audits them and adversary's schedule checks are built on them.
ABLATED = ("sssp", "drain")


def import_package() -> None:
    """Import fibcascade from this checkout's ``src/`` or exit with 2."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import fibcascade
    except ImportError as exc:
        print(f"error: cannot import fibcascade from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    where = Path(fibcascade.__file__).resolve()
    if src not in where.parents:
        print(f"error: fibcascade came from {where}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Ledger:
    """Checked outcome of a run.

    Every unit is counted once, as the warm-up round checked it, so
    ``attempted`` and ``failed`` depend on the seed only, not on how many
    rounds fit in the run.  Every later round must repeat the same outcome
    and the same counters; anything else is a wrong output.
    """

    def __init__(self, reference) -> None:
        self.reference = reference.counters
        self.attempted = reference.attempted
        self.failed = reference.failed
        self.wrong: list[str] = list(reference.wrong)

    def add(self, rnd, label: str) -> None:
        self.wrong.extend(rnd.wrong)
        if (rnd.attempted, rnd.failed) != (self.attempted, self.failed):
            self.wrong.append(
                f"{label} round: {rnd.failed} of {rnd.attempted} units failed,"
                f" warm-up round {self.failed} of {self.attempted}"
            )
        for key, block in rnd.counters.items():
            if block != self.reference.get(key):
                self.wrong.append(
                    f"{label} round: counters of {key} differ from the warm-up"
                    f" round: {block} != {self.reference.get(key)}"
                )
        if rnd.counters.keys() != self.reference.keys():
            self.wrong.append(f"{label} round: counter blocks missing")


def end_to_end(wl, seconds: float, ledger: Ledger, setup_s: float, report: dict) -> dict:
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        rounds.append(wl.run_round())
        ledger.add(rounds[-1], "timed")
    rates = [r.ops / r.seconds for r in rounds]
    raw = [r.ops / r.raw_seconds for r in rounds]
    report["rounds"] = {
        "timed": len(rounds),
        "ops_per_round": rounds[0].ops,
        "ops_per_s": rates,
        "wall_clock_ops_per_s": raw,
        "wall_clock_median_ops_per_s": statistics.median(raw),
    }
    return {
        "ops_per_s": statistics.median(rates),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_rate": 1.0 - ledger.failed / ledger.attempted,
    }


def per_layer(
    wl, seconds: float, ledger: Ledger, setup_speed: float, report: dict
) -> dict:
    from fibcascade import POLICY_TAGS
    from tracing import GcClock, Recorder, percentile_us, telemetry_stubbed

    # Untraced rounds (with the collector timed), each followed on sssp and
    # drain by a round with the telemetry op boundaries stubbed out.
    gc_clock = GcClock()
    plain: list = []
    stubbed: list = []
    t0 = time.perf_counter()
    while len(plain) < MIN_ROUNDS or time.perf_counter() - t0 < seconds / 2:
        with gc_clock.installed():
            plain.append(wl.run_round())
        ledger.add(plain[-1], "untraced")
        if wl.name in ABLATED:
            with telemetry_stubbed():
                stubbed.append(wl.run_round())
            ledger.add(stubbed[-1], "ablated")

    rec = Recorder()
    with rec.installed():
        traced = wl.run_round(rec.span)
    ledger.add(traced, "traced")
    spans = rec.summarize()
    spans_path = OUT_DIR / f"spans-{wl.name}.tsv.gz"
    rec.write(spans_path)
    # span times are wall clock; scale them to the reference speed too
    speed = traced.seconds / traced.raw_seconds

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def us(q: float, *names: str) -> float:
        durations = [d for n in names for d in spans.get(n, {}).get("durations", ())]
        return percentile_us(durations, q) * speed

    def seconds_in(name: str, kind: str = "total_ns") -> float:
        return spans.get(name, {}).get(kind, 0) / 1e9 * speed

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    totals = dict.fromkeys(
        ("fair_links", "naive_links", "comparisons", "cuts", "rank_clamps"), 0
    )
    for block in traced.counters.values():
        for key in totals:
            totals[key] += block[key]
    dk_names = [f"policies.{tag}.decrease_key" for tag in POLICY_TAGS]
    dk_calls = sum(calls(n) for n in dk_names)
    base = statistics.median(r.seconds for r in plain)
    boundary = base - statistics.median(r.seconds for r in stubbed) if stubbed else 0.0
    m = {
        "core.insert_us.p50": us(50, "core.insert"),
        "core.insert_us.p99": us(99, "core.insert"),
        "core.delete_min_us.p50": us(50, "core.delete_min"),
        "core.delete_min_us.p99": us(99, "core.delete_min"),
        "core.meld_us.p50": us(50, "core.meld"),
        "core.links_per_delete_min": ratio(
            rec.deltas["delete_min.links"], calls("core.delete_min")
        ),
        "core.fair_links": totals["fair_links"],
        "core.naive_links": totals["naive_links"],
        "core.comparisons": totals["comparisons"],
        "core.cuts": totals["cuts"],
        "policies.decrease_key_us.p50": us(50, *dk_names),
        "policies.decrease_key_us.p99": us(99, *dk_names),
        "policies.walk_steps_per_decrease_key": ratio(
            rec.deltas["decrease_key.iterations"], dk_calls
        ),
        "policies.cut_ratio": ratio(rec.deltas["decrease_key.cuts"], dk_calls),
        "policies.rank_clamps": totals["rank_clamps"],
        "instrumentation.op_boundary_s": boundary,
        "instrumentation.op_boundary_share": ratio(boundary, base),
        "instrumentation.checks_s": seconds_in("instrumentation.checks"),
        "instrumentation.checks_calls": calls("instrumentation.checks"),
        "instrumentation.audit_s": seconds_in("instrumentation.audit"),
        "oracle.parse_s": getattr(wl, "parse_s", 0.0) * setup_speed,
        "oracle.mirror_s": seconds_in("oracle.mirror"),
        "oracle.replay_self_s": seconds_in("oracle.replay", "self_ns"),
        "adversary.build_s": seconds_in("adversary.build"),
        "adversary.rounds_s": seconds_in("adversary.steady_round"),
        "adversary.verify_shape_s": seconds_in("adversary.verify_shape"),
        "adversary.replay_ops_s": seconds_in("adversary.replay_ops"),
        "runtime.gc_s": gc_clock.seconds / len(plain),
        "runtime.gc_collections": gc_clock.collections / len(plain),
        "trace.overhead_share": traced.seconds / base - 1.0,
    }
    for tag, name in zip(POLICY_TAGS, dk_names):
        m[f"policies.{tag}.decrease_key_us.p50"] = us(50, name)
    report["rounds"] = {
        "untraced_s": [r.seconds for r in plain],
        "ablated_s": [r.seconds for r in stubbed],
        "traced_s": traced.seconds,
        "spans": len(rec.name),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_calls": {name: s["calls"] for name, s in sorted(spans.items())},
    }
    return m


def main() -> int:
    args = parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import calibration
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    wl = WORKLOADS[args.workload](args.seed)

    # Set-up time is reported at the calibration's reference speed, like
    # the rounds: the warm-up round by its own calibrated parts, the rest by
    # calibration passes taken after each set-up.
    setups: list[float] = []
    cals: list[float] = []
    inputs_seen: list[dict] = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs_seen.append(wl.setup())
        setups.append(time.perf_counter() - t0)
        cals.append(calibration.measure())
    t0 = time.perf_counter()
    warm = wl.run_round()
    warmup_s = time.perf_counter() - t0
    setup_speed = calibration.REFERENCE_S / statistics.median(cals)
    setup_s = (import_s + statistics.median(setups)) * setup_speed + (
        warmup_s * warm.seconds / warm.raw_seconds
    )

    ledger = Ledger(warm)
    if any(seen != inputs_seen[0] for seen in inputs_seen):
        ledger.wrong.append(f"inputs differ between set-ups: {inputs_seen}")
    report: dict = {
        "workload": wl.name,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": inputs_seen[0],
        "setup": {
            "import_s": import_s,
            "inputs_and_reference_s": setups,
            "warmup_rounds": 1,
            "warmup_round_s": warmup_s,
            "calibration_s": cals,
        },
    }
    if args.trace:
        values = per_layer(wl, args.seconds, ledger, setup_speed, report)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(wl, args.seconds, ledger, setup_s, report)
        wanted = spec["end_to_end"]
    report["counters"] = warm.counters
    report["counters_sha256"] = digest(warm.counters)
    report["attempted"] = ledger.attempted
    report["failed"] = ledger.failed
    report["error_rate"] = ledger.failed / ledger.attempted
    report["wrong_outputs"] = ledger.wrong[:10]

    metrics = {
        w["name"]: {"value": float(values[w["name"]]), "unit": w["unit"]}
        for w in wanted
    }
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(
        f"{'error_rate':40s} {report['error_rate']:.6g} ratio"
        f" ({ledger.failed} of {ledger.attempted} units failed)"
    )
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
