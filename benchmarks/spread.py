"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 benchmarks/spread.py --workload sssp --seeds 1-10 [--out FILE]

Each seed is one ``run.py`` process at ``BENCHMARK.json``'s run length.
For every end-to-end metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, their
distance as a share of the median, next to the metric's bound.  The first
seed then runs a second time: its deterministic counter block must come back
identical.  Exit code 1 means a run failed, an output was wrong, or the
counters differed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmarks" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    ok = True
    values: dict[str, list[float]] = {}
    runs = []
    for seed in args.seeds:
        result, report = run(args.workload, seed, seconds, 0)
        ok = ok and result["correct"]
        runs.append(
            {
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "counters_sha256": report["counters_sha256"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)

    _, again = run(args.workload, args.seeds[0], seconds, 0)
    same = again["counters_sha256"] == runs[0]["counters_sha256"]
    ok = ok and same
    print(f"seed {args.seeds[0]} again: counters {'identical' if same else 'DIFFER'}")

    summary = {}
    for spec_metric in spec["end_to_end"]:
        name = spec_metric["name"]
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[name] = {
            "unit": spec_metric["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": spread,
        }
        print(
            f"{name:12s} median {med:12.6g} {spec_metric['unit']:6s}"
            f" q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.4f}"
            f" (bound {spec_metric['bound']})"
        )
    if args.out:
        args.out.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "run_seconds": seconds,
                    "metrics": summary,
                    "runs": runs,
                    "same_seed_counters_identical": same,
                },
                indent=1,
            )
            + "\n"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
