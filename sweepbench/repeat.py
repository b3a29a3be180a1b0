"""Run the benchmark on several seeds and summarize each metric.

    python3 sweepbench/repeat.py --runs 10 --seconds 30 [--workload NAME ...]

Runs are sequential, one process at a time, and rotate through the
workloads so that slow drift of the machine lands on all of them alike.
For each workload and metric it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median. Raw results go to sweepbench/out/repeat-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(results: dict[str, list[dict]]) -> dict:
    summary = {}
    for workload, runs in results.items():
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0,
                          "unit": runs[0]["metrics"][name]["unit"]}
        rows["failed_share"] = sorted({r["failed"] / r["attempted"] for r in runs})
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    args = parser.parse_args(argv)
    workloads = args.workload or [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results[w].append(json.loads(lines[-1]))
            results[w][-1]["diagnostics"] = json.loads(lines[-2])["diagnostics"]
            print(w, seed, {k: round(v["value"], 4)
                            for k, v in results[w][-1]["metrics"].items()}, flush=True)

    summary = summarize(results)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"repeat-{args.first_seed}.json").write_text(
        json.dumps({"summary": summary, "runs": results}, indent=1))
    for workload, rows in summary.items():
        for name, row in rows.items():
            if name != "failed_share":
                print(f"{workload:12s} {name:14s} median {row['median']:.4g} "
                      f"q1 {row['q1']:.4g} q3 {row['q3']:.4g} spread {row['spread']:.3f}")
        print(f"{workload:12s} failed share {rows['failed_share']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
