"""Run each workload on several seeds and print the spread of its metrics.

    python3 perfbench/stability.py --seeds 1-10
    python3 perfbench/stability.py --workloads increments --seeds 1-5 --compare perfbench-out/stability.json

For every end-to-end metric it prints the median and the quartiles of the
runs (``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, set against the bound in
BENCHMARK.json.  A spread under a third of its bound is marked ok;
``setup_s`` is exempt from the spread rule.  ``--compare`` sets the medians
against those of an earlier output of this script.  The runs are
sequential, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                     "bound": bound, "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench-out" / "stability.json")
    parser.add_argument("--compare", type=Path, default=None,
                        help="earlier output of this script to set the medians against")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}

    report = {}
    for workload in names:
        results = []
        for seed in args.seeds:
            res = run_once(workload, seed, seconds)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
        summary = summarize(results, bounds)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        report[workload] = {"seeds": args.seeds, "seconds": seconds,
                            "correct": all(r["correct"] for r in results),
                            "failed_shares": shares, "metrics": summary}
        print(f"\n{workload}: {len(results)} runs of {seconds} s, "
              f"all correct={report[workload]['correct']}, failed shares {shares}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, s in summary.items():
            mark = "" if name == "setup_s" else ("ok" if s["spread"] < s["bound"] / 3 else "WIDE")
            line = (f"  {name:18s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                    f"{s['spread']:8.4f} {s['bound']:6.3f} {mark}")
            prev = earlier.get(workload, {}).get("metrics", {}).get(name)
            if prev:
                line += f"  vs earlier median {(s['median'] / prev['median'] - 1):+.4f}"
            print(line)
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
