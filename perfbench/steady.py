"""Steadiness check: run one workload in two sets of runs and compare them.

Usage (from the root of a checkout):

    python3 perfbench/steady.py --workload tomography [--runs 10]

Each set runs ``perfbench/run.py`` once per seed, seeds 1..runs, the
second set after the first. For every end-to-end metric it prints each
set's median and quartiles, the spread (interquartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles)
and how far the second median moved from the first, next to the
metric's bound in BENCHMARK.json. It also prints the share of failed operations per set.
The raw results go to ``perfbench/out/steady-<workload>.json``.
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


def one_run(workload, seed, seconds) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed for seed {seed}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"checks failed for seed {seed}:\n{proc.stderr[-2000:]}")
    print(f"  seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}"
                                         for k, v in result["metrics"].items()), flush=True)
    return result


def summary(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(1, args.runs + 1)

    sets = []
    for k in (1, 2):
        print(f"set {k}:", flush=True)
        sets.append([one_run(args.workload, s, seconds) for s in seeds])

    print(f"\n{args.workload}: {args.runs} runs per set, seeds {seeds.start}..{seeds.stop - 1}")
    print(f"{'metric':16} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8}"
          f" {'moved':>8} {'bound':>6}")
    table = {}
    for name, m in spec.items():
        rows = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        worse = 1.0 if m["better"] == "lower" else -1.0
        moved = worse * (rows[1]["median"] - rows[0]["median"]) / rows[0]["median"]
        table[name] = {"sets": rows, "moved": moved, "bound": m["bound"]}
        for k, row in enumerate(rows, 1):
            tail = f" {moved:+8.2%} {m['bound']:6.2f}" if k == 2 else ""
            print(f"{name:16} {k:>3} {row['median']:10.5g} {row['q1']:10.5g} "
                  f"{row['q3']:10.5g} {row['spread']:8.2%}{tail}")
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
              for runs in sets]
    print(f"failed share per set: {shares[0]:.4g} / {shares[1]:.4g}")

    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"steady-{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "seeds": list(seeds), "runs": sets, "table": table,
         "failed_share": shares}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
