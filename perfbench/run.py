"""Benchmark of the xsplice design loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {design,sweep,tomography} \
        --seed N [--seconds S] [--trace 0|1]

A run replays a fixed, seeded task list (see plan.py) in three fresh
sessions started one after another; each session sets up, warms up and
times its contiguous slice with one task in flight. Every end-to-end
time is reported at the reference speed of the speed gauge
(``gauge.py``): each task time is divided by the gauge factor of the
passes nearest it, each round span by its round's factor, each set-up
by the factor of the passes timed just before its session starts and
right after its set-up. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the six end-to-end metrics with ``--trace 0``, the
per-layer metrics (raw times) of one traced session with ``--trace 1``.
Results are also written to ``perfbench/out/``.

The run exits non-zero without a result when a session cannot start,
for instance when the checkout has no ``src/xsplice`` to import.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gauge
import plan
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: A run that has not finished after this many seconds is stopped.
DEADLINE_S = 170.0

#: A task time is scaled by the gauge passes this many tasks either side
#: of it, its own included (the pass just before it).
TASK_GAUGE_REACH = 2

END_TO_END = {
    "setup_s": "s", "task_p50_s": "s", "task_tail_s": "s",
    "tasks_per_s": "1/s", "cpu_s_per_task": "s", "peak_rss_mb": "MB",
}


class SessionError(RuntimeError):
    pass


def run_session(workload, seed, n_tasks, lo, hi, trace, deadline, log_path):
    """Start one session; return (setup seconds, its JSON report).

    The report's ``setup_gauges`` gets the gauge passes timed here just
    before the start in front of those the session timed after set-up.
    """
    before = [gauge.sample() for _ in range(plan.SETUP_GAUGE_PASSES)]
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           str(HERE / "session.py"), workload, str(seed), str(n_tasks), str(lo), str(hi),
           "1" if trace else "0"]
    with open(log_path, "w+", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        log.seek(0)
        stderr = log.read()
    lines = rest.strip().splitlines()
    if first.strip() != "READY" or code != 0 or not lines:
        tail = "\n".join(l for l in stderr.splitlines() if not l.startswith("import time:"))
        raise SessionError(f"session {lo}..{hi} of {workload} failed (exit {code}):\n"
                           f"{tail[-3000:]}")
    report = json.loads(lines[-1])
    report["setup_gauges"] = before + report["setup_gauges"]
    if trace:
        report["imports"] = tracing.import_times(stderr)
    return setup, report


def check_digests(reports) -> list:
    """Every repeat of one input must give byte-identical outputs."""
    by_first = {}
    for r in reports:
        for i, (j, digest) in r["digests"].items():
            by_first.setdefault(j, {})[int(i)] = digest
    errors = []
    for j, seen in by_first.items():
        if len(set(seen.values())) > 1:
            errors.append(f"repeats of task {j} differ: tasks {sorted(seen)}")
    return errors


def check_bootstrap_trend(reports) -> list:
    """Pooled bootstrap stds must shrink as counts per setting rise."""
    facts = {}
    for r in reports:
        facts.update(r["facts"])
    if not facts:
        return []
    errors = []
    for key in ("f_std", "t_std"):
        pooled = {}
        for f in facts.values():
            pooled.setdefault(f["level"], []).append(f[key] ** 2)
        levels = sorted(pooled)
        rms = [statistics.fmean(pooled[lv]) ** 0.5 for lv in levels]
        if len(levels) < 2 or any(hi >= lo for lo, hi in zip(rms, rms[1:])):
            errors.append(f"bootstrap {key} does not shrink with counts: "
                          f"{dict(zip(levels, rms))}")
    return errors


def at_reference_speed(report, per_round) -> tuple:
    """A session's task times and round spans divided by their gauge factors.

    A task's factor comes from the passes nearest it, a round's from all
    the passes in it.
    """
    g, reach = report["gauges"], TASK_GAUGE_REACH
    times = [t / gauge.factor(g[max(0, i - reach):i + reach + 1])
             for i, t in enumerate(report["times"])]
    rounds = []
    for k, (wall, cpu) in enumerate(report["rounds"]):
        f = gauge.factor(g[k * per_round:(k + 1) * per_round])
        rounds.append((wall / f, cpu / f))
    return times, rounds


def end_to_end(workload, setups, speeds, reports, n_tasks) -> tuple:
    per_round = plan.WORKLOADS[workload][0]
    times, rounds = [], []
    for r in reports:
        t, rd = at_reference_speed(r, per_round)
        times += t
        rounds += rd
    pct, rank = plan.tail_rank(n_tasks)
    values = {
        "setup_s": statistics.median(s / f for s, f in zip(setups, speeds)),
        "task_p50_s": statistics.median(times),
        "task_tail_s": sorted(times)[rank - 1],
        "tasks_per_s": statistics.median(per_round / wall for wall, _ in rounds),
        "cpu_s_per_task": statistics.median(cpu / per_round for _, cpu in rounds),
        "peak_rss_mb": max(r["maxrss_kb"] for r in reports) / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, (f"tail = p{pct} of {len(times)} timed tasks ({len(times) - rank} beyond it); "
                     f"rates = median over {len(rounds)} rounds of {per_round}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    trace = bool(args.trace)

    # Byte-compile up front so no session pays for it in its set-up.
    if (ROOT / "src").is_dir():
        compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)

    n_tasks = plan.task_count(args.workload, args.seconds)
    slices = [(0, n_tasks)] if trace else plan.chunks(args.workload, n_tasks)
    setups, speeds, reports = [], [], []
    try:
        for k, (lo, hi) in enumerate(slices):
            log = OUT / f"session-{args.workload}-{args.seed}-{k}.log"
            setup, report = run_session(args.workload, args.seed, n_tasks, lo, hi, trace,
                                        deadline, log)
            setups.append(setup)
            speeds.append(gauge.factor(report["setup_gauges"]))
            reports.append(report)
    except SessionError as exc:
        print(exc, file=sys.stderr)
        return 2

    errors = [e for r in reports for e in r["errors"]]
    errors += check_digests(reports)
    errors += check_bootstrap_trend(reports)
    failed = sum(r["failed"] for r in reports)
    attempted = sum(len(r["times"]) for r in reports)
    notes = [w for r in reports for w in r["notes"]]
    if len(notes) > plan.MAX_NOTE_SHARE * attempted:
        errors.append(f"{len(notes)} tolerated warnings in {attempted} tasks, more than "
                      f"{plan.MAX_NOTE_SHARE:.0%}")

    if trace:
        report = reports[0]
        metrics = tracing.layer_metrics(report["layers"], report["imports"], attempted,
                                         report["overhead_pct"])
        note = f"traced {attempted} tasks; overhead {report['overhead_pct']:+.1f} % " \
               f"over the first {plan.OVERHEAD_TASKS}"
        out_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    else:
        metrics, note = end_to_end(args.workload, setups, speeds, reports, n_tasks)
        factors = [gauge.factor(r["gauges"]) for r in reports]
        note += ("; raw setup_s per session: " + ", ".join(f"{s:.3f}" for s in setups)
                 + "; gauge factor per session: "
                 + ", ".join(f"{a:.2f}/{b:.2f}" for a, b in zip(speeds, factors)))
        out_file = OUT / f"result-{args.workload}-seed{args.seed}.json"

    for warning in notes:
        print(f"NOTE: {warning}", file=sys.stderr)
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    raw = {"setups": setups, "setup_factors": speeds,
           "sessions": [{k: r[k] for k in ("times", "rounds", "gauges")} for r in reports]}
    out_file.with_name("raw-" + out_file.name).write_text(json.dumps(raw) + "\n")
    print(f"{args.workload} seed {args.seed}: {note}; {len(notes)} note(s); "
          f"{len(errors)} check failure(s)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
