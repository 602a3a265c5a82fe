"""One fresh benchmark session: set up, warm up, run a slice of the task list.

Usage: python perfbench/session.py <workload> <seed> <n_tasks> <lo> <hi> <trace 0|1>

Started by ``run.py`` as a new interpreter. It imports xsplice from the
checkout's ``src``, loads ``configs/paper.ini``, builds the seeded task
list, runs the warm-up tasks and prints ``READY``: the orchestrator's
``setup_s`` is the time from process start to that line. It then times
``plan.SETUP_GAUGE_PASSES`` passes of the speed gauge (``gauge.py``),
which scale its set-up time, times tasks ``lo``..``hi-1`` with one task
in flight, checks the outputs and prints one JSON line with what it
measured. Before each timed task it times one more gauge pass; the
gauge's time is left out of the task times and the round spans. Each
distinct input is checked in full where it first occurs in the list;
its repeats are compared with it by digest.

With trace 1 the session runs the whole list with the per-layer tracer
installed. It also runs each of the first ``plan.OVERHEAD_TASKS`` tasks
untraced, before the traced run on even tasks and after it on odd ones,
so the tracing overhead comes from interleaved pairs in which neither
member always gets the warm caches. The layer totals cover the timed
tasks, except ``load_config``, which only runs during set-up and is
traced there.
"""

import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed, n_tasks, lo, hi, trace = sys.argv[1:7]
    seed, n_tasks, lo, hi, trace = int(seed), int(n_tasks), int(lo), int(hi), trace == "1"

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import xsplice as xs  # first, so -X importtime charges numpy/scipy to it

    if Path(xs.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"xsplice imported from {xs.__file__}, not from {src}")

    import gauge
    import plan
    import tasks
    import tracing

    caught = []
    current = ["set-up"]

    def record(message, category, filename, lineno, file=None, line=None):
        caught.append(f"{current[0]}: {category.__name__}: {message}")

    warnings.showwarning = record
    warnings.simplefilter("always")

    tracer = tracing.Tracer(xs) if trace else None
    if trace:
        tracer.install()
    cfg = xs.config.load_config(str(ROOT / "configs" / "paper.ini"))
    if trace:
        tracer.uninstall()
    wl = tasks.WORKLOADS[workload](xs, cfg, seed, ROOT)
    per_round, _, warm = plan.WORKLOADS[workload]
    rounds = wl.rounds(n_tasks // per_round)
    if any(len(r) != per_round for r in rounds):
        raise SystemExit(f"{workload} rounds do not all have {per_round} tasks")
    task_list = [inp for r in rounds for inp in r]
    first = {}  # input -> index of its first occurrence in the whole list
    for i, inp in enumerate(task_list):
        first.setdefault(inp, i)
    for inp in task_list[:warm]:
        current[0] = "warm-up"
        wl.run(inp)
    print("READY", flush=True)

    def clock():
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return time.perf_counter(), ru.ru_utime + ru.ru_stime

    def untraced_run(inp):
        """Seconds of one untraced run of ``inp``; the traced run reports failures."""
        tracer.uninstall()
        t0 = time.perf_counter()
        try:
            wl.run(inp)
        except Exception:
            pass
        seconds = time.perf_counter() - t0
        tracer.install()
        return seconds

    kept, digests, times, errors = {}, {}, [], []
    spans = []  # (wall, cpu) of each whole round in this slice, gauge passes left out
    gauges = []  # gauge seconds before each timed task
    in_gauge = [0.0, 0.0]  # (wall, cpu) spent in the gauge in the current round
    setup_gauges = [gauge.sample() for _ in range(plan.SETUP_GAUGE_PASSES)]
    pairs = []  # (untraced, traced) seconds of the overhead window of a traced run
    failed = 0
    if trace:
        tracer.install()
    mark = clock()
    for i in range(lo, hi):
        if i > lo and i % per_round == 0:
            now = clock()
            spans.append((now[0] - mark[0] - in_gauge[0], now[1] - mark[1] - in_gauge[1]))
            mark, in_gauge = now, [0.0, 0.0]
        g0 = clock()
        gauges.append(gauge.sample())
        g1 = clock()
        in_gauge = [in_gauge[0] + g1[0] - g0[0], in_gauge[1] + g1[1] - g0[1]]
        current[0] = f"task {i}"
        inp = task_list[i]
        paired = trace and i < plan.OVERHEAD_TASKS
        if paired and i % 2 == 0:
            untraced = untraced_run(inp)
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception as exc:  # a failed operation is counted, the run goes on
            out = None
            failed += 1
            errors.append(f"task {i}: {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        if paired and i % 2 == 1:
            untraced = untraced_run(inp)
        if paired:
            pairs.append((untraced, times[-1]))
        if out is None:
            continue
        if first[inp] == i:  # checked in full below
            kept[i] = (inp, out)
        else:
            digests[i] = [first[inp], wl.digest(inp, out)]
    end = clock()
    spans.append((end[0] - mark[0] - in_gauge[0], end[1] - mark[1] - in_gauge[1]))
    if trace:
        tracer.uninstall()

    facts = {}
    for i, (inp, out) in kept.items():
        current[0] = f"check {i}"
        errors += [f"task {i}: {e}" for e in wl.check(inp, out)]
        digests[i] = [i, wl.digest(inp, out)]
        fact = wl.fact(inp, out)
        if fact is not None:
            facts[i] = fact
    notes = [w for w in caught if any(t in w for t in wl.TOLERATED_WARNINGS)]
    errors += [f"warning in {w}" for w in caught if w not in notes]

    result = {
        "times": times, "rounds": spans, "gauges": gauges, "setup_gauges": setup_gauges,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "failed": failed, "errors": errors, "notes": notes, "digests": digests,
        "facts": facts,
    }
    if trace:
        result["layers"] = tracer.snapshot()
        result["overhead_pct"] = 100.0 * (sum(t for _, t in pairs) / sum(u for u, _ in pairs)
                                          - 1.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
