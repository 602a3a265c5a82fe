"""Run plan shared by the orchestrator and the sessions.

Kept free of xsplice imports: the orchestrator only starts sessions
and aggregates what they report.

A run is a fixed amount of work: whole rounds of a workload's seeded
inputs, at least ``MIN_TASKS`` timed tasks (so the tail percentile
leaves ten tasks beyond it) and a number of rounds proportional to
``--seconds``. The task count therefore depends only on the workload
and ``--seconds``, never on how fast the machine happens to be. Rates
are taken per round and reported as the median over rounds, each round
scaled by the speed gauge timed inside it (see gauge.py). At
``--seconds 20`` a run holds 16 design, 10 sweep or 10 tomography
rounds, and takes about 25-45 s with its three set-ups on the reference
machine, so the full schedule of 4 + 22 x 3 runs fits its 3420 s with
room for a machine running 1.4x slow.
"""

from __future__ import annotations

import math

#: Timed tasks per run, at least: ten beyond the 75th percentile.
MIN_TASKS = 40

#: Fresh sessions per run; ``setup_s`` is the median of their set-ups.
SESSIONS = 3

#: Gauge passes timed just before a session starts and again right after
#: its set-up; the median of both scales that set-up.
SETUP_GAUGE_PASSES = 15

#: Tasks beyond the tail percentile, at least.
TAIL_BEYOND = 10

#: A traced run also times its first tasks untraced, for the overhead.
OVERHEAD_TASKS = 8

#: Tolerated program warnings (printed as notes) may number at most this
#: share of the timed tasks; more fail the run. The reference runs showed
#: at most one in a tomography run of 80 tasks.
MAX_NOTE_SHARE = 0.05

#: workload -> (tasks per round, rounds per 10 s of --seconds, warm-up tasks)
WORKLOADS = {
    "design": (12, 8, 2),
    "sweep": (5, 5, 1),
    "tomography": (8, 5, 1),
}


def task_count(workload: str, seconds: float) -> int:
    """Timed tasks in one run: whole rounds, >= MIN_TASKS, in proportion to seconds."""
    per_round, rounds_per_10s, _ = WORKLOADS[workload]
    rounds = max(math.ceil(MIN_TASKS / per_round), math.ceil(rounds_per_10s * seconds / 10))
    return rounds * per_round


def chunks(workload: str, n_tasks: int, sessions: int = SESSIONS) -> list:
    """Contiguous ``(lo, hi)`` slices of whole rounds, one per session."""
    per_round = WORKLOADS[workload][0]
    bounds = [per_round * round(k * (n_tasks // per_round) / sessions)
              for k in range(sessions + 1)]
    return [(bounds[k], bounds[k + 1]) for k in range(sessions)]


def tail_rank(n_tasks: int) -> tuple:
    """Highest whole percentile leaving >= TAIL_BEYOND tasks beyond it.

    Returns ``(percentile, rank)`` with the 1-based nearest rank, so the
    tail value is ``sorted(times)[rank - 1]``.
    """
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n_tasks / 100)
        if n_tasks - rank >= TAIL_BEYOND:
            return pct, rank
    raise ValueError(f"{n_tasks} tasks leave no tail beyond {TAIL_BEYOND}")
