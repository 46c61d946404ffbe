"""Statistics of the repo benchmark, kept free of I/O so tests can feed
synthetic traces.

Open-loop accounting works on request rows as the driver writes them:
``[step, cls, due, send, ack, done, outcome]``, times in seconds from the
start of the measured window.  Latency is timed from ``due``, the time
the schedule said to send, so a stall in the generator or the server is
charged to every request it delays.
"""

import math
from statistics import median

# Outcome codes written by the driver (perfbench/driver/serving.cpp).
OK, REJECTED, ERRORED, DEADLINE, WRONG, LOST = range(6)

# A tail percentile is supported by its samples when at least this many
# lie beyond it.
MIN_TAIL = 10


def _rank(n, p):
    # Rounded first so that e.g. 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def percentile(values, p):
    """Nearest-rank p-th percentile (p in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """Samples above the nearest-rank p-th percentile of n samples."""
    return n - _rank(n, p)


def tail_supported(n, p):
    """True when n samples leave at least MIN_TAIL beyond the p-th
    percentile."""
    return samples_beyond(n, p) >= MIN_TAIL


def due_latency(row):
    """Latency of one request row in seconds, timed from its due time."""
    return row[5] - row[2]


def failed(row, slo_s):
    """True when the request failed from the user's view: rejected,
    errored, shed or expired, wrong, never completed, or completed later
    than the SLO."""
    return row[6] != OK or due_latency(row) > slo_s


def account(rows, slo_s):
    """Open-loop accounting of one set of request rows."""
    counts = {"sent": len(rows), "completed": 0, "rejected": 0, "errored": 0,
              "shed_or_expired": 0, "wrong": 0, "lost": 0, "late": 0}
    names = {OK: "completed", REJECTED: "rejected", ERRORED: "errored",
             DEADLINE: "shed_or_expired", WRONG: "wrong", LOST: "lost"}
    for r in rows:
        counts[names[r[6]]] += 1
        if r[6] == OK and due_latency(r) > slo_s:
            counts["late"] += 1
    return counts


def fail_share(rows, slo_s, closed=()):
    """Requests that failed (see ``failed``) over requests attempted.
    ``closed`` are closed-loop requests, sent when an earlier one
    completed: the SLO does not apply to them, and they fail only when
    they do not complete correctly."""
    n = len(rows) + len(closed)
    if not n:
        return 0.0
    return (sum(1 for r in rows if failed(r, slo_s)) +
            sum(1 for r in closed if r[6] != OK)) / n


def user_latencies(rows):
    """Due-time latencies where a request that did not complete correctly
    counts as infinitely late: it misses any latency limit."""
    return [due_latency(r) if r[6] == OK else math.inf for r in rows]


def backlog_growing(rows, step_end):
    """True when the server fell behind for good during the step: the
    median latency of the step's last quarter exceeds twice that of its
    first quarter plus 1 ms, or requests were still outstanding a full
    step-quarter after the step ended."""
    if len(rows) < 8:
        return False
    ordered = sorted(rows, key=lambda r: r[2])
    q = len(ordered) // 4
    first = sorted(user_latencies(ordered[:q]))[q // 2]
    last = sorted(user_latencies(ordered[-q:]))[q // 2]
    if last > 2 * first + 1e-3:
        return True
    span = ordered[-1][2] - ordered[0][2]
    return any(r[6] == LOST or r[5] > step_end + span / 4 for r in ordered)


def slice_rate(events, start, end, slice_s):
    """Median over the whole slices of [start, end) of the summed weight
    of the events, ``(time, weight)`` pairs, per second of the slice.  A
    stall spoils only the slices it falls into."""
    n = int((end - start) / slice_s)
    if n < 1:
        raise ValueError("no whole slice in [start, end)")
    sums = [0.0] * n
    for t, w in events:
        k = math.floor((t - start) / slice_s)
        if 0 <= k < n:
            sums[k] += w
    return median(sums) / slice_s


def offered_rate(rows, start, end):
    """Requests due per second over [start, end)."""
    return len(rows) / (end - start) if end > start else 0.0


def slo_rate(steps, rows_by_step, slo_s, p=99.0):
    """Highest measured offered rate among the steps whose p-th percentile
    user latency meets ``slo_s`` without a growing backlog; 0 when none
    does.  ``steps`` are dicts with ``start``/``end`` seconds."""
    best = 0.0
    for step, rows in zip(steps, rows_by_step):
        if not rows:
            continue
        if percentile(user_latencies(rows), p) > slo_s:
            continue
        if backlog_growing(rows, step["end"]):
            continue
        best = max(best, offered_rate(rows, step["start"], step["end"]))
    return best
