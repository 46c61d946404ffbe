#!/usr/bin/env python3
"""The repo benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload challenge-dense --seed 1 \\
        --seconds 20 --trace 0

Builds the library, the radix-served daemon and the driver from the
sources of this checkout (CMake, Release, into a tree of its own under
$CARGO_TARGET_DIR or .bench_build), runs the driver, checks its outputs
and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the run measures untraced and then traced, and the metrics
are the per-layer metrics of BENCHMARK.json, including the tracing
overhead (traced minus untraced) of every end-to-end metric.  Metrics of
a layer a workload does not exercise read 0.  perfbench/README.md maps
each metric to the workloads and the end-to-end metric it should move.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("challenge-dense", "challenge-sparse", "serve-remote",
             "serve-churn")

# Latency limit of the serving workloads, on the p99 of user latency
# timed from each request's due time.
SLO_MS = 25.0

# Every run ends within this many seconds of the end of the build.
RUN_BUDGET_S = 170.0


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


# --- Build -----------------------------------------------------------------

def build_dir():
    """This source tree's build tree, under $CARGO_TARGET_DIR or
    .bench_build.  It is keyed by the path of this perfbench/, so
    checkouts that share one $CARGO_TARGET_DIR never build each other's
    sources through a cached CMAKE_HOME_DIRECTORY."""
    base = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return base / ("perfbench-" + hashlib.sha256(str(HERE).encode()).hexdigest()[:12])


def build():
    """Configure once, then build the driver and the daemon."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no repository sources next to perfbench/ (CMakeLists.txt, "
             "src/); run from the root of a checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                       "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "perfbench-driver", "radix-served"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return out / "perfbench-driver", out / "radix" / "tools" / "radix-served"


# --- Host context ----------------------------------------------------------

def cmake_cache(path):
    entries = {}
    try:
        for line in path.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, _, value = line.partition("=")
                entries[key.split(":")[0]] = value
    except OSError:
        pass
    return entries


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            if "__pycache__" in p.parts:
                continue
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def host_context():
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = cmake_cache(build_dir() / "CMakeCache.txt")
    compiler = cache.get("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True, timeout=10).stdout.splitlines()[0]
        except (OSError, subprocess.SubprocessError, IndexError):
            pass
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "compiler": compiler,
        "compiler_version": version,
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")])),
        "openmp": cache.get("RADIX_OPENMP"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --- Driver ----------------------------------------------------------------

def stop_group(pgid):
    """SIGKILL a process group and wait up to 10 s for it to empty."""
    end = time.monotonic() + 10.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < end:
            os.killpg(pgid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


def run_driver(driver, served, workload, seed, seconds, trace, deadline):
    """Run the driver once and return its JSON.  The driver and the daemon
    it spawns share a new process group, which is stopped afterwards
    whatever happened, so nothing outlives the run."""
    work = build_dir() / "runs" / f"{workload}-{os.getpid()}-{int(trace)}"
    out = work.with_suffix(".json")
    work.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(int(trace)), "--work-dir", str(work),
           "--served", str(served), "--out", str(out)]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        proc.kill()
        proc.wait()
        stop_group(proc.pid)
    if code is None:
        fail(f"{workload}: driver exceeded the run budget")
    if code not in (0, 3, 4) or not out.is_file():
        fail(f"{workload}: driver failed with exit code {code}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


# --- Metrics ---------------------------------------------------------------
#
# Each workload yields three dicts: the gated end-to-end metrics that every
# workload measures (BENCHMARK.json "end_to_end"), the workload-specific
# end-to-end metrics, and the per-layer metrics.  The latter two are
# printed by traced runs (BENCHMARK.json "per_layer"); see README.md for
# why the workload-specific latencies are not gated.

# Slice length of the serving throughput's median.
SLICE_S = 0.25


def unsupported(tails):
    """The tail metrics, of (metric, samples, percentile), whose samples
    leave fewer than stats.MIN_TAIL beyond the percentile: printed, but
    marked in the report as resting on too few samples."""
    return {name: stats.samples_beyond(n, p) for name, n, p in tails
            if not stats.tail_supported(n, p)}


def challenge_metrics(raw):
    """Metrics of a challenge run."""
    fwd_ms = raw["forward_ms"]
    gated = {
        "setup_s": median(raw["setup_s"]),
        "rss_peak_mb": raw["rss_peak_mb"],
        # Batch x total nnz over the median forward wall time.
        "edges_per_s": raw["edges_per_forward"] / (median(fwd_ms) / 1e3),
    }
    e2e = {
        "forward_p50_ms": median(fwd_ms),
        "forward_p95_ms": stats.percentile(fwd_ms, 95.0),
    }
    layer = {
        "radixnet.build_s": median(raw["build_s"]),
        "infer.prewarm_s": median(raw["prewarm_s"]),
        "infer.prewarm_rss_mb": raw["prewarm_rss_mb"],
        "infer.gather_layers": raw["gather_layers"],
        "infer.scatter_layers": raw["scatter_layers"],
        "infer.mean_input_density": raw["mean_input_density"],
        "sparse.edges_per_forward": raw["edges_per_forward"],
        "sparse.computed_mb_per_forward": raw["computed_mb_per_forward"],
        "parallel.cpu_per_wall": raw["cpu_s"] / raw["window_s"],
        "parallel.invol_ctx_switches_per_s":
            raw["invol_switches"] / raw["window_s"],
    }
    per_layer = raw.get("layer") or []
    if per_layer:
        # Per forward, the summed time of the layers on each arm; medians
        # over the forwards of the window.
        chains = len(per_layer[0]["ms"])
        batch = raw["batch"]
        for arm, flag in (("gather", 1), ("scatter", 0)):
            ks = [k for k, l in enumerate(per_layer) if l["gather"] == flag]
            if not ks:
                continue
            ms = median([sum(per_layer[k]["ms"][i] for k in ks)
                               for i in range(chains)])
            edges = batch * sum(per_layer[k]["nnz"] for k in ks)
            layer[f"infer.{arm}_ms"] = ms
            layer[f"infer.{arm}_edges_per_s"] = edges / (ms / 1e3)
        layer["infer.slowest_layer_ms"] = median(
            [max(l["ms"][i] for l in per_layer) for i in range(chains)])
    info = {"forward_samples": len(fwd_ms),
            "unsupported_tails": unsupported(
                [("forward_p95_ms", len(fwd_ms), 95.0)]),
            "arms": raw["arms"],
            "reference_nonzeros": raw["reference_nonzeros"],
            "reference_categories": raw["reference_categories"]}
    return gated, e2e, layer, info


def serve_metrics(raw):
    """Metrics of a serving run."""
    slo_s = SLO_MS / 1e3
    *steps, sat_step = raw["steps"]  # open-loop steps, then saturation
    by_step = [[r for r in raw["requests"] if r[0] == i]
               for i in range(len(steps) + 1)]
    *by_step, sat = by_step
    rows = [r for rs in by_step for r in rs]
    # Edges one request's forward covers: its rows times the model's nnz.
    def edges(r):
        return (raw["batch_rows"] if r[1] else 1) * raw["edges_per_row"]
    # Edges answered correctly in the closed-loop saturation step, by
    # completion time.
    sat_done = [(r[5], edges(r)) for r in sat if r[6] == stats.OK
                and sat_step["start"] <= r[5] < sat_step["end"]]
    gated = {
        "setup_s": median(raw["setup_s"]),
        "rss_peak_mb": raw["rss_peak_mb"],
        # The daemon's serving cost: edges answered per second of its CPU
        # time at saturation (see README.md for why not per wall second).
        "edges_per_s": sum(w for _, w in sat_done)
                       / raw["saturation_daemon_cpu_s"],
    }
    e2e = {"fail_share": stats.fail_share(rows + raw["burst"], slo_s,
                                          closed=sat)}
    info = {"slo_ms": SLO_MS, "steps": {}}
    tails = []  # (metric, samples, percentile)
    for step, rs in zip(steps, by_step):
        # Latency percentiles over the requests that completed correctly;
        # the others count in fail_share and as misses in slo_rate_rps.
        lat = [stats.due_latency(r) * 1e3 for r in rs if r[6] == stats.OK]
        inter = [stats.due_latency(r) * 1e3 for r in rs
                 if r[6] == stats.OK and r[1] == 0]
        name = step["name"]
        e2e[f"e2e_p50_ms.{name}"] = median(lat) if lat else 0.0
        e2e[f"e2e_p99_ms.{name}"] = stats.percentile(lat, 99.0) if lat else 0.0
        tails.append((f"e2e_p99_ms.{name}", len(lat), 99.0))
        if name == "high":
            e2e["interactive_p99_ms.high"] = (
                stats.percentile(inter, 99.0) if inter else 0.0)
            tails.append(("interactive_p99_ms.high", len(inter), 99.0))
        acct = stats.account(rs, slo_s)
        acct.update({
            "offered_rate_rps": stats.offered_rate(rs, step["start"], step["end"]),
            "backlog_growing": stats.backlog_growing(rs, step["end"]),
            "generator_lag_p99_ms": stats.percentile(
                [(r[3] - r[2]) * 1e3 for r in rs], 99.0),
        })
        info["steps"][name] = acct
    if any(s["name"] == "high" for s in steps):
        e2e["slo_rate_rps"] = stats.slo_rate(steps, by_step, slo_s)
    acct = stats.account(sat, math.inf)
    acct.update({"in_flight": raw["saturation_in_flight"],
                 "start": sat_step["start"], "end": sat_step["end"]})
    info["steps"][sat_step["name"]] = acct
    info["burst"] = stats.account(raw["burst"], slo_s)

    admin = raw["admin"]
    if admin:
        ms = [(a[2] - a[1]) * 1e3 for a in admin]
        e2e["admin_op_p50_ms"] = median(ms)
        e2e["admin_op_p90_ms"] = stats.percentile(ms, 90.0)
        tails.append(("admin_op_p90_ms", len(ms), 90.0))
        info["admin_ops"] = len(ms)

    srv = raw["server_stats"]
    batches = sum(s["batches"] for s in srv)
    served_rows = sum(s["rows"] for s in srv)
    busy = sum(s["busy_s"] for s in srv)
    admit = [(r[4] - r[3]) * 1e3 for r in rows]
    lag = [(r[3] - r[2]) * 1e3 for r in rows]
    tails += [("net.admit_p99_ms", len(admit), 99.0),
              ("gen.lag_p99_ms", len(lag), 99.0)]
    info["unsupported_tails"] = unsupported(tails)
    layer = {
        "infer.prewarm_s": median(raw["prewarm_s"]),
        "infer.prewarm_rss_mb": raw["prewarm_rss_mb"],
        "parallel.cpu_per_wall": raw["cpu_s"] / raw["proc_wall_s"],
        "parallel.invol_ctx_switches_per_s":
            raw["invol_switches"] / raw["proc_wall_s"],
        "net.admit_p50_ms": median(admit),
        "net.admit_p99_ms": stats.percentile(admit, 99.0),
        "net.rejected": sum(1 for r in rows + sat + raw["burst"]
                            if r[6] == stats.REJECTED),
        "serve.busy_ms_per_batch": busy * 1e3 / batches if batches else 0.0,
        "serve.mean_batch_rows": served_rows / batches if batches else 0.0,
        # The server's Log2 histogram: reads as a power of two microseconds.
        "serve.queue_wait_p50_ms": max(s["queue_wait_p50_s"] for s in srv) * 1e3,
        "serve.shed": sum(s["shed"] for s in srv),
        "serve.expired": sum(s["expired"] for s in srv),
        "serve.errors": sum(s["errors"] for s in srv),
        "serve.failovers": raw["failovers"],
        "store.open_ms": median(raw["store_open_ms"]),
        "store.instantiate_ms": median(raw["store_instantiate_ms"]),
        "serve.saturation_edges_per_s": stats.slice_rate(
            sat_done, sat_step["start"], sat_step["end"], SLICE_S),
        "gen.lag_p99_ms": stats.percentile(lag, 99.0),
        "gen.sent": len(rows),
    }
    for op, name in (("save", "store.save_ms"), ("load", "store.load_ms"),
                     ("restart", "serve.restart_shard_ms")):
        ms = [(a[2] - a[1]) * 1e3 for a in admin if a[0] == op]
        if ms:
            layer[name] = median(ms)
    return gated, e2e, layer, info


def span_summary(spans):
    """Count, total and self time (ms) per span name.  Self time is a
    span's duration minus the part its child spans cover."""
    child_ms = [0.0] * len(spans)
    for name, start, end, request, parent in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    out = {}
    for i, (name, start, end, request, parent) in enumerate(spans):
        s = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        s["count"] += 1
        s["total_ms"] += (end - start) * 1e3
        s["self_ms"] += (end - start) * 1e3 - child_ms[i]
    return out


def write_spans(workload, seed, spans):
    """Write a traced run's spans, [name, start_s, end_s, request,
    parent], where they outlive the run."""
    path = build_dir() / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spans))
    return path


def metrics_of(workload, raw):
    if workload.startswith("challenge-"):
        return challenge_metrics(raw)
    return serve_metrics(raw)


# --- Main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    loadavg = list(os.getloadavg())  # before the build adds its own
    driver, served = build()
    context = host_context()
    context["loadavg_at_start"] = loadavg
    deadline = time.monotonic() + RUN_BUDGET_S

    runs = [False, True] if args.trace else [False]
    measured = {}
    attempted = failed = mismatches = 0
    drift = []
    for traced in runs:
        result = run_driver(driver, served, args.workload, args.seed,
                            args.seconds, traced, deadline)
        attempted += result["attempted"]
        failed += result["failed"]
        mismatches += result["mismatches"]
        if result["drift"]:
            drift.append(result["drift"])
        measured[traced] = metrics_of(args.workload, result["raw"])
        if traced:
            spans = result["raw"]["spans"]
            trace_file = write_spans(args.workload, args.seed, spans)

    gated, e2e, layer, info = measured[bool(args.trace)]
    if args.trace:
        info["trace_file"] = str(trace_file)
        info["spans"] = span_summary(spans)
        base_gated, base_e2e = measured[False][:2]
        base = base_gated | base_e2e
        with_trace = gated | e2e
        layer.update({f"trace_overhead.{k}": with_trace[k] - v
                      for k, v in base.items()})
        # The workload-specific end-to-end metrics, as measured untraced.
        layer.update(base_e2e)
        values = layer
    else:
        values = gated
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # A layer the workload does not exercise reads 0.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    correct = mismatches == 0 and not drift

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": context, "detail": info,
              "all_metrics": dict(sorted((gated | e2e | layer).items())),
              "mismatches": mismatches, "drift": drift}
    print("perfbench report " + json.dumps(report, default=float))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for d in drift:
        print("perfbench: workload drifted: " + d, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
