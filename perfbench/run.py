#!/usr/bin/env python3
"""Repository benchmark: builds the harness, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness (perfbench/harness.cc) is built
in Release mode into $CARGO_TARGET_DIR (default .bench_build) with CMake.
Human-readable results go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are
its per-layer metrics, and the span trace is written under the build
directory. The exit code is 0 only when every output check passed.

See perfbench/README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig7_mixed", "catalog_serial", "catalog_sharded_faults",
             "sizing_queries")
SIM_WORKLOADS = WORKLOADS[:3]
HARNESS_TIMEOUT_S = 160
SETUP_PROCESSES = 41  # fresh processes timed for setup_s
SYSTEM_QUERY_EVERY = 20  # as kSystemQueryEvery in harness.cc

# Per-layer metrics (--trace 1), in BENCHMARK.json order, with units.
PER_LAYER = [
    ("sim.event_queue.hold_ns", "ns"),
    ("sim.event_queue.events_per_viewer", "count"),
    ("sim.vcr_behavior.sample_ns", "ns"),
    ("common.rng.gamma_ns", "ns"),
    ("sim.partition_schedule.lookup_ns", "ns"),
    ("sim.simulator.ns_per_viewer", "ns"),
    ("sim.server.ns_per_viewer", "ns"),
    ("sim.sharded_server.ns_per_viewer.shards1", "ns"),
    ("sim.sharded_server.ns_per_viewer.shards4", "ns"),
    ("sim.sharded_server.speedup", "ratio"),
    ("sim.sharded_server.critical_path_s", "s"),
    ("sim.sharded_server.barrier_wait_s", "s"),
    ("sim.sharded_server.coordinator_fold_s", "s"),
    ("sim.sharded_server.imbalance", "ratio"),
    ("sim.sharded_server.messages", "count"),
    ("sim.simulator.hit_ratio", "ratio"),
    ("storage.resource_pool.refused_ratio", "ratio"),
    ("sim.degradation.queue_grant_ratio", "ratio"),
    ("sim.degradation.forced_reclaims", "count"),
    ("storage.fault_injector.disk_failures", "count"),
    ("core.hit_model.eval_us", "us"),
    ("core.sizing.curve_point_us", "us"),
    ("obs.trace_overhead_frac", "ratio"),
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_harness():
    """Configures (once) and builds the Release harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    log_path = os.path.join(build_dir(), "perfbench-build.log")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "2", "--target",
                  "vod_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("build failed; see " + log_path)
    return os.path.join(out, "vod_perfbench")


def host_fingerprint(build):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = "none", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                stderr=subprocess.DEVNULL).strip()
            dirty = subprocess.check_output(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench"], text=True, stderr=subprocess.DEVNULL) != ""
        except (OSError, subprocess.CalledProcessError):
            pass
    # An exported tree has no git metadata; a digest of the measured
    # sources identifies the code either way.
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": build.get("compiler"),
        "build_type": build.get("build_type"),
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": h.hexdigest()[:16],
    }


def setup_times(exe, args):
    """Set-up time of fresh harness processes, each from process start to
    the workload's inputs built."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only", "1"]
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail("set-up process exited with code %d" % proc.returncode)
        times += [r["cpu_seconds"] for r in map(json.loads, proc.stdout.splitlines())
                  if r["kind"] == "setup"]
    return times


def run_harness(exe, args):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.min_jobs is not None:
        cmd += ["--min-jobs", str(args.min_jobs)]
    if args.plant:
        cmd += ["--plant", "1"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("harness timed out")
    if proc.returncode != 0:
        fail("harness exited with code %d" % proc.returncode)
    records = {}
    for line in out.splitlines():
        rec = json.loads(line)
        records.setdefault(rec["kind"], []).append(rec)
    return records


def quantile_nearest_rank(values, q):
    s = sorted(values)
    k = max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))
    return s[k]


def combined_digest(jobs):
    h = hashlib.sha256()
    for j in jobs:
        h.update(j["digest"].encode())
    return h.hexdigest()[:16]


def simulated_ratios(jobs):
    total = {k: sum(j[k] for j in jobs) for k in (
        "resumes", "releases", "refused", "granted", "queued", "queue_grants",
        "forced_reclaims", "disk_failures")}
    attempts = total["refused"] + total["granted"]
    return {
        "sim.simulator.hit_ratio": total["releases"] / total["resumes"],
        "storage.resource_pool.refused_ratio":
            total["refused"] / attempts if attempts else 0.0,
        "sim.degradation.queue_grant_ratio":
            total["queue_grants"] / total["queued"] if total["queued"] else 0.0,
        "sim.degradation.forced_reclaims": float(total["forced_reclaims"]),
        "storage.fault_injector.disk_failures": float(total["disk_failures"]),
    }


def job_rate(jobs, sim, clock="cpu_seconds"):
    """Work per CPU second (or per wall second with clock="seconds"). For
    simulation jobs, the median of the per-job viewer rates, so that the
    occasional 2x slow job does not move it. For sizing, queries over their
    summed time: the timed queries make whole passes over the query pool,
    whose costs are heavy-tailed, so a median would depend on which queries
    the seed drew."""
    if sim:
        return statistics.median(j["work"] / j[clock] for j in jobs)
    return len(jobs) / sum(j[clock] for j in jobs)


def sharded_internals(records):
    """Critical path, barrier wait, coordinator fold and imbalance of the
    ladder's wide sharded rung, folded from its profiler lanes; the median
    over the rung's repetitions."""
    folds = []
    for lanes in records.get("lanes", []):
        if lanes["rung"] != "shards4":
            continue
        work, barrier_s, fold_s = {}, 0.0, 0.0
        for ev in lanes["chrome"]:
            if ev.get("ph") != "X":
                continue
            if ev["name"] == "shard_work":
                work.setdefault(ev["tid"], []).append(ev["dur"] * 1e-6)
            elif ev["name"] == "barrier_wait":
                barrier_s += ev["dur"] * 1e-6
            elif ev["name"] == "coordinator_fold":
                fold_s += ev["dur"] * 1e-6
        # Each shard lane holds one shard_work span per window, in order.
        windows = list(zip(*work.values(), strict=True))
        sum_max = sum(max(w) for w in windows)
        sum_mean = sum(statistics.fmean(w) for w in windows)
        folds.append({
            "sim.sharded_server.critical_path_s": sum_max,
            "sim.sharded_server.barrier_wait_s": barrier_s,
            "sim.sharded_server.coordinator_fold_s": fold_s,
            "sim.sharded_server.imbalance":
                sum_max / sum_mean if sum_mean > 0 else 0.0,
        })
    if not folds:
        fail("no profiler lanes from the wide sharded rung")
    return {name: statistics.median(f[name] for f in folds) for name in folds[0]}


def self_times(records):
    """Per-layer self time: span duration minus the union of its children."""
    spans = []
    for s in records.get("span", []):
        spans.append({"id": "s%d" % s["id"], "name": s["name"], "job": s["job"],
                      "parent": "s%d" % s["parent"] if s["parent"] >= 0 else None,
                      "start_us": s["start_us"], "end_us": s["end_us"]})
    lane_layer = {"shard_work": "sim.sharded_server.shard:shard_work",
                  "barrier_wait": "sim.sharded_server.shard:barrier_wait",
                  "coordinator_fold":
                      "sim.sharded_server.coordinator:coordinator_fold"}
    for n, lanes in enumerate(records.get("lanes", [])):
        for i, ev in enumerate(lanes["chrome"]):
            if ev.get("ph") != "X":
                continue
            start = lanes["offset_us"] + ev["ts"]
            spans.append({"id": "l%d.%d" % (n, i),
                          "name": lane_layer.get(ev["name"], ev["name"]),
                          "job": lanes["job"], "parent": "s%d" % lanes["parent"],
                          "start_us": start, "end_us": start + ev["dur"]})
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    layers = {}
    for s in spans:
        lo, hi = s["start_us"], s["end_us"]
        covered, cursor = 0.0, lo
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_us"]):
            a, b = max(c["start_us"], cursor), min(c["end_us"], hi)
            if b > a:
                covered += b - a
                cursor = b
        layer = s["name"].split(":", 1)[0]
        entry = layers.setdefault(layer, {"spans": 0, "self_s": 0.0})
        entry["spans"] += 1
        entry["self_s"] += (hi - lo - covered) * 1e-6
    return spans, layers


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-jobs", type=int, default=None,
                   help="jobs (queries) always run and digested; default per workload")
    p.add_argument("--plant", action="store_true",
                   help="self-test: corrupt one output so its check must fail")
    args = p.parse_args()

    exe = build_harness()
    setup_s = setup_times(exe, args)
    rec = run_harness(exe, args)
    # The harness itself refuses to run unless built as Release.
    host = host_fingerprint(rec["build"][0])
    sim = args.workload in SIM_WORKLOADS
    end = rec["end"][0]
    attempted, failed = end["attempted"], end["failed"]
    setup = rec["setup"][0]
    jobs = rec.get("job", [])
    # Job 0 (for sizing, the first block of queries) warms caches and
    # allocators; it is checked and digested but not timed. Traced runs
    # alternate untraced and traced jobs (for sizing, blocks of queries).
    warm = 1 if sim else SYSTEM_QUERY_EVERY
    timed = [j for j in jobs if j["id"] >= warm and not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    prefix = [j for j in jobs if j["in_prefix"]]
    latencies_ms = [j["seconds"] * 1e3 for j in timed]
    cpu_latencies_ms = [j["cpu_seconds"] * 1e3 for j in timed]
    if not timed or (args.trace and not traced):
        fail("too few jobs to time; raise --seconds or --min-jobs")

    print("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: " + json.dumps(host, sort_keys=True))
    for c in rec.get("check", []):
        print("check %-36s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                       c["detail"]))

    # The gated metrics count CPU time, which the time other tenants of a
    # shared host hold the job's core does not inflate; the wall-clock
    # figures are printed beside them.
    rate = job_rate(timed, sim, "seconds")
    cpu_rate = job_rate(timed, sim)
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "work_per_cpu_s": (cpu_rate, "1/s"),
        "cpu_ms_p50": (statistics.median(cpu_latencies_ms), "ms"),
        "peak_rss_mb": (rec["rss"][0]["peak_kib"] / 1024.0, "MiB"),
    }

    # The full table: every end-to-end metric that applies here.
    print("end-to-end (%d untraced %s timed of %d run; the first %d warm up):"
          % (len(timed), "jobs" if sim else "queries", len(jobs), warm))
    print("  %-18s %14.6g s    process start to inputs built, CPU time, median "
          "of %d fresh processes (range %.6g-%.6g s; this run's own: %.6g s "
          "CPU, %.6g s wall from static initialization)" % (
              "setup_s", e2e["setup_s"][0], len(setup_s), min(setup_s),
              max(setup_s), setup["cpu_seconds"], setup["seconds"]))
    if sim:
        print("  %-18s %14.6g 1/s  admitted viewers per host second, median "
              "of %d jobs" % ("viewers_per_s", rate, len(timed)))
        print("  %-18s %14.6g 1/s  the same per CPU second" % (
            "viewers_per_cpu_s", cpu_rate))
        print("  %-18s %14.6g ms   host time per job" % (
            "job_ms_p50", statistics.median(latencies_ms)))
        print("  %-18s %14.6g ms   CPU time per job" % (
            "job_cpu_ms_p50", e2e["cpu_ms_p50"][0]))
    else:
        n = len(latencies_ms)
        beyond = sum(1 for v in latencies_ms
                     if v > quantile_nearest_rank(latencies_ms, 0.99))
        print("  %-18s %14.6g ms   median of %d queries" % (
            "query_ms_p50", statistics.median(latencies_ms), n))
        print("  %-18s %14.6g ms   nearest rank of %d queries, %d beyond%s" % (
            "query_ms_p99", quantile_nearest_rank(latencies_ms, 0.99), n, beyond,
            "" if beyond >= 10 else " (fewer than 10: not a valid p99)"))
        print("  %-18s %14.6g ms   CPU time, median of %d queries" % (
            "query_cpu_ms_p50", e2e["cpu_ms_p50"][0], n))
        print("  %-18s %14.6g 1/s  queries per host second" % ("queries_per_s", rate))
        print("  %-18s %14.6g 1/s  queries per CPU second" % (
            "queries_per_cpu_s", cpu_rate))
    print("  %-18s %14.6g MiB  peak resident memory (VmHWM)" % (
        "peak_rss_mb", e2e["peak_rss_mb"][0]))
    print("  %-18s %14.6g      %d failed of %d attempted" % (
        "fail_frac", failed / attempted, failed, attempted))
    if args.workload == "fig7_mixed":
        phit = statistics.fmean(j["phit"] for j in prefix)
        print("  %-18s %14.6g      |simulated %.6f - AnalyticHitModel %.6f|, "
              "mean of the first %d jobs" % (
                  "phit_abs_err", abs(phit - setup["reference_phit"]), phit,
                  setup["reference_phit"], len(prefix)))

    # Simulated-output identity: the same seed must reproduce these exactly.
    print("identity: report_digest=%s over the first %d %s" % (
        combined_digest(prefix), len(prefix), "jobs" if sim else "queries"))
    ratios = simulated_ratios(prefix) if sim else {}
    for name, value in ratios.items():
        print("identity: %-38s %.17g" % (name, value))

    metrics = {}
    if args.trace == 0:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        ladder = {r["name"]: r for r in rec.get("ladder", [])}
        values = {name: ladder[name]["value"] for name in ladder}
        internals = sharded_internals(rec)
        values.update(internals)
        values.update(ratios)
        values["obs.trace_overhead_frac"] = (
            job_rate(timed, sim) / job_rate(traced, sim) - 1.0)
        print("per-layer ladder (sized from this workload's own report):")
        for r in rec.get("ladder", []):
            print("  %-44s %14.6g %-5s %s" % (r["name"], r["value"], r["unit"],
                                             r["note"]))
        for name, value in internals.items():
            print("  %-44s %14.6g %-5s %s" % (
                name, value, dict(PER_LAYER)[name],
                "from the profiler lanes of the wide sharded rung"))
        spans, layers = self_times(rec)
        print("self time by layer (traced jobs and ladder calls):")
        for layer, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print("  %-44s %10.4f s  %6d spans" % (layer, entry["self_s"],
                                                  entry["spans"]))
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-seed%d.json" % (
            args.workload, args.seed))
        with open(trace_path, "w") as f:
            json.dump({"host": host, "workload": args.workload,
                       "seed": args.seed, "spans": spans, "layers": layers,
                       "ladder": rec.get("ladder", []),
                       "sharded_internals": internals}, f)
        print("trace: %d spans written to %s" % (
            len(spans), os.path.relpath(trace_path, ROOT)))
        missing = [name for name, _ in PER_LAYER if name not in values]
        if missing:
            fail("per-layer metrics missing: " + ", ".join(missing))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
