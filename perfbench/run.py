#!/usr/bin/env python3
"""End-to-end benchmark of featlib: fit, bulk transform and daemon serving.

One workload, one result (the last stdout line is the result object):

    python3 perfbench/run.py --workload fit_model_bound --seed 1 --seconds 15 --trace 0

Every workload, untraced then traced, each metric printed by name and unit;
exits non-zero when any output check fails:

    python3 perfbench/run.py --all [--seed 1] [--seconds 15]

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which builds the library from ../src) into .bench_build/perfbench;
later runs rebuild incrementally. Each run writes its generated inputs to a
directory under .bench_build/runs and removes it afterwards; traced runs keep
their Chrome trace-event JSON under .bench_build/traces.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "featbench")

WORKLOADS = ["fit_model_bound", "fit_scan_bound", "transform_bulk", "serve_point"]
SERVE_BATCH_ROWS = 32

# Per-layer metric -> the end-to-end metric and workload it should move
# (metric names as the --all report prints them).
PAIRINGS = {
    "query.evaluate_many_s": "fit_s @ fit_scan_bound",
    "query.prepare_s": "fit_s @ fit_scan_bound",
    "query.aggregate_s": "fit_s @ fit_scan_bound",
    "query.builds_run": "fit_s @ fit_scan_bound",
    "query.group_index_builds": "fit_s @ fit_scan_bound",
    "query.mask_builds": "fit_s @ fit_scan_bound",
    "query.materializations": "fit_s @ fit_scan_bound",
    "query.compile_hit_rate": "fit_s @ fit_scan_bound",
    "query.compile_serving_s": "setup_s @ transform_bulk, serve_point",
    "query.serving_exec_s": "serve_p50_ms @ serve_point; transform_rows_per_s @ transform_bulk",
    "core.qti_s": "fit_s @ both fits",
    "core.warmup_s": "fit_s @ both fits",
    "core.generate_s": "fit_s @ both fits",
    "core.proxy_evals": "fit_s @ both fits",
    "core.model_evals": "fit_s @ both fits",
    "core.proxy_cache_hit_rate": "fit_s @ both fits",
    "core.model_cache_hit_rate": "fit_s @ both fits",
    "core.failed_candidates": "fit_s @ both fits",
    "core.feature_cache_evictions": "fit_s @ both fits",
    "core.checkpoint_write_s": "fit_s @ fit_model_bound",
    "core.checkpoint_bytes": "fit_s @ fit_model_bound",
    "core.checkpoints_written": "fit_s @ fit_model_bound",
    "ml.model_score_s": "fit_s @ fit_model_bound",
    "ml.train_and_score_s": "fit_s @ fit_model_bound",
    "stats.proxy_score_s": "fit_s @ fit_scan_bound",
    "hpo.suggest_s": "fit_s @ both fits (predicted small)",
    "hpo.observe_s": "fit_s @ both fits (predicted small)",
    "serve.encode_s": "serve_p50_ms @ serve_point (predicted <1%)",
    "serve.decode_s": "serve_p50_ms @ serve_point (predicted <1%)",
    "serve.round_trip_overhead_s": "serve_p50_ms @ serve_point",
    "serve.batcher_queue_wait_s": "serve_p50_ms @ serve_point (a lone request waits out the batch window)",
    "serve.mean_flush_size": "split.serving_exec_share_of_nproc_p50 (serve_point runs one connection)",
    "serve.coalesced_flush_share": "split.serving_exec_share_of_nproc_p50 (serve_point runs one connection)",
    "serve.registry_acquire_s": "setup_s @ serve_point",
    "serve.registry_warm_bytes": "peak_rss_mb @ serve_point",
    "table.csv_read_s": "setup_s @ serve_point",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return os.cpu_count() or 1


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "core", "feataug.h"))):
        log("perfbench: featlib sources not found in %s" % ROOT)
        return False
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", str(nproc())]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_one(workload, seed, seconds, trace, deadline):
    """Prepares inputs, runs the workload, returns (info, result) or None."""
    run_dir = os.path.join(".bench_build", "runs", "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, run_dir))
    common = ["--workload", workload, "--seed", str(seed), "--dir", run_dir]
    try:
        prep = subprocess.run([BINARY, "prepare"] + common, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=max(1.0, deadline - time.time()))
        if prep.returncode != 0:
            log("perfbench: prepare failed (%d)" % prep.returncode)
            return None
        cmd = [BINARY, "run"] + common + ["--seconds", str(seconds), "--trace", str(trace)]
        if trace:
            trace_dir = os.path.join(".bench_build", "traces")
            os.makedirs(os.path.join(ROOT, trace_dir), exist_ok=True)
            cmd += ["--trace-out", os.path.join(trace_dir, "%s-seed%d.json" % (workload, seed))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        log("perfbench: %s seed %d timed out" % (workload, seed))
        return None
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        log("perfbench: run failed (%d)" % proc.returncode)
        return None
    try:
        info = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: unreadable output")
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or "host" not in info:
        log("perfbench: malformed result")
        return None
    return info, result


def named_metrics(workload, metrics, detail):
    """The end-to-end metrics (and ungated tails) under per-workload names."""
    v = {k: m["value"] for k, m in metrics.items()}
    d = {k: m["value"] for k, m in detail.items()}
    kind = "fit" if workload.startswith("fit_") else workload.split("_")[0]
    out = [("setup_s", v["setup_s"], "s"), ("peak_rss_mb", v["peak_rss_mb"], "MB")]
    if kind == "fit":
        out += [("fit_s", v["op_p50_ms"] / 1e3, "s"),
                ("fit_test_auc", v["test_auc"], "auc"),
                ("fit_rows_per_s", v["rows_per_s"], "1/s")]
    elif kind == "transform":
        out += [("transform_rows_per_s", v["rows_per_s"], "1/s"),
                ("transform_p50_ms", v["op_p50_ms"], "ms"),
                ("served_plan_test_auc", v["test_auc"], "auc")]
    else:
        out += [("serve_rps", v["rows_per_s"] / SERVE_BATCH_ROWS, "1/s"),
                ("serve_p50_ms", v["op_p50_ms"], "ms"),
                ("served_plan_test_auc", v["test_auc"], "auc")]
    out.append(("%s_cpu_ms_per_op" % kind, v["cpu_ms_per_op"], "ms"))
    for key in ("op_p90_ms", "op_p99_ms", "op_max_ms", "ops", "host_gauge_ms"):
        if key in d:
            name = key.replace("op_", kind + "_") if key.startswith("op") else key
            out.append(("%s (ungated)" % name, d[key], detail[key]["unit"]))
    return out


def run_all(seed, seconds):
    ok = True
    for workload in WORKLOADS:
        plain = run_one(workload, seed, seconds, 0, time.time() + 600)
        traced = run_one(workload, seed, seconds, 1, time.time() + 600)
        if plain is None or traced is None:
            print("%s: run failed" % workload)
            ok = False
            continue
        info, result = plain
        _, tresult = traced
        good = result["correct"] and tresult["correct"] and result["failed"] == 0
        ok = ok and good
        print("== %s  seed %d  correct=%s  attempted=%d failed=%d" % (
            workload, seed, str(good).lower(), result["attempted"], result["failed"]))
        print("   host %s" % json.dumps(info["host"], sort_keys=True))
        for name, value, unit in named_metrics(workload, result["metrics"],
                                               info.get("detail", {})):
            print("   %-24s %14.6g %s" % (name, value, unit))
        m, t = result["metrics"], tresult["metrics"]
        for key in ("op_p50_ms", "cpu_ms_per_op", "rows_per_s"):
            base, under = m[key]["value"], t["traced." + key]["value"]
            print("   tracing overhead %-10s traced %.6g vs untraced %.6g (%+.1f%%)" % (
                key, under, base, 100.0 * (under / base - 1.0) if base else 0.0))
        for name, metric in t.items():
            if name.startswith("traced."):
                continue
            moves = PAIRINGS.get(name, "")
            print("   %-34s %14.6g %-6s %s" % (
                name, metric["value"], metric["unit"], ("-> " + moves) if moves else ""))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    if not build():
        log("perfbench: build failed")
        return 1
    if args.all:
        return run_all(args.seed, args.seconds)
    # A run must end within 180 s of its start once the build is done.
    out = run_one(args.workload, args.seed, args.seconds, args.trace,
                  time.time() + 170)
    if out is None:
        return 1
    info, result = out
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
