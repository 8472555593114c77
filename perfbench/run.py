#!/usr/bin/env python3
"""Runs one workload of the CXP/1 benchmark end to end.

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds cxml_serverd and perfbench_load
(Release, under $CARGO_TARGET_DIR or .bench_build), starts the server
with its shipped defaults, drives it with perfbench_load, checks every
answer (and, for durable_edits, WAL recovery into a fresh store), prints
a report and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
the per_layer ones (from a traced wire phase plus an in-process replay
of the same seeded inputs). Workloads and settings: perfbench/spec.json.

The end-to-end figures use the time slices and set-up rounds with the
least host steal; a --trace 0 run in which even those saw heavy steal
(see spec.json "host_steal") is unqualified: it prints its report but
no result line and exits with code 3.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_reads", "cold_reads", "durable_edits")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("CMakeLists.txt", "src", "examples/cxml_serverd.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("repository sources not found (%s is missing)" % need)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed", 1)
    return build_dir


def start_server(build_dir, run_dir, name, durable):
    args = [os.path.join(build_dir, "cxml_serverd"), "--content-chars", "0"]
    if durable:
        args += ["--data-dir", os.path.join(run_dir, name + "-data")]
    log = open(os.path.join(run_dir, name + ".log"), "w+")
    proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT)
    deadline = time.time() + 30
    while time.time() < deadline:
        log.seek(0)
        for line in log.read().splitlines():
            if line.startswith("listening on "):
                return proc, int(line.rsplit(":", 1)[1])
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    stop_server(proc)
    fail("server did not start", 1)


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_tool(args, timeout):
    try:
        return subprocess.call(args, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % os.path.basename(args[0]), 1)


def fmt(value):
    return "%.6g" % value if isinstance(value, (int, float)) else str(value)


def units(bench, spec):
    """Metric name -> unit: BENCHMARK.json for the metrics it lists,
    spec.json for those printed and kept in result.json only."""
    out = {}
    for section in ("end_to_end", "per_layer"):
        for name, entry in spec[section].items():
            if "unit" in entry:
                out[name] = entry["unit"]
        for m in bench[section]:
            out[m["name"]] = m["unit"]
    return out


def report(bench, spec, result, trace, recovery):
    unit = units(bench, spec)
    w = result["workload"]
    print("== %s (seed %d, %s) ==" % (w, result["seed"],
                                    "traced" if trace else "untraced"))
    print("   " + spec["latency_label"])
    print("   facts: " + json.dumps(result["facts"]))
    print("   setup rounds (s): %s; host steal %% %s" % (
        ", ".join(fmt(s) for s in result["setup_rounds_s"]),
        ", ".join("%.1f" % x for x in result["setup_steal_pct"])))
    slices = result["slices"]
    print("   per time slice: host steal %% %s; read p50 us %s" % (
        ", ".join("%.1f" % x for x in slices["steal_pct"]),
        ", ".join(fmt(x) for x in slices["read_p50_us"])))
    print("   end-to-end figures use the %d of %d slices and %d of %d set-up "
          "rounds with the least steal (at most %s%% each): run %s" % (
              result["used_slices"], len(slices["steal_pct"]),
              result["used_rounds"], len(result["setup_rounds_s"]),
              fmt(result["max_steal_pct"]),
              "qualified" if result["qualified"] else "NOT qualified"))
    for op, t in sorted(result["timings"].items()):
        line = "   %-11s n=%-7d p50=%s us" % (op, t["n"], fmt(t.get("p50", 0)))
        if "tail" in t:
            line += "  %s=%s us" % (t["tail"], fmt(t["tail_value"]))
        print(line)
    print("   end-to-end:")
    for name, value in sorted(result["end_to_end"].items()):
        print("     %-20s %14s %s" % (name, fmt(value), unit.get(name, "")))
    print("   attempted=%d failed=%d rejected (designed)=%d oracle-checked=%d "
          "distinct answers=%d" % (result["attempted"], result["failed"],
                                   result["rejected"], result["oracle_checked"],
                                   result["distinct_answers"]))
    if recovery is not None:
        print("   recovery: " + json.dumps(recovery))
    for p in result["problems"]:
        print("   PROBLEM: " + p)
    if not trace:
        return
    layers = result["per_layer"]
    print("   per-layer (-> the end-to-end metric it should move):")
    for name, value in sorted(layers.items()):
        if name.startswith("attr."):
            continue
        key = name if name in spec["per_layer"] else (
            "xpath.eval_us.<family>.<slash|axis>" if name.startswith("xpath.eval_us.") else "")
        entry = spec["per_layer"].get(key, {})
        print("     %-40s %14s %-6s -> %s (%s)" % (
            name, fmt(value), unit.get(key, ""), entry.get("moves", "?"),
            entry.get("on", "?")))
    print("   self time per replayed request (us): " +
          json.dumps(result["self_us_per_request"]))
    read_p50 = result["timings"].get("read", {}).get("p50", 0)
    attr_eval = layers.get("attr.eval_us", 0)
    print("   per replayed read: net %s us, service %s us, xpath/xquery %s us "
          "(%.1f%% of wire read_p50_us %s)" % (
              fmt(layers.get("attr.net_us", 0)),
              fmt(layers.get("attr.service_us", 0)), fmt(attr_eval),
              100.0 * attr_eval / read_p50 if read_p50 else 0, fmt(read_p50)))
    print("   cache hit ratio %s" % fmt(layers.get("service.cache_hit_ratio", 0)))
    if w == "durable_edits":
        path = [("storage.clone_us", layers.get("storage.clone_us", 0)),
                ("edit.apply_us", layers.get("edit.apply_us", 0)),
                ("service.publish_us", layers.get("service.publish_us", 0)),
                ("wal.append_us", layers.get("wal.append_us", 0)),
                ("wal.fsync_wait_us", layers.get("wal.fsync_wait_us", 0))]
        commit = result["timings"].get("commit", {}).get("p50", 0)
        print("   commit path: " + ", ".join("%s %s" % (n, fmt(v)) for n, v in path) +
              "; sum %s us next to commit p50 %s us" % (
                  fmt(sum(v for _, v in path)), fmt(commit)))
        copies = result["facts"]["documents"]
        print("   checkpoints %s over %d copies" % (
            fmt(layers.get("wal.checkpoints", 0)), copies))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    build_dir = build()

    run_dir = os.path.join(ROOT, ".bench_run", "%s-%d" % (args.workload, args.seed))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    durable = args.workload == "durable_edits"
    out = os.path.join(run_dir, "result.json")

    # The measured server, and a second one that takes the extra timed
    # set-up rounds so their churn stays out of the measured memory.
    servers = []
    try:
        servers.append(start_server(build_dir, run_dir, "server", durable))
        servers.append(start_server(build_dir, run_dir, "setup", durable))
        (server, port), (_, setup_port) = servers
        code = run_tool([os.path.join(build_dir, "perfbench_load"), "run",
                         "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--port", str(port), "--setup-port", str(setup_port),
                         "--out", out], timeout=150)
        rss = peak_rss_mb(server.pid)
    finally:
        for proc, _ in servers:
            stop_server(proc)
    if code != 0:
        fail("perfbench_load exited with %d" % code, 1)
    with open(out) as f:
        result = json.load(f)

    recovery = None
    if durable:
        rec_out = os.path.join(run_dir, "recovery.json")
        code = run_tool([os.path.join(build_dir, "perfbench_load"), "recover",
                         "--data-dir", os.path.join(run_dir, "server-data"),
                         "--expect", out + ".expect",
                         "--out", rec_out], timeout=60)
        if code != 0:
            fail("recovery check exited with %d" % code, 1)
        with open(rec_out) as f:
            recovery = json.load(f)

    result["end_to_end"]["peak_rss_mb"] = rss
    report(bench, spec, result, args.trace == 1, recovery)

    correct = result["correct"] and (recovery is None or recovery["ok"])
    if correct and not args.trace and not result["qualified"]:
        fail("unqualified run: host steal exceeded %s%% in one of the time "
             "slices or set-up rounds its end-to-end figures would use, so "
             "they are not reported" % fmt(result["max_steal_pct"]), 3)
    failed = result["failed"] + (0 if recovery is None or recovery["ok"] else 1)
    source = result["per_layer"] if args.trace else result["end_to_end"]
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in source:
            fail("metric %s was not measured" % m["name"], 1)
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
