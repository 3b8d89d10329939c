#!/usr/bin/env python3
"""The dmfstream benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--requests-out FILE] [--trace-out FILE]

Run it from the root of a source checkout. It builds the repository's
`dmfstream` daemon and the benchmark driver (perfbench/driver) as a Release
build under .bench_build/, refuses any other build type, and runs one
workload. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines above it are the
human-readable tables and per-step diagnostics.

Workloads (the seed only shapes the generated inputs; the daemon only ever
sees request lines):

  cold_plan    closed loop, 2 connections, daemon --jobs 2, every request a
               distinct key: the engine, forest and sched layers do the work.
  hot_serve    open-loop Poisson arrivals at 10000/s pipelined over 4
               connections against 64 pre-warmed keys (Zipf 1.1) in several
               equivalent spellings: parse, canonicalize, cache probe and
               the socket. Runnable, but not in BENCHMARK.json: at 60 us a
               request, its figures follow the wake-up latency of a shared
               virtual machine's idle CPUs, which moved its p50 and CPU per
               request by 25-75% between runs of the same code.
  fleet_kill   back-to-back dispatchFleet + FleetResult::toJson(true) with
               wfq on defaultFleet(4), a weight-8 PCR user, 8 seeded light
               users and chip 1 killed mid-run; serial planning (jobs 1).

Request mixes are dealt from shuffled decks (workloads.h), so each seed
sends a different set of plans with the same share of costly ones.

--trace 0 reports the end-to-end metrics (setup_s, latency p50, peak RSS,
CPU per 1000 requests) and prints the throughput. Each run is cut into
windows of 0.5 s (1 s on cold_plan); latency p50 is the mean over the
windows of each window's median, CPU is a total over the run (common.h).
There is no p99: on a shared virtual machine the open loop's tail follows
the neighbours' load from run to run by up to 20x. Failed requests are
reported through "failed"/"attempted" (error rate), not as a metric, since
it is 0 when all is well. --trace 1 runs the traced replay and reports the
per-layer metrics; layers a workload never enters report 0.

--requests-out FILE writes the generated request lines of a served run;
`dmfstream serve --drive FILE` replays them outside the benchmark.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold_plan", "hot_serve", "fleet_kill")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, what):
    with open(log_path, "ab") as log:
        result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        with open(log_path, "rb") as log:
            tail = log.read()[-4000:].decode(errors="replace")
        fail(what + " failed:\n" + tail, 3)


def cache_value(cache_path, key):
    try:
        with open(cache_path) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build(root):
    """Builds the daemon and the driver; returns (daemon, driver) paths."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    repo_build = os.path.join(root, BUILD_DIR, "repo")
    bench_build = os.path.join(root, BUILD_DIR, "perfbench")
    os.makedirs(bench_build, exist_ok=True)
    log = os.path.join(root, BUILD_DIR, "build.log")
    if os.path.exists(log):
        os.remove(log)
    run_logged(["cmake", "-S", root, "-B", repo_build,
                "-DCMAKE_BUILD_TYPE=Release"], log, "configuring the repository")
    build_type = cache_value(os.path.join(repo_build, "CMakeCache.txt"),
                             "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail("refusing a '%s' build of the repository (need Release)"
             % build_type, 3)
    run_logged(["cmake", "--build", repo_build, "--target", "dmfstream",
                "-j", jobs], log, "building dmfstream")
    run_logged(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                bench_build, "-DCMAKE_BUILD_TYPE=Release",
                "-DDMF_REPO_BUILD=" + repo_build], log,
               "configuring the benchmark driver")
    run_logged(["cmake", "--build", bench_build, "-j", jobs], log,
               "building the benchmark driver")
    return (os.path.join(repo_build, "tools", "dmfstream"),
            os.path.join(bench_build, "perfbench_driver"))


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def expected_metrics(root, trace):
    """The metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--requests-out", default="")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a dmfstream source checkout "
                 "(missing %s)" % needed)
    if not args.seconds > 0:
        fail("--seconds must be positive")

    daemon, driver = build(root)
    work_dir = os.path.join(root, BUILD_DIR, "run-%s-%d-%d"
                            % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    trace_out = args.trace_out
    if args.trace and not trace_out:
        trace_dir = os.path.join(root, BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-seed%d.json"
                                 % (args.workload, args.seed))

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--daemon", daemon, "--work-dir", work_dir]
    if args.requests_out:
        cmd += ["--requests-out", os.path.abspath(args.requests_out)]
    if trace_out:
        cmd += ["--trace-out", os.path.abspath(trace_out)]

    # The driver and every daemon it spawns share one process group, so a
    # failed or timed-out run is torn down as a whole.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGTERM, lambda *a: sys.exit(143))
    try:
        try:
            out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop_group()
            proc.communicate()
            fail("workload %s timed out after %d s"
                 % (args.workload, RUN_TIMEOUT_S), 4)
    finally:
        stop_group()
        proc.wait()
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n") if out else []
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        fail("driver exited with status %d" % proc.returncode, 5)
    sys.stderr.write(err)
    result = json.loads(lines[-1])
    names = expected_metrics(root, args.trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        fail("driver metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(names)), 5)
    print("run: nproc %d, build Release, commit %s"
          % (os.cpu_count() or 0, git_commit(root)))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
