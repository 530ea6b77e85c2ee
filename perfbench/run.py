#!/usr/bin/env python3
"""Served open-loop benchmark of lsmssd.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library from ./src and the benchmark from ./perfbench into
.bench_build/perfbench (CMake, RelWithDebInfo), runs the benchmark's
self-tests once per build, then runs one workload against an in-process Db
behind a net::Server on loopback. Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero when the build, a self-test
or a correctness check fails.

--trace 0 (end to end): set-up timed several times (median), a closed-loop
peak phase (4 connections, one request in flight each; median of 7 rounds
on fresh connections), then S seconds of open-loop arrivals at the
workload's fixed rate over 2 pipelined connections, reconnected every 2 s.
Latency is timed from each request's due time. Every reply is checked; at
the end the whole database is audited against the generator's model,
scrubbed, and checked for leaked blocks. Latency statistics pool the 1 s
windows in which the hypervisor stole at most 2% of the CPUs, running the
phase again on the continuing stream (at most 4 attempts) until there are
3 of them; an attempt in which the generator fell behind its schedule is
discarded. Set-up and peak take the median of their quiet repetitions.

--trace 1 (per layer): the same served phases, then the same request stream
replayed against an in-process Db (db layer; net self time is served minus
in-process latency) and, single-threaded, against a bare LsmTree over
timing decorators of its block device and merge policy (lsm, storage and
policy layers). Spans go to .bench_build/perfbench/work/spans-NAME.csv.

Workloads (offered rates are constants in src/workloads.cc):
  read-zipf     YCSB-C, zipfian 0.99, 200k records (~9k blocks, about nine
                times the block cache), 10k GET/s. Net, Db read path,
                lookups, bloom, cache and device reads; WAL and compaction
                idle.
  write-steady  the paper's Normal(0.5%, 10k) 50/50 insert/delete mix,
                preloaded to three on-SSD levels, 5k writes/s. WAL group
                commit, background flush and merge, merge policy, device
                writes. Counts only when blocks_written_per_mb of the two
                halves of the phase agree within 15%.
  mixed-a       YCSB-A, 50% GET / 50% PUT, zipfian, 15k records inside the
                cache, 5k requests/s. Both paths at once: write-path work
                shows up as read tail.

The end-to-end JSON carries the metrics every workload defines: p50_us and
p75_us cover GETs on read-zipf and mixed-a and writes on write-steady, and
device_blocks_per_mb counts device block reads and writes. Higher
percentiles are printed but not gated: on a shared VM their spread over
repeated runs exceeds any bound the comparison allows. The per-op-type
latencies with their p99, p90, the paper's blocks_written_per_mb with its
half-phase values, failed_frac and the generator's lateness are printed on
the lines before it.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(OUT, "build")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_name):
    """Runs cmd with its output in a log file; prints the tail on failure."""
    log = os.path.join(OUT, log_name)
    with open(log, "w") as f:
        rc = subprocess.call(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT)
    if rc != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("%s failed (exit %d), log in %s" % (" ".join(cmd), rc, log))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no lsmssd sources at %s/src" % ROOT)
    os.makedirs(OUT, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], "configure.log")
    run_logged(["cmake", "--build", BUILD, "-j4"], "build.log")
    selftest = os.path.join(BUILD, "perfbench_selftest")
    stamp = os.path.join(OUT, "selftest.ok")
    if (not os.path.exists(stamp)
            or os.path.getmtime(stamp) < os.path.getmtime(selftest)):
        run_logged([selftest, os.path.join(OUT, "selftest")], "selftest.log")
        open(stamp, "w").close()


def build_type():
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def commit():
    """The git commit when run inside a repository, else a digest of src/
    and perfbench/ that names the sources the same way."""
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def fs_type(path):
    out = subprocess.run(["stat", "-f", "-c", "%T", path],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    print("record host_cpus=%d kernel=%s commit=%s build=%s fs=%s"
          % (os.cpu_count(), platform.release(), commit(), build_type(),
             fs_type(work)), flush=True)

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
    finally:
        rc = proc.wait()
        timer.cancel()
    if rc != 0 or result is None:
        fail("benchmark exited %d without a result" % rc)

    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(want)))
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
