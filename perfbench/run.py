#!/usr/bin/env python3
"""Builds and runs the Spindle serving benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload search --seed 1 --seconds 12 --trace 0

Run from the repository root. Builds the libraries from ./src plus the
load generator in perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build, runs one workload, keeps a copy of the result under
<build dir>/results and prints the result as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}, with BENCHMARK.json's
end-to-end metrics (--trace 0) or per-layer metrics (--trace 1). Exits
non-zero without a result when the sources are missing or the build or
the run fails.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("search", "fleet", "strategy")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Spindle sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "spindle_perfbench", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (%s)" % " ".join(cmd))
    binary = os.path.join(build_dir, "spindle_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no binary")
    return binary


def run(binary, args, trace_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ)
    # The benchmark measures the program at its defaults.
    for var in ("SPINDLE_THREADS", "SPINDLE_TRACE"):
        env.pop(var, None)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result: %s" % lines[-1])
    return result


def select_metrics(result, trace):
    """Keeps the metrics BENCHMARK.json names for this kind of run.

    A per-layer metric that the workload does not exercise reads 0; a
    missing end-to-end metric or a unit that differs is an error.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    measured = result["metrics"]
    kept = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail("run did not measure %s" % m["name"])
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail("%s measured in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        kept[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return dict(result, metrics=kept)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and short phases (self-test)")
    p.add_argument("--results-dir",
                   help="where to keep the result file "
                        "(default: <build dir>/results)")
    args = p.parse_args()

    build_dir = build_root()
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    results_dir = args.results_dir or os.path.join(build_dir, "results")
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)

    measured = run(binary, args, trace_dir)
    result = select_metrics(measured, args.trace)
    name = "%s-trace%d-seed%d%s.json" % (args.workload, args.trace, args.seed,
                                        "-smoke" if args.smoke else "")
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "smoke": args.smoke, "result": result,
                   "measured": measured["metrics"]}, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
