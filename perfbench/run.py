#!/usr/bin/env python3
"""DIABLO benchmark: times loop programs through the compiler, the local
backend (sequential and parallel) and the Spark backend, and checks every
output against the hand-written Spark reference.

    python3 perfbench/run.py --workload scan-agg --seed 42 --seconds 8 --trace 0

Builds first if needed (see build.py), then runs one JVM with a fixed heap.
The last line of standard output is the result as one JSON object; with
`--trace 1` the per-layer metrics replace the end-to-end ones and the
per-statement rows and spans go to `.bench_build/perfbench/trace/`.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the source tree clean
import build  # noqa: E402

WORKLOADS = ("scan-agg", "join-linalg", "iterative")
HEAP = "2g"
# Spark on Java 17 needs these modules opened (as spark-submit does).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke",
    "java.base/java.lang.reflect", "java.base/java.io", "java.base/java.net",
    "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch",
    "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]
RUN_TIMEOUT_S = 170


def git_sha():
    """The checkout's commit, or "none" outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        classes = build.build()
        java = build.java()
        jars = build.spark_jars()
    except build.BuildError as e:
        print(f"[perfbench] {e}", file=sys.stderr)
        return 2

    out_dir = os.path.join(build.BUILD_DIR, "run")
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=" +
           os.path.join(build.HERE, "log4j2.properties"),
           f"-Dperfbench.heap={HEAP}",
           f"-Dperfbench.gitSha={git_sha()}",
           f"-Dperfbench.sourceStamp={open(build.STAMP).read().strip()}",
           f"-Dperfbench.launchEpochNs={time.time_ns()}"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
    cmd += ["-cp", classes + os.pathsep + os.path.join(jars, "*"),
            "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", build.BUILD_DIR]
    proc = subprocess.Popen(cmd, cwd=build.ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("[perfbench] run timed out", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
