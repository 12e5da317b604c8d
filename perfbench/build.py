#!/usr/bin/env python3
"""Build file of the benchmark: compiles the repository's main sources and the
benchmark's own Scala sources into one class directory.

The compiler is the Scala compiler that ships in Spark's `jars/` directory
(the same Scala version as `build.sbt`), so the build needs neither sbt nor a
dependency resolver. Output goes to `.bench_build/perfbench/classes` under the
checkout root. A stamp over every source file skips the build when nothing
changed.

    python3 perfbench/build.py      # prints the class directory
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(BUILD_DIR, "classes")
STAMP = os.path.join(BUILD_DIR, "classes.stamp")

# Sources of the program under test, relative to the checkout root.
PROGRAM_SOURCES = os.path.join("src", "main", "scala")
BENCH_SOURCES = os.path.join("perfbench", "scala")


class BuildError(Exception):
    pass


def spark_jars():
    """Spark's jar directory, from SPARK_HOME or the `spark-submit` on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("no Spark installation found: set SPARK_HOME")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java found: set JAVA_HOME")
    return exe


def scala_files(rel):
    top = os.path.join(ROOT, rel)
    out = []
    for dirpath, _, files in os.walk(top):
        out += [os.path.join(dirpath, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def sources():
    prog = scala_files(PROGRAM_SOURCES)
    if not prog:
        raise BuildError(f"no program sources under {PROGRAM_SOURCES}")
    return prog + scala_files(BENCH_SOURCES)


def stamp_of(files, jars):
    h = hashlib.sha256(jars.encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile if any source changed; returns the class directory."""
    jars = spark_jars()
    files = sources()
    stamp = stamp_of(files, jars)
    if os.path.exists(STAMP) and open(STAMP).read().strip() == stamp:
        return CLASSES
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    argfile = os.path.join(BUILD_DIR, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(files) + "\n")
    cmd = [java(), "-Xss8m", "-Xmx1g", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-classpath", CLASSES, "-nowarn",
           "-d", CLASSES, "@" + argfile]
    print(f"[perfbench] compiling {len(files)} Scala files", file=sys.stderr)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    with open(STAMP, "w") as fh:
        fh.write(stamp + "\n")
    return CLASSES


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(1)
