#!/usr/bin/env python3
"""Run one STOREL benchmark workload from the root of a source checkout.

    python3 storelbench/run.py --workload optimize-large --seed 1 --seconds 10 --trace 0

Builds the harness together with the repository's main sources (sbt, offline)
the first time and whenever a source changes, then runs it in one JVM. The
last line of standard output is the JSON result; details of the run go to
storelbench/out/. See storelbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BENCH = "storelbench"
SOURCES = [os.path.join("src", "main", "scala"), os.path.join(BENCH, "src")]
BUILD_FILES = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
STAMP = os.path.join(BENCH, "target", "bench-build.txt")
OUT = os.path.join(BENCH, "out")
BUILD_TIMEOUT_S = 800
# Below the 180 s a run may take; the harness's own watchdog reports first.
RUN_TIMEOUT_S = 177
JVM_FLAGS = [
    "-Xss256m",  # cost-based extraction recurses through deep e-graphs
    "-Xms1g", "-Xmx2g",
    "-XX:+UseParallelGC",
]


def fail(msg):
    print(f"storelbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over every source and build file, so edits force a rebuild and
    records of earlier runs are only compared with runs of the same code."""
    files = list(BUILD_FILES)
    for top in SOURCES:
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(f.replace(os.sep, "/").encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


def spark_jars():
    """Spark's jars directory: SPARK_HOME's, else that of the first
    spark-submit on PATH that sits in a Spark distribution."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(os.path.realpath(d)) for d in os.environ.get("PATH", "").split(os.pathsep)
        if d and os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        if home and os.path.isdir(os.path.join(home, "jars")):
            return os.path.join(home, "jars")
    fail("Spark's jars not found: set SPARK_HOME")


def build(digest):
    """Compile with sbt and record the runtime classpath; returns it."""
    if os.path.exists(STAMP):
        with open(STAMP) as fh:
            stamp = fh.read().split("\n")
        if len(stamp) >= 2 and stamp[0] == digest:
            return stamp[1]
    env = dict(os.environ, COURSIER_MODE="offline")
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    env.setdefault("SBT_OPTS", " ".join(
        ["-Dsbt.offline=true", "-Dsbt.override.build.repos=true"]
        + ([f"-Dsbt.repository.config={repos}"] if os.path.exists(repos) else [])))
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dstorelbench.sparkJars={spark_jars()}", "compile", "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=BENCH, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build took longer than {BUILD_TIMEOUT_S} s")
    log = [l for l in p.stdout.splitlines() if l.startswith("[")]
    classpath = [l for l in p.stdout.splitlines() if l and not l.startswith("[")]
    sys.stderr.write("\n".join(log) + "\n")
    if p.returncode != 0 or not classpath:
        fail(f"build failed (sbt exit {p.returncode})")
    classpath = classpath[-1].strip()
    with open(STAMP, "w") as fh:
        fh.write(f"{digest}\n{classpath}\n")
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    for path in SOURCES + BUILD_FILES:
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a source checkout")
    digest = source_digest()
    classpath = build(digest)

    cmd = ["java", *JVM_FLAGS, "-cp", classpath, "storelbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", OUT, "--digest", digest]
    proc = subprocess.Popen(cmd)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run took longer than {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()
