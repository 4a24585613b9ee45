#!/usr/bin/env python3
"""Builds the Explain3D benchmark from source.

    python3 perfbench/build.py

Compiles the program (src/main/scala) together with the benchmark
(perfbench/src/main/scala) into .bench_build/perfbench/classes with the
Scala compiler that ships in Spark's own jars, against those jars. It needs
only a JDK and a Spark installation: SPARK_HOME, else the spark-submit on
PATH, else the pyspark Python package. It reads nothing from a dependency
cache, so the build is the same wherever it runs. A later build is skipped
while the sources are unchanged.
"""

import functools
import glob
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE_ROOTS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH_DIR, "src", "main", "scala")]
BUILD_OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(BUILD_OUT, "classes")
TMP = os.path.join(BUILD_OUT, "tmp")
BUILD_TIMEOUT_S = 600


class BuildError(Exception):
    pass


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java: set JAVA_HOME or put java on PATH")
    return exe


@functools.lru_cache(maxsize=None)
def spark_jars():
    """The jars directory of the Spark installation."""
    def candidates():
        if os.environ.get("SPARK_HOME"):
            yield os.path.join(os.environ["SPARK_HOME"], "jars")
        submit = shutil.which("spark-submit")
        if submit:
            yield os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(submit))), "jars")
        spec = importlib.util.find_spec("pyspark")  # locates the package without importing it
        if spec and spec.submodule_search_locations:
            yield os.path.join(list(spec.submodule_search_locations)[0], "jars")
    for c in candidates():
        if glob.glob(os.path.join(c, "spark-core_*.jar")) and glob.glob(os.path.join(c, "scala-compiler-*.jar")):
            return c
    raise BuildError("no Spark installation with a Scala compiler found "
                     "(set SPARK_HOME, or put spark-submit on PATH)")


def classpath():
    return os.pathsep.join([CLASSES, os.path.join(spark_jars(), "*")])


def sources():
    files = []
    for r in SOURCE_ROOTS:
        for d, dirs, names in os.walk(r):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names) if n.endswith(".scala")]
    return files


def source_digest():
    """Digest of every source the build compiles and of the Spark it compiles against."""
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    h.update(" ".join(sorted(os.listdir(spark_jars()))).encode())
    return h.hexdigest()


def build(log=sys.stderr):
    """Compiles unless the last build used the same sources."""
    if not os.path.isdir(SOURCE_ROOTS[0]):
        raise BuildError(f"program sources not found at {os.path.relpath(SOURCE_ROOTS[0], ROOT)}")
    digest = source_digest()
    stamp = os.path.join(BUILD_OUT, "build.stamp")
    if os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read() == digest:
                return digest
        os.remove(stamp)
    print("[perfbench] compiling program and benchmark", file=log, flush=True)
    t0 = time.time()
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    os.makedirs(TMP, exist_ok=True)
    args_file = os.path.join(BUILD_OUT, "sources.txt")
    with open(args_file, "w") as fh:
        fh.write("".join(os.path.relpath(f, ROOT) + "\n" for f in sources()))
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={TMP}",
           "-cp", os.path.join(spark_jars(), "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", CLASSES, "@" + args_file]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=log, stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BuildError(f"compilation did not finish in {BUILD_TIMEOUT_S}s")
    if r.returncode != 0:
        raise BuildError(f"compilation failed (exit code {r.returncode})")
    with open(stamp, "w") as fh:
        fh.write(digest)
    print(f"[perfbench] compiling took {time.time() - t0:.1f}s", file=log, flush=True)
    return digest


if __name__ == "__main__":
    try:
        build()
    except BuildError as e:
        sys.exit(f"[perfbench] error: {e}")
