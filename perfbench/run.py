#!/usr/bin/env python3
"""Build the lvplib benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [gtest flags]

NAME is paper-suite, predictor-sweep or timing-sweep. The build goes to
$CARGO_TARGET_DIR (default .bench_build, relative to the repository
root) in perfbench-build/, as a Release build of perfbench/CMakeLists.txt,
which compiles the library from ../src. Build output goes to stderr;
stdout carries only the benchmark's report line and, last, its result
line. Exits non-zero without a result when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_base():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build(target):
    """Configure once, then build @target; return its path or None."""
    bdir = build_base() / "perfbench-build"
    if not (bdir / "build.ninja").exists() and not (bdir / "Makefile").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", str(bdir), "--target", target, "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        return None
    return bdir / target


def main(argv):
    work_dir = build_base() / "perfbench"
    if argv[:1] == ["--self-test"]:
        exe = build("perfbench_selftest")
        if exe is None:
            return 1
        work_dir.mkdir(parents=True, exist_ok=True)
        return subprocess.run([str(exe), *argv[1:]], cwd=work_dir).returncode
    exe = build("perfbench")
    if exe is None:
        return 1
    cmd = [str(exe), *argv, "--root", str(ROOT), "--work-dir", str(work_dir)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
