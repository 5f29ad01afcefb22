#!/usr/bin/env python3
"""Builds and runs the fluxfp end-to-end benchmark from the repository root.

    python3 e2ebench/run.py --workload trace20|sweep4|serve --seed N \
        --seconds S --trace 0|1 [--out FILE]

The first run configures and builds a Release tree of the fluxfp
libraries plus the e2ebench binary under $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check it. Build output goes to stderr.
The binary's stdout is passed through unchanged: its last line is the
result JSON. Exits non-zero, without a result, when the build or the run
fails or the run exceeds its time limit.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Whole-run wall limit for the binary (it measures for --seconds
# plus set-up; the serve workload's replay has a fixed length).
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2ebench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "e2ebench")


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s; stopping it",
              file=sys.stderr)
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        return 124
    except KeyboardInterrupt:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
