#!/usr/bin/env python3
"""Build and run occsim's benchmark (occbench).

Usage, from the root of a checkout:

    python3 occbench/run.py --workload <paper_sweep|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds occbench/CMakeLists.txt (the occsim
library from src/ plus the benchmark driver) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build.
Build output goes to stderr. The benchmark binary runs in a work directory
inside the build tree, which is removed afterwards; a traced run's spans
are kept as occbench-spans-<workload>.jsonl in the build tree. The last
stdout line is the result JSON. Exits non-zero, without a result, when the
build fails or the occsim sources are missing.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
WORKLOADS = ("paper_sweep", "serve_mixed")


def build(build_root):
    """Configure (once) and build the occbench target; return the binary."""
    build_dir = os.path.join(build_root, "occbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(build_root, "occbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return None
        if subprocess.call(["cmake", "--build", build_dir, "--target",
                            "occbench", "-j", jobs],
                           stdout=sys.stderr) != 0:
            return None
    return os.path.join(build_dir, "occbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    if binary is None:
        print("occbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build_root, "occbench-work",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("OCCSIM_")}
    env["OCCSIM_THREADS"] = str(os.cpu_count() or 1)
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace],
            cwd=workdir, env=env, timeout=RUN_TIMEOUT_S)
        spans = os.path.join(workdir, "occbench-spans.jsonl")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(
                build_root, "occbench-spans-%s.jsonl" % args.workload))
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("occbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
