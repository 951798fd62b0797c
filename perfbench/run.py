#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1|table1-cycle|served \
        --seed N --seconds S --trace 0|1 [--corpus-seed N]

The benchmark package (perfbench/CMakeLists.txt) is configured and built
into $CARGO_TARGET_DIR (default .bench_build) on every call; after the first
call the build is a no-op. The driver binary runs the workload and writes
one JSON result document under <build dir>/results/; this script adds the
commit, a digest of src/ and the workload's rationale (workloads.json) to
it, and prints the one-line summary as the last line of stdout:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

Exit codes: 0 on success, 2 when the build fails, 3 when the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; True on exit code 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{' '.join(cmd)}: {err}")
        return False


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, BUILD_TIMEOUT_S):
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", cmake_dir, "-j", jobs],
                      BUILD_TIMEOUT_S):
        return None
    binary = os.path.join(cmake_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the paths and bytes of every file under src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    workloads = spec["workloads"]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int,
                        default=spec["seeds"]["corpus_default"])
    args = parser.parse_args()

    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 2

    # Relative paths keep the daemon's Unix socket path short.
    work = os.path.relpath(os.path.join(build_dir, "work"))
    results = os.path.join(build_dir, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--corpus-seed", str(args.corpus_seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work, "--out", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run failed with exit code {proc.returncode}")
        return 3
    summary = json.loads(lines[-1])

    with open(out) as f:
        doc = json.load(f)
    doc["commit"] = commit()
    doc["src_sha256"] = source_digest()
    doc["rationale"] = workloads[args.workload]
    doc["seeds"] = spec["seeds"]
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    log(f"result document: {out}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
