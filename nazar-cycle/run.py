#!/usr/bin/env python3
"""Builds and runs the nazar-cycle benchmark.

    python3 nazar-cycle/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The script builds the
benchmark package (and with it the workspace crates it measures) in release
mode, runs it with a hermetic environment, records provenance, and prints the
benchmark's result object as the last line of standard output.

The benchmark runs at NAZAR_NUM_THREADS=1 (see README.md). With --trace 1
it also reruns the orchestrator at NAZAR_NUM_THREADS=2 and checks that its
output digest equals the one measured at one thread. Every record, with
provenance, is written to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.basename(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
THREADS = 1
CHECK_THREADS = 2
BUILD_TIMEOUT_S = 880
# Inputs that define what the benchmark measures, for the source digest.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "vendor", BENCH]
SKIP_DIRS = {"target", ".bench_build", ".bench_out", "__pycache__"}


def fail(message):
    print(f"nazar-cycle: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def hermetic_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("NAZAR_")}
    env["NAZAR_NUM_THREADS"] = str(threads)
    env["NAZAR_TENSOR_SIMD"] = "exact"
    return env


def run(cmd, env, timeout):
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{' '.join(cmd)} timed out after {timeout} s")
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    for needed in ["Cargo.lock", "crates"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to {BENCH}/: run from a checkout of the repository")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target_dir = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target_dir, "release", "nazar-cycle")

    nproc = os.cpu_count() or 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    lines = run(cmd, hermetic_env(THREADS), RUN_TIMEOUT_S).strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("record: "):
        fail("benchmark printed no record")
    record = json.loads(lines[-2][len("record: "):])
    result = json.loads(lines[-1])

    if args.trace:
        # Thread-count invariance: the same inputs at another worker count
        # must compute the same outputs, digest for digest.
        out = run(cmd[:-2] + ["--digest"], hermetic_env(CHECK_THREADS), RUN_TIMEOUT_S)
        other = out.strip().splitlines()[-1].split()[-1]
        record["digest_check_threads"] = CHECK_THREADS
        record["digest_check"] = other
        if other != record["digest"]:
            print(f"nazar-cycle: digest {other} at {CHECK_THREADS} threads != "
                  f"{record['digest']} at {THREADS}", file=sys.stderr)
            result["correct"] = False

    record["provenance"] = {
        "commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": nproc,
        "nazar_num_threads": THREADS,
        "simd_tier": record.get("simd_tier"),
        "cpu_model": cpu_model(),
    }
    record["correct"] = result["correct"]
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print("provenance: " + json.dumps(record["provenance"]))
    for metric, m in result["metrics"].items():
        print(f"{metric} = {m['value']} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
