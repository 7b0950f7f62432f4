#!/usr/bin/env python3
"""Builds the e2ebench binary from this checkout and runs one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench); span files go to its out/ directory. The
last line of stdout is the run's JSON result; any failure to build or run
exits non-zero without one.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("popularity_16k", "dataset_256k", "fleet_1000", "serve_writes")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 175
# An untraced run is split over this many processes, and reports the mean of
# their medians. On a shared host a process's timings tend to sit in one of
# two clusters for its whole life (placement luck), so a run averages
# processes as well as repetitions. The fleet's repetitions are too long to
# split within a run.
PROCESSES = {"popularity_16k": 2, "dataset_256k": 2, "fleet_1000": 1, "serve_writes": 2}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, g)) for g in generated):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "e2ebench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """The git commit when the checkout is a repository, and always a hash of
    the sources that were built (library and benchmark)."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def main():
    # A terminated run stops its benchmark process too: subprocess.run kills
    # and waits for its child when an exception unwinds through it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    procs = 1 if args.trace else PROCESSES[args.workload]
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / procs), "--trace", str(args.trace),
            "--scenarios", os.path.join(HERE, "workloads"), "--out", out_dir]
    pinned = expected["digests"].get(args.workload) if args.seed == expected["default_seed"] else None
    deadline = time.monotonic() + RUN_TIMEOUT_S
    records, results = [], []
    for p in range(procs):
        # Process p starts at repetition 1000 p, so every process sees fresh
        # inputs; only repetition 0 has a pinned digest.
        cmd = base + ["--first-rep", str(1000 * p)]
        if pinned and p == 0:
            cmd += ["--expect", pinned]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
            return 1
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout)
            log(f"e2ebench exited with {proc.returncode}")
            return proc.returncode or 1
        try:
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
        except (ValueError, AssertionError):
            sys.stderr.write(proc.stdout)
            log("e2ebench printed no result line")
            return 1
        records.append(lines[:-1])
        results.append(result)

    commit, source = source_identity()
    print(f"host: nproc={os.cpu_count()} cpu=\"{cpu_model()}\" commit={commit} "
          f"source_sha256={source} build_dir={os.path.relpath(build_dir, ROOT)}")
    print(f"seeds: this run {args.seed}; default {expected['default_seed']} "
          f"(digest pinned: {'yes' if pinned else 'no'}); held out {expected['held_out_seed']}")
    for p, record in enumerate(records):
        if procs > 1:
            print(f"process {p + 1} of {procs}:")
        sys.stdout.write("\n".join(record) + "\n")
    metrics = {name: {"value": statistics.fmean(r["metrics"][name]["value"] for r in results),
                      "unit": m["unit"]}
               for name, m in results[0]["metrics"].items()}
    if procs > 1:
        print(f"mean over {procs} processes: " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items()))
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
