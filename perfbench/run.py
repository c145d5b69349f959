#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and through it the repository's library and `matador`
CLI) as a Release build under $CARGO_TARGET_DIR (default .bench_build/),
prints a machine fingerprint line, the harness output, and as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exits nonzero when any output fails its correctness gate or the run is
invalid.  See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flow-mnist", "sweep-kws6", "serve-trickle")
HARNESS_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4",
                    "--target", "perfbench_harness", "matador"],
                   stdout=sys.stderr, check=True, timeout=850)


def line_count(*dirs):
    total = 0
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for f in files:
                with open(os.path.join(base, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def fingerprint(harness):
    out = subprocess.run([harness, "--fingerprint"], capture_output=True,
                         text=True, check=True, timeout=30).stdout
    fp = json.loads(out)
    rev = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    flags = set()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    fp.update({
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "src_tools_lines": line_count("src", "tools"),
    })
    return fp


def final_result(outcome, trace):
    """The result line: the harness's outcome with BENCHMARK.json's metric
    names and units.  A layer the workload never calls reads 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    measured = outcome["layers" if trace else "end_to_end"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        fail("harness reports metrics BENCHMARK.json does not declare: %s" % sorted(unknown), 3)
    metrics = {}
    for m in declared:
        if m["name"] not in measured and not trace:
            fail("harness did not report %s" % m["name"], 3)
        metrics[m["name"]] = {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
    return {"correct": outcome["correct"], "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]), "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src", "tools/matador_cli.cpp"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s next to perfbench/: not a MATADOR checkout" % need)

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)
    harness = os.path.join(build_dir, "perfbench_harness")
    matador = os.path.join(build_dir, "matador", "matador")

    fp = fingerprint(harness)
    if fp["build_type"] != "Release":
        fail("harness built as %r; timings need a Release build" % fp["build_type"])
    print("fingerprint " + json.dumps(fp, sort_keys=True), flush=True)

    work_dir = os.path.join(build_root, "perfbench-work",
                            "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    proc = subprocess.run(
        [harness, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--matador", matador, "--work-dir", work_dir],
        stdout=subprocess.PIPE, text=True, timeout=HARNESS_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        outcome = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("harness exited %d without a result" % proc.returncode, 1)
    result = final_result(outcome, args.trace == 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
