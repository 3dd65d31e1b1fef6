#!/usr/bin/env python3
"""Host-time benchmark of the simulator.

Builds the perfbench binary (perfbench/CMakeLists.txt, which compiles the
repository's libraries from ../src) into .bench_build/, runs one workload
and prints one JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. The full result (every metric with its
sample count, the first errors and a host/build manifest) is written to
.bench_out/<workload>-seed<N>-trace<T>.json, next to the host-span Chrome
trace of traced runs.

Usage:
    python3 perfbench/run.py --workload task_text --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --compare OLD.json NEW.json
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench"
WORKLOADS = ("task_text", "task_numeric", "cluster_replay")
# Modeled output of every op is pinned for this seed (perfbench/pins/).
PIN_SEED = 1
SETUP_REPS = 5
RUN_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    res = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0 and BINARY.exists()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_revision():
    """The git revision when the tree is a git checkout, else 'none'; plus a
    digest of the sources the binary is built from, which identifies the
    code either way."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        revision = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        revision = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return revision, digest.hexdigest()[:16]


def manifest():
    try:
        built = json.loads((BUILD / "perfbench_build.json").read_text())
    except (OSError, ValueError):
        built = {}
    revision, digest = source_revision()
    return {
        "compiler": built.get("compiler", "unknown"),
        "build_type": built.get("build_type") or "unknown",
        "flags": " ".join(built.get("flags", "").split()),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_revision": revision,
        "source_digest": digest,
    }


def manifest_mismatch(a, b):
    """Keys on which two manifests differ, ignoring the code identity."""
    skip = ("git_revision", "source_digest")
    return sorted(k for k in set(a) | set(b)
                  if k not in skip and a.get(k) != b.get(k))


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def compare(old_path, new_path):
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    diff = manifest_mismatch(old.get("manifest", {}), new.get("manifest", {}))
    if diff:
        print("WARNING: results come from different builds or hosts; "
              "differing manifest keys: " + ", ".join(diff))
    for name, m in new["metrics"].items():
        o = old["metrics"].get(name)
        if o is None or not o["value"]:
            continue
        change = (m["value"] - o["value"]) / abs(o["value"])
        print(f"{name:28s} {o['value']:14.6g} -> {m['value']:14.6g} "
              f"{m['unit']:6s} {change:+8.1%}")
    return 0


def run_workload(workload, seed, seconds, trace):
    """Runs the binary once and prints its report and the result line."""
    stem = f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--setup-reps", str(SETUP_REPS)]
    pins = HERE / "pins" / f"{workload}.json"
    if seed == PIN_SEED and pins.exists():
        cmd += ["--pins", str(pins)]
    if trace:
        cmd += ["--trace-out", str(OUT / f"{stem}.host_trace.json")]
    t0 = time.monotonic()
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        log(f"perfbench: benchmark binary exited with {res.returncode}")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    declared = declared_metrics(trace)
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    wrong_unit = [m["name"] for m in declared
                  if m["name"] in result["metrics"]
                  and result["metrics"][m["name"]]["unit"] != m["unit"]]
    if missing or wrong_unit:
        log(f"perfbench: reported metrics do not match BENCHMARK.json "
            f"(missing {missing}, unit differs {wrong_unit})")
        return 1

    result["manifest"] = manifest()
    result["run_s"] = time.monotonic() - t0
    result["pins_file"] = str(pins.relative_to(ROOT)) if "--pins" in cmd else None
    result_path = OUT / f"{stem}.json"
    if result_path.exists():
        try:
            previous = json.loads(result_path.read_text()).get("manifest", {})
            diff = manifest_mismatch(previous, result["manifest"])
            if diff:
                log("perfbench: WARNING: manifest differs from the previous "
                    f"{stem} result on: {', '.join(diff)}")
        except (OSError, ValueError):
            pass
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    attempted = result["attempted"]
    failed = result["failed"]
    print(f"manifest: {json.dumps(result['manifest'], sort_keys=True)}")
    print(f"error_rate: {failed / attempted if attempted else 0:.6g} "
          f"({failed} failed of {attempted} ops); pins {result['pins']}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=float,
                    help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    if not build():
        log("perfbench: build failed")
        return 1
    OUT.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if len(workloads) > 1:
            print(f"== {workload}")
        code = run_workload(workload, args.seed, args.seconds, args.trace)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
