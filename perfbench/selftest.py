#!/usr/bin/env python3
"""Quick self-test of the host-time benchmark.

Runs every workload at a tiny size with tracing off and on, and checks that
each metric BENCHMARK.json names is reported with its unit and that no op
fails. Then checks that the gates fire: a deliberately corrupted task
output, and a modeled result nudged by one ulp against freshly written
pins, must each count as a failed op. Finally runs run.py once and checks
the shape of its last line.

Usage: python3 perfbench/selftest.py   (exit code 0 = pass)
"""

import json
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
import run  # noqa: E402

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def run_binary(workload, trace=0, *extra):
    cmd = [str(run.BINARY), "--workload", workload, "--seed", "5",
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
           "--setup-reps", "1", *extra]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"benchmark binary failed: {' '.join(cmd)}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main():
    if not run.build():
        print("FAIL build")
        return 1
    run.OUT.mkdir(exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    mapping = json.loads((run.HERE / "metric_map.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) ==
          sorted(run.WORKLOADS) == sorted(mapping["workloads"]),
          "BENCHMARK.json, run.py and metric_map.json name the same workloads")
    check(sorted(m["name"] for m in spec["per_layer"]) ==
          sorted(mapping["per_layer"]),
          "metric_map.json maps every per-layer metric")
    check({m["name"] for m in spec["end_to_end"]} <=
          set(mapping["end_to_end"]),
          "metric_map.json defines every end-to-end metric")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            res = run_binary(workload, trace)
            declared = run.declared_metrics(trace)
            got = res["metrics"]
            check(all(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                      for m in declared),
                  f"{workload} trace={trace}: every metric with its unit")
            check(res["attempted"] > 0 and res["failed"] == 0,
                  f"{workload} trace={trace}: {res['attempted']} ops, "
                  f"{res['failed']} failed")

    res = run_binary("task_text", 0, "--corrupt", "output")
    check(res["failed"] >= 1 and any("golden" in e for e in res["errors"]),
          "a corrupted task output fails the golden check")

    for workload in run.WORKLOADS:
        pins = run.OUT / f"selftest-{workload}-pins.json"
        run_binary(workload, 0, "--write-pins", str(pins))
        res = run_binary(workload, 1, "--pins", str(pins))
        check(res["pins"] == "checked" and res["failed"] == 0,
              f"{workload}: traced ops match pins written untraced")
        res = run_binary(workload, 0, "--pins", str(pins), "--corrupt", "modeled")
        check(res["failed"] >= 1 and any("pin" in e for e in res["errors"]),
              f"{workload}: a modeled result off by one ulp fails the pins")

    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload",
         "cluster_replay", "--seed", "2", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    check(out.returncode == 0 and
          sorted(last) == ["attempted", "correct", "failed", "metrics"] and
          last["correct"] is True,
          "run.py prints the result line")

    print("selftest: " + ("FAILED: " + "; ".join(failures) if failures
                          else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
