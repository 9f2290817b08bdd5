#!/usr/bin/env python3
"""The wflog benchmark: build, run one workload, print one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload adhoc_query --seed 1 --seconds 25 --trace 0

builds wfqd and the load generator (perfbench/src) into .bench_build/ with
CMake, runs the workload and prints, as the last line of standard output,

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}

The workloads are adhoc_query and offline_batch, which BENCHMARK.json
lists, and live_ingest, which runs the same way but is not in that list
(see perfbench/BENCHMARK.md). With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, measured with tracing off; with
--trace 1 they are its per-layer metrics (a layer that the workload leaves
idle reads 0). Progress goes to stderr.

    --save FILE       also append {"workload", "seed", "trace", "result"} to FILE
    compare A B       compare two files of saved runs (A = parent, B =
                      change): per workload and end-to-end metric, each
                      side's median and quartiles, the share of pairs B
                      wins, and whether B regressed beyond the metric's
                      bound ("unresolved" when A's own spread exceeds it).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    # Compiler and generator scratch files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    cmake_dir = BUILD / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", str(cmake_dir), "--target", "wfqd",
         "wflog_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return cmake_dir


def run_workload(args, cmake_dir):
    cmd = [str(cmake_dir / "wflog_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--wfqd", str(cmake_dir / "wflog" / "examples" / "wfqd"),
           "--inputs", str(BUILD / "inputs"), "--work", str(BUILD / "work")]
    # Own process group, so a timeout also stops the wfqd it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("workload timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"load generator exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def select(raw, bench, trace):
    """Keeps the metrics BENCHMARK.json names for the mode, in its order."""
    raw_metrics = dict(raw["metrics"])
    attempted = raw["attempted"]
    raw_metrics["failed_frac"] = {
        "value": raw["failed"] / attempted if attempted else 1.0,
        "unit": "ratio"}
    metrics = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        got = raw_metrics.get(m["name"])
        if got is None:
            if not trace:
                raise RuntimeError(f"end-to-end metric {m['name']} missing")
            got = {"value": 0, "unit": m["unit"]}  # layer idle here
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": bool(raw["correct"]), "attempted": attempted,
            "failed": raw["failed"], "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                if r["trace"] == 0:
                    runs.setdefault(r["workload"], []).append(r["result"])
    return runs


def compare(path_a, path_b):
    bench = spec()
    a_runs, b_runs = load_runs(path_a), load_runs(path_b)
    print(f"{'workload':14} {'metric':22} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'B wins':>7} {'change':>8}  verdict")
    for workload in sorted(set(a_runs) & set(b_runs)):
        a_list, b_list = a_runs[workload], b_runs[workload]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            a = [r["metrics"][name]["value"] for r in a_list]
            b = [r["metrics"][name]["value"] for r in b_list]
            qa, qb = quartiles(a), quartiles(b)
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
            win_frac = wins / len(pairs) if pairs else 0.0
            # Positive = B worse, as a share of A's median.
            worse = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
            spread = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
            all_better = all((y < x if lower else y > x) for x in a for y in b)
            if spread > bound and not all_better:
                verdict = f"unresolved (A spread {spread:.3f} > bound {bound})"
            elif worse > bound:
                verdict = f"REGRESSION (> bound {bound})"
            elif win_frac >= 0.9 and -worse > spread:
                verdict = "gain"
            else:
                verdict = "no change beyond bound"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{workload:14} {name:22} {fmt.format(*qa):>30} "
                  f"{fmt.format(*qb):>30} {win_frac:7.2f} {worse:+8.3f}  "
                  f"{verdict}")
        fa = sum(r["failed"] for r in a_list)
        fb = sum(r["failed"] for r in b_list)
        print(f"{workload:14} {'failed ops':22} {fa:>30} {fb:>30}")


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        compare(sys.argv[2], sys.argv[3])
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save")
    args = p.parse_args()
    try:
        bench = spec()
        started = time.monotonic()
        cmake_dir = build()
        print(f"build: {time.monotonic() - started:.1f} s", file=sys.stderr)
        result = select(run_workload(args, cmake_dir), bench, args.trace)
    except (RuntimeError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if args.save:
        with open(args.save, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
