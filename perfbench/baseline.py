"""Repeat the benchmark over seeds and summarise its run-to-run spread.

    python3 perfbench/baseline.py --out perfbench/baseline/seed_commit.json
    python3 perfbench/baseline.py --first-seed 11 --no-trace \\
        --out perfbench/baseline/seed_commit_repeat.json

For each workload of BENCHMARK.json this runs ``run.py --trace 0`` once per
seed ``first-seed .. first-seed + 9`` and, unless ``--no-trace``,
``run.py --trace 1`` once with the first seed, from the current directory,
with ``run_seconds`` from BENCHMARK.json.  For every end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread ``(q3 - q1) / median`` next to the metric's bound, with the
number of passing repetitions behind each run's median.  A spread above the
bound marks the metric unresolved: a change smaller than the spread cannot
be told from noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def bench_run(workload, seed, seconds, trace):
    """The result line of one run and the samples behind its medians."""
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True)
    if res.returncode != 0:
        raise SystemExit("run.py failed: %s" % res.stderr[-2000:])
    with open(os.path.join(".perfbench", "runs", "%s-seed%d-trace%d.json"
                           % (workload, seed, trace))) as fh:
        record = json.load(fh)
    return json.loads(res.stdout.strip().splitlines()[-1]), record


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "resolved": spread <= bound,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    summary = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [bench_run(w, s, seconds, 0) for s in
                range(args.first_seed, args.first_seed + RUNS)]
        results = [r for r, _ in runs]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "samples_per_run": [rec["samples"] for _, rec in runs],
                 "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in results], bound)
            entry["end_to_end"][name] = s
            print("%-13s %-12s median %10.4f  spread %.4f  (bound %.2f)%s"
                  % (w, name, s["median"], s["spread"], bound,
                     "" if s["resolved"] else "  unresolved"), flush=True)
        if not args.no_trace:
            traced, rec = bench_run(w, args.first_seed, seconds, 1)
            entry["traced_correct"] = traced["correct"]
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            entry["trace_check"] = rec["trace_check"]
        summary["environment"] = runs[0][1]["environment"]
        summary["workloads"][w] = entry
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
