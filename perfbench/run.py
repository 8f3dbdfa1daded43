"""tracefem benchmark: the CLI timed end to end, traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cut-diagnose --seed 1 --seconds 35 --trace 0

Two workloads, each a fixed sequence of CLI invocations per repetition:
``cut-diagnose`` (quadcheck, diagnose, dtsweep: set-up and dense
eigenproblems, no time stepping) and ``converge-heat`` (converge, heat:
time stepping).  Load model: a closed loop with one client.  Each
invocation spawns a fresh interpreter running ``perfbench/child.py``
(which imports ``tracefem.cli`` from ``./src`` and calls ``cli.main``)
after the previous one exited, so interpreter start and imports count.
Repetitions continue until ``--seconds`` have passed (at least one).
Every repetition's outputs go through the correctness gates
(``gates.py``); only repetitions that pass count towards the timings.
Metric names and units are those of ``BENCHMARK.json``.

``--trace 0`` prints the end-to-end metrics (medians over repetitions):
``wall_s`` (spawn to exit, summed over the workload's invocations),
``setup_s`` (time inside ``cli.Pipeline`` constructors) and ``peak_rss_mb``
(``ru_maxrss`` of the child, largest over the invocations).  Times are in
reference seconds: while a CLI invocation runs, the speed probe
(``probe.py``) counts blocks of fixed work on the spare core, and the
count over the invocation is its duration at reference host speed; an
invocation's set-up time is scaled by the same factor.  Raw seconds are in
the run record (``raw_wall_s``, ``raw_setup_s``).  Without a spare core
there is no probe and times are raw seconds.

``--trace 1`` runs untraced/traced pairs and prints the per-layer metrics
(``tracer.py``) of the traced repetition with the median in-process time
(the lower one for an even count).  ``trace.self_sum_s`` (the layer
``*.self_s`` values plus ``cli.write_s``) is compared with the untraced
partner's time inside ``cli.main`` (``trace.untraced_in_process_s``); the
gap should lie within ``trace.wrapper_cost_s`` (span count times the
measured cost of one wrapped call).  ``trace.overhead_s`` is the median
over pairs of traced minus untraced in-process time; where it is not
positive it is reported as unresolved.  The traced outputs must be
byte-identical to the untraced ones.

The last stdout line is the JSON result; a full record (seed, generated and
resolved configs, environment, every repetition) is written to
``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe as speed  # noqa: E402
from gates import check_outputs  # noqa: E402
from tracer import layer_metrics  # noqa: E402

WORKLOADS = ("cut-diagnose", "converge-heat")
BLAS_THREADS = 1
CUT_LADDER = [48, 96, 192]
BBOX = [-1.5, 1.5]
# configs/circle.json and configs/dtsweep.json as shipped with the seed
CIRCLE = {"center": [0.0, 0.0], "radius": 1.0, "bbox": BBOX,
          "n_cells": [48, 96, 192], "k_max": 128, "scheme": "BDF1",
          "dt_rule": "h2/4", "t_final": 0.25, "data": "decaying_mode"}
DTSWEEP = {"n_cells": [96], "k_max": 128}
HEAT = {"n_cells": [192], "scheme": "BDF2", "data": "forced_mode_2",
        "dt_rule": "h2/4", "t_final": 0.25}
RUN_LIMIT_S = 170.0       # every child is killed by then


def workload_steps(workload, seed):
    """The CLI invocations of one repetition: [(subcommand, config, args)]."""
    rng = random.Random(seed)
    if workload == "cut-diagnose":
        half_cell = 0.5 * (BBOX[1] - BBOX[0]) / CUT_LADDER[0]
        center = [rng.uniform(-half_cell, half_cell) for _ in range(2)]
        cut = {"center": center, "radius": 1.0, "bbox": BBOX,
               "n_cells": CUT_LADDER, "k_max": 128}
        return [("quadcheck", cut, []),
                ("diagnose", CIRCLE, ["--seed", str(rng.randrange(2 ** 32))]),
                ("dtsweep", DTSWEEP, [])]
    if workload == "converge-heat":
        return [("converge", CIRCLE, []), ("heat", HEAT, [])]
    raise ValueError(workload)


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv, env, log_path, timeout, probe):
    """Run argv to completion.

    Returns (exit code, wall seconds, reference seconds, peak RSS MiB); the
    reference seconds are the probe's blocks over the run, or the wall
    seconds without a probe.
    """
    with open(log_path, "w") as log:
        b0 = probe.blocks() if probe else 0
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        ref = (probe.blocks() - b0) / speed.RATE_REF if probe else wall
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ref, usage.ru_maxrss / 1024.0


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.probe = None
        self.workload = workload
        self.steps = workload_steps(workload, seed)
        self.env = child_env(root)
        self.work = os.path.join(root, ".perfbench", "work",
                                 "%s-%d" % (workload, os.getpid()))
        self.runs = os.path.join(root, ".perfbench", "runs")
        os.makedirs(self.work, exist_ok=True)
        os.makedirs(self.runs, exist_ok=True)
        self.configs = []
        for i, (_, cfg, _) in enumerate(self.steps):
            path = os.path.join(self.work, "config%d.json" % i)
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.configs.append(path)
        self.n_reps = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def repetition(self, mode):
        """One repetition of every step; a dict with metrics and gate result."""
        self.n_reps += 1
        out = os.path.join(self.work, "rep%d-%s" % (self.n_reps, mode))
        os.makedirs(out)
        rep = {"mode": mode, "out": out, "wall_s": 0.0, "setup_s": 0.0,
               "raw_wall_s": 0.0, "raw_setup_s": 0.0, "peak_rss_mb": 0.0,
               "in_process_s": 0.0, "problems": [], "invocations": []}
        for i, (sub, _, extra) in enumerate(self.steps):
            record = os.path.join(out, "record%d.json" % i)
            argv = [sys.executable, os.path.join(HERE, "child.py"), record,
                    mode, sub, "--config", self.configs[i], "--out", out] + extra
            rc, wall, ref, rss = spawn(
                argv, self.env, os.path.join(out, "log%d" % i),
                max(1.0, self.deadline - time.perf_counter()), self.probe)
            rep["wall_s"] += ref
            rep["raw_wall_s"] += wall
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
            if rc != 0 or not os.path.isfile(record):
                rep["problems"].append("%s exited with %d: %s"
                                       % (sub, rc, _tail(out, i)))
                continue
            with open(record) as fh:
                rec = json.load(fh)
            rep["setup_s"] += rec["setup_s"] * ref / wall
            rep["raw_setup_s"] += rec["setup_s"]
            rep["in_process_s"] += rec["in_process_s"]
            src = os.path.join(self.root, "src", "tracefem")
            if not os.path.realpath(rec.pop("tracefem_file")).startswith(
                    os.path.realpath(src) + os.sep):
                rep["problems"].append("tracefem was not imported from ./src")
            rep["invocations"].append(dict(rec, subcommand=sub, wall_s=wall,
                                           ref_s=ref, peak_rss_mb=rss))
        if not rep["problems"]:
            try:
                rep["problems"] = check_outputs(
                    out, [sub for sub, _, _ in self.steps], CUT_LADDER)
            except (ValueError, IndexError) as exc:
                rep["problems"] = ["malformed output: %s" % exc]
        return rep

    def close(self):
        if self.probe:
            self.probe.close()
        shutil.rmtree(self.work, ignore_errors=True)


def _tail(out, i):
    with open(os.path.join(out, "log%d" % i)) as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else "(no output)"


def same_outputs(a, b):
    """Names of output files (not records/logs) that differ between dirs."""
    def outputs(d):
        return sorted(f for f in os.listdir(d)
                      if not f.startswith(("record", "log")))
    names = outputs(a)
    if names != outputs(b):
        return ["file sets differ: %s vs %s" % (names, outputs(b))]
    diff = []
    for f in names:
        with open(os.path.join(a, f), "rb") as fa, \
                open(os.path.join(b, f), "rb") as fb:
            if fa.read() != fb.read():
                diff.append("traced %s differs from untraced" % f)
    return diff


def environment(reps):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), "")
    except OSError:
        pass
    versions = next((inv["versions"] for r in reps for inv in r["invocations"]),
                    {})
    return dict(versions, nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)),
                blas_threads=BLAS_THREADS, cpu_model=cpu)


def traced_metrics(plain, traced):
    """Per-layer metrics of one traced repetition, its invocations merged."""
    spans, counts = [], {}
    for inv in traced["invocations"]:
        base = len(spans)
        spans += [[n, a, b, p + base if p >= 0 else -1]
                  for n, a, b, p in inv["spans"]]
        for k, v in inv["counts"].items():
            if k in ("cutquad.max_arcs", "heatsolver.history_mb_computed"):
                counts[k] = max(counts.get(k, 0.0), v)
            else:
                counts[k] = counts.get(k, 0.0) + v
    m = layer_metrics(spans, counts)
    m["trace.in_process_s"] = traced["in_process_s"]
    m["trace.untraced_in_process_s"] = plain["in_process_s"]
    m["trace.self_sum_s"] = sum(inv["self_sum_s"]
                                for inv in traced["invocations"])
    m["trace.wrapper_cost_s"] = sum(inv["wrapper_cost_s"]
                                    for inv in traced["invocations"])
    return m


def trace_check(metrics, pairs):
    """Do the traced self times add up to the untraced in-process time?

    The gap between them should lie within the wrapper cost expected from
    the span count.  A negative measured overhead (traced minus untraced
    in-process time) means run-to-run noise hides it: unresolved.
    """
    gap = metrics["trace.self_sum_s"] - metrics["trace.untraced_in_process_s"]
    check = {"pairs": pairs, "gap_s": gap,
             "overhead_s": metrics["trace.overhead_s"],
             "wrapper_cost_s": metrics["trace.wrapper_cost_s"],
             "overhead_resolved": metrics["trace.overhead_s"] > 0,
             "gap_within_wrapper_cost":
                 abs(gap) <= metrics["trace.wrapper_cost_s"]}
    if not check["overhead_resolved"]:
        print("trace: measured overhead %.3f s over %d pair(s) is not positive: "
              "unresolved, below run-to-run noise"
              % (check["overhead_s"], pairs), file=sys.stderr)
    print("trace: self times sum to untraced in-process time %+.3f s; "
          "wrapper cost %.3f s; %s" % (gap, check["wrapper_cost_s"],
          "within" if check["gap_within_wrapper_cost"] else "not within"),
          file=sys.stderr)
    return check


def run(args, root, units):
    """Measure one workload; the result line, with ``units``' metrics."""
    bench = Bench(root, args.workload, args.seed)
    reps, per_pair = [], []
    t_start = time.perf_counter()
    try:
        if not args.trace and speed.usable():
            bench.probe = speed.Probe()
        while True:
            t_rep = time.perf_counter()
            if args.trace:
                plain = bench.repetition("plain")
                traced = bench.repetition("trace")
                if not (plain["problems"] or traced["problems"]):
                    traced["problems"] = same_outputs(plain["out"], traced["out"])
                reps += [plain, traced]
                per_pair.append((traced_metrics(plain, traced),
                                 not traced["problems"]))
            else:
                reps.append(bench.repetition("plain"))
            now = time.perf_counter()
            if now - t_start >= args.seconds \
                    or now - t_start + (now - t_rep) > RUN_LIMIT_S:
                break
    finally:
        bench.close()

    problems = [p for r in reps for p in r["problems"]]
    failed = sum(1 for r in reps if r["problems"])
    good = [r for r in reps if not r["problems"]] or reps
    check = None
    if args.trace:
        pairs = [m for m, ok in per_pair if ok] or [m for m, _ in per_pair]
        # one whole repetition, so that its self times add up
        pairs.sort(key=lambda m: m["trace.in_process_s"])
        metrics = dict(pairs[(len(pairs) - 1) // 2])
        metrics["trace.overhead_s"] = statistics.median(
            m["trace.in_process_s"] - m["trace.untraced_in_process_s"]
            for m in pairs)
        check = trace_check(metrics, len(pairs))
    else:
        metrics = {k: statistics.median(r[k] for r in good)
                   for k in ("wall_s", "setup_s", "peak_rss_mb",
                             "raw_wall_s", "raw_setup_s")}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "speed_probe": bench.probe is not None,
        "steps": [{"subcommand": s, "config": c, "args": a}
                  for s, c, a in bench.steps],
        "environment": environment(reps),
        "attempted": len(reps), "failed": failed,
        "failed_frac": failed / len(reps), "samples": len(good),
        "metrics": metrics, "trace_check": check, "problems": problems[:20],
        "repetitions": [{k: v for k, v in r.items() if k != "out"}
                        for r in reps],
    }
    path = os.path.join(bench.runs, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh)
    for p in problems[:5]:
        print("gate: " + p, file=sys.stderr)
    print("perfbench: %d of %d repetitions passed the gates"
          % (len(reps) - failed, len(reps)), file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tracefem", "cli.py")):
        print("perfbench: no src/tracefem in %s; run from the root of a "
              "tracefem checkout" % root, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    result = run(args, root, {m["name"]: m["unit"] for m in spec[kind]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
