"""heatlab benchmark: runs one workload for a fixed time and prints every
metric by name and unit, the last line being one JSON object.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a heatlab checkout; it imports heatlab from
./src and writes only under ./.perfbench_runs.  Each measured pass runs
in a fresh interpreter (perfbench/workloads.py), closed loop, one pass at
a time.  With --trace 0 it reports the end-to-end metrics (medians over
the passes); with --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones.  See perfbench/README.md
for the workloads and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("singular-exp", "threshold-cubic", "sandwich-cubic")
MIN_SETUPS = 7              # set-up samples per run; setup_s is their median
PASS_TIMEOUT_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    # BLAS pinned to one thread: a pass never runs more threads than nproc,
    # and dense matvecs do not race the pass for the second core.  No
    # bytecode cache: every pass compiles heatlab the same way, so the
    # first run in a fresh checkout does not pay a set-up cost the others
    # skip.
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def one_pass(workload, out, trace=0, setup_only=False):
    """Run one pass in a fresh interpreter; None if it produced no result."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", workload, "--out", out, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with open(os.path.join(out + ".log"), "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                                  stdout=log, stderr=subprocess.STDOUT,
                                  timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    path = os.path.join(out, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "heatlab_commit": git_commit(),
        "heatlab_src_sha256": source_digest(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="heatlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "heatlab", "cli.py")):
        print("perfbench: no heatlab sources under ./src; run from the root "
              "of a heatlab checkout", file=sys.stderr)
        return 2

    # The inputs are the paper's fixed examples, so the seed only names the
    # run directory; the same seed always gives the same inputs.
    run_dir = os.path.join(ROOT, ".perfbench_runs",
                           f"{args.workload}-seed{args.seed}-trace"
                           f"{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)

    passes, traced, setups, lost = [], [], [], 0

    def setup_once():
        res = one_pass(args.workload,
                       os.path.join(run_dir, f"setup{len(setups)}"),
                       setup_only=True)
        if res is not None:
            setups.append(res)
        return res is not None

    start = time.perf_counter()
    k = 0
    # closed loop: start another pass only while it is expected to finish
    # within the run time; there is always at least one pass of each kind
    while True:
        kind = 1 if args.trace and k % 2 == 1 else 0
        t = time.perf_counter()
        res = one_pass(args.workload, os.path.join(run_dir, f"pass{k}"),
                       trace=kind)
        last = time.perf_counter() - t
        k += 1
        if res is None:
            lost += 1
        else:
            setups.append(res)
            (traced if kind else passes).append(res)
        # set-up samples are spread over the run, between the passes
        if res is not None and len(setups) < MIN_SETUPS:
            setup_once()
            last = time.perf_counter() - t
        have_all = passes and (traced or not args.trace)
        if not have_all and lost >= 2:
            break
        if have_all and time.perf_counter() - start + last > args.seconds:
            break
    while passes and len(setups) < MIN_SETUPS and setup_once():
        pass

    measured = passes + traced
    if not passes or (args.trace and not traced):
        print(f"perfbench: {args.workload}: no pass produced a result; "
              f"see {run_dir}", file=sys.stderr)
        return 1
    n_ops = len(measured[0]["ops"])
    attempted = sum(len(r["ops"]) for r in measured) + lost * n_ops
    failed = sum(1 for r in measured for op in r["ops"] if not op["ok"])
    failed += lost * n_ops
    for r in measured:
        for op in r["ops"]:
            if not op["ok"]:
                print(f"FAILED {op['op']}: {op['detail']}")

    wall = median([r["wall_s"] for r in passes])
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            unit = traced[0]["layers"][name]["unit"]
            metrics[name] = {"value": median(
                [r["layers"][name]["value"] for r in traced]), "unit": unit}
        metrics["trace_overhead_s"] = {
            "value": median([r["wall_s"] for r in traced]) - wall,
            "unit": "s"}
    else:
        shares = [max(r["gate_shares"].values()) for r in passes
                  if r["gate_shares"]]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": median([r["cpu_s"] for r in passes]),
                      "unit": "s"},
            "setup_s": {"value": median([r["setup_s"] for r in setups]),
                        "unit": "s"},
            "peak_rss_mb": {"value": median(
                [r["peak_rss_mb"] for r in passes]), "unit": "MB"},
            "checks_passed_frac": {"value": 1.0 - failed / attempted,
                                   "unit": "1"},
            "gate_share_max": {"value": max(shares) if shares else 1.0,
                               "unit": "1"},
        }

    accuracy = {}
    for r in measured:
        for name, v in r["accuracy"].items():
            accuracy[name] = max(accuracy.get(name, v), v)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "traced_passes": len(traced),
        "lost_passes": lost,
        "samples": {key: [r[key] for r in rows] for key, rows in (
            ("setup_s", setups), ("setup_raw_s", setups),
            ("wall_s", passes), ("wall_raw_s", passes),
            ("cpu_s", passes), ("cpu_raw_s", passes),
            ("speed_scale", passes))},
        "accuracy": accuracy,
        "classifications": measured[0].get("classifications"),
        "environment": environment(),
        "metrics": metrics,
    }
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(record["environment"]))
    print("accuracy " + json.dumps(accuracy))
    print("medians as measured, before rescaling to the reference speed: "
          + json.dumps({key: median(values) for key, values
                        in record["samples"].items()
                        if key.endswith("_raw_s") or key == "speed_scale"}))
    if record["classifications"]:
        print("classifications " + json.dumps(record["classifications"]))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
