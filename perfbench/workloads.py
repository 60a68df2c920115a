"""One measured pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --out DIR [--trace 0|1]
                                   [--setup-only]

Writes DIR/result.json (setup and pass timings, peak RSS, every checked
operation, accuracy figures and, when traced, per-layer metrics) and, when
traced, DIR/spans.json.  The inputs are the paper's fixed examples; the
process exits 0 whenever it wrote a result, even if checks failed.

Times are reported at a reference machine speed (see SpeedProbe) and also
as measured, under names ending in _raw_s.

A fresh interpreter per pass matters: heatlab keeps a process-wide
semigroup operator cache and an lru_cache of angular kernels, so a second
pass in the same process would skip work every heatlab command pays.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, CLI flags) of the `heatlab singular` cases of singular-exp
SINGULAR_CASES = (
    ("power-exp", ["--family", "power-exp", "--p", "5", "--q", "2",
                   "--dim", "3"]),
    ("cutoff-exp", ["--family", "cutoff-exp", "--a", "20", "--dim", "3"]),
    ("pure-power", ["--family", "pure-power", "--p", "3", "--dim", "5"]),
)
AMPLITUDE_FACTORS = (-0.3, -0.1, 0.1, 0.3)
WANT_CLASSES = ["GlobalBounded", "GlobalBounded", "BlowUp", "BlowUp"]

# gates of the acceptance criteria the checks reuse
FLUX_GATE = 1e-4            # criterion 5
CLOSED_FORM_GATE = 1e-3     # criterion 1
ASYM_GATE = 0.05            # criterion 2
ORDERING_GATE = 1e-8        # criterion 7
DEFECT_GATE = 1e-2          # criterion 8
DEFECT_RATIO_GATE = 1.5     # criterion 8
GATE_SHARE_FLOOR = 0.01

PROBE_INTERVAL_S = 0.02
REF_PROBE_S = 1e-4          # kernel duration at the reference speed


def python_kernel():
    """Pure-Python probe kernel."""
    x = 0
    for i in range(3000):
        x += i


def quad_kernel():
    """Probe kernel shaped like heatlab's hot loops: adaptive quad over a
    Python integrand.  Built only once heatlab has imported scipy, so the
    probe adds nothing to the set-up time."""
    from scipy.integrate import quad

    def kernel():
        for _ in range(3):
            quad(lambda s: math.exp(-s * s) * s, 0.0, 3.0, epsabs=1e-13,
                 epsrel=1e-12)

    return kernel


class SpeedProbe:
    """Samples how fast the machine runs while this process works.

    Every PROBE_INTERVAL_S of wall time a SIGALRM handler times a small
    fixed kernel (under 1% of the process's time).  On a shared host the
    speed of a virtual CPU swings by 30-60% for seconds at a time, far more
    than the changes the benchmark must resolve, so each time taken over a
    window is divided by the mean slowness in that window (kernel duration
    over REF_PROBE_S): it is reported as if the machine ran at the
    reference speed, at which a kernel takes REF_PROBE_S.  The probes run
    in the measured process and are sampled uniformly in wall time, so
    their mean tracks the slowdown the measured work saw.
    """

    def __init__(self):
        self.samples = []
        self.kernel = python_kernel

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.kernel()
        self.samples.append((time.perf_counter() - t) / REF_PROBE_S)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def scale(self, since):
        """1 / mean slowness of the samples taken since sample `since`."""
        window = self.samples[since:] or self.samples
        return len(window) / sum(window)


class Checks:
    """Every gate is one operation.  An error raised by the program inside
    an operation fails that operation only."""

    def __init__(self, errors=()):
        self.errors = errors
        self.ops = []
        self.accuracy = {}
        self.gate_shares = {}

    def record(self, name, ok, detail=""):
        self.ops.append({"op": name, "ok": bool(ok), "detail": detail})

    def run(self, name, fn):
        try:
            return fn()
        except self.errors as exc:
            self.record(name, False, f"{type(exc).__name__}: {exc}")
            return None

    def gate(self, name, value, limit, metric=None):
        """value <= limit, recorded as a share of the limit.  Shares below
        GATE_SHARE_FLOOR count as the floor: a change that far inside a
        gate is not a loss of accuracy."""
        ok = value is not None and math.isfinite(value) and value <= limit
        self.record(name, ok, f"{value!r} <= {limit:g}")
        if value is not None and math.isfinite(value):
            self.gate_shares[name] = max(value / limit, GATE_SHARE_FLOOR)
            if metric is not None:
                self.accuracy[metric] = max(self.accuracy.get(metric, 0.0),
                                            value)


def closed_form_err(r, u):
    """max |u r / sqrt(2) - 1| on r in [1e-2, 1] (cubic, N = 5)."""
    import numpy as np
    r, u = np.asarray(r, float), np.asarray(u, float)
    sel = (r >= 1e-2) & (r <= 1.0)
    return float(np.abs(u[sel] * r[sel] / math.sqrt(2.0) - 1.0).max())


def read_columns(path, n):
    """First n columns of a CSV with a header row, read by position."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(row[i]) for row in rows] for i in range(n)]


# ---------------------------------------------------------------------------
# workloads: setup(out, checks) returns a state; run(state, checks) is the
# timed pass; check(state, result, checks) runs after the clock stops
# ---------------------------------------------------------------------------

def singular_setup(out, checks):
    import heatlab.cli  # noqa: F401  (import is part of set-up)
    return {"out": out}


def singular_run(state, checks):
    from heatlab import cli
    codes = {}
    for name, flags in SINGULAR_CASES:
        case_dir = os.path.join(state["out"], "singular", name)
        codes[name] = checks.run(
            f"{name}: heatlab singular",
            lambda: cli.main(["singular", *flags, "--out-dir", case_dir]))
    return codes


def singular_check(state, codes, checks):
    for name, _ in SINGULAR_CASES:
        case_dir = os.path.join(state["out"], "singular", name)
        if codes.get(name) is None:
            continue
        checks.record(f"{name}: exit code 0", codes[name] == 0,
                      f"exit {codes[name]}")
        if codes[name] != 0:
            continue
        try:
            with open(os.path.join(case_dir,
                                   "singular_verification.json")) as fh:
                flux = json.load(fh)["flux_identity_max_rel_residual"]
            if name == "pure-power":
                r, u = read_columns(
                    os.path.join(case_dir, "singular_table.csv"), 2)
                accuracy = ("closed form", closed_form_err(r, u),
                            CLOSED_FORM_GATE, "closed_form_err")
            else:
                _, ratio = read_columns(
                    os.path.join(case_dir, "asymptotic_ratio.csv"), 2)
                accuracy = ("asymptotic ratio",
                            max(abs(v - 1.0) for v in ratio), ASYM_GATE,
                            "asym_ratio_dev")
        except (OSError, KeyError, IndexError, ValueError) as exc:
            checks.record(f"{name}: artifacts readable", False, repr(exc))
            continue
        checks.gate(f"{name}: flux residual", flux, FLUX_GATE,
                    "flux_residual_max")
        label, value, limit, metric = accuracy
        checks.gate(f"{name}: {label}", value, limit, metric)
    state["artifact_bytes"] = sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(os.path.join(state["out"], "singular"))
        for f in files)


def cubic_setup(out, checks):
    """The prerequisite cubic table, checked against its closed form."""
    import numpy as np
    from heatlab import nonlinearity, singular_ode
    spec = nonlinearity.pure_power(3.0)
    table = singular_ode.build_singular(spec, 5)
    r = np.geomspace(1e-2, 1.0, 200)
    checks.gate("cubic table: closed form",
                closed_form_err(r, table.u_star(r, spec)),
                CLOSED_FORM_GATE, "closed_form_err")
    return {"spec": spec, "table": table}


def threshold_run(state, checks):
    import inspect
    from heatlab import threshold
    spec, table = state["spec"], state["table"]
    ustar2 = float(table.u_star(2.0, spec))
    kwargs = {"horizon": 2.0, "caps": (1e4, 1e5), "n_nodes": 129}
    if "workers" in inspect.signature(threshold.threshold_scan).parameters:
        kwargs["workers"] = 1
    return checks.run(
        "threshold_scan",
        lambda: threshold.threshold_scan(
            spec, table, threshold.RadialBump(2.0, 2.0, 0.0),
            [fa * ustar2 for fa in AMPLITUDE_FACTORS], **kwargs))


def threshold_check(state, report, checks):
    if report is None:
        return
    classes = report.classifications()
    for fa, want, got, amp in zip(AMPLITUDE_FACTORS, WANT_CLASSES, classes,
                                  report.amplitudes):
        stable = report.cases[amp].cap_stable
        checks.record(f"A={fa:+g} u*(2): {want}, cap-stable",
                      got == want and stable, f"{got}, cap_stable={stable}")
    state["classifications"] = classes


def sandwich_run(state, checks):
    from heatlab import evolution, iteration
    spec, table = state["spec"], state["table"]
    bc = evolution.BoundaryCondition("dirichlet", float(table.u_star(8.0)))
    out = {}

    def ladders():
        grid = evolution.make_grid(5, 8.0, 64, bc=bc)
        envelope = evolution.field_from_table(table, grid, cap=2.0,
                                              spec=spec)
        u0 = evolution.RadialField(grid, 0.9 * envelope.u,
                                   envelope.cap_mask.copy())
        below = iteration.run_ladder("from_below", u0, spec, 0.01, k_max=6,
                                     ladder_tol=0.0)
        above = iteration.run_ladder(
            iteration.LadderSeed.from_above(envelope), u0, spec, 0.01,
            k_max=6, ladder_tol=0.0)
        return below, above

    pair = checks.run("ladders", ladders)
    if pair is not None:
        out["ladders"] = pair
        out["bounded"] = checks.run(
            "immediate boundedness",
            lambda: iteration.check_immediate_boundedness(
                pair[1], spec, (0.002, 0.01)))

    def residuals():
        coarse = evolution.make_grid(5, 8.0, 65, bc=bc)
        return [iteration.fixed_point_residual(
            evolution.field_from_table(table, g, cap=50.0, spec=spec),
            spec, 0.01) for g in (coarse, coarse.refined())]

    out["residuals"] = checks.run("fixed-point residual", residuals)
    return out


def sandwich_check(state, out, checks):
    if "ladders" in out:
        below, above = out["ladders"]
        k = min(below.k, above.k)
        cross = max(float((below.trajectories[j].values
                           - above.trajectories[j].values).max())
                    for j in range(k + 1))
        worst = max(below.ordering_violation_max,
                    above.ordering_violation_max, cross)
        checks.gate("worst ordering violation", worst, ORDERING_GATE,
                    "ordering_violation")
    if out.get("bounded") is not None:
        checks.record("immediate boundedness on (0.002, 0.01]",
                      out["bounded"]["bounded"],
                      f"sup_iterate4={out['bounded']['sup_iterate4']!r}")
    if out.get("residuals") is not None:
        coarse, fine = out["residuals"]
        checks.gate("refined fixed-point defect", fine, DEFECT_GATE,
                    "fp_defect")
        ratio = coarse / fine if fine > 0 else math.inf
        checks.record("defect ratio under refinement",
                      ratio >= DEFECT_RATIO_GATE, f"{ratio!r} >= 1.5")
        if ratio > 0:
            checks.gate_shares["defect ratio"] = max(
                DEFECT_RATIO_GATE / ratio, GATE_SHARE_FLOOR)


WORKLOADS = {
    "singular-exp": (singular_setup, singular_run, singular_check),
    "threshold-cubic": (cubic_setup, threshold_run, threshold_check),
    "sandwich-cubic": (cubic_setup, sandwich_run, sandwich_check),
}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

def _observers():
    def dt(args, kwargs, out):
        return kwargs["dt"] if "dt" in kwargs else args[2]

    return {
        "evolution.ul_norm": lambda a, k, out: out.centers_sampled,
        "evolution.step_imex": dt,
        "threshold.run_case": lambda a, k, out: sum(
            len(o.times) for o in out.outcomes.values()),
    }


def layer_metrics(tracer, wall, scale, artifact_bytes):
    """Per-layer metrics; times are multiplied by the pass's speed scale."""
    from tracer import LAYERS, NAMED
    summary = tracer.summary()

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return summary.get(name, {}).get("total_s", 0.0)

    m = {}
    for layer in LAYERS:
        for fn in NAMED[layer]:
            m[f"{layer}.{fn}.calls"] = (calls(f"{layer}.{fn}"), "count")
            m[f"{layer}.{fn}.self_s"] = (scale * self_s(f"{layer}.{fn}"),
                                         "s")
        own = sum((v["self_s"] for k, v in summary.items()
                   if k.startswith(layer + ".")), 0.0)
        m[f"{layer}.self_s"] = (scale * own, "s")
        m[f"{layer}.share"] = (100.0 * own / wall, "%")
        m[f"{layer}.errors"] = (tracer.errors.get(layer, 0), "count")

    inverse = calls("nonlinearity.eval_F_inverse_log")
    m["nonlinearity.F_log_per_inverse"] = (
        calls("nonlinearity.eval_F_log") / inverse if inverse else 0.0,
        "calls/call")
    centres = tracer.observed.get("evolution.ul_norm", [])
    m["evolution.ul_norm.centres_per_call"] = (
        sum(centres) / len(centres) if centres else 0.0, "centres/call")
    dts = tracer.observed.get("evolution.step_imex", [])
    m["evolution.step_imex.dt_min"] = (min(dts) if dts else 0.0, "t")
    m["evolution.step_imex.dt_max"] = (max(dts) if dts else 0.0, "t")
    m["evolution.reaction_overflow"] = (tracer.reaction_overflow, "count")
    m["evolution.SemigroupOperator.builds"] = (
        calls("evolution.SemigroupOperator"), "count")
    m["evolution.SemigroupOperator.self_s"] = (
        scale * self_s("evolution.SemigroupOperator"), "s")
    requests = calls("evolution.semigroup_operator")
    m["evolution.semigroup_cache_hit_ratio"] = (
        100.0 * (1.0 - calls("evolution.SemigroupOperator") / requests)
        if requests else 0.0, "%")
    m["threshold.samples_recorded"] = (
        sum(tracer.observed.get("threshold.run_case", [])), "count")
    run_case = total_s("threshold.run_case")
    m["threshold.ul_norm_share"] = (
        100.0 * total_s("evolution.ul_norm") / run_case if run_case else 0.0,
        "%")
    m["cli.artifact_bytes"] = (artifact_bytes, "B")
    m["spans_recorded"] = (len(tracer.spans), "count")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    setup, run, check = WORKLOADS[args.workload]

    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from heatlab.errors import HeatLabError
    checks = Checks((HeatLabError, ValueError))
    state = setup(args.out, checks)
    setup_raw = time.perf_counter() - t0
    result = {"workload": args.workload, "setup_raw_s": setup_raw,
              "setup_s": setup_raw * probe.scale(0)}
    probe.kernel = quad_kernel()

    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(_observers())
        since = len(probe.samples)
        c0, t1 = time.process_time(), time.perf_counter()
        out = run(state, checks)
        wall, cpu = time.perf_counter() - t1, time.process_time() - c0
        probe.stop()
        scale = probe.scale(since)
        check(state, out, checks)
        result.update({
            "wall_raw_s": wall,
            "cpu_raw_s": cpu,
            "wall_s": wall * scale,
            "cpu_s": cpu * scale,
            "speed_scale": scale,
            "probes": len(probe.samples) - since,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        if tracer is not None:
            result["layers"] = {
                k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(
                    tracer, wall, scale,
                    state.get("artifact_bytes", 0)).items()}
            result["spans"] = tracer.summary()
            tracer.dump(os.path.join(args.out, "spans.json"))
        if "classifications" in state:
            result["classifications"] = state["classifications"]
    probe.stop()
    result.update({"ops": checks.ops, "accuracy": checks.accuracy,
                   "gate_shares": checks.gate_shares})
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
