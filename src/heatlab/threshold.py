"""Threshold experiments around the singular stationary profile.

Evolves perturbed singular data with the IMEX stepper, classifies each run
as globally bounded or blowing up, and sweeps signed bump amplitudes to
confirm that the sign of the perturbation alone decides the outcome.

threshold_scan is the one entry point.  Its initial data are the capped
profile min(u*, cap) plus a signed bump A exp(-((r - r_c)/sigma)^2):
at most u* for A <= 0, above the capped profile for A > 0.  A = 0 is
the capped profile itself, the run of `heatlab evolve`.  Each cap's Case
builds it once, and Case.data adds the bumps.  A run is one (amplitude,
cap) pair.  The runs of a scan advance in lockstep, in one loop under one
np.errstate: an iteration takes every run's sup norm and
largest reaction value from one f call on the stacked values, and each
active run makes one call.  That call applies the step the run took last
(its clock and sample record), does its bookkeeping on Python floats
(_stability_bound's dt, divergence test, horizon, sample clamp, reaction
guard) and may end the run.  The divergence test checks the sup and dt
guards before the inner reaction mass, which it takes from the
iteration's reaction values while no node passes 1e60.  The rest step
through one ImexStack solve, one symmetric tridiagonal ptsv with each
run's block at its own dt.  So a scan costs as many iterations as its
longest run, and each run's results are bit for bit those it gets alone.
No field or array view is built per run and step: a run copies its
values only into the rows of one snapshot matrix preallocated for it,
(N_SAMPLES + 2) x nodes, at the sample times and where it ends.  Its sup, reaction mass and excess series are
computed once, when it has ended, from the rows filled, which its
EvolutionOutcome keeps as one matrix.  Its L^1_ul series is computed
from them on first read, which only `heatlab evolve` makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import OutOfRange
from .evolution import (
    GEOMETRIC_SHARE,
    BoundaryCondition,
    ImexStack,
    RadialField,
    RadialGrid,
    _reaction_values,
    _star_on_nodes,
    _ul_windows,
    _within_reaction_guard,
    make_grid,
    sphere_area,
    transition_radius,
)
from .nonlinearity import NonlinearitySpec

__all__ = [
    "RadialBump",
    "Case",
    "EvolutionOutcome",
    "CaseReport",
    "ScanReport",
    "threshold_scan",
]

SUP_GUARD = 1e8          # sup-norm divergence guard
MASS_GUARD = 1e6         # inner reaction mass must grow by this factor
DT_UNDERFLOW = 1e-12     # adaptive step collapse corroborates divergence
PLATEAU_SLACK = 1.02     # allowed relative rise of the sup over the tail
N_SAMPLES = 64           # sample times per evolution (and dt clamps)
MAX_STEPS = 2_000_000    # steps after which an evolution stays Undetermined


@dataclass(frozen=True)
class RadialBump:
    """Signed Gaussian bump A * exp(-((r - r_c)/sigma)^2)."""

    r_c: float
    sigma: float
    amplitude: float

    def __post_init__(self):
        if self.r_c < 0 or self.sigma <= 0:
            raise ValueError("bump needs r_c >= 0 and sigma > 0")

    def profile(self, r: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-((r - self.r_c) / self.sigma) ** 2)


@dataclass
class EvolutionOutcome:
    """Classified evolution of one perturbed profile at one cap.  Its
    snapshots are the rows of one (len(times), n_nodes) matrix of nodal
    values on its grid: row 0 is u0, then one row per sample time reached
    and the state where the run ended; at most N_SAMPLES + 2 rows."""

    classification: str            # GlobalBounded | BlowUp | Undetermined
    cap: float
    t_detect: Optional[float]
    grid: RadialGrid
    times: np.ndarray
    values: np.ndarray             # row k holds the nodal values at times[k]
    sup_series: np.ndarray
    mass_series: np.ndarray
    side: str = "below"
    one_sided_excess: Optional[float] = None

    @cached_property
    def l1ul_series(self) -> np.ndarray:
        """The L^1_ul norm (the p = 1 window integral) of each snapshot,
        computed on first read."""
        return _ul_windows(self.grid, self.values, 1.0)[0]

    @property
    def sup_final(self) -> float:
        return float(self.sup_series[-1])

    @property
    def mass_final(self) -> float:
        return float(self.mass_series[-1])


@dataclass
class CaseReport:
    """Outcomes of one amplitude across a cap sequence."""

    outcomes: dict                 # cap -> EvolutionOutcome
    classification: str
    cap_stable: bool
    t_detect: Optional[float]

    @property
    def finest(self) -> EvolutionOutcome:
        return self.outcomes[max(self.outcomes)]


@dataclass(frozen=True, eq=False)
class Case:
    """The capped singular data of one (table, cap), built once by
    Case.build for every amplitude at that cap.  A Case is one cap, while
    ScanReport.cases and CaseReport are keyed by amplitude."""

    cap: float
    r_cap: float                   # where u* crosses the cap
    grid: RadialGrid               # resolves the capped core
    star: np.ndarray               # u* on the nodes: read-only, inf at 0
    envelope: RadialField          # min(u*, cap), the clipped nodes marked

    @classmethod
    def build(cls, table, cap: float, R_outer: float,
              n_nodes: int) -> "Case":
        """The case of one cap, on a grid in the table's dimension whose
        first node resolves the capped zone of u*.  The capped spike has
        height*width ~ cap * r_cap, order one, so resolved it is genuinely
        subcritical; unresolved, the cap acts like a wide supercritical
        plateau and diverges for any data.  OutOfRange when u* stays below
        the cap down to r = 1e-12 (slowly growing u*, such as the
        exponential class).
        """
        lo, hi = 1e-12, float(table.r[-1])
        ladder = np.geomspace(lo, hi, 32)
        u = table.u_star(ladder)
        if u[-1] >= cap:
            r_cap = hi
        elif u[0] < cap:
            raise OutOfRange(
                f"cap {cap:g} is above the singular profile at the smallest "
                f"resolvable radius: u*({lo:g}) = {u[0]:.6g}; choose a cap "
                f"below {u[0]:.6g}")
        else:
            j = np.flatnonzero(u >= cap)[-1]
            r_cap = float(brentq(lambda r: table.u_star(r) - cap,
                                 ladder[j], ladder[j + 1], xtol=1e-300))
        r1_frac = min(1e-3, 0.1 * r_cap / R_outer)
        # the capped core sits exactly at the marginal height*width
        # balance: past a node ratio of 1.3 in the geometric section,
        # truncation error tips the race and the core diverges spuriously
        span = transition_radius(R_outer) / (r1_frac * R_outer)
        n_geo_req = math.ceil(1.0 + math.log(span) / math.log(1.3))
        n_nodes = max(n_nodes, math.ceil(n_geo_req / GEOMETRIC_SHARE) + 2)
        bc = BoundaryCondition("dirichlet", table.u_star(R_outer))
        grid = make_grid(table.dim, R_outer, n_nodes, r1_frac=r1_frac, bc=bc)
        star = _star_on_nodes(table, grid)
        star.setflags(write=False)
        return cls(cap, r_cap, grid, star,
                   RadialField(grid, np.minimum(star, cap), star > cap))

    def data(self, bump: RadialBump) -> RadialField:
        """The envelope plus the bump, floored at 0 and capped again, so
        near the origin the data sit below u* on either side.  The sum
        needs no one-sided clip: m + b rounds to at most m <= u* for a
        bump b <= 0 and to at least m for b >= 0, m = min(u*, cap)."""
        u = np.maximum(self.envelope.u + bump.profile(self.grid.r), 0.0)
        mask = self.envelope.cap_mask | (u > self.cap)
        return RadialField(self.grid, np.minimum(u, self.cap), mask)


def _distinct(name: str, values: Sequence[float], shown=None) -> list:
    """values as floats; ValueError if there are none or one repeats,
    naming the entries as shown (default: the floats)."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError(f"{name} must not be empty")
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must not repeat an entry, got "
                         f"{values if shown is None else shown}")
    return values


def _case_report(runs: list) -> CaseReport:
    """The CaseReport of one amplitude's runs, one per cap."""
    outcomes = {run.cap: run.outcome() for run in runs}
    verdicts = {o.classification for o in outcomes.values()}
    cap_stable = len(verdicts) == 1
    classification = verdicts.pop() if cap_stable else "Undetermined"
    detects = [o.t_detect for o in outcomes.values()
               if o.t_detect is not None]
    return CaseReport(outcomes=outcomes,
                      classification=classification,
                      cap_stable=cap_stable,
                      t_detect=max(detects) if detects else None)


def _stability_bound(spec: Optional[NonlinearitySpec], sup: float,
                     dt_max: float) -> float:
    """The step bound 0.5 * min(dt_max, 1/f'(sup)) of every threshold run,
    or 0 when f'(sup) is not finite; the heat flow (spec None) has f' = 0."""
    fp = 0.0 if spec is None else float(spec.fp(sup))
    if not math.isfinite(fp):
        return 0.0
    return 0.5 * min(dt_max, 1.0 / max(fp, 1e-300))


class _Run:
    """One evolution of a Case's data plus one bump: its clock, its sample
    schedule, its snapshot matrix and its verdict.  _evolve steps it;
    between steps the run only sees its own block of the stacked values.
    Its clock and sample clamp are Python floats, and its values are
    copied only into the rows of one matrix preallocated for the run: row
    0 holds u0, then a row per sample time reached and the state where the
    run ends.  outcome() derives every series from the rows filled."""

    def __init__(self, spec, case: Case, bump: RadialBump, horizon: float):
        grid = case.grid
        self.spec, self.grid, self.star = spec, grid, case.star
        self.side = "above" if bump.amplitude > 0 else "below"
        # a Python float, so that the clock and every dt are too
        self.horizon, self.cap = float(horizon), case.cap
        self.dt_max = self.horizon / 50.0
        # the sample times, closed by inf so that the schedule never runs
        # out: past the last sample, no step is clamped or recorded
        self.samples = np.geomspace(self.horizon / 1e4, self.horizon,
                                    N_SAMPLES).tolist() + [math.inf]
        self.next_sample = 0
        # the clock and the step last taken, which next_dt applies
        self.t, self.dt = 0.0, 0.0
        self.classification = "Undetermined"
        self.t_detect = None
        # floor at R/8: on cap-resolving grids the ten innermost cells
        # collapse into the unresolved core, below where a desk-scale
        # divergence can localize; the nodes with r <= r_star are a prefix
        r_star = max(float(grid.r[min(10, grid.n_nodes - 1)]),
                     grid.R_outer / 8.0)
        n_inner = int(np.searchsorted(grid.r, r_star, side="right"))
        self.inner_volumes = grid.cell_volumes[:n_inner]
        self.area = sphere_area(grid.dim)
        self.n_nodes = grid.n_nodes
        self.values = np.empty((N_SAMPLES + 2, grid.n_nodes))
        self.values[0] = case.data(bump).u
        self.times = [0.0]
        self.mass0 = max(float(self.inner_mass(self.values[0])), 1e-300)

    def inner_mass(self, u: np.ndarray) -> np.ndarray:
        """Reaction mass of f(u) over the ball of radius r_star for each
        row of values u (the last axis holds the nodes); one row of values
        gives a scalar."""
        if self.spec is None:
            return np.zeros(u.shape[:-1])
        return self._mass(_reaction_values(
            self.spec, np.minimum(u[..., :len(self.inner_volumes)], 1e60)))

    def _mass(self, fu: np.ndarray) -> np.ndarray:
        """inner_mass from the reaction values fu on the inner nodes, which
        it overwrites."""
        # for f >= 0 this is nan_to_num(fu, posinf=1e200) capped at 1e200
        fu[np.isnan(fu)] = 0.0
        np.minimum(fu, 1e200, out=fu)
        return self.area * np.sum(fu * self.inner_volumes, axis=-1)

    def _record(self, u: np.ndarray, a: int) -> None:
        """Copy the run's values, u[a:a + n_nodes] of the stacked values u,
        into the next row of its matrix, at its time t."""
        self.values[len(self.times)] = u[a:a + self.n_nodes]
        self.times.append(self.t)

    def _reach(self, u: np.ndarray, a: int) -> None:
        """The step of self.dt reached the stacked values u, the run's from
        index a on: advance the clock and record them at a sample time."""
        self.t += self.dt
        if self.t >= self.samples[self.next_sample] * (1 - 1e-12):
            self._record(u, a)
            self.next_sample += 1

    def next_dt(self, u: np.ndarray, fu: Optional[np.ndarray], a: int,
                sup: float, f_max: float) -> Optional[float]:
        """The run's next step, from its values u[a:a + n_nodes] of the
        stacked values u, which the step it took last reached (the first
        call has none), with reaction values fu = f(u) (None for the heat
        flow), sup-norm sup and largest reaction value f_max; or None when
        the run ends here: at the horizon, or diverged or overflowing
        (BlowUp past the sup guard)."""
        if self.dt:
            self._reach(u, a)
        t = self.t
        dt_stab = _stability_bound(self.spec, sup, self.dt_max)
        # the scalar conditions first: the mass is the costly one
        diverged = sup > SUP_GUARD and dt_stab < DT_UNDERFLOW
        if diverged:
            # where no node passes 1e60, fu is f(min(u, 1e60)) already
            inner = slice(a, a + len(self.inner_volumes))
            mass = (self._mass(fu[inner].copy())
                    if fu is not None and sup <= 1e60
                    else self.inner_mass(u[inner]))
            diverged = mass > MASS_GUARD * self.mass0
        if t >= self.horizon and not diverged:
            return None
        # the next sample time is ahead of t: _reach passes each it reaches
        dt = min(dt_stab, self.horizon - t,
                 self.samples[self.next_sample] - t)
        if (diverged or dt_stab == 0.0
                or not _within_reaction_guard(f_max, dt)):
            # a diverged run is past the sup guard, so BlowUp
            if sup > SUP_GUARD:
                self.classification = "BlowUp"
                self.t_detect = t
            self._record(u, a)
            return None
        self.dt = dt
        return dt

    def outcome(self) -> EvolutionOutcome:
        """The classified evolution once the run has ended, its series
        taken from the rows of its matrix: the sup norm, the inner
        reaction mass and, below u*, the largest relative excess over u*
        on r >= 0.1 of any row."""
        classification = self.classification
        times = np.array(self.times)
        # a copy: the outcome owns its rows and pins no spare ones
        u = self.values[:len(times)].copy()
        sups = u.max(axis=1)
        excess = None
        if self.side == "below":
            r, star = self.grid.r, self.star
            sel = (r >= 0.1) & np.isfinite(star)
            excess = float(((u[:, sel] - star[sel]) / star[sel]).max())
        if classification != "BlowUp" and self.t >= self.horizon:
            tail = sups[times >= 0.5 * self.horizon]
            if (np.all(np.isfinite(sups)) and len(tail) >= 2
                    and tail[-1] <= PLATEAU_SLACK * tail[0]
                    and tail.max() <= PLATEAU_SLACK * tail[0]):
                classification = "GlobalBounded"
        return EvolutionOutcome(classification=classification, cap=self.cap,
                                t_detect=self.t_detect, grid=self.grid,
                                times=times, values=u, sup_series=sups,
                                mass_series=self.inner_mass(u),
                                side=self.side, one_sided_excess=excess)


def _evolve(spec, runs: list) -> None:
    """Step every run to its end in lockstep.

    The loop runs under one np.errstate that lets f overflow to inf.  An
    iteration takes one max per run over the stacked values and one f
    call on them, with one max per run over the reaction values, all as
    Python floats.  Each active run then makes one next_dt call: it applies
    the step it took last (clock, sample record) and does its scalar
    bookkeeping on floats (_stability_bound's dt, divergence test, horizon,
    sample clamp, reaction guard), and may end itself.  The divergence
    test takes the inner reaction mass only past the sup and dt guards,
    from this iteration's reaction values where no node passes 1e60.  The
    others advance through one ImexStack.step, one symmetric tridiagonal
    ptsv solve with each block at its run's own dt; no field or array view
    is built per run and step, and no series is computed in the loop.  A
    run that ends leaves the stack, so each run sees exactly the steps it
    would take alone.
    """
    active = list(runs)
    stack = ImexStack([run.grid for run in active])
    u = np.concatenate([run.values[0] for run in active])
    fu, f_maxes = None, [0.0] * len(active)
    with np.errstate(over="ignore"):
        for _ in range(MAX_STEPS):
            sups = np.maximum.reduceat(u, stack.starts).tolist()
            if spec is not None:
                fu = np.asarray(spec.f(u), dtype=float)
                f_maxes = np.maximum.reduceat(fu, stack.starts).tolist()
            dts = [run.next_dt(u, fu, a, sup, f_max)
                   for run, (a, _), sup, f_max
                   in zip(active, stack.bounds, sups, f_maxes)]
            if None in dts:
                keep = [k for k, dt in enumerate(dts) if dt is not None]
                if not keep:
                    return
                rows = np.concatenate([np.arange(*stack.bounds[k])
                                       for k in keep])
                u = u[rows]
                fu = None if fu is None else fu[rows]
                active, dts = [active[k] for k in keep], [dts[k] for k in keep]
                stack = ImexStack([run.grid for run in active])
            u = stack.step(u, fu, dts)
    # past MAX_STEPS the runs left stay Undetermined, each at its last step
    for run, (a, _) in zip(active, stack.bounds):
        run._reach(u, a)


@dataclass
class ScanReport:
    """Amplitude sweep of bump perturbations at every cap."""

    amplitudes: np.ndarray
    cases: dict                    # amplitude -> CaseReport
    config: dict

    def classifications(self) -> list:
        return [self.cases[a].classification for a in self.amplitudes]

    @property
    def monotone(self) -> bool:
        """At most one case is Undetermined, and the others switch from
        GlobalBounded to BlowUp at most once in the amplitude."""
        classes = self.classifications()
        known = [c for c in classes if c != "Undetermined"]
        return (len(known) >= len(classes) - 1
                and known == sorted(known, key=["GlobalBounded",
                                                "BlowUp"].index))

    def rows(self):
        """scan.csv rows, one per (amplitude, cap): amplitude,
        classification, t_detect (nan if none), cap, sup and reaction
        mass at the end, and the node count the run stepped."""
        for a in self.amplitudes:
            for cap in sorted(self.cases[a].outcomes):
                o = self.cases[a].outcomes[cap]
                yield (float(a), o.classification,
                       o.t_detect if o.t_detect is not None else float("nan"),
                       float(cap), o.sup_final, o.mass_final, o.grid.n_nodes)

    def to_dict(self) -> dict:
        """Summary for scan.json; its config is a copy the caller may
        extend."""
        return {
            "config": dict(self.config),
            "amplitudes": [float(a) for a in self.amplitudes],
            "classifications": self.classifications(),
            "cap_stable": [bool(self.cases[a].cap_stable)
                           for a in self.amplitudes],
            "t_detect": [self.cases[a].t_detect for a in self.amplitudes],
        }


def threshold_scan(spec: Optional[NonlinearitySpec], table,
                   bump_shape: RadialBump,
                   A_grid: Sequence[float],
                   horizon: float = 0.5,
                   caps: Sequence[float] = (1e4, 1e5),
                   n_nodes: int = 129,
                   R_outer: float = 8.0) -> ScanReport:
    """Evolve bumped singular data at every (amplitude, cap), classify
    each run and verify the sign dichotomy.

    bump_shape fixes r_c and sigma; its amplitude field is ignored in
    favour of each entry of A_grid.  A run is "above" u* when its
    amplitude is positive, else "below".

    A run is BlowUp by one of two rules.  Either three signals corroborate:
    the sup-norm beyond SUP_GUARD, the reaction mass inside
    r_star = max(r_10, R_outer/8) amplified a million-fold, and collapse
    of the adaptive time step below DT_UNDERFLOW.  Or its reaction
    overflows (dt * max f past REACTION_GUARD, or f'(sup) not finite)
    with the sup-norm beyond SUP_GUARD alone; below it such a run ends
    Undetermined.  GlobalBounded requires reaching the horizon with the
    sup-norm non-increasing (within slack) over the final half.  Anything
    else is Undetermined.  An amplitude's verdict (its CaseReport) is the
    shared per-cap verdict when all caps agree, else Undetermined with
    cap_stable=False; the report's `monotone` says whether the verdicts
    are monotone in the amplitude.  An empty or repeating amplitude or cap
    list, an amplitude that is not finite, a cap that is NaN or not
    positive, a horizon or R_outer that is not finite and positive, or
    n_nodes < 8, is a ValueError raised before any grid is built.  Each
    cap's Case is built once for every amplitude; its grid may add nodes
    for the cap, and scan.csv records the count each run stepped.  All
    runs step in lockstep (see _evolve).
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if not (math.isfinite(R_outer) and R_outer > 0):
        raise ValueError(f"R_outer must be finite and > 0, got {R_outer!r}")
    if n_nodes < 8:                          # make_grid's own floor
        raise ValueError(f"n_nodes must be >= 8, got {n_nodes!r}")
    amps = np.asarray(sorted(_distinct("amplitudes", A_grid)))
    if not np.isfinite(amps).all():
        raise ValueError(f"amplitudes must be finite, got {amps.tolist()}")
    caps = _distinct("caps", caps)
    if not all(cap > 0 for cap in caps):     # False for NaN too
        raise ValueError(f"caps must be > 0 and not NaN, got {caps}")
    # every amplitude shares the caps, so each cap's Case is built once
    per_cap = [Case.build(table, cap, R_outer, n_nodes) for cap in caps]
    runs = {a: [_Run(spec, case, replace(bump_shape, amplitude=a), horizon)
                for case in per_cap] for a in amps.tolist()}
    _evolve(spec, [run for amp_runs in runs.values() for run in amp_runs])
    cases = {a: _case_report(amp_runs) for a, amp_runs in runs.items()}
    return ScanReport(amplitudes=amps, cases=cases, config={
        "r_c": bump_shape.r_c, "sigma": bump_shape.sigma,
        "horizon": horizon, "caps": caps,
        "n_nodes": n_nodes, "R_outer": R_outer,
    })
