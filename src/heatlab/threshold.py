"""Threshold experiments around the singular stationary profile.

Evolves perturbed singular data with the IMEX stepper, classifies each run
as globally bounded or blowing up, and sweeps signed bump amplitudes to
confirm that the sign of the perturbation alone decides the outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import brentq

from .errors import NonMonotoneScan, OutOfRange, ReactionOverflow
from .evolution import (
    GEOMETRIC_SHARE,
    BoundaryCondition,
    RadialField,
    RadialGrid,
    make_grid,
    sphere_area,
    stability_dt,
    step_imex,
    transition_radius,
    ul_norm,
)
from .nonlinearity import NonlinearitySpec

__all__ = [
    "RadialBump",
    "Truncation",
    "EvolutionOutcome",
    "CaseReport",
    "ScanReport",
    "initial_data",
    "run_case",
    "threshold_scan",
]

SUP_GUARD = 1e8          # sup-norm divergence guard
MASS_GUARD = 1e6         # inner reaction mass must grow by this factor
DT_UNDERFLOW = 1e-12     # adaptive step collapse corroborates divergence
PLATEAU_SLACK = 1.02     # allowed relative rise of the sup over the tail
N_SAMPLES = 64           # sup/mass/dt samples recorded per evolution


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

    @property
    def side(self) -> str:
        if self.amplitude > 0:
            return "above"
        if self.amplitude < 0:
            return "below"
        return "neutral"


@dataclass(frozen=True)
class Truncation:
    """Cap-only perturbation u0 = min(profile, cap)."""

    cap: float

    def __post_init__(self):
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    @property
    def side(self) -> str:
        return "below"


Perturbation = Union[RadialBump, Truncation]


def _star_on_nodes(table, grid: RadialGrid,
                   spec: Optional[NonlinearitySpec]) -> np.ndarray:
    """The singular profile at the grid nodes, infinite at the origin."""
    star = np.empty(grid.n_nodes)
    star[0] = np.inf
    star[1:] = np.asarray(table.u_star(grid.r[1:], spec))
    return star


def initial_data(table, grid: RadialGrid, pert: Perturbation,
                 cap: float, spec: Optional[NonlinearitySpec] = None,
                 star: Optional[np.ndarray] = None
                 ) -> Tuple[RadialField, str]:
    """Build one-sided initial data from the singular profile.

    The perturbation is applied to the capped profile and the cap is
    applied again last, so near the origin the data always sits below the
    stationary profile regardless of side.  The result is clipped to stay
    one-sided away from the capped zone and returned with its side label;
    a neutral bump (amplitude 0) counts as below.  ``star`` is the profile
    on the grid nodes as _star_on_nodes gives it, when the caller holds it
    already; by default it is evaluated from the table.
    """
    side = "above" if pert.side == "above" else "below"
    if star is None:
        star = _star_on_nodes(table, grid, spec)
    u = np.minimum(star, cap)
    if isinstance(pert, RadialBump):
        u = u + pert.profile(grid.r)
    else:
        u = np.minimum(u, pert.cap)
    if side == "below":
        u = np.minimum(u, star)
    else:
        u = np.maximum(u, np.minimum(star, cap))
    u = np.maximum(u, 0.0)
    mask = (star > cap) | (u > cap)
    u = np.minimum(u, cap)
    return RadialField(grid, u, mask), side


@dataclass
class EvolutionOutcome:
    """Classified evolution of one perturbed profile at one cap."""

    classification: str            # GlobalBounded | BlowUp | Undetermined
    cap: float
    t_detect: Optional[float]
    times: np.ndarray
    sup_series: np.ndarray
    l1ul_series: np.ndarray
    mass_series: np.ndarray
    snapshots: list = dc_field(default_factory=list)
    side: str = "below"
    one_sided_excess: Optional[float] = None

    @property
    def sup_final(self) -> float:
        return float(self.sup_series[-1])

    @property
    def mass_final(self) -> float:
        return float(self.mass_series[-1])


@dataclass
class CaseReport:
    """Outcomes of one perturbation across a cap sequence."""

    outcomes: dict                 # cap -> EvolutionOutcome
    classification: str
    cap_stable: bool
    t_detect: Optional[float]

    @property
    def finest(self) -> EvolutionOutcome:
        return self.outcomes[max(self.outcomes)]


def _cap_radius(table, cap: float,
                spec: Optional[NonlinearitySpec]) -> float:
    """Radius where the singular profile crosses the cap, bracketed on one
    batched u* ladder and found by brentq to full relative precision.

    Raises OutOfRange when the profile stays below the cap down to
    r = 1e-12 (slowly growing u*, such as the exponential class).
    """
    lo, hi = 1e-12, float(table.r[-1])
    ladder = np.geomspace(lo, hi, 32)
    u = np.asarray(table.u_star(ladder, spec))
    if u[-1] >= cap:
        return hi
    if u[0] < cap:
        raise OutOfRange(
            f"cap {cap:g} is above the singular profile at the smallest "
            f"resolvable radius: u*({lo:g}) = {u[0]:.6g}; choose a cap "
            f"below {u[0]:.6g}")
    j = np.flatnonzero(u >= cap)[-1]
    return float(brentq(lambda r: float(table.u_star(r, spec)) - cap,
                        ladder[j], ladder[j + 1], xtol=1e-300))


def case_grid(table, cap: float, dim: int, R_outer: float, n_nodes: int,
              spec: Optional[NonlinearitySpec] = None) -> RadialGrid:
    """Grid whose first node resolves the capped zone of the profile.

    The capped spike has height*width ~ cap * r_cap which stays order one,
    so once the first node sits inside the capped zone the spike is
    genuinely subcritical; an unresolved cap on a coarse grid acts like a
    wide supercritical plateau and diverges for any data.
    """
    r_cap = _cap_radius(table, cap, spec)
    r1_frac = min(1e-3, 0.1 * r_cap / R_outer)
    # the capped core sits exactly at the marginal height*width balance,
    # so the geometric section must stay fine enough (node ratio <= 1.3)
    # or truncation error tips the race and the core diverges spuriously
    n_geo_req = math.ceil(1.0 + math.log(
        transition_radius(R_outer) / (r1_frac * R_outer)) / math.log(1.3))
    n_nodes = max(n_nodes, math.ceil(n_geo_req / GEOMETRIC_SHARE) + 2)
    bc = BoundaryCondition("dirichlet", float(table.u_star(R_outer, spec)))
    return make_grid(dim, R_outer, n_nodes, r1_frac=r1_frac, bc=bc)


def _inner_mass(field: RadialField, spec: Optional[NonlinearitySpec],
                r_star: float) -> float:
    """Reaction mass of f(u) over the ball of radius r_star."""
    if spec is None:
        return 0.0
    grid = field.grid
    sel = grid.r <= r_star
    with np.errstate(over="ignore"):
        fu = np.asarray(spec.f(np.minimum(field.u[sel], 1e60)), dtype=float)
    fu = np.minimum(np.nan_to_num(fu, posinf=1e200), 1e200)
    return float(sphere_area(grid.dim) * np.sum(fu * grid.cell_volumes[sel]))


def _excess_over_star(field: RadialField, star: np.ndarray,
                      r: np.ndarray, r_min: float) -> float:
    sel = (r >= r_min) & np.isfinite(star)
    return float(((field.u[sel] - star[sel]) / star[sel]).max())


def run_case(spec: Optional[NonlinearitySpec], table,
             pert: Perturbation,
             horizon: float = 0.5,
             caps: Sequence[float] = (1e4, 1e5),
             n_nodes: int = 129,
             R_outer: float = 8.0) -> CaseReport:
    """Evolve perturbed singular data at each cap and classify the outcome.

    BlowUp requires three corroborating signals: the sup-norm beyond its
    guard, the reaction mass inside r_star = max(r_10, R_outer/8) amplified
    a million-fold, and collapse of the adaptive time step.  GlobalBounded
    requires reaching the horizon with the sup-norm non-increasing (within
    slack) over the final half.  Anything else is Undetermined.  The case
    verdict is the shared per-cap verdict when all caps agree, else
    Undetermined with cap_stable=False.  A repeated cap is a ValueError.
    """
    grids = _case_grids(spec, table, _distinct("caps", caps), R_outer,
                        n_nodes)
    return _run_on_grids(spec, table, pert, grids, horizon)


def _case_grids(spec, table, caps: list, R_outer: float,
                n_nodes: int) -> dict:
    """cap -> (case grid, u* on its nodes): what every perturbation run at
    that cap shares."""
    grids = {}
    for cap in caps:
        grid = case_grid(table, cap, table.dim, R_outer, n_nodes, spec)
        star = _star_on_nodes(table, grid, spec)
        star.setflags(write=False)
        grids[cap] = grid, star
    return grids


def _distinct(name: str, values: Sequence[float], shown=None) -> list:
    """values as floats; ValueError if one repeats, naming the entries as
    shown (default: the floats)."""
    values = [float(v) for v in values]
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must not repeat an entry, got "
                         f"{values if shown is None else shown}")
    return values


def _run_on_grids(spec, table, pert: Perturbation, grids: dict,
                  horizon: float) -> CaseReport:
    """run_case on prebuilt case grids, one per cap (see _case_grids)."""
    outcomes = {}
    for cap, (grid, star) in grids.items():
        u0, side = initial_data(table, grid, pert, cap, spec, star)
        # floor at R/8: on cap-resolving grids the ten innermost cells
        # collapse into the unresolved core, below where a desk-scale
        # divergence can localize
        r_star = max(float(grid.r[min(10, grid.n_nodes - 1)]),
                     grid.R_outer / 8.0)
        outcomes[cap] = _evolve_and_classify(
            spec, star, u0, side, horizon, cap, r_star)
    verdicts = {o.classification for o in outcomes.values()}
    cap_stable = len(verdicts) == 1
    classification = verdicts.pop() if cap_stable else "Undetermined"
    detects = [o.t_detect for o in outcomes.values()
               if o.t_detect is not None]
    return CaseReport(outcomes=outcomes,
                      classification=classification,
                      cap_stable=cap_stable,
                      t_detect=max(detects) if detects else None)


def _evolve_and_classify(spec, star: np.ndarray, u0: RadialField,
                         side: str, horizon: float, cap: float,
                         r_star: float) -> EvolutionOutcome:
    grid = u0.grid
    sample_times = np.geomspace(horizon / 1e4, horizon, N_SAMPLES)

    times, sups, l1s, masses, snapshots = [], [], [], [], []

    def record(t, fld: RadialField):
        times.append(float(t))
        sups.append(fld.sup)
        l1s.append(ul_norm(fld, 1.0).norm)
        masses.append(_inner_mass(fld, spec, r_star))
        snapshots.append((float(t), fld))

    record(0.0, u0)
    mass0 = max(masses[0], 1e-300)
    excess = _excess_over_star(u0, star, grid.r, 0.1) if side == "below" \
        else None

    cur, t = u0, 0.0
    t_detect = None
    classification = "Undetermined"
    next_sample = 0
    max_steps = 2_000_000
    for _ in range(max_steps):
        if spec is not None:
            try:
                dt_stab = stability_dt(cur, spec, dt_max=horizon / 50.0)
            except ReactionOverflow:
                dt_stab = 0.0
        else:
            dt_stab = 0.5 * horizon / 50.0
        diverged = (cur.sup > SUP_GUARD
                    and _inner_mass(cur, spec, r_star) > MASS_GUARD * mass0
                    and dt_stab < DT_UNDERFLOW)
        if diverged:
            classification = "BlowUp"
            t_detect = float(t)
            record(t, cur)
            break
        if t >= horizon:
            break
        dt = min(dt_stab if dt_stab > 0 else DT_UNDERFLOW, horizon - t)
        while (next_sample < len(sample_times)
               and sample_times[next_sample] <= t):
            next_sample += 1
        if next_sample < len(sample_times):
            dt = min(dt, sample_times[next_sample] - t)
        try:
            cur = step_imex(cur, spec, dt)
        except ReactionOverflow:
            classification = "BlowUp" if cur.sup > SUP_GUARD \
                else "Undetermined"
            t_detect = float(t) if classification == "BlowUp" else None
            record(t, cur)
            break
        t += dt
        if (next_sample < len(sample_times)
                and t >= sample_times[next_sample] * (1 - 1e-12)):
            record(t, cur)
            if side == "below":
                excess = max(excess,
                             _excess_over_star(cur, star, grid.r, 0.1))
            next_sample += 1

    if classification != "BlowUp" and t >= horizon:
        sups_arr = np.asarray(sups)
        times_arr = np.asarray(times)
        tail = sups_arr[times_arr >= 0.5 * horizon]
        finite = np.all(np.isfinite(sups_arr))
        if (finite and len(tail) >= 2 and tail[-1] <= PLATEAU_SLACK * tail[0]
                and tail.max() <= PLATEAU_SLACK * tail[0]):
            classification = "GlobalBounded"

    return EvolutionOutcome(classification=classification, cap=cap,
                            t_detect=t_detect,
                            times=np.asarray(times),
                            sup_series=np.asarray(sups),
                            l1ul_series=np.asarray(l1s),
                            mass_series=np.asarray(masses),
                            snapshots=snapshots, side=side,
                            one_sided_excess=excess)


@dataclass
class ScanReport:
    """Amplitude sweep of bump perturbations at every cap."""

    amplitudes: np.ndarray
    cases: dict                    # amplitude -> CaseReport
    config: dict

    def classifications(self) -> list:
        return [self.cases[a].classification for a in self.amplitudes]

    def rows(self):
        """scan.csv rows, one per (amplitude, cap): amplitude,
        classification, t_detect (nan if none), cap, sup and reaction
        mass at the end."""
        for a in self.amplitudes:
            for cap in sorted(self.cases[a].outcomes):
                o = self.cases[a].outcomes[cap]
                yield (float(a), o.classification,
                       o.t_detect if o.t_detect is not None else float("nan"),
                       float(cap), o.sup_final, o.mass_final)

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


def _check_monotone(amps: np.ndarray, classes: list) -> None:
    """The verdict may switch GlobalBounded -> BlowUp once, with at most
    one Undetermined in the buffer zone."""
    if classes.count("Undetermined") > 1:
        raise NonMonotoneScan(f"multiple undetermined cases: {classes}")
    filtered = [c for c in classes if c != "Undetermined"]
    first_bu = next((i for i, c in enumerate(filtered) if c == "BlowUp"),
                    len(filtered))
    if any(c != "BlowUp" for c in filtered[first_bu:]):
        raise NonMonotoneScan(
            f"classification not monotone in amplitude: "
            f"{list(zip(amps.tolist(), classes))}")


def threshold_scan(spec: Optional[NonlinearitySpec], table,
                   bump_shape: RadialBump,
                   A_grid: Sequence[float],
                   horizon: float = 0.5,
                   caps: Sequence[float] = (1e4, 1e5),
                   n_nodes: int = 129,
                   R_outer: float = 8.0) -> ScanReport:
    """Sweep signed bump amplitudes and verify the sign dichotomy.

    bump_shape fixes r_c and sigma; its amplitude field is ignored in
    favour of each entry of A_grid.  A repeated amplitude or cap is a
    ValueError.
    """
    amps = np.asarray(sorted(_distinct("amplitudes", A_grid)))
    caps = _distinct("caps", caps)
    # every amplitude shares the caps, so each cap's grid and u* on its
    # nodes are built once
    grids = _case_grids(spec, table, caps, R_outer, n_nodes)
    cases = {}
    for a in amps.tolist():
        bump = RadialBump(bump_shape.r_c, bump_shape.sigma, a)
        cases[a] = _run_on_grids(spec, table, bump, grids, horizon)
    _check_monotone(amps, [cases[a].classification for a in amps])
    return ScanReport(amplitudes=amps, cases=cases, config={
        "r_c": bump_shape.r_c, "sigma": bump_shape.sigma,
        "horizon": horizon, "caps": caps,
        "n_nodes": n_nodes, "R_outer": R_outer,
    })
