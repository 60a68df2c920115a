"""Picard ladders for the integral (Duhamel) form of the reaction-diffusion
equation.

An iterate is a full trajectory on a uniform time mesh; one ladder step maps
trajectory k to trajectory k+1 through

    u_{k+1}(t) = S(t) u_0 + int_0^t S(t-s) f(u_k(s)) ds.

Seeding from zero gives a nondecreasing chain (minimal solution), seeding
from a supersolution envelope a nonincreasing one (maximal solution); the
two chains sandwich every integral solution with the same data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .errors import OrderingViolation, ReactionOverflow, TimeMeshMismatch
from .evolution import (
    REACTION_GUARD,
    RadialField,
    RadialGrid,
    semigroup_operator,
    ul_norm,
)
from .nonlinearity import NonlinearitySpec

__all__ = [
    "Trajectory",
    "LadderSeed",
    "IterationLadder",
    "MaximalSolutionEstimate",
    "duhamel_map",
    "run_ladder",
    "fixed_point_residual",
    "check_immediate_boundedness",
]

IDENTITY_TIME = 1e-6      # below this, S(t) is taken as the identity


@dataclass
class Trajectory:
    """Nodal field values on every slice of a uniform time mesh."""

    grid: RadialGrid
    times: np.ndarray          # shape (n_slices+1,), uniform, starts at 0
    values: np.ndarray         # shape (n_slices+1, n_nodes)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t[0] != 0.0 or len(t) < 2:
            raise ValueError("time mesh must start at 0")
        dt = np.diff(t)
        if np.any(dt <= 0) or not np.allclose(dt, dt[0], rtol=1e-12):
            raise ValueError("time mesh must be uniform and increasing")
        if v.shape != (len(t), self.grid.n_nodes):
            raise ValueError("trajectory values have the wrong shape")
        self.times, self.values = t, v

    @property
    def t_obs(self) -> float:
        return float(self.times[-1])

    @property
    def n_slices(self) -> int:
        return len(self.times) - 1

    def field_at(self, j: int) -> RadialField:
        return RadialField(self.grid, self.values[j].copy())

    @property
    def final(self) -> RadialField:
        return self.field_at(self.n_slices)

    def interp(self, s: float) -> np.ndarray:
        """Linear-in-time interpolant of the nodal values."""
        j = min(int(s / (self.times[1] - self.times[0])), self.n_slices - 1)
        lam = (s - self.times[j]) / (self.times[j + 1] - self.times[j])
        return (1.0 - lam) * self.values[j] + lam * self.values[j + 1]

    @classmethod
    def constant(cls, field: RadialField, t_obs: float,
                 n_slices: int) -> "Trajectory":
        times = np.linspace(0.0, t_obs, n_slices + 1)
        vals = np.broadcast_to(field.u, (n_slices + 1, len(field.u))).copy()
        return cls(field.grid, times, vals)


def _reaction(spec: NonlinearitySpec, vec: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        out = np.asarray(spec.f(vec), dtype=float)
    if not np.all(np.isfinite(out)) or float(out.max()) > REACTION_GUARD:
        raise ReactionOverflow(
            f"reaction overflow at u={float(np.max(vec)):.3e}")
    return out


def duhamel_map(prev: Trajectory, u0: RadialField, spec: NonlinearitySpec,
                t_obs: float, n_time_quad: int = 3,
                interp: str = "linear") -> Trajectory:
    """One Picard step on a full trajectory.

    The time integral uses composite Gauss-Legendre on the mesh slices; the
    semigroup factors are generated recursively from the one-slice operator,
    so the whole step costs O(n_slices) matrix-vector products. The default
    linear field interpolation makes every weight nonnegative, so the map
    is monotone: ordered inputs give ordered outputs.
    """
    grid = prev.grid
    if not math.isclose(prev.t_obs, t_obs, rel_tol=1e-12):
        raise TimeMeshMismatch(
            f"trajectory covers [0, {prev.t_obs:g}], requested {t_obs:g}")
    if u0.grid.key() != grid.key():
        raise TimeMeshMismatch("initial data lives on a different grid")
    n = prev.n_slices
    dt = t_obs / n
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_time_quad)

    step_op = semigroup_operator(grid, dt, interp)
    # lag-one factors S(dt*(0.5 - 0.5 x_q)); longer lags come from powers
    # of the one-slice operator
    offsets = dt * (0.5 - 0.5 * gl_x)
    lag_ops = [None if tau < IDENTITY_TIME
               else semigroup_operator(grid, tau, interp) for tau in offsets]

    values = np.empty((n + 1, grid.n_nodes))
    values[0] = u0.u
    hom = u0.u.copy()                      # S(t_j) u0
    hom_ext = grid.exterior_value(u0.u)
    duh = np.zeros(grid.n_nodes)           # accumulated Duhamel integral
    duh_ext = 0.0
    for j in range(n):
        # slice [t_j, t_{j+1}]: reaction sampled at GL nodes, each pushed
        # through its sub-slice semigroup factor
        b = np.zeros(grid.n_nodes)
        b_ext = 0.0
        for q in range(n_time_quad):
            s = prev.times[j] + dt * (0.5 + 0.5 * gl_x[q])
            u_s = prev.interp(s)
            fvec = _reaction(spec, u_s)
            f_ext = _reaction(spec, np.array([grid.exterior_value(u_s)]))[0]
            w = 0.5 * dt * gl_w[q]
            if lag_ops[q] is None:
                b += w * fvec
            else:
                b += w * lag_ops[q].apply(fvec, f_ext)
            b_ext += w * f_ext
        duh = step_op.apply(duh, duh_ext) + b
        duh_ext += b_ext
        hom = step_op.apply(hom, hom_ext)
        values[j + 1] = np.maximum(hom + duh, 0.0)
    return Trajectory(grid, prev.times.copy(), values)


@dataclass(frozen=True)
class LadderSeed:
    kind: str                                   # "from_below" | "from_above"
    envelope: Optional[RadialField] = None      # supersolution, from_above

    def __post_init__(self):
        if self.kind not in ("from_below", "from_above"):
            raise ValueError(f"unknown seed {self.kind!r}")
        if self.kind == "from_above" and self.envelope is None:
            raise ValueError("from_above seeding needs an envelope field")

    @classmethod
    def from_below(cls) -> "LadderSeed":
        return cls("from_below")

    @classmethod
    def from_above(cls, envelope: RadialField) -> "LadderSeed":
        return cls("from_above", envelope)


@dataclass
class IterationLadder:
    seed: LadderSeed
    t_obs: float
    trajectories: List[Trajectory]
    sup_norm_per_iterate: List[float]
    cauchy_gaps: List[float]
    ordering_violation_max: float
    converged: bool

    @property
    def k(self) -> int:
        return len(self.trajectories) - 1

    @property
    def final(self) -> Trajectory:
        return self.trajectories[-1]

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed.kind,
            "k": self.k,
            "t_obs": self.t_obs,
            "sup_norm_per_iterate": self.sup_norm_per_iterate,
            "cauchy_gaps": self.cauchy_gaps,
            "ordering_violation_max": self.ordering_violation_max,
            "converged": self.converged,
        }, indent=2)


@dataclass
class MaximalSolutionEstimate:
    field: RadialField
    gaps: List[float]

    @property
    def gaps_decreasing(self) -> bool:
        tail = self.gaps[-3:]
        return all(b <= a for a, b in zip(tail[:-1], tail[1:]))


def run_ladder(seed: Union[LadderSeed, str], u0: RadialField,
               spec: NonlinearitySpec, t_obs: float, k_max: int = 8,
               n_slices: int = 64, n_time_quad: int = 3,
               ladder_tol: float = 1e-8, order_tol: float = 1e-6,
               certify_r_min: float = 0.0,
               interp: str = "linear") -> IterationLadder:
    """Run a monotone Picard ladder up to k_max iterates or convergence.

    The chain must be monotone in k (nondecreasing from below,
    nonincreasing from above); a violation beyond order_tol raises
    OrderingViolation, smaller ones are recorded in the certificate.
    A capped envelope is not a supersolution inside its capped zone, so
    certify_r_min lets the certificate start outside that zone; the raw
    extremes are still recorded.
    """
    if isinstance(seed, str):
        seed = LadderSeed(seed)
    if t_obs <= 0 or k_max < 1:
        raise ValueError("t_obs must be positive and k_max >= 1")
    grid = u0.grid
    if seed.kind == "from_below":
        base = RadialField(grid, np.zeros(grid.n_nodes))
        sign = 1.0
    else:
        base = seed.envelope
        if base.grid.key() != grid.key():
            raise TimeMeshMismatch("envelope lives on a different grid")
        sign = -1.0
    certified = grid.r >= certify_r_min
    if not np.any(certified):
        raise ValueError("certify_r_min excludes every node")
    cur = Trajectory.constant(base, t_obs, n_slices)
    trajectories = [cur]
    sups = [float(cur.values.max())]
    gaps: List[float] = []
    worst = 0.0
    converged = False
    for _ in range(k_max):
        nxt = duhamel_map(cur, u0, spec, t_obs, n_time_quad, interp)
        diff = nxt.values - cur.values
        violation = float(np.max(-sign * diff[:, certified], initial=0.0))
        worst = max(worst, violation)
        if violation > order_tol:
            raise OrderingViolation(
                f"{seed.kind} chain broke ordering by {violation:.3e}")
        gaps.append(float(np.abs(diff).max()))
        trajectories.append(nxt)
        sups.append(float(nxt.values.max()))
        cur = nxt
        if gaps[-1] <= ladder_tol:
            converged = True
            break
    return IterationLadder(seed=seed, t_obs=t_obs, trajectories=trajectories,
                           sup_norm_per_iterate=sups, cauchy_gaps=gaps,
                           ordering_violation_max=worst, converged=converged)


def maximal_solution(ladder: IterationLadder) -> MaximalSolutionEstimate:
    """Terminal-time field of the last iterate plus its Cauchy record."""
    return MaximalSolutionEstimate(field=ladder.final.final,
                                   gaps=list(ladder.cauchy_gaps))


def fixed_point_residual(envelope: RadialField, spec: NonlinearitySpec,
                         t_obs: float, n_slices: int = 64,
                         n_time_quad: int = 3, interp: str = "cubic",
                         r_window: tuple = (0.3, 6.0)) -> float:
    """Sup-norm defect of one Duhamel application to the constant-in-time
    envelope trajectory, measured over uncapped nodes in a radial window.

    The window keeps clear of the capped zone near the origin (where the
    capped profile is genuinely non-stationary) and of the outer boundary
    (where the constant extension is a model error), so what remains is
    discretization error that contracts under grid refinement.
    """
    grid = envelope.grid
    traj = Trajectory.constant(envelope, t_obs, n_slices)
    out = duhamel_map(traj, envelope, spec, t_obs, n_time_quad, interp)
    mask = ((grid.r >= r_window[0]) & (grid.r <= r_window[1])
            & ~envelope.cap_mask)
    if not np.any(mask):
        raise ValueError("residual window contains no nodes")
    return float(np.abs(out.values[-1] - envelope.u)[mask].max())


def check_immediate_boundedness(ladder: IterationLadder,
                                spec: NonlinearitySpec,
                                window: tuple) -> dict:
    """Quantitative regularization record on a time window (t0, T]:
    sup norm of iterate 4 and the uniformly local norm of the reaction of
    iterate 3, both over the mesh times inside the window."""
    t0, T = window
    if not 0.0 <= t0 < T:
        raise ValueError("need 0 <= t0 < T")
    dim = ladder.final.grid.dim
    p = dim / 2.0 + 0.1
    k4 = min(4, ladder.k)
    k3 = min(3, ladder.k)
    tr4, tr3 = ladder.trajectories[k4], ladder.trajectories[k3]
    mask = (tr4.times > t0) & (tr4.times <= T + 1e-15)
    if not np.any(mask):
        raise ValueError("window contains no mesh times")
    sup4 = float(tr4.values[mask].max())
    worst_reaction = 0.0
    idx = np.where(mask)[0]
    # sampling a few mesh times inside the window is enough: the norm
    # varies slowly compared to the mesh
    for j in idx[:: max(1, len(idx) // 8)]:
        fvals = _reaction(spec, tr3.values[j])
        est = ul_norm(RadialField(ladder.final.grid, fvals), p)
        worst_reaction = max(worst_reaction, est.norm)
    return {
        "window": (t0, T),
        "sup_iterate4": sup4,
        "reaction_ul_exponent": p,
        "reaction_ul_iterate3": worst_reaction,
        "bounded": bool(np.isfinite(sup4) and np.isfinite(worst_reaction)),
    }
