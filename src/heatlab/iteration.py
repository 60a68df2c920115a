"""Picard ladders for the integral (Duhamel) form of the reaction-diffusion
equation.

An iterate is a full trajectory on a uniform time mesh; one ladder step
(duhamel_map) maps trajectory k to trajectory k+1, on its time mesh, through

    u_{k+1}(t) = S(t) u_0 + int_0^t S(t-s) f(u_k(s)) ds,

the integral by Simpson's rule on each mesh slice, so that a step needs
S(t) only at one slice and at half a slice.  Seeding from zero gives a
nondecreasing chain (minimal solution), seeding from a supersolution
envelope a nonincreasing one (maximal solution); the two chains sandwich
every integral solution with the same data.  check_immediate_boundedness
integrates a ladder's sampled reaction rows in one window call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Union

import numpy as np

from .evolution import (
    RadialField,
    RadialGrid,
    _reaction,
    _ul_windows,
    semigroup_operator,
)
from .nonlinearity import NonlinearitySpec

__all__ = [
    "Trajectory",
    "LadderSeed",
    "IterationLadder",
    "duhamel_map",
    "run_ladder",
    "fixed_point_residual",
    "check_immediate_boundedness",
]

IDENTITY_TIME = 1e-6      # below this, the lag S(dt/2) is the identity
ORDER_TOL = 1e-6          # largest ordering violation of an ordered ladder
N_SLICES = 64             # time slices of a ladder's mesh by default


@dataclass
class Trajectory:
    """Nodal field values, row j at times[j] of the uniform time mesh
    np.linspace(0, t_obs, n_slices + 1), n_slices = len(values) - 1."""

    grid: RadialGrid
    t_obs: float
    values: np.ndarray         # shape (n_slices+1, n_nodes)

    def __post_init__(self):
        t_obs = float(self.t_obs)
        if not 0.0 < t_obs < np.inf:        # False for nan too
            raise ValueError(f"t_obs must be finite and > 0, got {t_obs!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or len(v) < 2 or v.shape[1] != self.grid.n_nodes:
            raise ValueError("trajectory values have the wrong shape")
        self.t_obs, self.values = t_obs, v

    @property
    def n_slices(self) -> int:
        return len(self.values) - 1

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_obs, self.n_slices + 1)

    @classmethod
    def constant(cls, field: RadialField, t_obs: float,
                 n_slices: int) -> "Trajectory":
        vals = np.broadcast_to(field.u, (n_slices + 1, len(field.u))).copy()
        return cls(field.grid, t_obs, vals)


def duhamel_map(prev: Trajectory, u0: RadialField, spec: NonlinearitySpec,
                *, interp: str = "linear") -> Trajectory:
    """One Picard step on a full trajectory, on prev's own time mesh (its
    t_obs and n_slices); u0 on another grid is a ValueError.

    The time integral uses Simpson's rule on each mesh slice.  The
    reactions at the slice ends (prev's rows) and midpoints (the mean of
    neighbouring rows) come from one reaction call, and the lag factors
    S(dt) and S(dt/2) act on all slices at once as one matrix product
    each (S(0) is the identity).  Only the slice recursion is sequential:
    the homogeneous part S(t_j) u0 plus the accumulated Duhamel integral
    advances by one application of the same S(dt) per slice, so a step
    builds two operators and costs two matrix products and n_slices
    matrix-vector products.  The weights are positive and the default
    linear field interpolation makes every S(t) nonnegative, so the map
    is monotone: ordered inputs give ordered outputs.
    """
    grid = prev.grid
    if u0.grid.key() != grid.key():
        raise ValueError("initial data lives on a different grid")
    n = prev.n_slices
    dt = prev.t_obs / n
    M = grid.n_nodes

    # prev at the mesh times (rows 0..n) and the slice midpoints (rows
    # n+1..2n), with its exterior value as column M: shape (2n + 1, M + 1)
    u_s = np.empty((2 * n + 1, M + 1))
    u_s[:n + 1, :M] = prev.values
    u_s[n + 1:, :M] = 0.5 * (prev.values[:-1] + prev.values[1:])
    u_s[:, M] = grid.exterior_value(u_s[:, :M])
    f_s = _reaction(spec, u_s)
    f_start, f_end, f_mid = f_s[:n], f_s[1:n + 1], f_s[n + 1:]

    # slice sources b_j = dt/6 [S(dt) f_j + 4 S(dt/2) f_{j+1/2} + f_{j+1}],
    # with [matrix | ext] acting on the extended reaction values
    step_op = semigroup_operator(grid, dt, interp)
    mid = (f_mid[:, :M] if 0.5 * dt < IDENTITY_TIME    # S(dt/2) taken as 1
           else f_mid @ semigroup_operator(grid, 0.5 * dt, interp).full.T)
    b = dt / 6.0 * (f_start @ step_op.full.T + 4.0 * mid + f_end[:, :M])
    b_ext = dt / 6.0 * (f_start[:, M] + 4.0 * f_mid[:, M] + f_end[:, M])

    # y_j = S(t_j) u0 + Duhamel integral to t_j; the exterior value of the
    # integral before slice j is the running sum of the earlier b_ext
    ext_before = grid.exterior_value(u0.u) + np.concatenate(
        [[0.0], np.cumsum(b_ext[:-1])])
    src = b + ext_before[:, None] * step_op.ext
    values = np.empty((n + 1, M))
    values[0] = y = u0.u
    for j in range(n):
        y = step_op.matrix @ y + src[j]
        values[j + 1] = y
    return Trajectory(grid, prev.t_obs, np.maximum(values, 0.0))


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
    def from_above(cls, envelope: RadialField) -> "LadderSeed":
        return cls("from_above", envelope)


@dataclass
class IterationLadder:
    seed: LadderSeed
    trajectories: List[Trajectory]
    sup_norm_per_iterate: List[float]
    cauchy_gaps: List[float]
    ordering_violation_max: float
    converged: bool

    @property
    def t_obs(self) -> float:
        return self.trajectories[0].t_obs

    @property
    def k(self) -> int:
        return len(self.trajectories) - 1

    @property
    def final(self) -> Trajectory:
        return self.trajectories[-1]

    @property
    def ordered(self) -> bool:
        return self.ordering_violation_max <= ORDER_TOL

    def to_dict(self) -> dict:
        return {
            "seed": self.seed.kind,
            "k": self.k,
            "t_obs": self.t_obs,
            "sup_norm_per_iterate": self.sup_norm_per_iterate,
            "cauchy_gaps": self.cauchy_gaps,
            "ordering_violation_max": self.ordering_violation_max,
            "converged": self.converged,
        }


def run_ladder(seed: Union[LadderSeed, str], u0: RadialField,
               spec: NonlinearitySpec, t_obs: float, k_max: int = 8,
               n_slices: int = N_SLICES, ladder_tol: float = 1e-8,
               interp: str = "linear") -> IterationLadder:
    """Run a monotone Picard ladder up to k_max iterates or convergence.

    The chain should be monotone in k (nondecreasing from below,
    nonincreasing from above) on every node and mesh time.  A broken
    chain still runs to the end: its largest violation is recorded as
    ordering_violation_max, which `ordered` compares with ORDER_TOL.
    A t_obs that is not finite and > 0 is Trajectory's ValueError.
    """
    if isinstance(seed, str):
        seed = LadderSeed(seed)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    grid = u0.grid
    if seed.kind == "from_below":
        base = RadialField(grid, np.zeros(grid.n_nodes))
        sign = 1.0
    else:
        base = seed.envelope
        if base.grid.key() != grid.key():
            raise ValueError("envelope lives on a different grid")
        sign = -1.0
    cur = Trajectory.constant(base, t_obs, n_slices)
    trajectories = [cur]
    sups = [float(cur.values.max())]
    gaps: List[float] = []
    worst = 0.0
    converged = False
    for _ in range(k_max):
        nxt = duhamel_map(cur, u0, spec, interp=interp)
        diff = nxt.values - cur.values
        worst = max(worst, float(np.max(-sign * diff, initial=0.0)))
        gaps.append(float(np.abs(diff).max()))
        trajectories.append(nxt)
        sups.append(float(nxt.values.max()))
        cur = nxt
        if gaps[-1] <= ladder_tol:
            converged = True
            break
    return IterationLadder(seed=seed, trajectories=trajectories,
                           sup_norm_per_iterate=sups, cauchy_gaps=gaps,
                           ordering_violation_max=worst, converged=converged)


def fixed_point_residual(envelope: RadialField, spec: NonlinearitySpec,
                         t_obs: float) -> float:
    """Sup-norm defect of one Duhamel application (N_SLICES slices, cubic
    interpolation) to the constant-in-time envelope, over the uncapped
    nodes with 0.3 <= r <= 6.

    The window keeps clear of the capped zone near the origin (where the
    capped profile is genuinely non-stationary) and of the outer boundary
    (where the constant extension is a model error), so what remains is
    discretization error that contracts under grid refinement.
    """
    grid = envelope.grid
    traj = Trajectory.constant(envelope, t_obs, N_SLICES)
    out = duhamel_map(traj, envelope, spec, interp="cubic")
    mask = (grid.r >= 0.3) & (grid.r <= 6.0) & ~envelope.cap_mask
    if not np.any(mask):
        raise ValueError("residual window contains no nodes")
    return float(np.abs(out.values[-1] - envelope.u)[mask].max())


def check_immediate_boundedness(ladder: IterationLadder,
                                spec: NonlinearitySpec,
                                window: tuple) -> dict:
    """Quantitative regularization record on a time window (t0, T]:
    sup norm of iterate 4 and the uniformly local norm of the reaction of
    iterate 3, both over the mesh times inside the window.  The norm,
    which varies slowly compared to the mesh, is sampled at every
    len(idx) // 8-th mesh time: one reaction call and one _ul_windows call
    on the stacked rows, each norm value^(1/p) on Python floats, as
    ULNormEstimate.norm takes it.  A reaction row that is nonincreasing up
    to its first rise r_k, as a sandwich row is up to its climb towards the
    Dirichlet value, takes the origin window and scans only the window
    centres z > r_k - 1."""
    t0, T = window
    if not 0.0 <= t0 < T:
        raise ValueError("need 0 <= t0 < T")
    grid = ladder.final.grid
    p = grid.dim / 2.0 + 0.1
    tr4, tr3 = (ladder.trajectories[min(k, ladder.k)] for k in (4, 3))
    # a slack relative to T, as the threshold runs compare sample times
    mask = (tr4.times > t0) & (tr4.times <= T * (1 + 1e-12))
    if not np.any(mask):
        raise ValueError("window contains no mesh times")
    sup4 = float(tr4.values[mask].max())
    idx = np.where(mask)[0]
    rows = tr3.values[idx[:: max(1, len(idx) // 8)]]
    values = _ul_windows(grid, _reaction(spec, rows), p)[0]
    worst_reaction = max([0.0] + [v ** (1.0 / p) for v in values.tolist()])
    return {
        "window": (t0, T),
        "sup_iterate4": sup4,
        "reaction_ul_exponent": p,
        "reaction_ul_iterate3": worst_reaction,
        "bounded": bool(np.isfinite(sup4) and np.isfinite(worst_reaction)),
    }
