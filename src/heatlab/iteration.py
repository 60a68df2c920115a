"""Picard ladders for the integral (Duhamel) form of the reaction-diffusion
equation.

An iterate is a full trajectory on a uniform time mesh; one ladder step
(duhamel_map) maps trajectory k to trajectory k+1, on its time mesh, through

    u_{k+1}(t) = S(t) u_0 + int_0^t S(t-s) f(u_k(s)) ds.

Seeding from zero gives a nondecreasing chain (minimal solution), seeding
from a supersolution envelope a nonincreasing one (maximal solution); the
two chains sandwich every integral solution with the same data.
check_immediate_boundedness integrates a ladder's sampled reaction rows in
one window call.
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

IDENTITY_TIME = 1e-6      # below this, S(t) is taken as the identity
ORDER_TOL = 1e-6          # largest ordering violation of an ordered ladder
N_TIME_QUAD = 3           # Gauss-Legendre nodes per time slice
N_SLICES = 64             # time slices of a ladder's mesh by default
_TIME_GL_X, _TIME_GL_W = np.polynomial.legendre.leggauss(N_TIME_QUAD)


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

    The time integral uses composite Gauss-Legendre with N_TIME_QUAD nodes
    on each mesh slice.  The reactions at every (slice, node) pair come
    from the linear-in-time interpolant of prev in one reaction call, and
    each node's lag factor S(dt (1 - x_q)/2) acts on all slices at once
    as one matrix product.  Only the slice recursion is sequential: the
    homogeneous part S(t_j) u0 plus the accumulated Duhamel integral
    advances by one application of the one-slice operator per slice, so
    a step costs N_TIME_QUAD matrix products and n_slices matrix-vector
    products.  The default linear field interpolation makes every weight
    nonnegative, so the map is monotone: ordered inputs give ordered
    outputs.
    """
    grid = prev.grid
    if u0.grid.key() != grid.key():
        raise ValueError("initial data lives on a different grid")
    n = prev.n_slices
    dt = prev.t_obs / n
    M = grid.n_nodes

    # prev at s = t_j + lam_q dt for every node q and slice j, with its
    # exterior value as column M: shape (N_TIME_QUAD, n, M + 1)
    lam = (0.5 + 0.5 * _TIME_GL_X)[:, None, None]
    u_s = np.empty((N_TIME_QUAD, n, M + 1))
    u_s[..., :M] = (1.0 - lam) * prev.values[:-1] + lam * prev.values[1:]
    u_s[..., M] = grid.exterior_value(u_s[..., :M])
    f_s = _reaction(spec, u_s)

    # slice sources b_j = sum_q w_q S(dt (1 - x_q)/2) f(u(s_jq)), with
    # [matrix | ext] acting on the extended reaction values
    w = 0.5 * dt * _TIME_GL_W
    b = np.zeros((n, M))
    for q, tau in enumerate(dt * (0.5 - 0.5 * _TIME_GL_X)):
        if tau < IDENTITY_TIME:             # S(tau) taken as the identity
            b += w[q] * f_s[q, :, :M]
        else:
            b += w[q] * (f_s[q] @ semigroup_operator(grid, tau, interp).full.T)
    b_ext = w @ f_s[:, :, M]

    # y_j = S(t_j) u0 + Duhamel integral to t_j; the exterior value of the
    # integral before slice j is the running sum of the earlier b_ext
    step_op = semigroup_operator(grid, dt, interp)
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
    return IterationLadder(seed=seed, t_obs=t_obs, trajectories=trajectories,
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
