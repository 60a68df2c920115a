"""Construction and verification of the singular stationary radial profile.

The stationary equation in radial form is

    u'' + (N-1)/r u' + f(u) = 0.

It is integrated in the Emden-Fowler variables s = log r, v = r u'
(Joseph and Lundgren, ARMA 1973), where it reads

    (u, v)' = (v, -(N-2) v - e^{2s} f(u)).

Along the singular profile F(u*) ~ r^2/(2N-4), so e^{2s} f(u*) stays
bounded and the system is nearly autonomous (for f = e^u, u* is linear in
s).  The solver's dense output is mapped back to radii: at r it gives
(u, u') = (U(log r), V(log r)/r).

The singular profile is built by outward integration from a small patch
radius where an asymptotic formula seeds the values; regular (finite-center)
solutions are built by shooting from r = 0 and serve as an independent
cross-check.  Both step scipy's public LSODA solver one step at a time
and copy each step's Nordsieck data from the solver's work arrays, as
scipy's own LSODA.dense_output reads them; no OdeSolution is built.  The
dense output stacks those per-step polynomials once and evaluates any
array of radii in one pass, with solve_ivp's values to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import LSODA, cumulative_simpson
from scipy.optimize import brentq

from .errors import OutOfRange, PatchMismatch, StepUnderflow
from .nonlinearity import (
    NonlinearitySpec,
    _scaled_antiderivative,
    _segment,
    eval_F_inverse_log,
    eval_F_log,
)

__all__ = [
    "SingularSolutionTable",
    "ShootingSolution",
    "PohozaevTrace",
    "integrate_regular",
    "build_singular",
    "verify_flux_identity",
    "trace_pohozaev",
    "asymptotic_ratio",
    "pure_power_profile_coefficient",
    "patch_seed",
]


def pure_power_profile_coefficient(p: float, dim: int) -> float:
    """Coefficient L of the explicit singular profile L r^(-2/(p-1)) for
    f(u) = u^p, defined whenever 2/(p-1) < dim - 2."""
    m = 2.0 / (p - 1.0)
    base = m * (dim - 2.0 - m)
    if base <= 0.0:
        raise ValueError(f"no positive singular profile for p = {p:g} in "
                         f"dimension {dim}: it needs p > {dim / (dim - 2):g}")
    return base ** (1.0 / (p - 1.0))


def patch_seed(spec: NonlinearitySpec, dim: int, r):
    """Seed values (u, u') of the singular profile at small radii r (a
    float gives floats, an array gives arrays).

    Exponential-class nonlinearities use the blow-up asymptotic
    u = F^{-1}(r^2/(2N-4)); differentiating F(u) = r^2/(2N-4) with
    F' = -1/f forces u' = -r f(u)/(N-2).  A second-order correction
    multiplies the argument by 1 + 2*eta/(N-2) with eta = -g''/g'^2,
    obtained by expanding v = F(u) in the radial equation
    v'' + (N-1)/r v' = 1 + g' f v'^2 around v = r^2/(2N-4).  All radii
    share two batched F-inverse requests.  For the pure power family the
    asymptotic constant is off (f' F does not tend to 1), so the explicit
    closed-form profile is used instead.
    """
    if spec.family == "pure_power":
        p = spec.params["p"]
        m = 2.0 / (p - 1.0)
        L = pure_power_profile_coefficient(p, dim)
        u = L * r ** (-m)
        du = -m * L * r ** (-m - 1.0)
        return u, du
    log_v0 = 2.0 * np.log(r) - math.log(2.0 * dim - 4.0)
    u0 = eval_F_inverse_log(spec, log_v0)
    w = -2.0 * spec.gpp(u0) / spec.gp(u0) ** 2 / (dim - 2.0)
    u = eval_F_inverse_log(spec, log_v0 + np.log1p(w))
    return u, -r * spec.f(u) * (1.0 + w) / (dim - 2.0)


@dataclass
class SingularSolutionTable:
    """Singular profile u* on (0, R_max] with its sample on [r_patch, R_max].

    The solver's dense output ``dense`` represents u* and u*' on its whole
    range [dense.t_min, R_max], and the optional ``spec`` gives the patch
    formula below that.  The table ``r``, ``u``, ``du`` in dimension ``dim``
    is the dense output sampled on [r_patch, R_max]: the rows of
    singular_table.csv and the nodes of the flux, Pohozaev and
    asymptotic-ratio checks.
    ``tolerances`` holds the solver tolerances and the re-seed mismatch,
    ``cross_check`` the record of the regular shot; both are written to
    singular_verification.json.
    """

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    dim: int
    r_patch: float
    R_max: float
    patch_method: str
    dense: Callable = field(repr=False, compare=False)
    tolerances: dict = field(default_factory=dict)
    cross_check: dict = field(default_factory=dict)
    spec: Optional[NonlinearitySpec] = field(default=None, repr=False,
                                             compare=False)

    def _evaluate(self, r, spec, k: int):
        """Column k (0: u*, 1: u*') at radii up to R_max: the solver's
        dense output on [dense.t_min, R_max], the patch formula below."""
        spec = spec if spec is not None else self.spec
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r > self.R_max):
            raise OutOfRange(f"u* is built on (0, {self.R_max:g}], "
                             f"asked at r = {r.max():g}")
        out = np.empty_like(r)
        covered = r >= self.dense.t_min
        out[covered] = self.dense(r[covered])[k]
        if not np.all(covered):
            if spec is None:
                raise ValueError("need the nonlinearity to evaluate the patch")
            out[~covered] = patch_seed(spec, self.dim, r[~covered])[k]
        return out if out.size > 1 else float(out[0])

    def u_star(self, r, spec: Optional[NonlinearitySpec] = None):
        """Profile value at radii in (0, R_max]."""
        return self._evaluate(r, spec, 0)

    def du_star(self, r, spec: Optional[NonlinearitySpec] = None):
        """Profile derivative at radii in (0, R_max]."""
        return self._evaluate(r, spec, 1)


@dataclass
class ShootingSolution:
    """Regular solution u(r, alpha) with u(0) = alpha, u'(0) = 0."""

    alpha: float
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    termination: str          # "reached_rmax" | "vanished"
    r_end: float
    dense: Optional[Callable] = field(default=None, repr=False,
                                      compare=False)


@dataclass
class PohozaevTrace:
    r: np.ndarray
    P: np.ndarray

    def fd_slopes(self) -> np.ndarray:
        return np.diff(self.P) / np.diff(self.r)

    @property
    def max_fd_slope(self) -> float:
        return float(self.fd_slopes().max())


def _rhs(spec: NonlinearitySpec, dim: int):
    """The radial equation in s = log r, v = r u'."""
    def rhs(s, y):
        u, v = y
        fu = float(spec.f(u)) if u > 0.0 else 0.0
        return [v, -(dim - 2.0) * v - math.exp(2.0 * s) * fu]
    return rhs


class _RadialDense:
    """Dense output of an LSODA integration in s = log r, called at radii:
    r gives the rows (u(r), u'(r)) = (U(log r), V(log r)/r).  ``edges``
    are the step edges in s (the first is log t_min, the last the end of
    the integration).  Step k has its own end time ``t[k]``, step size
    ``h[k]`` and Nordsieck array ``yh[k]``, flat and column by column as
    LSODA's work array holds it (``_solve`` reads it there, as scipy's own
    LSODA.dense_output does); its polynomial in s is
    sum_j (u_j, v_j) ((s - t[k]) / h[k])^j.  ``t_min`` is the start radius.

    The arrays are stacked once, zero-padded to the highest order, so any
    array of radii costs one searchsorted, one power and a few stacked
    matrix products.  A radius on an inner edge takes the later of the
    two steps meeting there (as scipy's OdeSolution does for LSODA), and
    radii beyond either end use the end step.
    """

    def __init__(self, edges, t, h, yh, t_min: float):
        self._order = np.array([len(y) // 2 for y in yh])
        self.edges = np.asarray(edges, dtype=float)
        self._t = np.asarray(t, dtype=float)
        self._h = np.asarray(h, dtype=float)
        width = self._order.max()
        self._yh = np.zeros((len(yh), 2, width))
        for k, y in enumerate(yh):
            self._yh[k, :, :self._order[k]] = y.reshape(-1, 2).T
        self._powers = np.arange(width)
        self.t_min = t_min

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        s = np.log(r).ravel()
        # the number of inner edges at or below s is the step
        step = np.searchsorted(self.edges[1:-1], s, side="right")
        x = ((s - self._t[step]) / self._h[step])[:, None] ** self._powers
        # scipy evaluates a step's radii with one np.dot: a BLAS gemm when
        # the step holds two or more of them, a gemv at the step's own
        # order when it holds one, and the two round the last bit
        # differently.  matmul hands each stacked product of the same shape
        # to the same routine, so the values are scipy's to the bit, and
        # so is everything built on u*.
        y = (self._yh[step] @ np.stack([x, x], axis=-1))[..., 0]
        lone = np.bincount(step, minlength=len(self._t))[step] == 1
        order = self._order[step]
        for k in np.unique(order[lone]):
            i = np.flatnonzero(lone & (order == k))
            y[i] = (self._yh[step[i], :, :k] @ x[i, :k, None])[..., 0]
        u, v = y.T.reshape((2,) + r.shape)
        return np.array([u, v / r])


def _solve(spec, dim, r_start, R_max, u0, du0, rtol, atol, what,
           stop_at_zero=False):
    """Integrate from (u0, du0) at r_start towards R_max in s = log r,
    one LSODA step at a time; return the dense output and whether u
    vanished.  A failed step raises StepUnderflow at its radius.  With
    stop_at_zero, the first step on which u falls to zero or below ends
    the integration at the zero, which becomes the last edge.

    Each step's Nordsieck data is copied from the solver's work arrays as
    scipy's own LSODA.dense_output reads it, and the zero is found as
    solve_ivp finds a terminal event of direction -1: brentq on that
    step's dense output with xtol = rtol = 4 eps.  The values are
    therefore solve_ivp's (dense_output=True) to the bit.
    """
    solver = LSODA(_rhs(spec, dim), math.log(r_start), [u0, r_start * du0],
                   math.log(R_max), rtol=rtol, atol=atol)
    work = solver._lsoda_solver._integrator
    edges, ts, hs, yhs = [solver.t], [], [], []
    while True:
        u_old = solver.y[0]
        message = solver.step()
        if solver.status == "failed":
            r = math.exp(solver.t)
            raise StepUnderflow(f"{what} stopped at r={r:.3e}: {message}",
                                r=r, state=(solver.y[0], solver.y[1] / r))
        # LSODA.dense_output's reading of the work arrays: they hold the
        # Nordsieck array for the next step, and when the order is set to
        # drop, its last column is rescaled to the current step size
        order, h = work.iwork[13], work.rwork[11]
        yh = work.rwork[20:22 + 2 * order].copy()
        if work.iwork[14] < order:
            yh[-2:] *= (h / work.rwork[10]) ** order
        t = solver.t
        vanished = stop_at_zero and u_old >= 0.0 and solver.y[0] <= 0.0
        if vanished:
            step = solver.dense_output()
            t = brentq(lambda s: step(s)[0], solver.t_old, solver.t,
                       xtol=4 * np.finfo(float).eps,
                       rtol=4 * np.finfo(float).eps)
        edges.append(t)
        ts.append(solver.t)
        hs.append(h)
        yhs.append(yh)
        if vanished or solver.status == "finished":
            return _RadialDense(edges, ts, hs, yhs, r_start), vanished


def integrate_regular(spec: NonlinearitySpec, dim: int, alpha: float,
                      R_max: float, rtol: float = 1e-10,
                      atol: float = 1e-12) -> ShootingSolution:
    """Shoot the radial equation from the center height alpha; the result
    holds 400 radii (the centre and 399 geometric ones up to r_end).

    The 1/r singularity at the origin is avoided by starting from the
    series expansion u = alpha - f(alpha) r^2/(2N) on [0, r_start = 1e-6];
    the start radius shrinks automatically when f(alpha) is large.  From
    there the equation is integrated in s = log r, v = r u' (module
    docstring); a zero of u ends the shot ("vanished") at the radius
    r_end = exp(s) of the event.
    """
    if dim < 3:
        raise ValueError("dim must be >= 3")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if alpha == 0.0:
        r = np.linspace(0.0, R_max, 400)
        z = np.zeros_like(r)
        return ShootingSolution(0.0, r, z, z.copy(), "reached_rmax", R_max)

    f_a = float(spec.f(alpha))
    if not math.isfinite(f_a):
        raise StepUnderflow(f"regular integration: f(alpha) = {f_a:g} at "
                            f"the centre height alpha = {alpha:g}",
                            r=0.0, state=(alpha, 0.0))
    r_start = (min(1e-6, math.sqrt(0.01 * 2.0 * dim * alpha / f_a))
               if f_a > 0.0 else 1e-6)
    u0 = alpha - f_a * r_start ** 2 / (2.0 * dim)
    du0 = -f_a * r_start / dim

    dense, vanished = _solve(spec, dim, r_start, R_max, u0, du0, rtol, atol,
                             "regular integration", stop_at_zero=True)
    if vanished:
        termination, r_end = "vanished", math.exp(dense.edges[-1])
    else:
        termination, r_end = "reached_rmax", R_max

    r_grid = np.geomspace(r_start, r_end, 399)
    y = dense(r_grid)
    r_out = np.concatenate([[0.0], r_grid])
    u_out = np.concatenate([[alpha], y[0]])
    du_out = np.concatenate([[0.0], y[1]])
    return ShootingSolution(alpha, r_out, u_out, du_out,
                            termination, r_end, dense=dense)


def _integrate_singular(spec, dim, r_patch, R_max, rtol, atol):
    """Integrate outward from r_inner = r_patch/1024 so that the seeding
    error of the asymptotic formula has decayed by the time the tabulated
    range starts.  The integration runs in s = log r, v = r u' on
    [log r_inner, log R_max] (module docstring); the result is its dense
    output called at radii, with t_min = r_inner."""
    r_inner = r_patch / 1024.0
    u0, du0 = patch_seed(spec, dim, r_inner)
    if not (math.isfinite(u0) and math.isfinite(du0)):
        raise OutOfRange(f"the patch seed at r_patch = {r_patch:g} is not "
                         f"finite: (u, u') = ({u0:g}, {du0:g}) at "
                         f"r_patch/1024")
    return _solve(spec, dim, r_inner, R_max, u0, du0, rtol, atol,
                  "singular integration")[0]


def build_singular(spec: NonlinearitySpec, dim: int,
                   r_patch: float = 1e-3, R_max: float = 10.0,
                   rtol: float = 1e-11, atol: float = 1e-13,
                   n_points: int = 500,
                   patch_tol: float = 1e-5) -> SingularSolutionTable:
    """Construct the singular profile table on [r_patch, R_max].

    Outward integration is the stable direction (nearby solutions are
    attracted to the singular one as r grows), so the seeding error decays
    downstream.  Consistency is guarded by re-seeding at r_patch/2 and
    comparing the two dense outputs on the table radii in [2 r_patch, R_max].
    """
    if not (0.0 < r_patch < R_max):
        raise ValueError("need 0 < r_patch < R_max")
    dense = _integrate_singular(spec, dim, r_patch, R_max, rtol, atol)
    r = np.geomspace(r_patch, R_max, n_points)
    u, du = dense(r)
    if np.any(u <= 0.0):
        raise StepUnderflow("singular profile lost positivity", r=r[u <= 0][0])

    dense2 = _integrate_singular(spec, dim, r_patch / 2.0, R_max, rtol, atol)
    window = r >= 2.0 * r_patch
    rel = np.abs(dense2(r[window])[0] - u[window]) / u[window]
    mismatch = float(rel.max())
    if mismatch > patch_tol:
        raise PatchMismatch(
            f"re-seeding at r_patch/2 changed the profile by "
            f"{mismatch:.2e} (> {patch_tol:g}) on [2 r_patch, R_max]")
    table = SingularSolutionTable(
        r=r, u=u, du=du, dim=dim, r_patch=r_patch, R_max=R_max,
        patch_method=("closed-form power law" if spec.family == "pure_power"
                      else "F-inverse asymptotic"),
        tolerances={"rtol": rtol, "atol": atol, "patch_tol": patch_tol,
                    "patch_mismatch": mismatch},
        spec=spec, dense=dense)

    # A regular solution started above the patch value must come back
    # under the singular profile downstream.  In the oscillatory regime
    # (low dimensions) it crosses u* with a few percent overshoot, so
    # the comparison carries a 5% allowance.
    alpha = 2.0 * u[0]
    try:
        reg = integrate_regular(spec, dim, alpha, R_max,
                                rtol=1e-8, atol=1e-10)
    except StepUnderflow:
        table.cross_check = {"alpha": alpha, "regular_below": None,
                             "note": "regular integration underflowed"}
        return table
    mask = (reg.r >= max(10.0 * r_patch, 0.05 * R_max)) & (reg.u > 0)
    if np.any(mask):
        ustar = np.asarray(table.u_star(reg.r[mask], spec))
        max_ratio = float((reg.u[mask] / ustar).max())
        below = bool(max_ratio <= 1.05)
    else:
        max_ratio, below = 0.0, True  # died out: diverged indeed
    table.cross_check = {"alpha": alpha, "regular_below": below,
                         "max_ratio": max_ratio}
    return table


def eval_F0(spec: NonlinearitySpec, u: float) -> float:
    """Antiderivative of f from 0, along one downward ladder; inf where
    g(u) >= 700."""
    if u <= 0.0:
        return 0.0
    gu, ratio = _scaled_antiderivative(spec, np.array([float(u)]))
    return math.inf if gu[0] >= 700.0 else float(ratio[0] * np.exp(gu[0]))


def verify_flux_identity(table: SingularSolutionTable,
                         spec: NonlinearitySpec) -> float:
    """Max relative residual of -r^(N-1) u*' = integral_0^r f(u*) s^(N-1).

    The contribution of (0, r_patch) is fixed 64-point Gauss-Legendre
    quadrature of the patch formula below the solver's dense output (one
    batched patch_seed; a small fraction of the flux at table radii) and
    Simpson quadrature of 2000 dense samples on [dense.t_min, r_patch];
    the rest is composite quadrature over the table.
    """
    dim = table.dim
    n_dense = 2000      # samples of the dense output below r_patch
    lhs = -table.r ** (dim - 1) * table.du
    rin = np.geomspace(table.dense.t_min, table.r_patch, n_dense)
    uin = table.dense(rin)[0]
    inner_integrand = np.asarray(spec.f(uin)) * rin ** (dim - 1)
    x, wts = np.polynomial.legendre.leggauss(64)
    s = 0.5 * rin[0] * (x + 1.0)
    f_s = np.asarray(spec.f(patch_seed(spec, dim, s)[0]))
    patch_part = (float(np.dot(0.5 * rin[0] * wts, f_s * s ** (dim - 1)))
                  + cumulative_simpson(inner_integrand, x=rin)[-1])
    integrand = np.asarray(spec.f(table.u)) * table.r ** (dim - 1)
    rhs = patch_part + cumulative_simpson(integrand, x=table.r, initial=0.0)
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)
    return float(rel.max())


def _F0_along(spec: NonlinearitySpec, u: np.ndarray) -> np.ndarray:
    """eval_F0 at every entry of a monotone array u: one eval_F0 at the
    smallest entry, then the 16-point Gauss-Legendre integral of f between
    consecutive entries, accumulated; inf where g(u) >= 700."""
    v = u if u[0] <= u[-1] else u[::-1]
    gv = np.asarray(spec.g(v), dtype=float)
    seg = _segment(spec, v[:-1], gv[:-1], v[1:], 1.0)
    with np.errstate(over="ignore"):
        F0 = eval_F0(spec, float(v[0])) + np.concatenate(
            [[0.0], np.cumsum(seg * np.exp(gv[:-1]))])
    F0[gv >= 700.0] = math.inf
    return F0 if v is u else F0[::-1]


def trace_pohozaev(table: SingularSolutionTable,
                   spec: NonlinearitySpec) -> PohozaevTrace:
    """Weighted radial energy whose derivative is -(N-2)/2 r^(N-1) Q(u*);
    non-increasing whenever the fourth admissibility condition holds.
    The antiderivative of f is accumulated along the monotone table."""
    dim = table.dim
    r, u, du = table.r, table.u, table.du
    F0 = _F0_along(spec, u)
    P = (0.5 * r ** dim * du ** 2 + r ** dim * F0
         + 0.5 * (dim - 2.0) * r ** (dim - 1) * u * du)
    return PohozaevTrace(r=r, P=P)


def asymptotic_ratio(table: SingularSolutionTable,
                     spec: NonlinearitySpec) -> np.ndarray:
    """Series (r, F(u*(r)) (2N-4)/r^2) at up to 40 table nodes of its
    smallest decade; tends to 1 as r -> 0 for the exponential class."""
    idx = np.where(table.r <= 10.0 * table.r[0])[0]
    if len(idx) > 40:
        idx = idx[np.linspace(0, len(idx) - 1, 40).astype(int)]
    r = table.r[idx]
    ratio = np.exp(eval_F_log(spec, table.u[idx])
                   + math.log(2.0 * table.dim - 4.0) - 2.0 * np.log(r))
    return np.column_stack([r, ratio])
