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
cross-check.  Both drive the LSODA integrator that scipy's LSODA class
wraps, one run per step, and copy each step's Nordsieck data from its
work arrays, as scipy's LSODA.dense_output reads them; no OdeSolution
is built.  The dense output stacks those per-step polynomials once and
evaluates any array of radii in one pass, with solve_ivp's values to the bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson, ode
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


def _power(r, e: float):
    """r ** e; a float power that overflows is taken as inf, numpy's IEEE
    value, so a float r keeps the float bits where it is finite."""
    try:
        return r ** e
    except OverflowError:
        return math.inf


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
        return L * _power(r, -m), -m * L * _power(r, -m - 1.0)
    log_v0 = 2.0 * np.log(r) - math.log(2.0 * dim - 4.0)
    u0 = eval_F_inverse_log(spec, log_v0)
    w = -2.0 * spec.gpp(u0) / spec.gp(u0) ** 2 / (dim - 2.0)
    u = eval_F_inverse_log(spec, log_v0 + np.log1p(w))
    return u, -r * spec.f(u) * (1.0 + w) / (dim - 2.0)


@dataclass
class SingularSolutionTable:
    """Singular profile u* on (0, R_max] with its sample on [r_patch, R_max].

    The solver's dense output ``dense`` represents u* and u*' on its whole
    range [dense.t_min, R_max], and the nonlinearity ``spec`` it was built
    for gives the patch formula below that.  The table ``r``, ``u``,
    ``du`` in dimension ``dim`` is the dense output sampled on
    [r_patch, R_max]: the rows of singular_table.csv and the nodes of the
    flux, Pohozaev and asymptotic-ratio checks, which read only the table.
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
    spec: NonlinearitySpec = field(repr=False, compare=False)
    tolerances: dict = field(default_factory=dict)
    cross_check: dict = field(default_factory=dict)

    def _evaluate(self, r, spec, k: int):
        """Column k (0: u*, 1: u*') at radii in (0, R_max]: the solver's
        dense output on [dense.t_min, R_max], the patch formula below (no
        other code chooses).  A float r gives a float, an array an array of
        its shape; a radius outside (0, R_max], or NaN, is OutOfRange.
        patch_seed gives both columns, and overflow in the one not asked
        for is silenced; the one asked for keeps numpy's IEEE value."""
        spec = spec if spec is not None else self.spec
        r = np.asarray(r, dtype=float)
        scalar, r = r.ndim == 0, np.atleast_1d(r)
        if np.any(r > self.R_max):
            raise OutOfRange(f"u* is built on (0, {self.R_max:g}], "
                             f"asked at r = {r.max():g}")
        if not np.all(r > 0.0):                 # False for NaN too
            raise OutOfRange(f"u* is built on (0, {self.R_max:g}], "
                             f"asked at r = {r[~(r > 0.0)][0]:g}")
        out = np.empty_like(r)
        covered = r >= self.dense.t_min
        out[covered] = self.dense(r[covered])[k]
        if not np.all(covered):
            with np.errstate(over="ignore"):
                out[~covered] = patch_seed(spec, self.dim, r[~covered])[k]
        return float(out[0]) if scalar else out

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
    """The radial equation in s = log r, v = r u'.  Past s = 354.9 (r about
    1e154) exp(2s) is taken as inf, numpy's IEEE value, as the built-in
    evaluators take f where it overflows."""
    def rhs(s, y):
        u, v = y.tolist()
        fu = float(spec.f(u)) if u > 0.0 else 0.0
        try:
            scale = math.exp(2.0 * s)
        except OverflowError:
            scale = math.inf
        return [v, -(dim - 2.0) * v - scale * fu]
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
    matrix products; one radius costs only the product of its step.  A
    radius on an inner edge takes the later of the two steps meeting there
    (as scipy's OdeSolution does for LSODA), and radii beyond either end
    use the end step.
    """

    def __init__(self, edges, t, h, yh, t_min: float):
        self._order = np.array([len(y) // 2 for y in yh])
        self.edges = np.asarray(edges, dtype=float)
        self._t = np.asarray(t, dtype=float)
        self._h = np.asarray(h, dtype=float)
        width = self._order.max()
        self._yh = np.zeros((len(yh), 2, width))
        # entry i of step k's flat array is (u, v)[i % 2] of power i // 2
        size = 2 * self._order
        step = np.repeat(np.arange(len(yh)), size)
        i = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        self._yh[step, i % 2, i // 2] = np.concatenate(yh)
        self._powers = np.arange(width)
        self.t_min = t_min

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        s = np.log(r).ravel()
        # the number of inner edges at or below s is the step
        step = np.searchsorted(self.edges[1:-1], s, side="right")
        order = self._order[step]
        xi = (s - self._t[step]) / self._h[step]
        # xi ** k for 2 <= k < order; 1 in the padded columns (yh is 0 there)
        x = np.ones((len(s), len(self._powers)))
        x[:, 1] = xi
        np.power(xi[:, None], self._powers, out=x,
                 where=(self._powers >= 2) & (self._powers < order[:, None]))
        # scipy evaluates a step's radii with one np.dot: a BLAS gemm when
        # the step holds two or more of them, a gemv at the step's own
        # order when it holds one, and the two round the last bit
        # differently.  matmul hands each stacked product of the same shape
        # to the same routine, so the values are scipy's to the bit, and
        # so is everything built on u*.
        if len(s) == 1:
            # a lone radius: only the product of a step holding one radius
            k = order[0]
            y = (self._yh[step, :, :k] @ x[:, :k, None])[..., 0]
        else:
            y = (self._yh[step] @ np.stack([x, x], axis=-1))[..., 0]
            lone = np.bincount(step, minlength=len(self._t))[step] == 1
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

    Each step is one itask = 5 run of the integrator in scipy's LSODA class
    (after that class's checks); LSODA.dense_output's reading of the work
    arrays gives its polynomial, and brentq on it with xtol = rtol = 4 eps
    finds the zero as solve_ivp finds a terminal event of direction -1.
    The values are therefore solve_ivp's (dense_output=True) to the bit.
    """
    eps = np.finfo(float).eps
    if rtol < 100 * eps:
        warnings.warn("At least one element of `rtol` is too small. Setting "
                      f"`rtol = np.maximum(rtol, {100 * eps})`.", stacklevel=3)
        rtol = 100 * eps
    if atol < 0:
        raise ValueError("atol must be >= 0")
    t, t_end, u, v = math.log(r_start), math.log(R_max), u0, r_start * du0
    if not (math.isfinite(u) and math.isfinite(v)):
        raise OutOfRange(f"{what}: non-finite start state ({u:g}, {v:g})")
    rhs, no_jac = _rhs(spec, dim), lambda: None
    solver = ode(rhs).set_integrator("lsoda", rtol=rtol, atol=atol)
    work, y = solver._integrator, solver.set_initial_value([u, v], t)._y
    work.rwork[0], work.call_args[2] = t_end, 5   # one step, never past t_end
    edges, steps = [t], []
    while True:
        y, t_new = work.run(rhs, no_jac, y, t, t_end, (), ())
        if not work.success:
            r, why = math.exp(t), work.messages.get(work.istate, work.istate)
            raise StepUnderflow(f"{what} stopped at r={r:.3e}: {why}",
                                r=r, state=(u, v / r))
        # LSODA.dense_output's reading of the work arrays: they hold the
        # Nordsieck array for the next step, and when the order is set to
        # drop, its last column is rescaled to the current step size
        order, h = work.iwork[13], work.rwork[11]
        yh = work.rwork[20:22 + 2 * order].copy()
        if work.iwork[14] < order:
            yh[-2:] *= (h / work.rwork[10]) ** order
        t_old, t, u_old, (u, v) = t, t_new, u, y.tolist()
        edges.append(t)
        vanished = stop_at_zero and u_old >= 0.0 and u <= 0.0
        if vanished:
            # LsodaDenseOutput's np.dot on the C-ordered (2, order+1) block
            step, p = yh.reshape(-1, 2).T.copy(), np.arange(order + 1)
            edges[-1] = brentq(lambda s: np.dot(step, ((s - t) / h) ** p)[0],
                               t_old, t, xtol=4 * eps, rtol=4 * eps)
        steps.append((t, h, yh))
        if vanished or t >= t_end:
            return _RadialDense(edges, *zip(*steps), r_start), vanished


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
        if R_max <= 1e-6:
            raise ValueError(f"R_max must exceed the start radius {1e-6:g}")
        r = np.linspace(0.0, R_max, 400)
        z = np.zeros_like(r)
        return ShootingSolution(0.0, r, z, z.copy(), "reached_rmax", R_max)

    with np.errstate(over="ignore"):
        f_a = float(spec.f(alpha))
    if not math.isfinite(f_a):
        raise StepUnderflow(f"regular integration: f(alpha) = {f_a:g} at "
                            f"the centre height alpha = {alpha:g}",
                            r=0.0, state=(alpha, 0.0))
    r_start = (min(1e-6, math.sqrt(0.01 * 2.0 * dim * alpha / f_a))
               if f_a > 0.0 else 1e-6)
    if R_max <= r_start:
        raise ValueError(f"R_max must exceed the start radius {r_start:g}")
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
    if r_inner == 0.0:
        raise OutOfRange(f"the patch seed at r_patch = {r_patch:g} is not "
                         f"defined: r_patch/1024 rounds to 0")
    with np.errstate(over="ignore"):    # f(u0) overflows: OutOfRange below
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
    if R_max < 2.0 * r_patch:
        raise ValueError("need R_max >= 2 r_patch: the re-seed check "
                         "compares on [2 r_patch, R_max]")
    dense = _integrate_singular(spec, dim, r_patch, R_max, rtol, atol)
    r = np.geomspace(r_patch, R_max, n_points)
    u, du = dense(r)
    if np.any(u <= 0.0):
        bad = r[u <= 0][0]
        raise StepUnderflow(f"singular profile lost positivity at r={bad:.3e}",
                            r=bad)

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
        ustar = table.u_star(reg.r[mask])
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


@cache
def _flux_rule():
    """The flux check's 64-point Gauss-Legendre rule on [0, 1] (nodes,
    weights; read-only), built on first use: at import its eigensolve
    would cost every command that never checks the flux 1-2 ms and about
    0.2 MB of peak memory."""
    x, w = np.polynomial.legendre.leggauss(64)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _flux_integrand(spec: NonlinearitySpec, u, r, dim: int) -> np.ndarray:
    """f(u) r^(N-1), as exp(g(u) + (N-1) log r) where that product is not
    finite (f overflows at the smallest radii, where the product does
    not)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(spec.f(u), dtype=float) * r ** (dim - 1)
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.exp(np.asarray(spec.g(u[bad]), dtype=float)
                              + (dim - 1) * np.log(r[bad]))
    return out


# equal panels in log r of the flux check's rule on (t_min, r_patch): the C^2
# join of cutoff-exp at u = 1 lies in this range, and in N = 3 one panel is
# off a 64 x 64-node reference by 4.8e-10 of the flux at r_patch, two by
# 1.2e-11, four by 2.3e-13
_FLUX_PANELS = 4


def verify_flux_identity(table: SingularSolutionTable) -> float:
    """Max relative residual of -r^(N-1) u*' = integral_0^r f(u*) s^(N-1),
    with f the table's own spec in the table's dimension.

    The contribution of (0, r_patch) takes the fixed 64-point
    Gauss-Legendre rule on five panels, with u* from one table.u_star call
    on all 320 nodes: one in r on (0, dense.t_min), on the patch formula
    (a small fraction of the flux at table radii), and four equal ones in
    s = log r on (dense.t_min, r_patch), with dr = r ds, on the solver's
    dense output.  That range carries nearly all of the flux at r_patch,
    and its four panels agree with 64 to within 3e-13 of that flux.  The
    rest is composite Simpson in r over the table, which bounds the
    check: it is exact where f(u*) r^(N-1) is linear in r (the cubic in
    N = 5), but the table's 500 geometric nodes are few per decade at tiny
    r_patch and the integrand is far from linear in high N, so its error
    there dominates the residual (power-exp in N = 3 at r_patch = 1e-150
    reads 2.1e-2; the cubic in N = 8 reads 7.0e-7).
    """
    spec, dim, t_min = table.spec, table.dim, table.dense.t_min
    lhs = -table.r ** (dim - 1) * table.du
    gl_x, gl_w = _flux_rule()
    width = math.log(table.r_patch / t_min) / _FLUX_PANELS
    rin = t_min * np.exp(width * (np.arange(_FLUX_PANELS)[:, None]
                                  + gl_x)).ravel()
    nodes = np.concatenate([t_min * gl_x, rin])
    weights = np.concatenate([t_min * gl_w,
                              width * np.tile(gl_w, _FLUX_PANELS) * rin])
    u = table.u_star(nodes)
    patch_part = float(np.dot(weights, _flux_integrand(spec, u, nodes, dim)))
    integrand = _flux_integrand(spec, table.u, table.r, dim)
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


def trace_pohozaev(table: SingularSolutionTable) -> PohozaevTrace:
    """Weighted radial energy whose derivative is -(N-2)/2 r^(N-1) Q(u*);
    non-increasing whenever the fourth admissibility condition holds.
    The table's f is integrated from 0 along the monotone table."""
    dim = table.dim
    r, u, du = table.r, table.u, table.du
    F0 = _F0_along(table.spec, u)
    P = (0.5 * r ** dim * du ** 2 + r ** dim * F0
         + 0.5 * (dim - 2.0) * r ** (dim - 1) * u * du)
    return PohozaevTrace(r=r, P=P)


def asymptotic_ratio(table: SingularSolutionTable) -> np.ndarray:
    """Series (r, F(u*(r)) (2N-4)/r^2), F of table.spec, at up to 40 nodes
    of its smallest decade; tends to 1 as r -> 0 for the exponential class."""
    idx = np.where(table.r <= 10.0 * table.r[0])[0]
    if len(idx) > 40:
        idx = idx[np.linspace(0, len(idx) - 1, 40).astype(int)]
    r = table.r[idx]
    ratio = np.exp(eval_F_log(table.spec, table.u[idx])
                   + math.log(2.0 * table.dim - 4.0) - 2.0 * np.log(r))
    return np.column_stack([r, ratio])
