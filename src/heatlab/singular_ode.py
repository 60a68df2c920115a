"""Construction and verification of the singular stationary radial profile.

The stationary equation in radial form is

    u'' + (N-1)/r u' + f(u) = 0.

The singular profile is built by outward integration from a small patch
radius where an asymptotic formula seeds the values; regular (finite-center)
solutions are built by shooting from r = 0 and serve as an independent
cross-check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.interpolate import PchipInterpolator

from .errors import PatchMismatch, StepUnderflow
from .nonlinearity import (
    NonlinearitySpec,
    _reaction_integral_ratio,
    eval_F_inverse_log,
    eval_F_log,
)

__all__ = [
    "SingularSolutionTable",
    "ShootingSolution",
    "PohozaevTrace",
    "BoundReport",
    "integrate_regular",
    "build_singular",
    "verify_flux_identity",
    "trace_pohozaev",
    "verify_growth_bounds",
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
        raise ValueError("no positive singular profile for these p, dim")
    return base ** (1.0 / (p - 1.0))


def patch_seed(spec: NonlinearitySpec, dim: int, r: float):
    """Seed values (u, u') of the singular profile at a small radius r.

    Exponential-class nonlinearities use the blow-up asymptotic
    u = F^{-1}(r^2/(2N-4)); differentiating F(u) = r^2/(2N-4) with
    F' = -1/f forces u' = -r f(u)/(N-2).  A second-order correction
    multiplies the argument by 1 + 2*eta/(N-2) with eta = -g''/g'^2,
    obtained by expanding v = F(u) in the radial equation
    v'' + (N-1)/r v' = 1 + g' f v'^2 around v = r^2/(2N-4).  For the
    pure power family the asymptotic constant is off (f' F does not tend
    to 1), so the explicit closed-form profile is used instead.
    """
    if spec.family == "pure_power":
        p = spec.params["p"]
        m = 2.0 / (p - 1.0)
        L = pure_power_profile_coefficient(p, dim)
        u = L * r ** (-m)
        du = -m * L * r ** (-m - 1.0)
        return u, du
    log_v0 = 2.0 * math.log(r) - math.log(2.0 * dim - 4.0)
    u0 = eval_F_inverse_log(spec, log_v0)
    eta = -float(spec.gpp(u0)) / float(spec.gp(u0)) ** 2
    w = 2.0 * eta / (dim - 2.0)
    u = eval_F_inverse_log(spec, log_v0 + math.log1p(w))
    du = -r * float(spec.f(u)) * (1.0 + w) / (dim - 2.0)
    return u, du


def _patch_method(spec: NonlinearitySpec) -> str:
    if spec.family == "pure_power":
        return "closed-form power law"
    return "F-inverse asymptotic"


@dataclass
class SingularSolutionTable:
    """Tabulated singular profile (r, u*, u*') on (r_patch, R_max].

    Fields: the table ``r``, ``u``, ``du`` on [r_patch, R_max] in dimension
    ``dim``; its provenance (``patch_method``, ``spec_descriptor``,
    ``tolerances``, ``cross_check``); the solver's dense output ``dense``
    on [dense.t_min, R_max], the only representation of the profile below
    r_patch; and the optional ``spec`` for the patch formula below that.
    """

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    dim: int
    r_patch: float
    R_max: float
    patch_method: str
    spec_descriptor: dict
    dense: Callable = field(repr=False, compare=False)
    tolerances: dict = field(default_factory=dict)
    cross_check: dict = field(default_factory=dict)
    spec: Optional[NonlinearitySpec] = field(default=None, repr=False,
                                             compare=False)

    def __post_init__(self):
        self._interp_u = PchipInterpolator(np.log(self.r), np.log(self.u))
        self._interp_du = PchipInterpolator(np.log(self.r), self.du)

    def _evaluate(self, r, spec, k: int):
        """Column k (0: u*, 1: u*') at arbitrary radii: the solver's dense
        output on [dense.t_min, r_patch), the patch formula below that, and
        monotone interpolation on the main table."""
        spec = spec if spec is not None else self.spec
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r)
        inside = r < self.r[0]
        if np.any(inside):
            ri = r[inside]
            vals = np.empty_like(ri)
            covered = ri >= self.dense.t_min
            if np.any(covered):     # OdeSolution rejects an empty array
                vals[covered] = self.dense(ri[covered])[k]
            if np.any(~covered):
                if spec is None:
                    raise ValueError(
                        "need the nonlinearity to evaluate the patch")
                vals[~covered] = [patch_seed(spec, self.dim, x)[k]
                                  for x in ri[~covered]]
            out[inside] = vals
        x = np.log(np.clip(r[~inside], self.r[0], self.r[-1]))
        out[~inside] = (np.exp(self._interp_u(x)) if k == 0
                        else self._interp_du(x))
        return out if out.size > 1 else float(out[0])

    def u_star(self, r, spec: Optional[NonlinearitySpec] = None):
        """Profile value at arbitrary radii."""
        return self._evaluate(r, spec, 0)

    def du_star(self, r, spec: Optional[NonlinearitySpec] = None):
        """Profile derivative at arbitrary radii."""
        return self._evaluate(r, spec, 1)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("r,u_star,du_star\n")
            for r, u, du in zip(self.r, self.u, self.du):
                fh.write(f"{r:.17g},{u:.17g},{du:.17g}\n")

    def sidecar(self) -> dict:
        return {
            "N": self.dim,
            "r_patch": self.r_patch,
            "R_max": self.R_max,
            "patch_method": self.patch_method,
            "spec_descriptor": self.spec_descriptor,
            "tolerances": self.tolerances,
            "cross_check": self.cross_check,
        }

    def write_sidecar(self, path):
        with open(path, "w") as fh:
            json.dump(self.sidecar(), fh, indent=2)


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

    def value_at(self, r: float) -> float:
        return float(np.interp(r, self.r, self.u))


@dataclass
class PohozaevTrace:
    r: np.ndarray
    P: np.ndarray

    def fd_slopes(self) -> np.ndarray:
        return np.diff(self.P) / np.diff(self.r)

    @property
    def max_fd_slope(self) -> float:
        return float(self.fd_slopes().max())


@dataclass
class BoundReport:
    delta: float
    entries: dict

    @property
    def all_hold(self) -> bool:
        return all(e["holds"] for e in self.entries.values())


def _rhs(spec: NonlinearitySpec, dim: int):
    def rhs(r, y):
        u, du = y
        fu = float(spec.f(u)) if u > 0.0 else 0.0
        return [du, -(dim - 1.0) / r * du - fu]
    return rhs


def integrate_regular(spec: NonlinearitySpec, dim: int, alpha: float,
                      R_max: float, rtol: float = 1e-10,
                      atol: float = 1e-12, n_points: int = 400,
                      r_start: float = 1e-6) -> ShootingSolution:
    """Shoot the radial equation from the center height alpha.

    The 1/r singularity at the origin is avoided by starting from the
    series expansion u = alpha - f(alpha) r^2/(2N) on [0, r_start]; the
    start radius shrinks automatically when f(alpha) is large.
    """
    if dim < 3:
        raise ValueError("dim must be >= 3")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if alpha == 0.0:
        r = np.linspace(0.0, R_max, n_points)
        z = np.zeros_like(r)
        return ShootingSolution(0.0, r, z, z.copy(), "reached_rmax", R_max)

    f_a = float(spec.f(alpha))
    if f_a > 0.0:
        r_start = min(r_start, math.sqrt(0.01 * 2.0 * dim * alpha / f_a))
    u0 = alpha - f_a * r_start ** 2 / (2.0 * dim)
    du0 = -f_a * r_start / dim

    def hit_zero(r, y):
        return y[0]
    hit_zero.terminal = True
    hit_zero.direction = -1

    sol = solve_ivp(_rhs(spec, dim), (r_start, R_max), [u0, du0],
                    method="LSODA", rtol=rtol, atol=atol,
                    dense_output=True, events=hit_zero, max_step=R_max / 10)
    if sol.status == -1:
        raise StepUnderflow(f"integration failed at r={sol.t[-1]:.3e}: "
                            f"{sol.message}", r=sol.t[-1],
                            state=(sol.y[0, -1], sol.y[1, -1]))
    if sol.status == 1:
        termination, r_end = "vanished", float(sol.t_events[0][0])
    else:
        termination, r_end = "reached_rmax", R_max

    r_grid = np.geomspace(r_start, r_end, n_points - 1)
    y = sol.sol(r_grid)
    r_out = np.concatenate([[0.0], r_grid])
    u_out = np.concatenate([[alpha], y[0]])
    du_out = np.concatenate([[0.0], y[1]])
    return ShootingSolution(alpha, r_out, u_out, np.asarray(du_out),
                            termination, r_end, dense=sol.sol)


def _integrate_singular(spec, dim, r_patch, R_max, rtol, atol,
                        inner_factor):
    """Integrate outward from r_inner = r_patch/inner_factor so that the
    seeding error of the asymptotic formula has decayed by the time the
    tabulated range starts.  Returns the solver's dense output on
    [r_inner, R_max]."""
    r_inner = r_patch / inner_factor
    u0, du0 = patch_seed(spec, dim, r_inner)
    sol = solve_ivp(_rhs(spec, dim), (r_inner, R_max), [u0, du0],
                    method="LSODA", rtol=rtol, atol=atol, dense_output=True,
                    max_step=R_max / 20)
    if sol.status != 0:
        raise StepUnderflow(
            f"singular integration stopped at r={sol.t[-1]:.3e}: "
            f"{sol.message}", r=sol.t[-1],
            state=(sol.y[0, -1], sol.y[1, -1]))
    return sol.sol


def build_singular(spec: NonlinearitySpec, dim: int,
                   r_patch: float = 1e-3, R_max: float = 10.0,
                   rtol: float = 1e-11, atol: float = 1e-13,
                   n_points: int = 500, patch_tol: float = 1e-5,
                   inner_factor: float = 1024.0,
                   check_patch: bool = True,
                   cross_check: bool = True) -> SingularSolutionTable:
    """Construct the singular profile table on [r_patch, R_max].

    Outward integration is the stable direction (nearby solutions are
    attracted to the singular one as r grows), so the seeding error decays
    downstream.  Consistency is guarded by re-seeding at r_patch/2 and
    comparing the two dense outputs on the table radii in [2 r_patch, R_max].
    """
    if not (0.0 < r_patch < R_max):
        raise ValueError("need 0 < r_patch < R_max")
    dense = _integrate_singular(spec, dim, r_patch, R_max, rtol, atol,
                                inner_factor)
    r = np.geomspace(r_patch, R_max, n_points)
    u, du = dense(r)
    if np.any(u <= 0.0):
        raise StepUnderflow("singular profile lost positivity", r=r[u <= 0][0])

    table = SingularSolutionTable(
        r=r, u=u, du=du, dim=dim, r_patch=r_patch, R_max=R_max,
        patch_method=_patch_method(spec),
        spec_descriptor=spec.descriptor(),
        tolerances={"rtol": rtol, "atol": atol, "patch_tol": patch_tol},
        spec=spec, dense=dense)

    if check_patch:
        dense2 = _integrate_singular(spec, dim, r_patch / 2.0, R_max,
                                     rtol, atol, inner_factor)
        window = r >= 2.0 * r_patch
        rel = np.abs(dense2(r[window])[0] - u[window]) / u[window]
        mismatch = float(rel.max())
        table.tolerances["patch_mismatch"] = mismatch
        if mismatch > patch_tol:
            raise PatchMismatch(
                f"re-seeding at r_patch/2 changed the profile by "
                f"{mismatch:.2e} (> {patch_tol:g}) on [2 r_patch, R_max]")

    if cross_check:
        # A regular solution started above the patch value must come back
        # under the singular profile downstream.  In the oscillatory regime
        # (low dimensions) it crosses u* with a few percent overshoot, so
        # the comparison carries a 5% allowance.
        alpha = 2.0 * u[0]
        try:
            reg = integrate_regular(spec, dim, alpha, R_max,
                                    rtol=1e-8, atol=1e-10)
            lo = max(10.0 * r_patch, 0.05 * R_max)
            mask = (reg.r >= lo) & (reg.u > 0)
            if np.any(mask):
                ustar = np.asarray(table.u_star(reg.r[mask], spec))
                max_ratio = float((reg.u[mask] / ustar).max())
                below = bool(max_ratio <= 1.05)
            else:
                max_ratio, below = 0.0, True  # died out: diverged indeed
            table.cross_check = {"alpha": alpha, "regular_below": below,
                                 "max_ratio": max_ratio}
        except StepUnderflow:
            table.cross_check = {"alpha": alpha, "regular_below": None,
                                 "note": "regular integration underflowed"}
    return table


def eval_F0(spec: NonlinearitySpec, u: float) -> float:
    """Antiderivative of f from 0, computed with the boundary layer at
    s = u resolved explicitly."""
    if u <= 0.0:
        return 0.0
    gu = float(spec.g(u))
    if gu >= 700.0:
        return math.inf
    return _reaction_integral_ratio(spec, u) * math.exp(gu)


def ode_residual(obj, spec: NonlinearitySpec, dim: int,
                 r_lo: float, r_hi: float, steps=(2e-4, 6e-4, 1.2e-3),
                 n: int = 400) -> float:
    """Sup of the relative stationary residual u'' + (N-1)/r u' + f(u)
    over [r_lo, r_hi], with u'' from a symmetric second difference of the
    solver's dense output.

    The step trades second-difference truncation against amplification of
    the dense-output interpolation error, and the best-resolved of a few
    steps is reported.
    """
    dense = obj.dense
    if dense is None:
        raise ValueError("no dense solver output attached")
    r = np.linspace(r_lo, r_hi, n)
    best = math.inf
    for h in np.atleast_1d(steps):
        um, u0, up = dense(r - h)[0], dense(r)[0], dense(r + h)[0]
        upp = (up - 2.0 * u0 + um) / h ** 2
        du = (up - um) / (2.0 * h)
        fu = np.asarray(spec.f(u0))
        res = upp + (dim - 1.0) / r * du + fu
        scale = np.maximum(np.abs(upp), fu)
        best = min(best, float(np.abs(res / scale).max()))
    return best


def verify_flux_identity(table: SingularSolutionTable,
                         spec: NonlinearitySpec) -> float:
    """Max relative residual of -r^(N-1) u*' = integral_0^r f(u*) s^(N-1).

    The contribution of (0, r_patch) is quadrature of the patch formula
    below the solver's dense output and Simpson quadrature of 2000 dense
    samples on [dense.t_min, r_patch]; the rest is composite quadrature
    over the table.
    """
    dim = table.dim
    n_dense = 2000      # samples of the dense output below r_patch
    lhs = -table.r ** (dim - 1) * table.du

    def patch_flux(r_hi, n=64):
        # fixed Gauss-Legendre: each node costs an F-inverse solve, so the
        # node count is kept moderate; the contribution below r_hi is a
        # small fraction of the total flux at table radii
        x, wts = np.polynomial.legendre.leggauss(n)
        s = 0.5 * r_hi * (x + 1.0)
        w = 0.5 * r_hi * wts
        vals = [float(spec.f(patch_seed(spec, dim, si)[0])) * si ** (dim - 1)
                for si in s]
        return float(np.dot(w, vals))

    rin = np.geomspace(table.dense.t_min, table.r_patch, n_dense)
    uin = table.dense(rin)[0]
    inner_integrand = np.asarray(spec.f(uin)) * rin ** (dim - 1)
    patch_part = (patch_flux(rin[0])
                  + cumulative_simpson(inner_integrand, x=rin)[-1])
    integrand = np.asarray(spec.f(table.u)) * table.r ** (dim - 1)
    rhs = patch_part + cumulative_simpson(integrand, x=table.r, initial=0.0)
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)
    return float(rel.max())


def trace_pohozaev(table: SingularSolutionTable,
                   spec: NonlinearitySpec) -> PohozaevTrace:
    """Weighted radial energy whose derivative is -(N-2)/2 r^(N-1) Q(u*);
    non-increasing whenever the fourth admissibility condition holds."""
    dim = table.dim
    F0 = np.array([eval_F0(spec, float(u)) for u in table.u])
    r, u, du = table.r, table.u, table.du
    P = (0.5 * r ** dim * du ** 2 + r ** dim * F0
         + 0.5 * (dim - 2.0) * r ** (dim - 1) * u * du)
    return PohozaevTrace(r=r, P=P)


def asymptotic_ratio(table: SingularSolutionTable, spec: NonlinearitySpec,
                     n: int = 40) -> np.ndarray:
    """Series (r, F(u*(r)) (2N-4)/r^2) on the smallest decade of the table;
    tends to 1 as r -> 0 for the exponential class."""
    r_lo = table.r[0]
    mask = table.r <= 10.0 * r_lo
    idx = np.where(mask)[0]
    if len(idx) > n:
        idx = idx[np.linspace(0, len(idx) - 1, n).astype(int)]
    out = []
    for i in idx:
        logF = eval_F_log(spec, float(table.u[i]))
        ratio = math.exp(logF + math.log(2.0 * table.dim - 4.0)
                         - 2.0 * math.log(table.r[i]))
        out.append((table.r[i], ratio))
    return np.array(out)


def verify_growth_bounds(table: SingularSolutionTable,
                         spec: NonlinearitySpec, delta: float,
                         gammas=(0.5, 0.9)) -> BoundReport:
    """Empirical check of the near-origin envelope bounds.

    Constants are fitted as envelopes over the smallest decade of radii in
    the table (the bounds are asymptotic as r -> 0) and the inequalities
    re-checked there; fitted constants are reported, since the underlying
    existential constants have no numeric values to compare against.
    """
    if not (0.0 < delta < (table.dim - 2.0) / 2.0):
        raise ValueError("delta out of range")
    r_lo = table.r[0]
    w = table.r <= 10.0 * r_lo
    r, u, du = table.r[w], table.u[w], table.du[w]
    f_u = np.asarray(spec.f(u))
    entries = {}

    # value bound u* <= C r^(-2 delta)
    prod = u * r ** (2.0 * delta)
    C = float(prod.max())
    slope = np.polyfit(np.log(r), np.log(u), 1)[0]
    entries["value_envelope"] = {
        "holds": bool(np.all(u <= C * r ** (-2.0 * delta) * (1 + 1e-12))),
        "C": C, "loglog_slope": float(slope),
        "slope_within_2delta": bool(-slope < 2.0 * delta),
    }

    # derivative bound |u*'| <= C r^(-1-2 delta)
    prod = np.abs(du) * r ** (1.0 + 2.0 * delta)
    C = float(prod.max())
    entries["derivative_envelope"] = {
        "holds": bool(np.all(np.abs(du) <= C * r ** (-1 - 2 * delta)
                             * (1 + 1e-12))),
        "C": C,
    }

    # reaction lower bound f(u*) > C r^(-2+2 delta)
    prod = f_u * r ** (2.0 - 2.0 * delta)
    C = float(prod.min())
    entries["reaction_lower"] = {
        "holds": bool(C > 0.0 and prod[0] >= prod[-1]),
        "C": C, "product_small_r": float(prod[0]),
        "product_large_r": float(prod[-1]),
    }

    # shift contraction f(u* - delta) <= gamma0 f(u*), gamma0 < 1
    ok = u > delta
    if np.any(ok):
        ratios = np.asarray(spec.f(u[ok] - delta)) / f_u[ok]
        gamma0 = float(ratios.max())
    else:
        gamma0 = math.nan
    entries["shift_contraction"] = {
        "holds": bool(gamma0 < 1.0), "gamma0": gamma0,
    }

    # scaled power-law envelope f(gamma1 u*) <= C r^(-2 gamma1)
    for g1 in gammas:
        prod = np.asarray(spec.f(g1 * u)) * r ** (2.0 * g1)
        C = float(prod.max())
        entries[f"scaled_envelope_{g1:g}"] = {
            "holds": bool(prod[0] <= 2.0 * max(prod[-1], prod.mean())),
            "C": C, "gamma1": g1,
        }
    return BoundReport(delta=delta, entries=entries)
