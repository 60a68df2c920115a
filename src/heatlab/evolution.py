"""Radial discretization of the heat flow in N dimensions.

Provides the grid/field containers, the action of the heat semigroup
through the exact radially-reduced Gaussian kernel, windowed uniformly
local norms, and an IMEX time stepper (implicit diffusion, explicit
reaction) for the reaction-diffusion evolution.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dgtsv
from scipy.special import betainc, gamma as gamma_fn

from .errors import LinearSolveFailure, QuadratureFailure, ReactionOverflow
from .nonlinearity import NonlinearitySpec

__all__ = [
    "BoundaryCondition",
    "RadialGrid",
    "RadialField",
    "ULNormEstimate",
    "make_grid",
    "field_from_table",
    "unit_ball_volume",
    "sphere_area",
    "apply_semigroup",
    "semigroup_operator",
    "ul_norm",
    "step_imex",
    "stability_dt",
    "write_snapshot_csv",
    "write_norm_series_csv",
]


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)


def unit_ball_volume(dim: int) -> float:
    return sphere_area(dim) / dim


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str                 # "dirichlet" | "neumann"
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {self.kind!r}")


@dataclass(frozen=True)
class RadialGrid:
    """Radial nodes 0 = r_0 < ... < r_M = R_outer with metric weights.

    The spacing is geometric near the origin (to resolve singular data)
    and uniform outside the transition radius.
    """

    r: np.ndarray
    dim: int
    bc: BoundaryCondition

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r[0] != 0.0 or np.any(np.diff(r) <= 0):
            raise ValueError("nodes must start at 0 and increase strictly")
        if self.dim < 3:
            raise ValueError("dimension must be >= 3")
        object.__setattr__(self, "r", r)

    @property
    def n_nodes(self) -> int:
        return len(self.r)

    @property
    def R_outer(self) -> float:
        return float(self.r[-1])

    def key(self):
        return (self.r.tobytes(), self.dim, self.bc.kind, self.bc.value)

    def cell_volumes(self) -> np.ndarray:
        """Finite-volume cell of each node per unit solid angle: the shell
        between the neighbouring midpoints, (right^N - left^N) / N."""
        faces = 0.5 * (self.r[:-1] + self.r[1:])
        left = np.concatenate([[0.0], faces])
        right = np.concatenate([faces, [self.r[-1]]])
        return (right ** self.dim - left ** self.dim) / self.dim

    @cached_property
    def diffusion_coefficients(self):
        """dt-free parts of the Laplacian bands, built once per grid: cell
        volumes, face conductances r^{N-1}/h (node i <-> i+1) and each
        node's summed conductance.  The arrays are read-only."""
        vol = self.cell_volumes()
        faces = 0.5 * (self.r[:-1] + self.r[1:])
        cond = faces ** (self.dim - 1) / np.diff(self.r)
        # node i couples to i-1 through cond[i-1] and to i+1 through
        # cond[i]; the first and last nodes have one neighbour each
        c_sum = np.concatenate([[0.0], cond]) + np.concatenate([cond, [0.0]])
        for a in (vol, cond, c_sum):
            a.setflags(write=False)
        return vol, cond, c_sum

    def exterior_value(self, u: np.ndarray) -> float:
        """Value a field with nodal values u takes beyond the outer
        radius: the Dirichlet value, or the last nodal value."""
        if self.bc.kind == "dirichlet":
            return self.bc.value
        return float(u[-1])

    def refined(self) -> "RadialGrid":
        """Grid with every interval halved (nodes doubled)."""
        mids = 0.5 * (self.r[:-1] + self.r[1:])
        r = np.sort(np.concatenate([self.r, mids]))
        return RadialGrid(r=r, dim=self.dim, bc=self.bc)


def make_grid(dim: int, R_outer: float, n_nodes: int = 257,
              r1_frac: float = 1e-3, transition: Optional[float] = None,
              bc: BoundaryCondition = BoundaryCondition("neumann")
              ) -> RadialGrid:
    """Geometric-then-uniform node layout with r_1 = r1_frac * R_outer."""
    if n_nodes < 8:
        raise ValueError("need at least 8 nodes")
    if transition is None:
        transition = min(1.0, R_outer / 4.0)
    n_geo = max(4, int(0.45 * (n_nodes - 1)))
    n_uni = n_nodes - 1 - n_geo
    if n_uni < 3:
        raise ValueError("too few nodes for the uniform outer section")
    r1 = r1_frac * R_outer
    geo = np.geomspace(r1, transition, n_geo)
    uni = np.linspace(transition, R_outer, n_uni + 1)[1:]
    r = np.concatenate([[0.0], geo, uni])
    return RadialGrid(r=r, dim=dim, bc=bc)


@dataclass
class RadialField:
    """Nonnegative nodal values on a radial grid, with a record of which
    nodes were clipped at a cap when representing singular data."""

    grid: RadialGrid
    u: np.ndarray
    cap_mask: np.ndarray = None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape != self.grid.r.shape:
            raise ValueError("values and grid differ in length")
        if not np.all(np.isfinite(u)) or np.any(u < 0):
            raise ValueError("field values must be finite and >= 0")
        self.u = u
        if self.cap_mask is None:
            self.cap_mask = np.zeros(len(u), dtype=bool)

    def copy_with(self, u: np.ndarray) -> "RadialField":
        return RadialField(self.grid, u, self.cap_mask.copy())

    @property
    def sup(self) -> float:
        return float(self.u.max())


def field_from_table(table, grid: RadialGrid, cap: float = 1e6,
                     spec: Optional[NonlinearitySpec] = None) -> RadialField:
    """Sample a singular profile onto a grid, clipping at the cap.

    The origin node takes the cap value (the profile diverges there); the
    cap_mask records every clipped node.
    """
    u = np.empty(grid.n_nodes)
    u[0] = cap
    u[1:] = np.asarray(table.u_star(grid.r[1:], spec))
    mask = u > cap
    mask[0] = True
    u = np.minimum(u, cap)
    return RadialField(grid, u, mask)


# ---------------------------------------------------------------------------
# heat semigroup via the radially reduced Gaussian kernel
# ---------------------------------------------------------------------------
#
# Writing |x-y|^2 = (r-rho)^2 + 2 r rho (1-cos theta) and integrating the
# Gaussian over the sphere of directions gives
#
#   [S(t)u](r) = (4 pi t)^{-N/2} int_0^inf e^{-(r-rho)^2/4t} B(a)
#                u(rho) rho^{N-1} drho,        a = r rho / 2t,
#
# with the angular factor
#
#   B(a) = omega_{N-2} int_0^2 e^{-a w} (w(2-w))^{(N-3)/2} dw
#        -> (2 pi / a)^{(N-1)/2}  as a -> inf,  B(0) = omega_{N-1}.

_A_MAX = 1e8


@lru_cache(maxsize=8)
def _angular_table(dim: int):
    """Spline of log[B(a) (1+a)^{(N-1)/2}] against log(1+a)."""
    nu = (dim - 3.0) / 2.0
    om = sphere_area(dim - 1)
    x = np.linspace(0.0, math.log1p(_A_MAX), 900)
    a_vals = np.expm1(x)
    logs = np.empty_like(a_vals)
    for i, a in enumerate(a_vals):
        # substitute w = 1 - cos(theta); integrand concentrates near 0, and
        # the tail cut off beyond 60/a is below e^{-60}
        hi = 2.0 if a < 30.0 else min(2.0, 60.0 / a)
        val, err = quad(lambda w: math.exp(-a * w) * (w * (2.0 - w)) ** nu,
                        0.0, hi, epsabs=0.0, epsrel=1e-12, limit=200)
        if not np.isfinite(val) or val <= 0.0:
            raise QuadratureFailure(f"angular kernel quadrature at a={a:g}")
        logs[i] = math.log(om * val) + 0.5 * (dim - 1) * math.log1p(a)
    return CubicSpline(x, logs)


def _log_angular(dim: int, a: np.ndarray) -> np.ndarray:
    """log B(a), vectorized, exact asymptotic beyond the table."""
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a)
    small = a <= _A_MAX
    if np.any(small):
        x = np.log1p(a[small])
        out[small] = _angular_table(dim)(x) - 0.5 * (dim - 1) * x
    if np.any(~small):
        out[~small] = 0.5 * (dim - 1) * (math.log(2.0 * math.pi)
                                         - np.log(a[~small]))
    return out


class SemigroupOperator:
    """Dense matrix action of S(t) on nodal values of one grid.

    The convolution integral is evaluated segment-by-segment with
    Gauss-Legendre nodes; the integrand's nodal values enter through
    interpolation, keeping the operator linear in the field. Cubic Lagrange
    interpolation ("cubic") maximizes accuracy; piecewise-linear ("linear")
    yields strictly nonnegative weights, hence a provably monotone discrete
    operator, at second-order accuracy. Beyond the outer radius the field
    is extended by its boundary value.
    """

    def __init__(self, grid: RadialGrid, t: float, interp: str = "cubic"):
        if t <= 0:
            raise ValueError("t must be positive")
        if interp not in ("cubic", "linear"):
            raise ValueError(f"unknown interpolation {interp!r}")
        self.grid = grid
        self.t = t
        self.interp = interp
        self.matrix, self.ext = self._assemble()

    def _quad_nodes(self):
        grid, t = self.grid, self.t
        width = math.sqrt(4.0 * t)
        r = grid.r
        R = grid.R_outer
        edges = [r]
        # extension region: constant field out to where the kernel has died
        R_ext = R + 9.0 * width
        n_ext = max(4, int(math.ceil((R_ext - R) / (0.45 * width))))
        edges.append(np.linspace(R, R_ext, n_ext + 1)[1:])
        edges = np.concatenate(edges)
        gl_x, gl_w = np.polynomial.legendre.leggauss(6)
        lo, hi = edges[:-1], edges[1:]
        # subdivide wide segments so the Gaussian factor is resolved
        nodes, weights, seg_of = [], [], []
        for j in range(len(lo)):
            w_seg = hi[j] - lo[j]
            nsub = max(1, int(math.ceil(w_seg / (0.45 * width))))
            sub = np.linspace(lo[j], hi[j], nsub + 1)
            for k in range(nsub):
                mid = 0.5 * (sub[k] + sub[k + 1])
                half = 0.5 * (sub[k + 1] - sub[k])
                nodes.append(mid + half * gl_x)
                weights.append(half * gl_w)
                seg_of.append(np.full(len(gl_x), j, dtype=int))
        return (np.concatenate(nodes), np.concatenate(weights),
                np.concatenate(seg_of))

    def _interp_weights(self, rho, seg):
        """Cubic Lagrange weights mapping nodal values to values at rho.

        Quadrature nodes beyond the last grid segment take the boundary
        value (column index -1 marks the extension).
        """
        r = self.grid.r
        M = len(r)
        n = len(rho)
        cols = np.zeros((n, 4), dtype=int)
        wts = np.zeros((n, 4))
        inside = seg < M - 1
        out = ~inside
        cols[out, 0] = -1
        wts[out, 0] = 1.0
        idx = np.where(inside)[0]
        j = seg[idx]
        if self.interp == "linear":
            lam = (rho[idx] - r[j]) / (r[j + 1] - r[j])
            cols[idx, 0] = j
            cols[idx, 1] = j + 1
            wts[idx, 0] = 1.0 - lam
            wts[idx, 1] = lam
            return cols, wts
        base = np.clip(j - 1, 0, M - 4)
        for c in range(4):
            cols[idx, c] = base + c
        xs = r[cols[idx]]
        x = rho[idx]
        for c in range(4):
            num = np.ones(len(idx))
            den = np.ones(len(idx))
            for c2 in range(4):
                if c2 == c:
                    continue
                num *= x - xs[:, c2]
                den *= xs[:, c] - xs[:, c2]
            wts[idx, c] = num / den
        return cols, wts

    def _assemble(self):
        grid, t = self.grid, self.t
        dim = grid.dim
        r = grid.r
        M = len(r)
        rho, w, seg = self._quad_nodes()
        cols, iw = self._interp_weights(rho, seg)
        log_pref = -0.5 * dim * math.log(4.0 * math.pi * t)
        with np.errstate(divide="ignore"):
            log_rho_metric = (dim - 1) * np.log(rho)
        A = np.zeros((M, M))
        ext = np.zeros(M)
        for i in range(M):
            ri = r[i]
            a = ri * rho / (2.0 * t)
            log_k = (log_pref - (ri - rho) ** 2 / (4.0 * t)
                     + _log_angular(dim, a) + log_rho_metric)
            kv = np.exp(log_k) * w
            contrib = kv[:, None] * iw
            np.add.at(A[i], cols.ravel().clip(min=0),
                      np.where(cols.ravel() >= 0, contrib.ravel(), 0.0))
            ext[i] = contrib.ravel()[cols.ravel() < 0].sum()
        return A, ext

    def apply(self, u: np.ndarray, u_ext: float) -> np.ndarray:
        """S(t) on nodal values u extended by the value u_ext beyond the
        outer radius."""
        return self.matrix @ u + self.ext * u_ext

    def __call__(self, field: RadialField) -> RadialField:
        if field.grid.key() != self.grid.key():
            raise ValueError("field lives on a different grid")
        out = self.apply(field.u, self.grid.exterior_value(field.u))
        # cubic interpolation can undershoot by strictly tiny amounts
        return field.copy_with(np.maximum(out, 0.0))


# least recently used operators are dropped beyond this many; a ladder or
# fixed-point check uses about a dozen
_OPERATOR_CACHE_SIZE = 64
_OPERATOR_CACHE: OrderedDict = OrderedDict()


def semigroup_operator(grid: RadialGrid, t: float,
                       interp: str = "cubic") -> SemigroupOperator:
    """Cached S(t) matrix for one (grid, t, interpolation) triple."""
    key = (grid.key(), float(t), interp)
    op = _OPERATOR_CACHE.get(key)
    if op is None:
        op = SemigroupOperator(grid, t, interp)
        _OPERATOR_CACHE[key] = op
        if len(_OPERATOR_CACHE) > _OPERATOR_CACHE_SIZE:
            _OPERATOR_CACHE.popitem(last=False)
    else:
        _OPERATOR_CACHE.move_to_end(key)
    return op


def apply_semigroup(field: RadialField, t: float) -> RadialField:
    """Heat semigroup action S(t) on a radial field."""
    return semigroup_operator(field.grid, t)(field)


# ---------------------------------------------------------------------------
# uniformly local norms
# ---------------------------------------------------------------------------

@dataclass
class ULNormEstimate:
    p: float
    value: float
    center: float
    centers_sampled: int

    @property
    def norm(self) -> float:
        """The norm value itself, (windowed integral)^(1/p)."""
        return self.value ** (1.0 / self.p)


def _cap_area_factor(dim: int, cos_t: np.ndarray) -> np.ndarray:
    """Fraction of the unit sphere within angle theta* of the pole, where
    cos(theta*) = cos_t; computed through the regularized incomplete beta
    function."""
    cos_t = np.clip(cos_t, -1.0, 1.0)
    s2 = 1.0 - cos_t ** 2
    half = betainc((dim - 1) / 2.0, 0.5, np.clip(s2, 0.0, 1.0)) * 0.5
    return np.where(cos_t >= 0.0, half, 1.0 - half)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_N_CENTERS = 512          # equispaced window centres scanned in [0, R_outer]


def _window_integral(field: RadialField, p: float, z: float) -> float:
    """integral over the unit ball centered at distance z of |u|^p,
    in spherical shells: the shell of radius rho contributes its cap area
    times u(rho)^p."""
    grid = field.grid
    dim = grid.dim
    r = grid.r
    u = field.u

    lo = max(0.0, z - 1.0)
    hi = z + 1.0
    brk = [lo, hi]
    if z < 1.0:
        brk.append(1.0 - z)
    brk.extend(r[(r > lo) & (r < hi)])
    brk = np.unique(np.asarray(brk))
    # one row of Gauss-Legendre nodes per segment between breakpoints
    mid = 0.5 * (brk[:-1] + brk[1:])[:, None]
    half = 0.5 * (brk[1:] - brk[:-1])[:, None]
    rho = mid + half * _GL_X
    uv = np.interp(rho, r, u, right=u[-1])
    shell = sphere_area(dim) * rho ** (dim - 1)
    if z != 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_t = (rho ** 2 + z ** 2 - 1.0) / (2.0 * rho * z)
        shell = shell * np.where(rho <= 1.0 - z, 1.0,
                                 _cap_area_factor(dim, cos_t))
    return float(np.sum(half * _GL_W * uv ** p * shell))


def ul_norm(field: RadialField, p: float = 1.0) -> ULNormEstimate:
    """Uniformly local norm: sup over window centers of the integral of
    |u|^p over a unit ball.

    For radial data the sup reduces to one scalar center coordinate z.
    A radially nonincreasing field is its own symmetric-decreasing
    rearrangement, and so is the indicator of the unit ball at the origin;
    by the Hardy-Littlewood inequality

        int_{B(z,1)} u^p = int u^p 1_{B(z,1)} <= int (u^p)* 1_{B(z,1)}*
                         = int_{B(0,1)} u^p,

    so the window at the origin is a maximizer and is the only center
    evaluated.  Any other field is scanned over equispaced centers in
    [0, R_outer].
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    monotone = bool(np.all(np.diff(field.u) <= 1e-12 * max(1.0, field.sup)))
    zs = (np.zeros(1) if monotone
          else np.linspace(0.0, field.grid.R_outer, _N_CENTERS))
    vals = [_window_integral(field, p, z) for z in zs]
    k = int(np.argmax(vals))
    return ULNormEstimate(p=p, value=vals[k], center=float(zs[k]),
                          centers_sampled=len(zs))


# ---------------------------------------------------------------------------
# IMEX time stepping
# ---------------------------------------------------------------------------

REACTION_GUARD = 1e100


def _laplacian_bands(grid: RadialGrid, dt: float):
    """Banded form of I - dt*L for the finite-volume radial Laplacian with
    metric weights r^{N-1}, reflecting at the origin."""
    vol, cond, c_sum = grid.diffusion_coefficients
    ab = np.zeros((3, grid.n_nodes))
    ab[0, 1:] = -dt * cond / vol[:-1]
    ab[1] = 1.0 + dt * c_sum / vol
    ab[2, :-1] = -dt * cond / vol[1:]
    if grid.bc.kind == "dirichlet":
        ab[2, -2] = 0.0
        ab[1, -1] = 1.0
    return ab


def stability_dt(field: RadialField, spec: NonlinearitySpec,
                 dt_max: float = 1e-2, safety: float = 0.5) -> float:
    """Explicit-reaction stability bound safety * min(dt_max, 1/f'(sup u))."""
    fp = float(spec.fp(field.sup))
    if not np.isfinite(fp):
        raise ReactionOverflow(f"f'({field.sup:g}) overflows")
    return safety * min(dt_max, 1.0 / max(fp, 1e-300))


def step_imex(field: RadialField, spec: Optional[NonlinearitySpec],
              dt: float) -> RadialField:
    """One IMEX step: explicit reaction, then backward-Euler diffusion.

    The implicit diffusion matrix is an M-matrix, so the step preserves
    nonnegativity and nodewise ordering for any dt; dt must still satisfy
    the reaction stability bound for accuracy.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = field.grid
    if spec is not None:
        with np.errstate(over="ignore"):
            fu = np.asarray(spec.f(field.u), dtype=float)
        if not np.all(np.isfinite(fu)) or float(fu.max()) * dt > REACTION_GUARD:
            raise ReactionOverflow(
                f"reaction increment overflow: f(sup)={np.nanmax(fu):.3e}")
        u_half = field.u + dt * fu
    else:
        u_half = field.u.copy()
    if grid.bc.kind == "dirichlet":
        u_half[-1] = grid.bc.value
    ab = _laplacian_bands(grid, dt)
    # the tridiagonal LAPACK solver that solve_banded((1, 1), ...) calls,
    # on the same band slices, without its wrapper and input checks
    *_, u_new, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], u_half)
    if info != 0:   # singular matrix: should not happen
        raise LinearSolveFailure(f"tridiagonal solve failed (info={info})")
    if not np.all(np.isfinite(u_new)):
        raise LinearSolveFailure("non-finite diffusion solve")
    return field.copy_with(np.maximum(u_new, 0.0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_snapshot_csv(path, snapshots):
    """Long-format field snapshots: rows (t, r, u)."""
    with open(path, "w", newline="") as fh:
        fh.write("t,r,u\n")
        for t, field in snapshots:
            for r, u in zip(field.grid.r, field.u):
                fh.write(f"{t:.17g},{r:.17g},{u:.17g}\n")


def write_norm_series_csv(path, rows):
    """Norm time series: rows (t, sup, l1ul, inner reaction mass)."""
    with open(path, "w", newline="") as fh:
        fh.write("t,sup_norm,l1ul_norm,f_mass_inner\n")
        for t, sup, l1, mass in rows:
            fh.write(f"{t:.17g},{sup:.17g},{l1:.17g},{mass:.17g}\n")
