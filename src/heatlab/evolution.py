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
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv
from scipy.sparse import csr_matrix
from scipy.special import betainc, gamma as gamma_fn, ive

from .errors import LinearSolveFailure, ReactionOverflow
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
# with the angular factor (w = 1 - cos theta, nu = (N-2)/2, and
# ive(nu, a) = e^{-a} I_nu(a))
#
#   B(a) = omega_{N-2} int_0^2 e^{-a w} (w(2-w))^{(N-3)/2} dw
#        = omega_{N-2} sqrt(pi) Gamma((N-1)/2) (2/a)^nu ive(nu, a)
#        = 2 pi^{N/2} (2/a)^nu ive(nu, a).
#
# _log_angular uses the closed form on [_A_MIN, _A_MAX].  Below _A_MIN it
# uses log B(0) - a with B(0) = omega_{N-1}, exact to O(a^2): the origin
# row has a = 0, and for N >= 5 ive(nu, 1e-300) underflows to 0.  Above
# _A_MAX it uses the asymptote (2 pi / a)^{(N-1)/2}, exact to O(N^2 / a):
# ive returns nan from about a = 1e9.

_A_MIN = 1e-8
_A_MAX = 1e8
# kernel widths sqrt(4t) beyond which the Gaussian factor is below e^{-81}:
# the extension region ends there, and so does each row's band
_KERNEL_REACH = 9.0


def _log_angular(dim: int, a: np.ndarray) -> np.ndarray:
    """log B(a), vectorized."""
    a = np.asarray(a, dtype=float)
    nu = 0.5 * (dim - 2)
    return np.piecewise(a, [a < _A_MIN, a > _A_MAX], [
        lambda a: math.log(sphere_area(dim)) - a,
        lambda a: 0.5 * (dim - 1) * (math.log(2.0 * math.pi) - np.log(a)),
        lambda a: (math.log(2.0) + 0.5 * dim * math.log(math.pi)
                   + nu * np.log(2.0 / a) + np.log(ive(nu, a))),
    ])


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
        """Gauss-Legendre nodes, weights and the segment of each node.  The
        segments are the grid intervals and the extension region, each cut
        into sub-segments at most 0.45 kernel widths wide."""
        width = math.sqrt(4.0 * self.t)
        R = self.grid.R_outer
        R_ext = R + _KERNEL_REACH * width
        n_ext = max(4, int(math.ceil((R_ext - R) / (0.45 * width))))
        edges = np.concatenate([self.grid.r,
                                np.linspace(R, R_ext, n_ext + 1)[1:]])
        lo, hi = edges[:-1], edges[1:]
        nsub = np.maximum(1, np.ceil((hi - lo) / (0.45 * width)).astype(int))
        seg = np.repeat(np.arange(len(lo)), nsub)
        k = np.arange(len(seg)) - np.repeat(np.cumsum(nsub) - nsub, nsub)
        half = (0.5 * (hi - lo) / nsub)[seg, None]
        mid = lo[seg, None] + (2 * k + 1)[:, None] * half
        gl_x, gl_w = np.polynomial.legendre.leggauss(6)
        return ((mid + half * gl_x).ravel(), (half * gl_w).ravel(),
                np.repeat(seg, len(gl_x)))

    def _interp_matrix(self, rho, seg):
        """Sparse P mapping the nodal values, with the extension value as
        column M, to the field at the quadrature nodes rho: Lagrange weights
        on the four nodes around a node's segment (cubic) or on its two ends
        (linear), and weight 1 on the extension value beyond the grid."""
        r = self.grid.r
        M = len(r)
        n = 4 if self.interp == "cubic" else 2
        inside = seg < M - 1
        cols = np.full((len(rho), n), M)
        wts = np.zeros((len(rho), n))
        wts[~inside, 0] = 1.0
        cols[inside] = (np.clip(seg[inside] - n // 2 + 1, 0, M - n)[:, None]
                        + np.arange(n))
        xs = r[cols[inside]]
        for c in range(n):
            o = np.arange(n) != c
            wts[inside, c] = np.prod((rho[inside, None] - xs[:, o])
                                     / (xs[:, [c]] - xs[:, o]), axis=1)
        return csr_matrix((wts.ravel(), (np.repeat(np.arange(len(rho)), n),
                                         cols.ravel())),
                          shape=(len(rho), M + 1))

    def _assemble(self):
        t, dim, r = self.t, self.grid.dim, self.grid.r
        M = len(r)
        rho, w, seg = self._quad_nodes()
        # [matrix | ext] = K P, where row i of K holds kernel times weight on
        # its band: the (sorted) quadrature nodes within reach of r_i
        reach = _KERNEL_REACH * math.sqrt(4.0 * t)
        first = np.searchsorted(rho, r - reach, side="left")
        count = np.searchsorted(rho, r + reach, side="right") - first
        indptr = np.concatenate([[0], np.cumsum(count)])
        row = np.repeat(np.arange(M), count)
        q = np.arange(indptr[-1]) + np.repeat(first - indptr[:-1], count)
        log_k = (-0.5 * dim * math.log(4.0 * math.pi * t)
                 - (r[row] - rho[q]) ** 2 / (4.0 * t)
                 + _log_angular(dim, r[row] * rho[q] / (2.0 * t))
                 + (dim - 1) * np.log(rho[q]))
        K = csr_matrix((np.exp(log_k) * w[q], q, indptr),
                       shape=(M, len(rho)))
        A = (K @ self._interp_matrix(rho, seg)).toarray()
        return A[:, :M], A[:, M]

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
