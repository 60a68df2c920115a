"""Radial discretization of the heat flow in N dimensions.

Provides the grid/field containers, the action of the heat semigroup
through the exact radially-reduced Gaussian kernel, uniformly local norms
of a stack of rows at once from unit-ball window quadratures (_ul_windows:
ul_norm is its one-field case, and the threshold outcomes and the Picard
ladders' boundedness record call it on their stacked rows; a row
nonincreasing up to its first rise r_k takes the origin window and scans
only the centres z > r_k - 1), and an IMEX time stepper (implicit
diffusion, explicit reaction).
ImexStack steps fields on several grids at once, each with its own dt and
given reaction values: it builds, without divisions, the two bands of one
block-diagonal symmetric system, the volume-weighted
(V + dt K) u_new = V u_half, from coefficients each grid computes once and
hands them to LAPACK's ptsv directly, which factors it as L D L^T without
pivoting and solves in place.
_within_reaction_guard is the one reaction guard: _reaction applies it to
f itself, the threshold runs at each run's own dt.  A field owns a copy of
its cap mask.  Each grid also keeps the S(t) operators that
semigroup_operator built on it.  The module writes no files: the CLI's
Artifacts writes the norm series and snapshots of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dptsv
from scipy.sparse import csr_matrix
from scipy.special import gamma as gamma_fn

from .errors import LinearSolveFailure, ReactionOverflow
from .nonlinearity import NonlinearitySpec

__all__ = [
    "BoundaryCondition",
    "RadialGrid",
    "RadialField",
    "ULNormEstimate",
    "make_grid",
    "transition_radius",
    "semigroup_time_floor",
    "field_from_table",
    "sphere_area",
    "semigroup_operator",
    "ul_norm",
    "ImexStack",
]


def sphere_area(dim: int) -> float:
    """Surface area of the unit sphere in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)


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

    @cached_property
    def cell_volumes(self) -> np.ndarray:
        """Read-only finite-volume cell of each node per unit solid angle:
        the shell between the neighbouring midpoints, (right^N - left^N)/N."""
        faces = 0.5 * (self.r[:-1] + self.r[1:])
        left = np.concatenate([[0.0], faces])
        right = np.concatenate([faces, [self.r[-1]]])
        vol = (right ** self.dim - left ** self.dim) / self.dim
        vol.setflags(write=False)
        return vol

    @cached_property
    def diffusion_coefficients(self):
        """dt-free parts of the Laplacian bands, built once per grid: cell
        volumes, face conductances r^{N-1}/h (node i <-> i+1) and each
        node's summed conductance.  The arrays are read-only."""
        faces = 0.5 * (self.r[:-1] + self.r[1:])
        cond = faces ** (self.dim - 1) / np.diff(self.r)
        # node i couples to i-1 through cond[i-1] and to i+1 through
        # cond[i]; the first and last nodes have one neighbour each
        c_sum = np.concatenate([[0.0], cond]) + np.concatenate([cond, [0.0]])
        for a in (cond, c_sum):
            a.setflags(write=False)
        return self.cell_volumes, cond, c_sum

    @cached_property
    def semigroup_operators(self) -> dict:
        """The S(t) operators built on this grid, keyed by (t, interp);
        semigroup_operator fills it."""
        return {}

    def exterior_value(self, u: np.ndarray):
        """Value a field with nodal values u (the last axis) takes beyond
        the outer radius: the Dirichlet value, or the last nodal value."""
        if self.bc.kind == "dirichlet":
            return self.bc.value
        return u[..., -1]

    def refined(self) -> "RadialGrid":
        """Grid with every interval halved (nodes doubled)."""
        mids = 0.5 * (self.r[:-1] + self.r[1:])
        r = np.sort(np.concatenate([self.r, mids]))
        return RadialGrid(r=r, dim=self.dim, bc=self.bc)


GEOMETRIC_SHARE = 0.45    # share of make_grid's intervals that are geometric


def transition_radius(R_outer: float) -> float:
    """Where make_grid's geometric section ends: min(1, R_outer / 4)."""
    return min(1.0, R_outer / 4.0)


def make_grid(dim: int, R_outer: float, n_nodes: int = 257,
              r1_frac: float = 1e-3,
              bc: BoundaryCondition = BoundaryCondition("neumann")
              ) -> RadialGrid:
    """Geometric-then-uniform node layout with r_1 = r1_frac * R_outer."""
    if n_nodes < 8:
        raise ValueError("need at least 8 nodes")
    transition = transition_radius(R_outer)
    n_geo = max(4, int(GEOMETRIC_SHARE * (n_nodes - 1)))
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
        # a NaN makes the minimum NaN, which fails the comparison too
        if not (u.min() >= 0.0 and u.max() < math.inf):
            raise ValueError("field values must be finite and >= 0")
        self.u = u
        # the field owns its mask; the caller keeps its array
        self.cap_mask = (np.zeros(len(u), dtype=bool) if self.cap_mask is None
                         else np.array(self.cap_mask, dtype=bool))


def _star_on_nodes(table, grid: RadialGrid,
                   spec: Optional[NonlinearitySpec] = None) -> np.ndarray:
    """The singular profile at the grid nodes, infinite at the origin
    (spec defaults to the table's own)."""
    star = np.empty(grid.n_nodes)
    star[0] = np.inf
    star[1:] = table.u_star(grid.r[1:], spec)
    return star


def field_from_table(table, grid: RadialGrid, cap: float = 1e6,
                     spec: Optional[NonlinearitySpec] = None) -> RadialField:
    """Sample a singular profile onto a grid, clipping at the cap.

    The origin node takes the cap value (the profile diverges there); the
    cap_mask records every clipped node.
    """
    star = _star_on_nodes(table, grid, spec)
    return RadialField(grid, np.minimum(star, cap), star > cap)


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
# with the angular factor (w = 1 - cos theta, nu = (N-2)/2)
#
#   B(a) = omega_{N-2} int_0^2 e^{-a w} (w(2-w))^{(N-3)/2} dw
#        = 2 pi^{N/2} (2/a)^nu e^{-a} I_nu(a).
#
# _log_angular evaluates log B from one of two series in a, switching at
# the a_switch that _angular_series derives for N:
#
# * a < a_switch: the power series of I_nu (DLMF 10.25.2).  Its (a/2)^nu
#   cancels against (2/a)^nu, so with x = a^2/4 and B(0) = omega_{N-1},
#       log B(a) = log omega_{N-1} - a + log sum_k x^k / (k! (nu+1)_k),
#   a sum of positive terms whose first is 1: a = 0 (the origin row) gives
#   log omega_{N-1} exactly.
# * a >= a_switch: the Hankel expansion of I_nu (DLMF 10.40.1), dropping its
#   e^{-2a} part,
#       log B(a) = (N-1)/2 log(2 pi / a)
#                  + log1p(sum_{k>=1} (-1)^k a_k(nu) a^{-k}),
#   a_{k+1}(nu) = a_k(nu) (4 nu^2 - (2k+1)^2) / (8(k+1)), which terminates
#   for odd N (nu half an odd integer) and is an asymptotic series for
#   even N.
#
# For odd N the terminating form is exact but for the e^{-2a} part, so
# a_switch is the smallest a where that part, e^{-2a} sum_k a_k(nu) a^{-k},
# is at most 2^-54 of the kept sum: 18.72 (N = 3), 18.77 (N = 5), 19.03
# (N = 9), 19.77 (N = 15).  For even N, a_switch = _A_SERIES = 40.  Both
# sums run to the first term below 2^-54 of the sum at a_switch, where each
# is longest: 32-34 power-series terms for odd N = 3..15, 50-52 for even
# N = 4..14, and at most 13 Hankel terms for N = 3..10.
#
# The Gaussian factor bounds the band of every row: a row's kernel mass
# beyond X kernel widths sqrt(4t) from r_i is at most Q(N/2, X^2), the
# regularized upper incomplete gamma function, which is the mass the
# origin row keeps beyond X (the chi_N tail; | |x + y| - |x| | <= |y|).
# _kernel_reach is the smallest X with Q(N/2, X^2) <= 2^-60, from the closed
# forms of Q at integer and half-integer N/2: 6.60 (N = 3), 6.86 (N = 5),
# 7.19 (N = 8), 7.56 (N = 12), 9.35 (N = 40).
#
# Each segment of the radial integral (a grid interval, or a piece of the
# extension region) takes one of two Gauss-Legendre rules.  A segment at
# most _NARROW_WIDTH = 0.3 kernel widths long, such as the geometric
# intervals near the origin, where the integrand is nearly polynomial, is
# one sub-segment of 6 nodes.  A longer one is cut into equal sub-segments
# at most _SEGMENT_WIDTH = 1.1 widths long, of 10 nodes each.  Against 14
# nodes on sub-segments of at most 0.1 widths, the operator entries differ
# by at most 3.8e-14 for N = 3, 4, 5, 8, 12, t = 1e-4 ... 1, both
# interpolations and 64 or 257 nodes on make_grid(N, 8).  At t = 1e-6 they
# differ by up to 2.3e-13, the size by which a one-ulp shift of the nodes
# rho moves them there through (r - rho)^2 / 4t.

_A_SERIES = 40.0            # a_switch for even N
_NARROW_WIDTH = 0.3
_NARROW_GL = np.polynomial.legendre.leggauss(6)
_SEGMENT_WIDTH = 1.1
_SEGMENT_GL = np.polynomial.legendre.leggauss(10)


def _smallest(holds) -> float:
    """The smallest double x > 0 with holds(x), for a holds that is false
    below some point and true above it: doubling from 1, then bisecting
    until the bracket is two adjacent doubles."""
    lo, hi = 0.0, 1.0
    while not holds(hi):
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if holds(mid):
            hi = mid
        else:
            lo = mid


def _chi_tail(dim: int, x: float) -> float:
    """Q(dim/2, x), the regularized upper incomplete gamma function:
    e^{-x} sum_{k < dim/2} x^k / k! for even dim, and erfc(sqrt x) + e^{-x}
    sum_{k < (dim-1)/2} x^{k+1/2} / Gamma(k + 3/2) for odd dim."""
    if dim % 2 == 0:
        term = total = math.exp(-x)
        for k in range(1, dim // 2):
            term *= x / k
            total += term
        return total
    total = math.erfc(math.sqrt(x))
    term = 2.0 * math.sqrt(x / math.pi) * math.exp(-x)
    for k in range(1, dim // 2 + 1):
        total += term
        term *= x / (k + 0.5)
    return total


@lru_cache(maxsize=None)
def _kernel_reach(dim: int) -> float:
    """Kernel widths sqrt(4t) within which each row's band lies and beyond
    the outer radius to which the extension region runs: the smallest X
    with Q(dim/2, X^2) <= 2^-60."""
    return _smallest(lambda X: _chi_tail(dim, X * X) <= 2.0 ** -60)


@lru_cache(maxsize=None)
def _angular_series(dim: int):
    """Coefficients of _log_angular's two sums, highest order first, and
    the switch point a_switch between them: the power series in x = a^2/4
    from k = 0, and the Hankel series in 1/a from k = 1 (empty when it is 1
    alone)."""
    nu = 0.5 * (dim - 2)
    tol = 2.0 ** -54
    hankel = []
    coef = 1.0
    k = 0
    while True:
        coef *= -(4.0 * nu ** 2 - (2 * k + 1) ** 2) / (8.0 * (k + 1))
        k += 1
        # odd N: every term up to the last nonzero one, where it terminates
        if coef == 0.0 or (dim % 2 == 0
                           and abs(coef) <= tol * _A_SERIES ** k):
            break
        hankel.append(coef)
    a_switch = _A_SERIES
    if dim % 2:
        def exact_enough(a):
            kept = dropped = 1.0
            for j, c in enumerate(hankel, 1):
                kept += c * a ** -j
                dropped += abs(c) * a ** -j
            return math.exp(-2.0 * a) * dropped <= tol * kept
        a_switch = _smallest(exact_enough)
    x = 0.25 * a_switch ** 2
    power = [1.0]
    term = total = 1.0
    k = 0
    # all terms are positive; past the largest one they fall geometrically
    while term > tol * total or (k + 1) * (nu + k + 1) <= x:
        power.append(power[-1] / ((k + 1) * (nu + k + 1)))
        term *= x / ((k + 1) * (nu + k + 1))
        total += term
        k += 1
    coefs = np.array(power[::-1]), np.array(hankel[::-1])
    for c in coefs:                        # shared by every caller
        c.setflags(write=False)
    return (*coefs, a_switch)


def _horner(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k coef[k] x^(n-k) for the n+1 coefficients, highest first."""
    s = np.full_like(x, coef[0])
    for c in coef[1:]:
        s *= x
        s += c
    return s


def _log_angular(dim: int, a: np.ndarray) -> np.ndarray:
    """log B(a), vectorized."""
    a = np.asarray(a, dtype=float)
    power, hankel, a_switch = _angular_series(dim)
    out = np.empty_like(a)
    small = a < a_switch
    a_s = a[small]
    out[small] = (math.log(sphere_area(dim)) - a_s
                  + np.log(_horner(power, 0.25 * a_s * a_s)))
    a_l = a[~small]
    log_b = 0.5 * (dim - 1) * np.log(2.0 * math.pi / a_l)
    if len(hankel):
        inv = 1.0 / a_l
        log_b += np.log1p(inv * _horner(hankel, inv))
    out[~small] = log_b
    return out


def semigroup_time_floor(R_outer: float) -> float:
    """The least t that S(t) is built for on a grid of outer radius
    R_outer: there the kernel width sqrt(4t) is two double spacings at
    2 R_outer.  Below it the extension region's sub-segments, each about a
    width long, round to shared edges, and a grid interval's sub-segment
    count can overflow an int64."""
    return float(np.spacing(2.0 * R_outer)) ** 2


class SemigroupOperator:
    """Dense matrix action of S(t) on nodal values of one grid.

    The convolution integral is evaluated segment-by-segment with
    Gauss-Legendre nodes; the integrand's nodal values enter through
    interpolation, keeping the operator linear in the field. Cubic Lagrange
    interpolation ("cubic") maximizes accuracy; piecewise-linear ("linear")
    yields strictly nonnegative weights, hence a provably monotone discrete
    operator, at second-order accuracy. Beyond the outer radius the field
    is extended by its boundary value: on nodal values u extended by u_ext
    it acts as matrix @ u + ext * u_ext, the product of full with the
    extended values.
    """

    def __init__(self, grid: RadialGrid, t: float, interp: str = "cubic"):
        if not 0.0 < t < math.inf:          # False for nan too
            raise ValueError(f"t must be finite and > 0, got {t!r}")
        floor = semigroup_time_floor(grid.R_outer)
        if t < floor:
            raise ValueError(
                f"t = {t!r} is below this grid's floor {floor!r}, where the "
                f"kernel width sqrt(4t) is two double spacings at 2 R_outer")
        if interp not in ("cubic", "linear"):
            raise ValueError(f"unknown interpolation {interp!r}")
        self.grid = grid
        self.t = t
        self.interp = interp
        # [matrix | ext]: the action on nodal values extended by the value
        # beyond the outer radius, as column M
        self.full = self._assemble()
        self.matrix, self.ext = self.full[:, :-1], self.full[:, -1]

    def _quad_nodes(self):
        """Gauss-Legendre nodes, weights and the segment of each node, in
        increasing rho.  The segments are the grid intervals and the
        extension region's pieces.  A segment at most _NARROW_WIDTH = 0.3
        kernel widths long is one sub-segment of 6 nodes; a longer one is
        cut into sub-segments at most _SEGMENT_WIDTH = 1.1 widths long, of
        10 nodes each.  Against 14 nodes on 0.1-width sub-segments the
        entries this gives are off by at most 3.8e-14 for t >= 1e-4 and
        2.3e-13 at t = 1e-6, where one ulp of rho moves them as much.
        Only the sub-segments within _kernel_reach(N) widths of a grid node
        are laid (6.60 for N = 3, 6.86 for N = 5, 7.19 for N = 8): each
        row's band gives every node beyond that zero weight.  In a grid
        interval those are the first and the last few; the extension region
        ends _kernel_reach(N) widths beyond the outer radius and is laid
        whole."""
        width = math.sqrt(4.0 * self.t)
        reach = _kernel_reach(self.grid.dim) * width
        R = self.grid.R_outer
        R_ext = R + reach
        n_ext = max(4, int(math.ceil((R_ext - R) / (_SEGMENT_WIDTH * width))))
        edges = np.concatenate([self.grid.r,
                                np.linspace(R, R_ext, n_ext + 1)[1:]])
        lo, hi = edges[:-1], edges[1:]
        narrow = hi - lo <= _NARROW_WIDTH * width
        nsub = np.where(narrow, 1, np.ceil((hi - lo) / (_SEGMENT_WIDTH * width))
                        ).astype(int)
        # sub-segment k of a grid interval spans lo + [k, k+1] h: it is laid
        # when it starts within reach of lo (k < n_lo) or ends within reach
        # of hi (k >= k_hi)
        h = (hi - lo) / nsub
        n_lo = np.minimum(nsub, np.floor(reach / h) + 1).astype(int)
        k_hi = np.clip(np.ceil(nsub - 1 - reach / h), n_lo, nsub).astype(int)
        n_lo[self.grid.n_nodes - 1:] = nsub[self.grid.n_nodes - 1:]
        k_hi[self.grid.n_nodes - 1:] = nsub[self.grid.n_nodes - 1:]
        count = n_lo + nsub - k_hi
        seg = np.repeat(np.arange(len(lo)), count)
        k = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
        k += np.where(k < n_lo[seg], 0, (k_hi - n_lo)[seg])
        half = 0.5 * h[seg]
        mid = lo[seg] + (2 * k + 1) * half
        # node j of a sub-segment is entry start + j of the two rules,
        # the narrow one's first
        gl_x, gl_w = map(np.concatenate, zip(_NARROW_GL, _SEGMENT_GL))
        n_gl = np.where(narrow, len(_NARROW_GL[0]), len(_SEGMENT_GL[0]))[seg]
        start = np.where(narrow, 0, len(_NARROW_GL[0]))[seg]
        sub = np.repeat(np.arange(len(seg)), n_gl)
        j = (np.arange(len(sub))
             + np.repeat(start - (np.cumsum(n_gl) - n_gl), n_gl))
        return (mid[sub] + half[sub] * gl_x[j], half[sub] * gl_w[j],
                seg[sub])

    def _interp_matrix(self, rho, seg):
        """Sparse P mapping the nodal values, with the extension value as
        column M, to the field at the quadrature nodes rho: Lagrange weights
        on the four nodes around a node's segment (cubic) or on its two ends
        (linear), and weight 1 on the extension value beyond the grid.
        Weight c is the product of (rho - r_o) / (r_c - r_o) over o != c in
        node order, for all rows at once; each row holds n entries."""
        r = self.grid.r
        M = len(r)
        n = 4 if self.interp == "cubic" else 2
        cols = np.clip(seg - n // 2 + 1, 0, M - n)[:, None] + np.arange(n)
        xs = [r[cols[:, j]] for j in range(n)]
        d = [rho - x for x in xs]
        wts = np.empty((len(rho), n))
        for c in range(n):
            wts[:, c] = reduce(np.multiply, [d[o] / (xs[c] - xs[o])
                                             for o in range(n) if o != c])
        beyond = seg >= M - 1
        cols[beyond] = M
        wts[beyond] = np.eye(1, n)
        return csr_matrix((wts.ravel(), cols.ravel(),
                           n * np.arange(len(rho) + 1)),
                          shape=(len(rho), M + 1))

    def _assemble(self):
        t, dim, r = self.t, self.grid.dim, self.grid.r
        rho, w, seg = self._quad_nodes()
        # [matrix | ext] = K P, where row i of K holds kernel times weight on
        # its band: the (sorted) quadrature nodes within reach of r_i
        reach = _kernel_reach(dim) * math.sqrt(4.0 * t)
        first = np.searchsorted(rho, r - reach, side="left")
        count = np.searchsorted(rho, r + reach, side="right") - first
        indptr = np.concatenate([[0], np.cumsum(count)])
        q = np.arange(indptr[-1]) + np.repeat(first - indptr[:-1], count)
        r_row, rho_q = np.repeat(r, count), rho[q]
        log_k = (-0.5 * dim * math.log(4.0 * math.pi * t)
                 - (r_row - rho_q) ** 2 / (4.0 * t)
                 + _log_angular(dim, r_row * rho_q / (2.0 * t))
                 + ((dim - 1) * np.log(rho))[q])
        K = csr_matrix((np.exp(log_k) * w[q], q, indptr),
                       shape=(len(r), len(rho)))
        return (K @ self._interp_matrix(rho, seg)).toarray()


def semigroup_operator(grid: RadialGrid, t: float,
                       interp: str = "cubic") -> SemigroupOperator:
    """S(t) matrix for one (t, interpolation) pair, built once per grid."""
    key = (float(t), interp)
    op = grid.semigroup_operators.get(key)
    if op is None:
        op = grid.semigroup_operators[key] = SemigroupOperator(grid, t, interp)
    return op


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


_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_N_CENTERS = 512          # equispaced window centres scanned in [0, R_outer]


def _cap_share(dim: int, c: np.ndarray) -> np.ndarray:
    """I_{1-c^2}((dim-1)/2, 1/2) for c = |cos theta|: twice the share of the
    unit sphere in R^dim in a polar cap of angle theta <= pi/2.  It climbs
    I(a+1) = I(a) - s^{2a} c / (a B(a, 1/2)), s^2 = (1-c)(1+c), from I(1) =
    1 - c (odd dim) or I(1/2) = (2/pi) arccos c (even dim), clamped at 0."""
    s2 = (1.0 - c) * (1.0 + c)
    share = 1.0 - c if dim % 2 else 2.0 / math.pi * np.arccos(c)
    term = (0.5 * s2 if dim % 2 else 2.0 / math.pi * np.sqrt(s2)) * c
    for a in np.arange(1.0 if dim % 2 else 0.5, 0.5 * (dim - 1)):
        share -= term
        term *= s2 * ((a + 0.5) / (a + 1.0))
    return np.maximum(share, 0.0)


def _window_quadrature(grid: RadialGrid, zs: np.ndarray):
    """Shell quadrature of the unit balls centred at distance zs: 8
    Gauss-Legendre nodes on each segment between a centre's breakpoints
    (window ends, 1 - z when z < 1, grid nodes inside), weighted by the cap
    area the ball holds (_cap_share: closed form in |cos theta|, no betainc).
    Returns zs, the nodes, their weights and each centre's block offset."""
    lo, hi = np.maximum(0.0, zs - 1.0), zs + 1.0
    inside = (grid.r > lo[:, None]) & (grid.r < hi[:, None])
    brk = np.sort(np.column_stack([lo, hi, np.where(zs < 1.0, 1.0 - zs, np.nan),
                                   np.where(inside, grid.r, np.nan)]), axis=1)
    keep = brk[:, 1:] > brk[:, :-1]        # False for NaN and zero width
    a, b = brk[:, :-1][keep], brk[:, 1:][keep]
    half = 0.5 * (b - a)[:, None]
    rho = 0.5 * (a + b)[:, None] + half * _GL_X
    w = half * _GL_W * sphere_area(grid.dim) * rho ** (grid.dim - 1)
    z = np.broadcast_to(zs[np.nonzero(keep)[0], None], rho.shape)
    cut = (z != 0.0) & (rho > 1.0 - z)     # shells the ball only partly holds
    rc, zc = rho[cut], z[cut]
    # the ball holds the polar cap of angle arccos(cos_t) of such a shell
    cos_t = np.clip((rc ** 2 + zc ** 2 - 1.0) / (2.0 * rc * zc), -1.0, 1.0)
    cap = 0.5 * _cap_share(grid.dim, np.abs(cos_t))
    w[cut] *= np.where(cos_t >= 0.0, cap, 1.0 - cap)
    blocks = len(_GL_X) * np.cumsum(keep.sum(axis=1))
    return zs, rho.ravel(), w.ravel(), np.concatenate([[0], blocks[:-1]])


class _Windows:
    """A window quadrature (see _window_quadrature) that integrates stacks
    of rows.  Each quadrature node keeps the bracket np.interp finds for it
    on the grid, r[cell] <= rho < r[cell + 1], and its offset rho - r[cell],
    so a row's values at the nodes are np.interp's bit for bit: the same
    slope and the same slope * offset + value, and the nodal value itself
    at a node on the grid or beyond R_outer."""

    def __init__(self, grid: RadialGrid, zs: np.ndarray):
        self.zs, rho, self.w, self.start = _window_quadrature(grid, zs)
        r = grid.r
        cell = np.searchsorted(r, rho, side="right") - 1
        self.at = np.flatnonzero((cell == len(r) - 1) | (r[cell] == rho))
        self.node = cell[self.at]
        self.cell = np.minimum(cell, len(r) - 2)
        self.offset = rho - r[self.cell]

    def integrals(self, u: np.ndarray, slope: np.ndarray,
                  p: float) -> np.ndarray:
        """The integral of u^p over each window, a (rows, centres) array,
        for the rows of values u and their slopes between nodes."""
        vals = np.take(slope, self.cell, axis=1)
        vals *= self.offset
        vals += np.take(u, self.cell, axis=1)
        vals[:, self.at] = np.take(u, self.node, axis=1)
        if p != 1.0:
            vals **= p
        vals *= self.w
        return np.add.reduceat(vals, self.start, axis=1)


# rows of the window scan integrated at once: a block's node values stay
# within 2^17 entries (1 MB, one row of a case grid's scan) so they stay in
# cache however many rows a stack holds; larger blocks run slower per row
_BLOCK_NODES = 2 ** 17


def _ul_windows(grid: RadialGrid, u: np.ndarray, p: float):
    """ul_norm for each row of a stack u (rows x nodes): the largest window
    integral of u^p, its centre and the number of centres evaluated.

    A row rises where its values grow by more than 1e-12 max(1, sup)
    between neighbouring nodes; r_k is the left node of its first rise.
    Up to r_k the row is nonincreasing, so no window inside B(0, r_k) can
    beat the origin window (see ul_norm).  Each row takes the origin window
    and scans only the centres z > r_k - 1: every centre when r_k < 1, none
    when the row never rises.  The rows that rise share the windows of the
    origin and the shortest suffix of centres among them and are integrated
    a block of rows at a time; each row's largest window, its centre and
    the count come from its own centres alone, ties going to the origin.
    """
    du = np.diff(u, axis=1)
    slope = du / np.diff(grid.r)
    tol = 1e-12 * np.maximum(1.0, u.max(axis=1))
    rise = du > tol[:, None]
    r_rise = np.where(rise.any(axis=1), grid.r[np.argmax(rise, axis=1)],
                      np.inf)
    zs = np.linspace(0.0, grid.R_outer, _N_CENTERS)
    first = np.searchsorted(zs, r_rise - 1.0, side="right")
    # the origin window is zs[0] when the whole scan runs
    sampled = len(zs) - first + (first > 0)
    value, center = np.zeros(len(u)), np.zeros(len(u))
    flat = np.flatnonzero(first == len(zs))
    if len(flat):
        value[flat] = _Windows(grid, zs[:1]).integrals(
            u[flat], slope[flat], p)[:, 0]
    scanned = np.flatnonzero(first < len(zs))
    if len(scanned):
        lo = max(1, int(first[scanned].min()))
        scan = _Windows(grid, np.concatenate([zs[:1], zs[lo:]]))
        block = max(1, _BLOCK_NODES // len(scan.cell))
        for rows in np.array_split(scanned, -(-len(scanned) // block)):
            vals = scan.integrals(u[rows], slope[rows], p)
            # the centres before a row's own first one are not its to take;
            # window 0 is the origin, every row's
            before = np.arange(len(scan.zs)) < (first[rows] - lo + 1)[:, None]
            before[:, 0] = False
            vals[before] = -np.inf
            k = np.argmax(vals, axis=1)
            value[rows] = vals[np.arange(len(rows)), k]
            center[rows] = scan.zs[k]
    return value, center, sampled


def ul_norm(field: RadialField, p: float = 1.0) -> ULNormEstimate:
    """Uniformly local norm: sup over window centers of the integral of
    |u|^p over a unit ball.

    For radial data the sup reduces to one scalar center coordinate z.
    Let r_k be where the field first rises (see _ul_windows); the field
    ũ = u(min(r, r_k)) is radially nonincreasing and equals u on B(0, r_k).
    A radially nonincreasing function is its own symmetric-decreasing
    rearrangement, and so is the indicator of the unit ball at the origin;
    by the Hardy-Littlewood inequality every window inside B(0, r_k),
    z + 1 <= r_k, gives

        int_{B(z,1)} u^p = int ũ^p 1_{B(z,1)} <= int (ũ^p)* 1_{B(z,1)}*
                         = int_{B(0,1)} ũ^p = int_{B(0,1)} u^p

    when r_k >= 1.  So the origin window and the equispaced centres
    z > r_k - 1 of [0, R_outer] are evaluated: the origin alone for a
    nonincreasing field, every centre when r_k < 1.  This is the one-row
    case of _ul_windows.
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    value, center, sampled = _ul_windows(field.grid, field.u[None], p)
    return ULNormEstimate(p=p, value=float(value[0]),
                          center=float(center[0]),
                          centers_sampled=int(sampled[0]))


# ---------------------------------------------------------------------------
# IMEX time stepping
# ---------------------------------------------------------------------------

REACTION_GUARD = 1e100


def _within_reaction_guard(f_max, dt) -> bool:
    """The one reaction guard, dt * f_max <= REACTION_GUARD for the largest
    reaction value f_max of a step of dt; a NaN or infinite f_max fails."""
    return dt * f_max <= REACTION_GUARD


def _reaction_values(spec: NonlinearitySpec, u: np.ndarray) -> np.ndarray:
    """f(u) as a float array, overflowing to inf without a warning."""
    with np.errstate(over="ignore"):
        return np.asarray(spec.f(u), dtype=float)


def _reaction(spec: NonlinearitySpec, u: np.ndarray) -> np.ndarray:
    """f(u), guarded as a step of dt = 1: ReactionOverflow when its largest
    value fails _within_reaction_guard."""
    fu = _reaction_values(spec, u)
    if not _within_reaction_guard(fu.max(), 1.0):
        raise ReactionOverflow(f"reaction overflow at u={np.max(u):.3e}")
    return fu


class ImexStack:
    """IMEX steps of fields on several grids as one block-diagonal solve.

    Block k holds the nodal values of grids[k] in rows starts[k]:stops[k]
    of one stacked array and steps with its own dt.  The diffusion solve is
    the volume-weighted system (V + dt*K) u_new = V u_half, V the cell
    volumes and K the symmetric conductance matrix, which is positive
    definite for every dt >= 0; LAPACK's ptsv factors it as L D L^T without
    pivoting.  Its dt-free parts (volumes, conductances, summed
    conductances) are built once per stack with each Dirichlet row folded
    in as the identity row, so the bands of a step are two multiplies and
    an add.  The coupling entries between blocks are 0, so each block
    gets bit for bit its result alone.  The caller passes the reaction
    values, guarded: non-finite values do cross a zero coupling
    (0 * inf = NaN), so a run whose reaction fails the guard leaves the
    stack before the solve.
    """

    def __init__(self, grids):
        self.sizes = np.array([g.n_nodes for g in grids])
        self.stops = np.cumsum(self.sizes)
        self.starts = self.stops - self.sizes
        # (start, stop) of each block as Python ints, for slicing
        self.bounds = list(zip(self.starts.tolist(), self.stops.tolist()))
        coefs = [g.diffusion_coefficients for g in grids]
        self.vol = np.concatenate([vol for vol, _, _ in coefs])
        # the negated face conductances -cond, with a 0 between one block's
        # last node and the next block's first; dt * (-cond) is -dt * cond
        # bit for bit, as negation is exact
        self.neg_cond = -np.concatenate(
            [np.append(cond, 0.0) for _, cond, _ in coefs])[:-1]
        self.c_sum = np.concatenate([c_sum for _, _, c_sum in coefs])
        pinned = [k for k, g in enumerate(grids) if g.bc.kind == "dirichlet"]
        # the Dirichlet rows, the last node of such a block, the entries
        # before them in the off-diagonal and the conductances there
        self.pinned = self.stops[pinned] - 1
        self.pinned_lower = self.pinned - 1
        self.pinned_neg_cond = self.neg_cond[self.pinned_lower]
        self.pinned_values = np.array([grids[k].bc.value for k in pinned])
        # a Dirichlet row folded into the dt-free parts: for every finite
        # dt >= 0 the bands then give it diag dt * 0 + 1 = 1 and
        # off-diagonal dt * 0 = 0, the identity row; its volume-weighted
        # right-hand side is replaced by the pinned value
        self.neg_cond[self.pinned_lower] = 0.0
        self.c_sum[self.pinned] = 0.0
        self.vol[self.pinned] = 1.0

    def bands(self, dt: np.ndarray):
        """Main and off-diagonal of V + dt*K for the per-node time steps
        dt >= 0: diag = vol + dt * c_sum and off = -dt * cond, K the
        finite-volume radial Laplacian's conductances with metric weights
        r^{N-1}, reflecting at the origin.  A Dirichlet row is the identity
        row, its off-diagonal entry 0, from the dt-free parts.  Two fresh
        arrays, which the solver may overwrite."""
        diag = dt * self.c_sum
        diag += self.vol
        return diag, dt[:-1] * self.neg_cond

    def step(self, u: np.ndarray, fu: Optional[np.ndarray],
             dts) -> np.ndarray:
        """One IMEX step of the stacked values u, block k by dts[k]:
        explicit reaction with the values fu = f(u) (None for the heat
        flow), then backward-Euler diffusion; a fresh array.
        """
        dt = np.asarray(dts, dtype=float).repeat(self.sizes)
        if fu is None:
            rhs = u * self.vol
        else:
            # (u + dt * fu) * vol in place: the sum is commutative
            rhs = dt * fu
            rhs += u
            rhs *= self.vol
        # a pinned value's flux into the row before it moves to that row's
        # right-hand side, which keeps the matrix symmetric
        lower = self.pinned_lower
        rhs[lower] -= dt[lower] * self.pinned_neg_cond * self.pinned_values
        rhs[self.pinned] = self.pinned_values
        # the LAPACK solver that solveh_banded calls on two-row bands,
        # without its wrapper and input checks; every input is a fresh array
        *_, u_new, info = dptsv(*self.bands(dt), rhs, overwrite_d=1,
                                overwrite_e=1, overwrite_b=1)
        if info != 0:   # not positive definite: should not happen
            raise LinearSolveFailure(
                f"tridiagonal solve failed: matrix not positive definite "
                f"(info={info})")
        if not np.isfinite(u_new).all():
            raise LinearSolveFailure("non-finite diffusion solve")
        return np.maximum(u_new, 0.0, out=u_new)
