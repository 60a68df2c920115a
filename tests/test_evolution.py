"""Tests for the radial heat-flow discretization: grid layout, exact-kernel
semigroup action, uniformly local norms and the IMEX stepper."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dptsv
from scipy.sparse import csr_matrix
from scipy.special import gammaincc

from heatlab import evolution
from heatlab.errors import HeatLabError, LinearSolveFailure, ReactionOverflow
from heatlab.evolution import (
    BoundaryCondition,
    ImexStack,
    RadialField,
    RadialGrid,
    _log_angular,
    _reaction,
    _window_quadrature,
    field_from_table,
    make_grid,
    semigroup_operator,
    sphere_area,
    ul_norm,
)
from heatlab.iteration import LadderSeed, run_ladder
from heatlab.nonlinearity import custom, power_exp, pure_power
from heatlab.singular_ode import build_singular
from heatlab.threshold import _stability_bound, case_grid

CUBIC = pure_power(3.0)


@pytest.fixture(scope="module")
def grid3():
    return make_grid(3, 8.0, 513)


@pytest.fixture(scope="module")
def table_cubic():
    return build_singular(CUBIC, 5)


# ---------------------------------------------------------------------------
# grid and field containers
# ---------------------------------------------------------------------------

def test_grid_layout():
    g = make_grid(3, 8.0, 257)
    assert g.r[0] == 0.0
    assert g.r[1] <= 1e-3 * 8.0 * (1 + 1e-12)
    assert g.r[-1] == 8.0
    assert np.all(np.diff(g.r) > 0)


def test_grid_refinement_doubles_intervals():
    g = make_grid(3, 8.0, 65)
    f = g.refined()
    assert f.n_nodes == 2 * g.n_nodes - 1
    assert np.allclose(f.r[::2], g.r)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(2, 8.0, 65)          # dimension too low
    with pytest.raises(ValueError):
        make_grid(3, 8.0, 4)           # too few nodes
    with pytest.raises(ValueError):
        BoundaryCondition("periodic")


def test_field_validation():
    g = make_grid(3, 8.0, 65)
    with pytest.raises(ValueError):
        RadialField(g, -np.ones(g.n_nodes))
    with pytest.raises(ValueError):
        RadialField(g, np.ones(3))
    for value in (np.nan, np.inf, -np.inf):
        bad = np.ones(g.n_nodes)
        bad[5] = value
        with pytest.raises(ValueError):
            RadialField(g, bad)


def test_field_owns_its_cap_mask():
    g = make_grid(3, 8.0, 65)
    mask = np.zeros(g.n_nodes, dtype=bool)
    mask[0] = True
    fld = RadialField(g, np.ones(g.n_nodes), mask)
    mask[1] = True                      # the caller's array stays its own
    assert fld.cap_mask[0] and not fld.cap_mask[1]
    assert not RadialField(g, np.ones(g.n_nodes)).cap_mask.any()
    # S(t) keeps the mask of the field it acts on
    out = _act(semigroup_operator(g, 1e-3), fld)
    assert np.array_equal(out.cap_mask, fld.cap_mask)


def test_field_from_table_caps_and_masks(table_cubic):
    g = make_grid(5, 8.0, 129)
    fld = field_from_table(table_cubic, g, cap=100.0, spec=CUBIC)
    assert fld.u.max() == 100.0
    assert fld.cap_mask[0]
    # sqrt(2)/r > 100 below r = sqrt(2)/100
    expect = g.r < math.sqrt(2.0) / 100.0
    assert np.array_equal(fld.cap_mask, expect)
    free = ~fld.cap_mask
    assert np.allclose(fld.u[free], math.sqrt(2.0) / g.r[free], rtol=1e-6)


# ---------------------------------------------------------------------------
# heat semigroup
# ---------------------------------------------------------------------------

def _act(op, fld):
    """S(t) on a field: the operator's matrix on the nodal values plus its
    ext column times the field's exterior value, clipped at 0 (cubic
    interpolation can undershoot by tiny amounts), with the field's cap
    mask."""
    out = op.matrix @ fld.u + op.ext * op.grid.exterior_value(fld.u)
    return RadialField(op.grid, np.maximum(out, 0.0), fld.cap_mask)


@pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2])
def test_constants_preserved(grid3, t):
    ones = RadialField(grid3, np.ones(grid3.n_nodes))
    out = _act(semigroup_operator(grid3, t), ones)
    assert np.abs(out.u - 1.0).max() <= 1e-8


def test_gaussian_closed_form(grid3):
    # S(t) e^{-|x|^2} = (1+4t)^{-N/2} e^{-r^2/(1+4t)}
    t = 1e-2
    fld = RadialField(grid3, np.exp(-grid3.r ** 2))
    out = _act(semigroup_operator(grid3, t), fld)
    exact = (1 + 4 * t) ** -1.5 * np.exp(-grid3.r ** 2 / (1 + 4 * t))
    assert np.abs(out.u - exact).max() <= 1e-7


def test_three_dimensional_image_kernel_oracle(grid3):
    # independent N=3 reduction: S(t)u(r) equals
    # (4 pi t)^{-1/2} r^{-1} int_0^inf rho u(rho)
    #     [e^{-(r-rho)^2/4t} - e^{-(r+rho)^2/4t}] drho
    t = 4e-3
    u0 = lambda rho: np.exp(-((rho - 1.5) ** 2))
    fld = RadialField(grid3, u0(grid3.r))
    out = _act(semigroup_operator(grid3, t), fld)
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)

    def oracle(r):
        def integrand(rho):
            return rho * u0(rho) * (
                math.exp(-(r - rho) ** 2 / (4 * t))
                - math.exp(-(r + rho) ** 2 / (4 * t)))
        val, _ = quad(integrand, 0.0, 12.0, epsabs=1e-13, epsrel=1e-12,
                      limit=200)
        return pref * val / r

    for r_test in (0.3, 1.0, 1.5, 2.5, 4.0):
        i = int(np.argmin(np.abs(grid3.r - r_test)))
        assert out.u[i] == pytest.approx(oracle(grid3.r[i]), abs=1e-7)


def test_semigroup_property(grid3):
    fld = RadialField(grid3, np.exp(-grid3.r ** 2))
    half = semigroup_operator(grid3, 5e-3)
    two_steps = _act(half, _act(half, fld))
    one_step = _act(semigroup_operator(grid3, 1e-2), fld)
    assert np.abs(two_steps.u - one_step.u).max() <= 1e-7


def test_positivity_preserved(grid3):
    rng = np.random.default_rng(7)
    fld = RadialField(grid3, rng.uniform(0.0, 5.0, grid3.n_nodes))
    out = _act(semigroup_operator(grid3, 1e-3), fld)
    assert np.all(out.u >= 0.0)


def test_strong_continuity(grid3):
    fld = RadialField(grid3, np.exp(-grid3.r ** 2))
    errs = [np.abs(_act(semigroup_operator(grid3, t), fld).u - fld.u).max()
            for t in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_operator_cache_lives_on_the_grid():
    g = make_grid(3, 4.0, 16)
    cubic = semigroup_operator(g, 0.01)
    # one grid builds one operator per (t, interp)
    assert semigroup_operator(g, 0.01) is cubic
    assert semigroup_operator(g, np.float64(0.01), "cubic") is cubic
    linear = semigroup_operator(g, 0.01, "linear")
    assert linear is not cubic and linear.interp == "linear"
    assert semigroup_operator(g, 0.01, "linear") is linear
    assert set(g.semigroup_operators) == {(0.01, "cubic"), (0.01, "linear")}
    # a refined grid builds its own
    fine = g.refined()
    op = semigroup_operator(fine, 0.01)
    assert op is not cubic and op.grid is fine
    assert set(fine.semigroup_operators) == {(0.01, "cubic")}


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_operator_refuses_a_time_that_is_not_finite_and_positive(t):
    g = make_grid(3, 4.0, 16)
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        evolution.SemigroupOperator(g, t)
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        semigroup_operator(g, t)
    assert g.semigroup_operators == {}


@pytest.mark.parametrize("t", [1e-30, 1e-40])
def test_operator_refuses_a_time_below_the_grid_floor(t):
    # at the floor the kernel width sqrt(4t) is two double spacings at
    # 2 R_outer.  Below it the extension edges round together (a division
    # by zero from about 1e-30 on this grid) and, from about 1e-40, a grid
    # interval's sub-segment count overflows an int64
    g = make_grid(3, 8.0, 65)
    floor = float(np.spacing(16.0)) ** 2
    with pytest.raises(ValueError, match=f"floor {floor!r}"):
        evolution.SemigroupOperator(g, t)
    with pytest.raises(ValueError, match=f"floor {floor!r}"):
        semigroup_operator(g, t)
    assert g.semigroup_operators == {}


def test_operator_builds_down_to_the_grid_floor():
    g = make_grid(3, 8.0, 65)
    floor = float(np.spacing(16.0)) ** 2
    with pytest.raises(ValueError, match="floor"):
        evolution.SemigroupOperator(g, np.nextafter(floor, 0.0))
    for t in (floor, 1e-28):
        with np.errstate(all="raise"):
            op = evolution.SemigroupOperator(g, t)
        assert np.all(np.isfinite(op.full)), t
    # the floor follows the outer radius: four times higher at twice it
    with pytest.raises(ValueError, match=f"floor {4.0 * floor!r}"):
        evolution.SemigroupOperator(make_grid(3, 16.0, 65), 2.0 * floor)


def test_dirichlet_extension_feeds_boundary_value():
    bc = BoundaryCondition("dirichlet", 2.0)
    g = make_grid(3, 8.0, 257, bc=bc)
    fld = RadialField(g, np.full(g.n_nodes, 2.0))
    out = _act(semigroup_operator(g, 1e-3), fld)
    assert np.abs(out.u - 2.0).max() <= 1e-8


# log B(a) = log(2 pi^{N/2} (2/a)^nu e^{-a} I_nu(a)) from 40-digit mpmath
# (besseli below a = 1e6, the Hankel expansion to 1e-60 from there; mpmath
# is not a dependency), at the a of _ANGULAR_A for N = 3..10
_ANGULAR_A = [0.0, 1e-300, 1e-9, 1e-3, 0.5, 3.0, 39.99, 40.0, 40.01, 1e3, 1e6,
              1e8, 1e9, 1e12, 1e300]
_ANGULAR_REF = {
    3: [2.531024246969290793, 2.531024246969290793, 2.531024245969290793,
        2.530024413635951904, 2.072349101582208902, 0.7367829483722762644,
        -1.850752356449381509, -1.851002387704590819, -1.851252356459798176,
        -5.069878212572791568, -11.97763349155492862, -16.58280367754301999,
        -18.88538877053706567, -25.79314404951920272, -688.9376508318043597],
    4: [2.982606952258745658, 2.982606952258745658, 2.982606951258745658,
        2.981607077258743054, 2.513695866353301812, 0.9517102788742808499,
        -2.78562577685464592, -2.78599841877475949, -2.786370968162723515,
        -7.605192506523461162, -17.96645061233258043, -24.87420552006453,
        -28.32808315618059851, -38.68971607427917909, -1033.40647624770654],
    5: [3.270289024710526585, 3.270289024710526585, 3.270289023710526585,
        3.269289124710525157, 2.795200394470957401, 1.078009703765803624,
        -3.726828932762984052, -3.727322583393471514, -3.72781611227017487,
        -10.14075692547916667, -23.95526798311035724, -33.16560736508604003,
        -37.77077754207413135, -51.58628809903940545, -1377.875301663608719],
    6: [3.434189657548200522, 3.434189657548200522, 3.434189656548200523,
        3.433189740881532988, 2.954969036772380949, 1.125206767085635766,
        -4.674359188108129626, -4.674972247521664778, -4.67558515676821621,
        -12.67657146928318841, -29.94408560388825905, -41.45700921260755007,
        -47.21347192821766418, -64.48286012379988181, -1722.344127079510899],
    7: [3.498728178685771694, 3.498728178685771694, 3.498728177685771694,
        3.497728250114342556, 3.016550043263828678, 1.101678481842516738,
        -5.6282128581037482, -5.628943729203712968, -5.629674422529031468,
        -15.2126361377161193, -35.93290347466628586, -49.74841106262906012,
        -56.65616631461119702, -77.37943214856060817, -2066.812952495413079],
    8: [3.480307254729491005, 3.480307254729491005, 3.480307253729491005,
        3.479307317229490615, 2.995907925070825213, 1.014592736234500702,
        -6.588385214919762891, -6.589232304236428472, -6.590079188972615962,
        -17.74895093049586539, -41.92172159544443767, -58.03981291515057018,
        -66.09886070125472986, -90.27600417332158454, -2411.281777911315259],
    9: [3.390695096039803873, 3.390695096039803873, 3.390695095039803873,
        3.389695151595359148, 2.904566498235221472, 0.8700345371247391956,
        -7.554870494937766677, -7.555832213415137349, -7.556793701303528435,
        -20.28551584727764649, -47.91053996622271448, -66.33121477017208025,
        -75.54155508814826269, -103.1725761980828109, -2755.750603327217439],
    10: [3.23874277945900056, 3.23874277945900056, 3.238742778459000561,
        3.237742829459000352, 2.751229789534112776, 0.6731735207041618093,
        -8.527661907553996132, -8.528736671325358284, -8.529811179291292593,
        -22.82233088765399692, -53.89935858700111629, -74.62261662769359034,
        -84.98424947529179553, -116.0691482228442873, -3100.219428743119619],
}

# the same, for odd N, 0.01 either side of the switch to the terminating
# Hankel form (_angular_series' a_switch) and at a = 25
_ANGULAR_ODD_A = {3: [18.705, 18.725, 25.0], 5: [18.758, 18.778, 25.0],
                  7: [18.864, 18.884, 25.0], 9: [19.02, 19.04, 25.0]}
_ANGULAR_ODD_REF = {
    3: [-1.090913801390763946, -1.091982462993937822, -1.380998758458855266],
    5: [-2.242270732831414076, -2.244342044870892782, -2.802819511437965661],
    7: [-3.461362921466051419, -3.464364631043162748, -4.265389923590632496],
    9: [-4.753659548450627259, -4.757516505461219999, -5.768566532563251273],
}


@pytest.mark.parametrize("dim", range(3, 11))
def test_angular_factor_matches_quadrature(dim):
    # B(a) = omega_{N-2} int_0^2 e^{-aw} (w(2-w))^{(N-3)/2} dw, the weight
    # w^{(N-3)/2} taken by QUADPACK's algebraic-singularity rule
    alpha = 0.5 * (dim - 3)
    a_vals = [0.0, 1e-300, 1e-9, 1e-3, 0.5, 3.0, 40.0, 1e3, 1e6, 1e8]
    got = _log_angular(dim, np.array(a_vals))
    assert np.all(np.isfinite(got))
    for a, log_b in zip(a_vals, got):
        hi = 2.0 if a < 30.0 else 60.0 / a    # integrand < e^{-60} beyond
        val, _ = quad(lambda w: math.exp(-a * w) * (2.0 - w) ** alpha,
                      0.0, hi, weight="alg", wvar=(alpha, 0.0),
                      epsabs=0.0, epsrel=1e-13, limit=200)
        ref = math.log(evolution.sphere_area(dim - 1) * val)
        assert abs(log_b - ref) <= 1e-12, (a, log_b - ref)
    # both series, on either side of the switch (40 for even N, near 19
    # for odd N) and out to 1e300
    a_vals = _ANGULAR_A + _ANGULAR_ODD_A.get(dim, [])
    if dim in _ANGULAR_ODD_A:
        a_switch = evolution._angular_series(dim)[2]
        assert a_vals[-3] < a_switch < a_vals[-2]
    got = _log_angular(dim, np.array(a_vals))
    ref = np.array(_ANGULAR_REF[dim] + _ANGULAR_ODD_REF.get(dim, []))
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= 1e-12, (a_vals[int(err.argmax())], err.max())


@pytest.mark.parametrize("dim, switch, n_power", [
    (3, 18.72, 34), (4, 40.0, 52), (5, 18.77, 33), (8, 40.0, 52),
    (9, 19.03, 33), (15, 19.77, 32)])
def test_odd_dimensions_switch_to_the_exact_hankel_form(dim, switch,
                                                        n_power):
    power, hankel, a_switch = evolution._angular_series(dim)
    assert len(power) == n_power
    assert abs(a_switch - switch) < 0.01
    if dim % 2 == 0:
        assert a_switch == 40.0
        return

    # the form keeps e^a sum_k (-1)^k a_k a^{-k} of I_nu and drops
    # e^{-a} sum_k a_k a^{-k}: from a_switch on, at most 2^-54 of the kept
    def dropped_share(a):
        k = np.arange(len(hankel), 0, -1)
        kept = 1.0 + np.sum(hankel * a ** -k)
        dropped = 1.0 + np.sum(np.abs(hankel) * a ** -k)
        return math.exp(-2.0 * a) * dropped / kept

    assert dropped_share(a_switch) <= 2.0 ** -54
    assert dropped_share(np.nextafter(a_switch, 0.0)) > 2.0 ** -54


@pytest.mark.parametrize("dim, reach", [
    (3, 6.60), (4, 6.74), (5, 6.86), (8, 7.19), (12, 7.56), (40, 9.35)])
def test_kernel_reach_bounds_the_chi_tail(dim, reach):
    X = evolution._kernel_reach(dim)
    assert abs(X - reach) < 0.005
    # the smallest X whose chi_N tail Q(N/2, X^2) is at most 2^-60
    assert evolution._chi_tail(dim, X * X) <= 2.0 ** -60
    assert evolution._chi_tail(dim, np.nextafter(X, 0.0) ** 2) > 2.0 ** -60
    for x in (0.5, 3.0, X * X, 150.0):
        assert evolution._chi_tail(dim, x) == pytest.approx(
            gammaincc(0.5 * dim, x), rel=1e-13)


def _band_mass(op, rho, w, lo_widths, hi_widths):
    """Each row's kernel mass over the quadrature nodes rho, w whose
    distance to r_i is above lo_widths and at most hi_widths kernel
    widths."""
    t, dim, r = op.t, op.grid.dim, op.grid.r
    width = math.sqrt(4.0 * t)
    mass = np.empty(len(r))
    for i, ri in enumerate(r):
        d = np.abs(rho - ri)
        q = (d > lo_widths * width) & (d <= hi_widths * width)
        log_k = (-0.5 * dim * math.log(4.0 * math.pi * t)
                 - (ri - rho[q]) ** 2 / (4.0 * t)
                 + _log_angular(dim, ri * rho[q] / (2.0 * t))
                 + (dim - 1) * np.log(rho[q]))
        mass[i] = np.sum(np.exp(log_k) * w[q])
    return mass


_SANDWICH_DT = 0.01 / 64


@pytest.mark.parametrize("dim, n_nodes, bc, ts", [
    # the sandwich grids at the one-slice step and its half
    *((5, n, BoundaryCondition("dirichlet", 0.25),
       [_SANDWICH_DT, 0.5 * _SANDWICH_DT]) for n in (64, 65, 129)),
    *((dim, 64, BoundaryCondition("neumann"), [1e-12, 1e-3, 1e-1])
      for dim in (3, 8, 12)),
])
def test_kernel_reach_drops_below_double_precision(monkeypatch, dim, n_nodes,
                                                   bc, ts):
    grid = make_grid(dim, 8.0, n_nodes, bc=bc)
    reach = evolution._kernel_reach(dim)
    for t in ts:
        # the nodes laid within nine widths, as before the reach was derived
        with monkeypatch.context() as m:
            m.setattr(evolution, "_kernel_reach", lambda dim: 9.0)
            rho, w, _ = evolution.SemigroupOperator(grid, t)._quad_nodes()
        op = evolution.SemigroupOperator(grid, t)
        kept = _band_mass(op, rho, w, -1.0, reach)
        lost = _band_mass(op, rho, w, reach, 9.0)
        assert np.all(lost <= 2.0 ** -59 * kept), (t, (lost / kept).max())


@pytest.mark.parametrize("t", [1e-5, 1e-3, 1e-1])
def test_quad_nodes_match_segment_loop(t):
    op = evolution.SemigroupOperator(make_grid(5, 4.0, 24), t)
    rho, w, seg = op._quad_nodes()
    # reference: each segment cut by np.linspace, one sub-segment at a time,
    # kept when a grid node lies within _kernel_reach(N) widths of it
    width = math.sqrt(4.0 * t)
    reach = evolution._kernel_reach(op.grid.dim) * width
    R = op.grid.R_outer
    R_ext = R + reach
    n_ext = max(4, int(math.ceil((R_ext - R)
                                 / (evolution._SEGMENT_WIDTH * width))))
    edges = np.concatenate([op.grid.r, np.linspace(R, R_ext, n_ext + 1)[1:]])
    ref = []
    dropped = 0
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi - lo <= evolution._NARROW_WIDTH * width:
            sub, (gl_x, gl_w) = [lo, hi], evolution._NARROW_GL
        else:
            sub = np.linspace(lo, hi, math.ceil(
                (hi - lo) / (evolution._SEGMENT_WIDTH * width)) + 1)
            gl_x, gl_w = evolution._SEGMENT_GL
        for a, b in zip(sub[:-1], sub[1:]):
            if not np.any((op.grid.r >= a - reach) & (op.grid.r <= b + reach)):
                dropped += 1
                continue
            ref.extend((0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * g, j)
                       for x, g in zip(gl_x, gl_w))
    ref_rho, ref_w, ref_seg = map(np.array, zip(*ref))
    assert np.array_equal(seg, ref_seg)
    assert np.allclose(rho, ref_rho, rtol=1e-15, atol=0.0)
    assert np.allclose(w, ref_w, rtol=1e-12, atol=0.0)
    # the uniform intervals are 25 kernel widths long at t = 1e-5
    assert (dropped > 0) == (t == 1e-5)


@pytest.mark.parametrize("dim, n_nodes, bc, t", [
    # the criterion-8 residual grid at the one-slice step
    (5, 129, BoundaryCondition("dirichlet", 0.25), _SANDWICH_DT),
    (5, 257, BoundaryCondition("neumann"), 1e-4),
    (8, 64, BoundaryCondition("neumann"), 1e-5),
])
def test_segment_rules_match_a_fine_reference(monkeypatch, dim, n_nodes, bc,
                                              t):
    # the 6-node rule on sub-segments of at most 0.45 widths, which the two
    # rules replaced, was off by 3.2e-11, 1.7e-9 and 5.3e-12 here
    grid = make_grid(dim, 8.0, n_nodes, bc=bc)
    op = evolution.SemigroupOperator(grid, t)
    # reference: 14 nodes on sub-segments at most 0.1 widths long
    with monkeypatch.context() as m:
        m.setattr(evolution, "_NARROW_WIDTH", 0.0)
        m.setattr(evolution, "_SEGMENT_WIDTH", 0.1)
        m.setattr(evolution, "_SEGMENT_GL",
                  np.polynomial.legendre.leggauss(14))
        ref = evolution.SemigroupOperator(grid, t)
    assert np.abs(op.full - ref.full).max() <= 1e-12


def _unfiltered_quad_nodes(self):
    """Every sub-segment of every grid interval and of the extension
    region, as laid before the reach limit."""
    width = math.sqrt(4.0 * self.t)
    R = self.grid.R_outer
    R_ext = R + evolution._kernel_reach(self.grid.dim) * width
    n_ext = max(4, int(math.ceil((R_ext - R)
                                 / (evolution._SEGMENT_WIDTH * width))))
    edges = np.concatenate([self.grid.r,
                            np.linspace(R, R_ext, n_ext + 1)[1:]])
    rho, w, seg = [], [], []
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if hi - lo <= evolution._NARROW_WIDTH * width:
            nsub, (gl_x, gl_w) = 1, evolution._NARROW_GL
        else:
            nsub = math.ceil((hi - lo) / (evolution._SEGMENT_WIDTH * width))
            gl_x, gl_w = evolution._SEGMENT_GL
        half = 0.5 * ((hi - lo) / nsub)
        for k in range(nsub):
            mid = lo + (2 * k + 1) * half
            rho.append(mid + half * gl_x)
            w.append(half * gl_w)
            seg.append(np.full(len(gl_x), j))
    return tuple(map(np.concatenate, (rho, w, seg)))


@pytest.mark.parametrize("n_nodes", [64, 65, 129])
def test_reach_limited_operators_are_bit_identical(monkeypatch, n_nodes):
    # the sandwich grids (criteria 7 and 8; 129 nodes is 65 refined) at the
    # one-slice step 0.01/64 and the three Gauss-Legendre lags inside it,
    # the middle one Simpson's half-slice lag
    bc = BoundaryCondition("dirichlet", 0.25)
    grid = make_grid(5, 8.0, n_nodes, bc=bc)
    dt = 0.01 / 64
    x, _ = np.polynomial.legendre.leggauss(3)
    for t in [dt, *(dt * (0.5 - 0.5 * x))]:
        for interp in ("linear", "cubic"):
            op = evolution.SemigroupOperator(grid, t, interp)
            with monkeypatch.context() as m:
                m.setattr(evolution.SemigroupOperator, "_quad_nodes",
                          _unfiltered_quad_nodes)
                ref = evolution.SemigroupOperator(grid, t, interp)
            assert np.array_equal(op.full, ref.full), (t, interp)


def _prod_interp_matrix(self, rho, seg):
    """Reference P: each Lagrange weight as np.prod over a node's
    (nodes x n-1) gathered differences."""
    r = self.grid.r
    M = len(r)
    n = 4 if self.interp == "cubic" else 2
    cols = np.clip(seg - n // 2 + 1, 0, M - n)[:, None] + np.arange(n)
    xs = r[cols]
    wts = np.empty((len(rho), n))
    for c in range(n):
        o = np.arange(n) != c
        wts[:, c] = np.prod((rho[:, None] - xs[:, o])
                            / (xs[:, [c]] - xs[:, o]), axis=1)
    beyond = seg >= M - 1
    cols[beyond] = M
    wts[beyond] = np.eye(1, n)
    return csr_matrix((wts.ravel(), cols.ravel(),
                       n * np.arange(len(rho) + 1)), shape=(len(rho), M + 1))


def _gather_assemble(self):
    """Reference assembly: r and rho gathered, and log rho taken, once per
    band entry."""
    t, dim, r = self.t, self.grid.dim, self.grid.r
    M = len(r)
    rho, w, seg = self._quad_nodes()
    reach = evolution._kernel_reach(dim) * math.sqrt(4.0 * t)
    first = np.searchsorted(rho, r - reach, side="left")
    count = np.searchsorted(rho, r + reach, side="right") - first
    indptr = np.concatenate([[0], np.cumsum(count)])
    row = np.repeat(np.arange(M), count)
    q = np.arange(indptr[-1]) + np.repeat(first - indptr[:-1], count)
    log_k = (-0.5 * dim * math.log(4.0 * math.pi * t)
             - (r[row] - rho[q]) ** 2 / (4.0 * t)
             + _log_angular(dim, r[row] * rho[q] / (2.0 * t))
             + (dim - 1) * np.log(rho[q]))
    K = csr_matrix((np.exp(log_k) * w[q], q, indptr), shape=(M, len(rho)))
    return (K @ self._interp_matrix(rho, seg)).toarray()


@pytest.mark.parametrize("dim, n_nodes, interp, bc, ts", [
    # the sandwich's six, the one-slice step and its half (the middle
    # Gauss-Legendre lag), and two more lags inside the slice, on the
    # ladder grid (linear) and the residual grids (cubic)
    *((5, n, interp, BoundaryCondition("dirichlet", 0.25),
       [_SANDWICH_DT, *(0.5 * _SANDWICH_DT
                        * (1.0 - np.polynomial.legendre.leggauss(3)[0]))])
      for n, interp in ((64, "linear"), (65, "cubic"), (129, "cubic"))),
    *((3, 64, interp, BoundaryCondition("neumann"), [1e-5, 1e-3, 1e-1])
      for interp in ("linear", "cubic")),
])
def test_operators_match_prod_weight_reference(monkeypatch, dim, n_nodes,
                                               interp, bc, ts):
    grid = make_grid(dim, 8.0, n_nodes, bc=bc)
    for t in ts:
        op = evolution.SemigroupOperator(grid, t, interp)
        with monkeypatch.context() as m:
            m.setattr(evolution.SemigroupOperator, "_interp_matrix",
                      _prod_interp_matrix)
            m.setattr(evolution.SemigroupOperator, "_assemble",
                      _gather_assemble)
            ref = evolution.SemigroupOperator(grid, t, interp)
        assert np.array_equal(op.full, ref.full), t


def test_tiny_time_assembly_lays_nodes_near_the_grid_only():
    # unfiltered, make_grid(3, 8, 64) at t = 1e-12 takes 5.3e7 nodes
    op = evolution.SemigroupOperator(make_grid(3, 8.0, 64), 1e-12)
    rho, _, _ = op._quad_nodes()
    assert len(rho) < 2e4
    # S(t) keeps constants: each row sums to 1
    assert np.abs(op.matrix.sum(axis=1) + op.ext - 1.0).max() <= 1e-9


def _full_row_sum(op):
    """Reference assembly: each row sums the kernel over every quadrature
    node, with no band cut-off."""
    t, dim, r = op.t, op.grid.dim, op.grid.r
    rho, w, seg = op._quad_nodes()
    P = op._interp_matrix(rho, seg).toarray()
    A = np.empty((len(r), len(r) + 1))
    for i, ri in enumerate(r):
        log_k = (-0.5 * dim * math.log(4.0 * math.pi * t)
                 - (ri - rho) ** 2 / (4.0 * t)
                 + _log_angular(dim, ri * rho / (2.0 * t))
                 + (dim - 1) * np.log(rho))
        A[i] = (np.exp(log_k) * w) @ P
    return A[:, :-1], A[:, -1]


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("interp", ["cubic", "linear"])
@pytest.mark.parametrize("bc", [BoundaryCondition("neumann"),
                                BoundaryCondition("dirichlet", 1.5)])
@pytest.mark.parametrize("t", [1e-5, 1e-3, 1e-1])
def test_banded_assembly_matches_full_row_sums(dim, interp, bc, t):
    op = evolution.SemigroupOperator(make_grid(dim, 4.0, 24, bc=bc), t,
                                     interp)
    ref_matrix, ref_ext = _full_row_sum(op)
    scale = np.abs(ref_matrix).sum(axis=1) + np.abs(ref_ext)
    err = np.abs(op.matrix - ref_matrix).sum(axis=1) + np.abs(op.ext - ref_ext)
    assert np.all(err <= 1e-14 * scale)


# ---------------------------------------------------------------------------
# uniformly local norms
# ---------------------------------------------------------------------------

def test_ul_norm_of_unit_constant_is_ball_volume(grid3):
    ones = RadialField(grid3, np.ones(grid3.n_nodes))
    est = ul_norm(ones, 1.0)
    assert est.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-6)


def test_ul_norm_finds_offcenter_bump(grid3):
    u = np.exp(-((grid3.r - 3.0) ** 2) / 0.1)
    est = ul_norm(RadialField(grid3, u), 1.0)
    assert 2.5 < est.center < 3.2
    assert est.value > 0.0


def test_ul_norm_monotone_profile_peaks_at_origin(grid3):
    u = 1.0 / (1.0 + grid3.r ** 2)
    est = ul_norm(RadialField(grid3, u), 2.0)
    assert est.center == pytest.approx(0.0, abs=1e-5)


_POLAR_X, _POLAR_W = np.polynomial.legendre.leggauss(20)


def _polar_cap_share(dim, cos_t):
    """Reference share of the unit sphere in R^dim within the polar angle
    arccos(cos_t): the integral of sin^(dim-2) over [0, arccos(cos_t)]
    over that on [0, pi], each by a 20-point Gauss-Legendre rule."""
    def integral(theta):
        half = 0.5 * np.asarray(theta)[..., None]
        return np.sum(half * _POLAR_W
                      * np.sin(half * (1.0 + _POLAR_X)) ** (dim - 2), axis=-1)
    return integral(np.arccos(cos_t)) / integral(math.pi)


@pytest.mark.parametrize("dim", range(3, 11))
def test_cap_share_matches_regularized_incomplete_beta(dim):
    mpmath = pytest.importorskip("mpmath")
    c = np.concatenate([[0.0, 1e-12, 1e-6, 1e-3, 1.0 - 1e-9, 1.0],
                        np.random.default_rng(dim).random(200)])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.betainc(
            mpmath.mpf(dim - 1) / 2, 0.5, 0, 1 - mpmath.mpf(x) ** 2,
            regularized=True)) for x in c])
    got = evolution._cap_share(dim, c)
    assert np.all(got >= 0.0)
    assert np.abs(got - ref).max() <= 4.4e-16
    # the window reference below: the share of the cap is half of I
    assert np.abs(2.0 * _polar_cap_share(dim, c) - ref).max() <= 1e-14


def _window_integral(field, p, z):
    """Reference for one window: the integral of u^p over the unit ball
    centred at distance z, shell by shell, with its own breakpoints."""
    r, u, dim = field.grid.r, field.u, field.grid.dim
    lo, hi = max(0.0, z - 1.0), z + 1.0
    brk = [lo, hi] + ([1.0 - z] if z < 1.0 else [])
    brk = np.unique(np.concatenate([brk, r[(r > lo) & (r < hi)]]))
    x, w = np.polynomial.legendre.leggauss(8)
    mid = 0.5 * (brk[:-1] + brk[1:])[:, None]
    half = 0.5 * (brk[1:] - brk[:-1])[:, None]
    rho = mid + half * x
    shell = sphere_area(dim) * rho ** (dim - 1)
    if z != 0.0:
        # share of the shell inside the ball: a polar cap of the sphere
        with np.errstate(divide="ignore", invalid="ignore"):
            cos_t = np.clip((rho ** 2 + z ** 2 - 1.0) / (2.0 * rho * z),
                            -1.0, 1.0)
        shell = shell * np.where(rho <= 1.0 - z, 1.0,
                                 _polar_cap_share(dim, cos_t))
    uv = np.interp(rho, r, u, right=u[-1])
    return float(np.sum(half * w * uv ** p * shell))


def _window_values(field, p, zs):
    """Every window integral of the batched quadrature at centres zs."""
    _, rho, w, start = _window_quadrature(field.grid, np.asarray(zs))
    return np.add.reduceat(
        w * np.interp(rho, field.grid.r, field.u, right=field.u[-1]) ** p,
        start)


def test_window_quadrature_matches_per_centre_reference(table_cubic):
    # the reaction of a ladder iterate on the sandwich grid, and a field
    # with an off-centre bump on a 129-node grid
    g5 = make_grid(5, 8.0, 64, bc=BoundaryCondition(
        "dirichlet", float(table_cubic.u_star(8.0))))
    env = field_from_table(table_cubic, g5, cap=2.0, spec=CUBIC)
    u0 = RadialField(g5, 0.9 * env.u, env.cap_mask.copy())
    ladder = run_ladder(LadderSeed.from_above(env), u0, CUBIC, 0.01, k_max=3,
                        ladder_tol=0.0)
    tr = ladder.trajectories[3]
    react = RadialField(g5, _reaction(CUBIC, tr.values[len(tr.times) // 2]))
    g3 = make_grid(3, 10.0, 129)
    bump = RadialField(g3, 0.2 + np.exp(-(g3.r - 4.0) ** 2)
                       + 0.1 * np.sin(3.0 * g3.r) ** 2)
    # the reaction row first rises at r = 7.6: the origin and the 90
    # centres z > 6.6; the bump rises from the origin
    cases = [(react, 2.6, 91), (bump, 1.0, 512), (bump, 5.0, 512)]
    for fld, p, n_sampled in cases:
        grid = fld.grid
        assert not np.all(np.diff(fld.u) <= 0.0)
        zs = np.linspace(0.0, grid.R_outer, evolution._N_CENTERS)
        # the scan has centres on grid nodes, centres in (0, 1) and
        # windows that reach past R_outer
        assert np.count_nonzero(np.isin(zs, grid.r)) >= 2
        assert np.any((zs > 0.0) & (zs < 1.0))
        assert np.any(zs + 1.0 > grid.R_outer)
        ref = np.array([_window_integral(fld, p, z) for z in zs])
        got = _window_values(fld, p, zs)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
        est = ul_norm(fld, p)
        assert est.centers_sampled == n_sampled
        assert est.center == zs[np.argmax(ref)]
        assert est.value == pytest.approx(ref.max(), rel=1e-13)
        # every grid node as a centre
        ref = np.array([_window_integral(fld, p, z) for z in grid.r])
        np.testing.assert_allclose(_window_values(fld, p, grid.r), ref,
                                   rtol=1e-13, atol=0.0)


def test_ul_norm_origin_window_dominates_for_nonincreasing_fields(
        grid3, table_cubic):
    # a nonincreasing field is evaluated at the origin only; no window
    # centre elsewhere may do better
    g5 = make_grid(5, 8.0, 257)
    cases = [(RadialField(grid3, 1.0 / (1.0 + grid3.r ** 2)), 2.0)]
    for cap in (1e2, 1e4):
        fld = field_from_table(table_cubic, g5, cap=cap, spec=CUBIC)
        cases += [(fld, 1.0), (fld, 5.0)]
    for fld, p in cases:
        est = ul_norm(fld, p)
        assert est.center == 0.0
        zs = np.linspace(0.0, fld.grid.R_outer, 64)
        assert np.all(est.value >= _window_values(fld, p, zs) * (1.0 - 1e-12))


def test_windows_interpolate_as_np_interp_bit_for_bit(grid3, monkeypatch):
    # quadrature nodes between grid nodes, on them (the first and the last
    # included) and beyond R_outer take np.interp's values, bit for bit
    r = grid3.r
    rho = np.concatenate([0.5 * (r[:-1] + r[1:]), r[:7], r[-1:],
                          r[-1] + np.array([0.5, 2.0]),
                          r[:5] + 1e-3 * np.diff(r)[:5]])
    rng = np.random.default_rng(1)
    w = rng.random(len(rho))
    start = np.array([0, 40, len(rho) - 3])
    monkeypatch.setattr(evolution, "_window_quadrature",
                        lambda grid, zs: (zs, rho, w, start))
    win = evolution._Windows(grid3, np.zeros(len(start)))
    u = rng.random((4, grid3.n_nodes)) * np.array([[1.0], [1e3], [1e-5],
                                                   [1e8]])
    slope = np.diff(u, axis=1) / np.diff(r)
    for p in (1.0, 2.6):
        got = win.integrals(u, slope, p)
        for row, vals in zip(u, got):
            want = np.add.reduceat(w * np.interp(rho, r, row) ** p, start)
            assert vals.tobytes() == want.tobytes()


def _first_rise(grid, u):
    """Left node of the first interval over which u rises by more than
    1e-12 max(1, sup), inf when there is none."""
    tol = 1e-12 * max(1.0, float(u.max()))
    for i in range(len(u) - 1):
        if u[i + 1] - u[i] > tol:
            return float(grid.r[i])
    return math.inf


def _own_centres(grid, u):
    """The window centres a row takes: the origin and every scan centre
    z > r_k - 1, r_k its first rise."""
    zs = np.linspace(0.0, grid.R_outer, evolution._N_CENTERS)
    return np.unique(np.append(zs[zs > _first_rise(grid, u) - 1.0], 0.0))


def test_ul_norm_scans_the_centres_past_the_first_rise(table_cubic):
    # rows nonincreasing up to a first rise r_k >= 1: the reaction rows of
    # criterion 7's from-above ladder, which climb towards the Dirichlet
    # value from r = 7.6 or 7.8, and a row rising only near R_outer whose
    # largest window is there; each gives the full 512-centre scan's value
    # and centre bit for bit from the origin and the centres z > r_k - 1
    g5 = make_grid(5, 8.0, 64, bc=BoundaryCondition(
        "dirichlet", float(table_cubic.u_star(8.0))))
    env = field_from_table(table_cubic, g5, cap=2.0, spec=CUBIC)
    u0 = RadialField(g5, 0.9 * env.u, env.cap_mask)
    ladder = run_ladder(LadderSeed.from_above(env), u0, CUBIC, 0.01,
                        k_max=3, ladder_tol=0.0)
    rows = [_reaction(CUBIC, v) for v in ladder.trajectories[3].values[1:]]
    g3 = make_grid(3, 10.0, 129)
    far = RadialField(g3, np.exp(-g3.r) + np.exp(-4.0 * (g3.r - 9.0) ** 2))
    cases = [(RadialField(g5, row), 2.6) for row in rows]
    cases += [(far, 1.0), (far, 2.6)]
    rises, centres = set(), set()
    for fld, p in cases:
        zs = np.linspace(0.0, fld.grid.R_outer, evolution._N_CENTERS)
        r_k = _first_rise(fld.grid, fld.u)
        assert 1.0 <= r_k < math.inf
        ref = _window_values(fld, p, zs)
        est = ul_norm(fld, p)
        assert est.value == ref.max()
        assert est.center == zs[np.argmax(ref)]
        assert est.centers_sampled == 1 + np.count_nonzero(zs > r_k - 1.0)
        rises.add(r_k)
        centres.add(est.center)
    assert sorted(rises) == pytest.approx([7.46479, 7.6, 7.8], abs=1e-5)
    # the sandwich rows peak at the origin, the far row near R_outer
    assert 0.0 in centres and max(centres) > 8.0


def test_ul_norm_of_a_row_rising_below_one_scans_every_centre():
    # first rise at r = 0.5 < 1: no window lies inside B(0, r_k) apart
    # from ones the origin window already beats, so all 512 centres run
    g = make_grid(3, 10.0, 129)
    fld = RadialField(g, 1.0 + np.abs(g.r - 0.5))
    assert 0.4 < _first_rise(g, fld.u) < 1.0
    zs = np.linspace(0.0, g.R_outer, evolution._N_CENTERS)
    for p in (1.0, 2.6):
        ref = _window_values(fld, p, zs)
        est = ul_norm(fld, p)
        assert est.centers_sampled == 512
        assert est.value == ref.max()
        assert est.center == zs[np.argmax(ref)]


def test_ul_norm_of_a_stack_is_each_row_alone(grid3, monkeypatch):
    # nonincreasing rows, rows rising from the origin and rows first
    # rising far out mixed, so the stack holds centre sets of several
    # lengths, the scan in blocks of two rows: each row's largest window,
    # its centre and the centres scanned are those of the row's own
    # quadrature sum over its own centres, bit for bit
    zs = np.linspace(0.0, grid3.R_outer, evolution._N_CENTERS)
    monkeypatch.setattr(evolution, "_BLOCK_NODES",
                        2 * len(evolution._Windows(grid3, zs).cell))
    r = grid3.r
    rows = [1.0 / (1.0 + r ** 2), np.exp(-(r - 3.0) ** 2),
            np.full(len(r), 2.0), 1e-6 * np.exp(-(r - 7.0) ** 2),
            0.2 + np.sin(r) ** 2, np.exp(-r),
            np.exp(-r) + np.exp(-4.0 * (r - 7.5) ** 2),
            1.0 / (1.0 + r) + 0.05 * np.exp(-(r - 8.0) ** 2),
            # flat to r = 5: windows at z < 4 tie with the origin's but for
            # rounding, and some of them round above it
            np.where(r <= 5.0, 1.0, 0.5 + 0.01 * (r - 5.0))]
    u = np.stack(rows)
    lengths = set()
    for p in (1.0, 5.0):
        value, center, sampled = evolution._ul_windows(grid3, u, p)
        for k, row in enumerate(rows):
            fld = RadialField(grid3, row)
            zs = _own_centres(grid3, row)
            vals = _window_values(fld, p, zs)
            assert value[k].tobytes() == vals.max().tobytes()
            assert center[k] == zs[np.argmax(vals)]
            assert sampled[k] == len(zs)
            lengths.add(len(zs))
    assert len(lengths) >= 4 and {1, 512} <= lengths


def _window_builds(monkeypatch):
    """The centres of every window quadrature built from here on."""
    built = []

    def spy(grid, zs):
        built.append(np.array(zs))
        return _window_quadrature(grid, zs)

    monkeypatch.setattr(evolution, "_window_quadrature", spy)
    return built


def test_ul_norm_of_monotone_field_builds_only_the_origin_window(
        monkeypatch):
    g = make_grid(3, 10.0, 129)
    built = _window_builds(monkeypatch)
    est = ul_norm(RadialField(g, 1.0 / (1.0 + g.r ** 2)), 1.0)
    assert est.centers_sampled == 1
    assert [c.tolist() for c in built] == [[0.0]]


def test_rising_rows_share_one_window_build(monkeypatch):
    # rows that never rise take the origin window alone; the rows that
    # rise share one build over the origin and the centres z > r_k - 1 of
    # the earliest first rise r_k among them, each call building afresh
    g = make_grid(3, 10.0, 129)
    zs = np.linspace(0.0, g.R_outer, evolution._N_CENTERS)
    late = np.exp(-g.r) + np.exp(-4.0 * (g.r - 9.0) ** 2)
    early = np.exp(-g.r) + np.exp(-4.0 * (g.r - 6.0) ** 2)
    first = int(np.count_nonzero(zs <= _first_rise(g, early) - 1.0))
    assert 1 < first < int(np.count_nonzero(zs <= _first_rise(g, late) - 1.0))
    u = np.stack([1.0 / (1.0 + g.r ** 2), late, early])
    built = _window_builds(monkeypatch)
    for _ in range(2):
        evolution._ul_windows(g, u, 1.0)
    want = [[0.0], [0.0, *zs[first:]]] * 2
    assert [c.tolist() for c in built] == want


def test_ul_norm_l1_of_capped_singular_is_cap_stable(table_cubic):
    g = make_grid(5, 8.0, 257)
    vals = []
    for cap in (1e3, 1e5):
        fld = field_from_table(table_cubic, g, cap=cap, spec=CUBIC)
        vals.append(ul_norm(fld, 1.0).value)
    # u* is locally integrable: raising the cap barely moves the L^1 window
    assert abs(vals[1] - vals[0]) / vals[0] < 0.01


def test_ul_norm_l5_of_capped_singular_diverges_with_cap(table_cubic):
    # (sqrt(2)/r)^5 r^4 ~ 1/r: the origin window grows without bound in cap
    g = make_grid(5, 8.0, 257)
    vals = []
    for cap in (1e2, 1e3, 1e4):
        fld = field_from_table(table_cubic, g, cap=cap, spec=CUBIC)
        vals.append(ul_norm(fld, 5.0).value)
    assert vals[1] > 1.2 * vals[0]
    assert vals[2] > 1.2 * vals[1]


def test_ul_norm_validates_exponent(grid3):
    ones = RadialField(grid3, np.ones(grid3.n_nodes))
    with pytest.raises(ValueError):
        ul_norm(ones, 0.5)


# ---------------------------------------------------------------------------
# IMEX stepper
# ---------------------------------------------------------------------------

def test_pure_diffusion_matches_closed_form(grid3):
    t_final, n_steps = 1e-2, 200
    stack = ImexStack((grid3,))
    u = np.exp(-grid3.r ** 2)
    for _ in range(n_steps):
        u = stack.step(u, None, (t_final / n_steps,))
    exact = (1 + 4 * t_final) ** -1.5 * np.exp(
        -grid3.r ** 2 / (1 + 4 * t_final))
    assert np.abs(u - exact).max() <= 1e-4


def test_comparison_principle_randomized():
    rng = np.random.default_rng(42)
    g = make_grid(5, 8.0, 129)
    stack = ImexStack((g,))
    for _ in range(100):
        lo = rng.uniform(0.0, 1.0, g.n_nodes)
        hi = lo + rng.uniform(0.0, 0.5, g.n_nodes)
        out_lo = stack.step(lo, _reaction(CUBIC, lo), (1e-3,))
        out_hi = stack.step(hi, _reaction(CUBIC, hi), (1e-3,))
        assert np.all(out_lo <= out_hi + 1e-12)


def test_step_preserves_nonnegativity():
    rng = np.random.default_rng(3)
    g = make_grid(3, 8.0, 129)
    u = rng.uniform(0.0, 2.0, g.n_nodes)
    out = ImexStack((g,)).step(u, _reaction(power_exp(5.0, 2.0), u), (1e-4,))
    assert np.all(out >= 0.0)


def test_dirichlet_boundary_pinned():
    bc = BoundaryCondition("dirichlet", 0.25)
    g = make_grid(5, 8.0, 129, bc=bc)
    out = ImexStack((g,)).step(np.full(g.n_nodes, 1.0), None, (1e-3,))
    assert out[-1] == pytest.approx(0.25, abs=1e-12)


def test_capped_singular_profile_near_stationary(table_cubic):
    # the interpolated profile is a discrete near-equilibrium whose residual
    # shrinks at second order under refinement
    dt = 1e-5
    residuals = []
    for n in (129, 257):
        bc = BoundaryCondition("dirichlet", float(table_cubic.u_star(8.0)))
        g = make_grid(5, 8.0, n, bc=bc)
        fld = field_from_table(table_cubic, g, cap=100.0, spec=CUBIC)
        nxt = ImexStack((g,)).step(fld.u, _reaction(CUBIC, fld.u), (dt,))
        interior = (g.r > 0.5) & (g.r < 7.0)
        residuals.append(np.abs(nxt - fld.u)[interior].max() / dt)
    assert residuals[0] / residuals[1] > 2.0
    assert residuals[1] < 0.05


def _banded_reference(grid, dt):
    """V + dt*K in solveh_banded's upper two-row layout, built straight
    from the grid's diffusion coefficients; a Dirichlet row is the identity
    row."""
    vol, cond, c_sum = grid.diffusion_coefficients
    ab = np.zeros((2, grid.n_nodes))
    ab[0, 1:] = -dt * cond
    ab[1] = vol + dt * c_sum
    if grid.bc.kind == "dirichlet":
        ab[0, -1] = 0.0
        ab[1, -1] = 1.0
    return ab


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("n_nodes", [65, 129])
@pytest.mark.parametrize("bc", [BoundaryCondition("neumann"),
                                BoundaryCondition("dirichlet", 0.5)])
def test_step_solve_matches_solve_banded(dim, n_nodes, bc):
    # a step calls LAPACK ptsv on the volume-weighted bands directly;
    # solveh_banded dispatches two-row bands to the same routine, so the
    # bits agree, for the heat flow and with the cubic reaction
    g = make_grid(dim, 8.0, n_nodes, bc=bc)
    vol, cond, _ = g.diffusion_coefficients
    stack = ImexStack((g,))
    rng = np.random.default_rng(dim + n_nodes)
    u0 = 1.0 / (1.0 + g.r ** 2) + rng.uniform(0.0, 0.1, n_nodes)
    fld = RadialField(g, u0.copy())
    for spec, dt in itertools.product((None, CUBIC),
                                      np.geomspace(1e-8, 1e-1, 10)):
        fu = None if spec is None else _reaction(spec, fld.u)
        rhs = vol * (fld.u if fu is None else fld.u + dt * fu)
        if bc.kind == "dirichlet":
            # the pinned value's flux moves to the row before it
            rhs[-2] += dt * cond[-1] * bc.value
            rhs[-1] = bc.value
        diag, off = stack.bands(np.full(n_nodes, dt))
        ab = _banded_reference(g, dt)
        assert diag.tobytes() == ab[1].tobytes()
        assert off.tobytes() == ab[0, 1:].tobytes()
        ref = solveh_banded(ab, rhs)
        out = stack.step(fld.u, fu, (dt,))
        assert out.tobytes() == np.maximum(ref, 0.0).tobytes(), (spec, dt)
        assert fld.u.tobytes() == u0.tobytes()    # the input stays as it was


@pytest.mark.parametrize("spec,dim,cap", [(CUBIC, 5, 1e5),
                                         (power_exp(5.0, 2.0), 3, 5.0)])
def test_neumann_heat_flow_keeps_constants(spec, dim, cap):
    # K annihilates constants, so (V + dt*K) c = V c up to rounding, from
    # the smallest dt a threshold run takes to dt = 0.04, on case grids
    # whose first node sits at 1.4e-6 and 2.9e-9; the rounding of the
    # summed conductances near the origin takes the pe grid to 1.35e-14
    g = case_grid(build_singular(spec, dim), cap, 8.0, 129)
    g = RadialGrid(r=g.r, dim=dim, bc=BoundaryCondition("neumann"))
    stack = ImexStack((g,))
    for c in (1.0, 0.3, 1e5):
        for dt in np.geomspace(1e-26, 0.04, 200):
            out = stack.step(np.full(g.n_nodes, c), None, (dt,))
            assert np.abs(out / c - 1.0).max() <= 2e-14, (c, dt)


@pytest.fixture(scope="module")
def unequal_blocks(table_cubic):
    """Grids of unequal length with data on each: the case grids of caps
    1e4 and 1e8 (Dirichlet, 129 and 178 nodes) carrying the capped
    profile, and two Neumann grids carrying a random decaying field."""
    rng = np.random.default_rng(18)
    blocks = []
    for cap in (1e4, 1e8):
        g = case_grid(table_cubic, cap, 8.0, 129)
        blocks.append(field_from_table(table_cubic, g, cap=cap, spec=CUBIC))
    for dim, n in ((3, 65), (5, 100)):
        g = make_grid(dim, 8.0, n)
        blocks.append(RadialField(g, 1.0 / (1.0 + g.r ** 2)
                                  + rng.uniform(0.0, 0.1, n)))
    return blocks


def test_folded_bands_pin_the_dirichlet_rows(unequal_blocks):
    # the Dirichlet rows are folded into the dt-free parts once per stack:
    # at every dt each gives diag 1 and off-diagonal 0, every block the
    # bands of its grid alone, and the coupling between blocks is 0
    grids = [f.grid for f in unequal_blocks]
    assert [g.bc.kind for g in grids] == ["dirichlet"] * 2 + ["neumann"] * 2
    stack = ImexStack(grids)
    for dt in np.geomspace(1e-26, 0.04, 7):
        dts = dt * np.array([1.0, 3.0, 0.5, 7.0])
        diag, off = stack.bands(dts.repeat(stack.sizes))
        assert np.all(diag[stack.pinned] == 1.0)
        assert np.all(off[stack.pinned_lower] == 0.0)
        assert np.all(off[stack.stops[:-1] - 1] == 0.0)
        for g, step, a, b in zip(grids, dts, stack.starts, stack.stops):
            ab = _banded_reference(g, step)
            assert diag[a:b].tobytes() == ab[1].tobytes()
            assert off[a:b - 1].tobytes() == ab[0, 1:].tobytes()


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 1, 0, 2)])
@pytest.mark.parametrize("spec", [None, CUBIC])
def test_stacked_step_is_one_block_stack_per_block(unequal_blocks, order,
                                                   spec):
    # ptsv with zero couplings between blocks gives each block exactly the
    # solve of the block alone, each at its own dt
    fields = [unequal_blocks[k] for k in order]
    assert [f.grid.n_nodes for f in unequal_blocks] == [129, 178, 65, 100]
    dts = [(1e-9, 3e-13, 1e-3, 2e-4)[k] for k in order]
    stack = ImexStack([f.grid for f in fields])
    u = np.concatenate([f.u for f in fields])
    fu = None if spec is None else spec.f(u)
    out = stack.step(u, fu, dts)
    assert not np.shares_memory(out, u)
    for f, dt, a, b in zip(fields, dts, stack.starts, stack.stops):
        alone = ImexStack((f.grid,)).step(
            f.u, None if spec is None else _reaction(spec, f.u), (dt,))
        assert out[a:b].tobytes() == alone.tobytes()
    assert u.tobytes() == np.concatenate([f.u for f in fields]).tobytes()


def test_inf_block_poisons_its_neighbours(unequal_blocks):
    # why a run whose reaction overflows ends before the stacked solve:
    # 0 * inf = NaN crosses the zero couplings both ways
    fields = unequal_blocks[:3]
    stack = ImexStack([f.grid for f in fields])
    dts = np.repeat([1e-9, 1e-6, 1e-3], stack.sizes)
    rhs = stack.vol * np.concatenate([f.u for f in fields])
    rhs[stack.starts[1] + 5] = np.inf
    *_, x, info = dptsv(*stack.bands(dts), rhs)
    assert info == 0
    for a, b in zip(stack.starts, stack.stops):
        assert np.isnan(x[a:b]).any()


@pytest.mark.parametrize("where", ["values", "reaction"])
def test_inf_right_hand_side_is_a_linear_solve_failure(where):
    # an inf in the values or in the reaction values solves to NaN, which
    # the step raises as a typed error, not as a silently poisoned field
    g = make_grid(3, 8.0, 65)
    u, fu = np.ones(g.n_nodes), np.ones(g.n_nodes)
    (u if where == "values" else fu)[7] = np.inf
    with pytest.raises(LinearSolveFailure) as err:
        ImexStack((g,)).step(u, fu, (1e-3,))
    assert isinstance(err.value, HeatLabError)


def test_reaction_overflow_raised():
    with pytest.raises(ReactionOverflow):
        _reaction(power_exp(5.0, 2.0), np.full(65, 500.0))


def test_nan_reaction_fails_the_guard():
    # the guard is dt * max f <= REACTION_GUARD, which a NaN fails: one NaN
    # node is an overflow, not a silently poisoned step
    def f(u):
        out = u ** 3
        out[7] = np.nan
        return out

    spec = custom(f, lambda u: 3.0 * u ** 2, lambda u: 6.0 * u)
    with pytest.raises(ReactionOverflow):
        _reaction(spec, np.ones(65))


def test_stability_dt_tracks_sup():
    spec = power_exp(5.0, 2.0)
    dt_small = _stability_bound(spec, 1.0, 1e-2)
    dt_large = _stability_bound(spec, 10.0, 1e-2)
    assert dt_large < dt_small <= 0.5 * 1e-2
    # the heat flow (no spec) has f' = 0: exactly half of dt_max at any sup
    for sup in (0.0, 1.0, 1e200):
        assert _stability_bound(None, sup, 1e-2) == 0.5 * 1e-2


@pytest.mark.parametrize("spec,sup", [(power_exp(5.0, 2.0), 30.0),
                                      (pure_power(3.0), 1e200)])
def test_stability_dt_overflow_is_typed(spec, sup):
    # f'(sup) overflows double precision; Python float arithmetic would
    # raise OverflowError, the bound must be 0 instead
    with np.errstate(over="ignore"):
        assert _stability_bound(spec, sup, 1e-2) == 0.0
