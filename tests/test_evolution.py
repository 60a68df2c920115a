"""Tests for the radial heat-flow discretization: grid layout, exact-kernel
semigroup action, uniformly local norms and the IMEX stepper."""

import math
from collections import OrderedDict

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_banded

from heatlab import evolution
from heatlab.errors import ReactionOverflow
from heatlab.evolution import (
    BoundaryCondition,
    RadialField,
    _laplacian_bands,
    _log_angular,
    _window_integral,
    apply_semigroup,
    field_from_table,
    make_grid,
    semigroup_operator,
    stability_dt,
    step_imex,
    ul_norm,
    write_norm_series_csv,
    write_snapshot_csv,
)
from heatlab.nonlinearity import power_exp, pure_power
from heatlab.singular_ode import build_singular

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
    bad = np.ones(g.n_nodes)
    bad[5] = np.nan
    with pytest.raises(ValueError):
        RadialField(g, bad)


def test_field_from_table_caps_and_masks(table_cubic):
    g = make_grid(5, 8.0, 129)
    fld = field_from_table(table_cubic, g, cap=100.0, spec=CUBIC)
    assert fld.sup == 100.0
    assert fld.cap_mask[0]
    # sqrt(2)/r > 100 below r = sqrt(2)/100
    expect = g.r < math.sqrt(2.0) / 100.0
    assert np.array_equal(fld.cap_mask, expect)
    free = ~fld.cap_mask
    assert np.allclose(fld.u[free], math.sqrt(2.0) / g.r[free], rtol=1e-6)


# ---------------------------------------------------------------------------
# heat semigroup
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2])
def test_constants_preserved(grid3, t):
    ones = RadialField(grid3, np.ones(grid3.n_nodes))
    out = apply_semigroup(ones, t)
    assert np.abs(out.u - 1.0).max() <= 1e-8


def test_gaussian_closed_form(grid3):
    # S(t) e^{-|x|^2} = (1+4t)^{-N/2} e^{-r^2/(1+4t)}
    t = 1e-2
    fld = RadialField(grid3, np.exp(-grid3.r ** 2))
    out = apply_semigroup(fld, t)
    exact = (1 + 4 * t) ** -1.5 * np.exp(-grid3.r ** 2 / (1 + 4 * t))
    assert np.abs(out.u - exact).max() <= 1e-7


def test_three_dimensional_image_kernel_oracle(grid3):
    # independent N=3 reduction: S(t)u(r) equals
    # (4 pi t)^{-1/2} r^{-1} int_0^inf rho u(rho)
    #     [e^{-(r-rho)^2/4t} - e^{-(r+rho)^2/4t}] drho
    t = 4e-3
    u0 = lambda rho: np.exp(-((rho - 1.5) ** 2))
    fld = RadialField(grid3, u0(grid3.r))
    out = apply_semigroup(fld, t)
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
    two_steps = apply_semigroup(apply_semigroup(fld, 5e-3), 5e-3)
    one_step = apply_semigroup(fld, 1e-2)
    assert np.abs(two_steps.u - one_step.u).max() <= 1e-7


def test_positivity_preserved(grid3):
    rng = np.random.default_rng(7)
    fld = RadialField(grid3, rng.uniform(0.0, 5.0, grid3.n_nodes))
    out = apply_semigroup(fld, 1e-3)
    assert np.all(out.u >= 0.0)


def test_strong_continuity(grid3):
    fld = RadialField(grid3, np.exp(-grid3.r ** 2))
    errs = [np.abs(apply_semigroup(fld, t).u - fld.u).max()
            for t in (1e-2, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_operator_cache_evicts_least_recently_used(monkeypatch):
    assert evolution._OPERATOR_CACHE_SIZE >= 64
    monkeypatch.setattr(evolution, "_OPERATOR_CACHE", OrderedDict())
    monkeypatch.setattr(evolution, "_OPERATOR_CACHE_SIZE", 3)
    g = make_grid(3, 4.0, 16)
    ops = [semigroup_operator(g, t) for t in (0.01, 0.02, 0.03)]
    # a hit returns the cached object and makes it the most recent entry
    assert semigroup_operator(g, 0.01) is ops[0]
    semigroup_operator(g, 0.04)
    assert len(evolution._OPERATOR_CACHE) == 3
    assert semigroup_operator(g, 0.01) is ops[0]
    assert semigroup_operator(g, 0.03) is ops[2]
    # 0.02 was the least recently used entry at the bound: rebuilt
    assert semigroup_operator(g, 0.02) is not ops[1]


def test_dirichlet_extension_feeds_boundary_value():
    bc = BoundaryCondition("dirichlet", 2.0)
    g = make_grid(3, 8.0, 257, bc=bc)
    fld = RadialField(g, np.full(g.n_nodes, 2.0))
    out = apply_semigroup(fld, 1e-3)
    assert np.abs(out.u - 2.0).max() <= 1e-8


@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7])
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
    big = np.array([1.0000001e8, 1e9, 1e12, 1e300])
    asymptote = 0.5 * (dim - 1) * np.log(2.0 * math.pi / big)
    assert np.all(np.isfinite(_log_angular(dim, big)))
    assert np.abs(_log_angular(dim, big) - asymptote).max() <= 1e-12


@pytest.mark.parametrize("t", [1e-5, 1e-3, 1e-1])
def test_quad_nodes_match_segment_loop(t):
    op = evolution.SemigroupOperator(make_grid(5, 4.0, 24), t)
    rho, w, seg = op._quad_nodes()
    # reference: each segment cut by np.linspace, one sub-segment at a time
    width = math.sqrt(4.0 * t)
    R = op.grid.R_outer
    R_ext = R + evolution._KERNEL_REACH * width
    n_ext = max(4, int(math.ceil((R_ext - R) / (0.45 * width))))
    edges = np.concatenate([op.grid.r, np.linspace(R, R_ext, n_ext + 1)[1:]])
    gl_x, gl_w = np.polynomial.legendre.leggauss(6)
    ref = []
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        sub = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / (0.45 * width)))
                          + 1)
        for a, b in zip(sub[:-1], sub[1:]):
            ref.extend((0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * g, j)
                       for x, g in zip(gl_x, gl_w))
    ref_rho, ref_w, ref_seg = map(np.array, zip(*ref))
    assert np.array_equal(seg, ref_seg)
    assert np.allclose(rho, ref_rho, rtol=1e-15, atol=0.0)
    assert np.allclose(w, ref_w, rtol=1e-12, atol=0.0)


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
        for z in np.linspace(0.0, fld.grid.R_outer, 64):
            assert est.value >= _window_integral(fld, p, z) * (1.0 - 1e-12)


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
    cur = RadialField(grid3, np.exp(-grid3.r ** 2))
    for _ in range(n_steps):
        cur = step_imex(cur, None, t_final / n_steps)
    exact = (1 + 4 * t_final) ** -1.5 * np.exp(
        -grid3.r ** 2 / (1 + 4 * t_final))
    assert np.abs(cur.u - exact).max() <= 1e-4


def test_comparison_principle_randomized():
    rng = np.random.default_rng(42)
    g = make_grid(5, 8.0, 129)
    for _ in range(100):
        lo = rng.uniform(0.0, 1.0, g.n_nodes)
        hi = lo + rng.uniform(0.0, 0.5, g.n_nodes)
        out_lo = step_imex(RadialField(g, lo), CUBIC, 1e-3)
        out_hi = step_imex(RadialField(g, hi), CUBIC, 1e-3)
        assert np.all(out_lo.u <= out_hi.u + 1e-12)


def test_step_preserves_nonnegativity():
    rng = np.random.default_rng(3)
    g = make_grid(3, 8.0, 129)
    fld = RadialField(g, rng.uniform(0.0, 2.0, g.n_nodes))
    out = step_imex(fld, power_exp(5.0, 2.0), 1e-4)
    assert np.all(out.u >= 0.0)


def test_dirichlet_boundary_pinned():
    bc = BoundaryCondition("dirichlet", 0.25)
    g = make_grid(5, 8.0, 129, bc=bc)
    fld = RadialField(g, np.full(g.n_nodes, 1.0))
    out = step_imex(fld, None, 1e-3)
    assert out.u[-1] == pytest.approx(0.25, abs=1e-12)


def test_capped_singular_profile_near_stationary(table_cubic):
    # the interpolated profile is a discrete near-equilibrium whose residual
    # shrinks at second order under refinement
    dt = 1e-5
    residuals = []
    for n in (129, 257):
        bc = BoundaryCondition("dirichlet", float(table_cubic.u_star(8.0)))
        g = make_grid(5, 8.0, n, bc=bc)
        fld = field_from_table(table_cubic, g, cap=100.0, spec=CUBIC)
        nxt = step_imex(fld, CUBIC, dt)
        interior = (g.r > 0.5) & (g.r < 7.0)
        residuals.append(np.abs(nxt.u - fld.u)[interior].max() / dt)
    assert residuals[0] / residuals[1] > 2.0
    assert residuals[1] < 0.05


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("n_nodes", [65, 129])
@pytest.mark.parametrize("bc", [BoundaryCondition("neumann"),
                                BoundaryCondition("dirichlet", 0.5)])
def test_step_solve_matches_solve_banded(dim, n_nodes, bc):
    # step_imex calls LAPACK gtsv on the bands directly; solve_banded
    # dispatches (1, 1) bands to the same routine, so the bits agree
    g = make_grid(dim, 8.0, n_nodes, bc=bc)
    rng = np.random.default_rng(dim + n_nodes)
    u0 = 1.0 / (1.0 + g.r ** 2) + rng.uniform(0.0, 0.1, n_nodes)
    fld = RadialField(g, u0)
    for dt in np.geomspace(1e-8, 1e-1, 10):
        rhs = fld.u.copy()
        if bc.kind == "dirichlet":
            rhs[-1] = bc.value
        ref = solve_banded((1, 1), _laplacian_bands(g, dt), rhs)
        out = step_imex(fld, None, dt).u
        assert out.tobytes() == np.maximum(ref, 0.0).tobytes(), dt


def test_reaction_overflow_raised():
    g = make_grid(3, 8.0, 65)
    fld = RadialField(g, np.full(g.n_nodes, 500.0))
    with pytest.raises(ReactionOverflow):
        step_imex(fld, power_exp(5.0, 2.0), 1e-3)


def test_stability_dt_tracks_sup():
    g = make_grid(3, 8.0, 65)
    spec = power_exp(5.0, 2.0)
    small = RadialField(g, np.full(g.n_nodes, 1.0))
    large = RadialField(g, np.full(g.n_nodes, 10.0))
    dt_small = stability_dt(small, spec)
    dt_large = stability_dt(large, spec)
    assert dt_large < dt_small <= 0.5 * 1e-2


@pytest.mark.parametrize("spec,sup", [(power_exp(5.0, 2.0), 30.0),
                                      (pure_power(3.0), 1e200)])
def test_stability_dt_overflow_is_typed(spec, sup):
    # f'(sup) overflows double precision; Python float arithmetic would
    # raise OverflowError, the bound must report ReactionOverflow instead
    g = make_grid(3, 8.0, 65)
    fld = RadialField(g, np.full(g.n_nodes, sup))
    with np.errstate(over="ignore"), pytest.raises(ReactionOverflow):
        stability_dt(fld, spec)


def test_invalid_dt_rejected():
    g = make_grid(3, 8.0, 65)
    fld = RadialField(g, np.ones(g.n_nodes))
    with pytest.raises(ValueError):
        step_imex(fld, None, 0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_snapshot_csv(tmp_path):
    g = make_grid(3, 2.0, 9)
    fld = RadialField(g, np.ones(g.n_nodes))
    path = tmp_path / "snap.csv"
    write_snapshot_csv(path, [(0.0, fld), (0.5, fld)])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,r,u"
    assert len(lines) == 1 + 2 * g.n_nodes


def test_norm_series_csv(tmp_path):
    path = tmp_path / "norms.csv"
    write_norm_series_csv(path, [(0.0, 1.0, 2.0, 3.0), (0.1, 1.5, 2.5, 3.5)])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,sup_norm,l1ul_norm,f_mass_inner"
    assert len(lines) == 3
