"""Tests for the singular stationary profile: construction, conservation
identities, energy monotonicity and growth near the origin."""

import csv
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, solve_ivp

from heatlab.cli import Artifacts
from heatlab.errors import OutOfRange, StepUnderflow
from heatlab.nonlinearity import (
    NonlinearitySpec,
    _scaled_antiderivative,
    check_admissibility,
    custom,
    cutoff_exp,
    eval_F_log,
    power_exp,
    pure_power,
    sobolev_exponent,
)
from heatlab.singular_ode import (
    _F0_along,
    _rhs,
    _solve,
    asymptotic_ratio,
    build_singular,
    eval_F0,
    integrate_regular,
    patch_seed,
    pure_power_profile_coefficient,
    trace_pohozaev,
    verify_flux_identity,
)

POWER_EXP = power_exp(5.0, 2.0)
CUTOFF = cutoff_exp(20.0)
CUBIC = pure_power(3.0)
# Gelfand nonlinearity f = e^u: outside the exponential class (f(0) = 1),
# but u* = log(2(N-2)) - 2 log r and F(u*) = r^2/(2N-4) hold exactly
GELFAND = custom(np.exp, np.exp, np.exp, log_convex_from=0.0,
                 log_exact_tail=lambda M: -M)


def ode_residual(obj, spec, dim, r_lo, r_hi):
    """Sup of the relative stationary residual u'' + (N-1)/r u' + f(u) on
    400 points of [r_lo, r_hi], with u'' from a symmetric second difference
    of the solver's dense output.

    The step trades second-difference truncation against amplification of
    the dense-output interpolation error; the best-resolved of the steps
    2e-4, 6e-4 and 1.2e-3 is reported.
    """
    r = np.linspace(r_lo, r_hi, 400)
    best = math.inf
    for h in (2e-4, 6e-4, 1.2e-3):
        um, u0, up = (obj.dense(r - h)[0], obj.dense(r)[0],
                      obj.dense(r + h)[0])
        upp = (up - 2.0 * u0 + um) / h ** 2
        du = (up - um) / (2.0 * h)
        fu = np.asarray(spec.f(u0))
        res = upp + (dim - 1.0) / r * du + fu
        scale = np.maximum(np.abs(upp), fu)
        best = min(best, float(np.abs(res / scale).max()))
    return best


def loglog_slope_near_origin(tab):
    """Least-squares slope of log u* against log r over the table's
    smallest decade of radii."""
    w = tab.r <= 10.0 * tab.r[0]
    return float(np.polyfit(np.log(tab.r[w]), np.log(tab.u[w]), 1)[0])


@pytest.fixture(scope="module")
def table_power_exp():
    return build_singular(POWER_EXP, 3)


@pytest.fixture(scope="module")
def table_cutoff():
    return build_singular(CUTOFF, 3)


@pytest.fixture(scope="module")
def table_cubic():
    return build_singular(CUBIC, 5)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_cubic_profile_matches_closed_form(table_cubic):
    # u* = sqrt(2)/r solves the five-dimensional cubic problem exactly
    assert pure_power_profile_coefficient(3.0, 5) == pytest.approx(
        math.sqrt(2.0), rel=1e-15)
    want = math.sqrt(2.0) / table_cubic.r
    assert np.allclose(table_cubic.u, want, rtol=1e-9)
    want_d = -math.sqrt(2.0) / table_cubic.r ** 2
    assert np.allclose(table_cubic.du, want_d, rtol=1e-8)


@pytest.mark.parametrize("dim", [3, 5])
def test_gelfand_profile_matches_closed_form(dim):
    # R_max = 1 keeps u* positive: it vanishes at r = sqrt(2(N-2))
    tab = build_singular(GELFAND, dim, R_max=1.0)
    assert tab.tolerances["patch_mismatch"] <= 1e-10
    # below, across and above r_patch, up to R_max
    r = np.geomspace(1e-9, 1.0, 3000)
    want = math.log(2.0 * (dim - 2)) - 2.0 * np.log(r)
    assert np.abs(np.asarray(tab.u_star(r)) / want - 1.0).max() <= 1e-10
    du = np.asarray(tab.du_star(r))
    assert np.abs(-0.5 * du * r - 1.0).max() <= 1e-9
    assert verify_flux_identity(tab, GELFAND) <= 1e-8
    ratio = asymptotic_ratio(tab, GELFAND)[:, 1]
    assert np.abs(ratio - 1.0).max() <= 1e-9


def test_patch_reseeding_is_stable(table_power_exp, table_cutoff,
                                   table_cubic):
    for tab in (table_power_exp, table_cutoff, table_cubic):
        assert tab.tolerances["patch_mismatch"] <= 1e-5


def test_regular_solution_stays_under_singular(table_power_exp, table_cutoff,
                                               table_cubic):
    for tab in (table_power_exp, table_cutoff, table_cubic):
        assert tab.cross_check["regular_below"] is True


def test_asymptotic_ratio_tends_to_one(table_power_exp):
    series = asymptotic_ratio(table_power_exp, POWER_EXP)
    assert np.all(series[:, 1] > 0.95)
    assert np.all(series[:, 1] < 1.05)
    # refinement tightens the worst deviation
    finer = build_singular(POWER_EXP, 3, r_patch=1e-4)
    dev = np.abs(series[:, 1] - 1.0).max()
    dev_fine = np.abs(asymptotic_ratio(finer, POWER_EXP)[:, 1] - 1.0).max()
    assert dev_fine < dev


@pytest.mark.parametrize("family, r_patch, pieces", [
    ("power_exp", 1e-3, 8), ("power_exp", 1e-4, 10),
    ("cutoff_exp", 1e-3, 6), ("cutoff_exp", 1e-4, 7),
])
def test_singular_pipeline_lays_few_log_F_pieces(family, r_patch, pieces):
    # what `heatlab singular` asks of F and F^-1 on a fresh spec lays this
    # many pieces of its log F table: F^-1 steps one piece at a time from
    # its first guess and lays no piece off that path
    spec = {"power_exp": lambda: power_exp(5.0, 2.0),
            "cutoff_exp": lambda: cutoff_exp(20.0)}[family]()
    table = build_singular(spec, 3, r_patch=r_patch)
    verify_flux_identity(table, spec)
    trace_pohozaev(table, spec)
    asymptotic_ratio(table, spec)
    check_admissibility(spec, 3)
    assert len(spec.log_F_table.pieces) == pieces


def test_stationary_residual_small(table_power_exp, table_cutoff):
    assert ode_residual(table_power_exp, POWER_EXP, 3, 0.5, 5.0) <= 1e-6
    assert ode_residual(table_cutoff, CUTOFF, 3, 0.5, 5.0) <= 1e-6


def test_u_star_beyond_R_max_is_out_of_range():
    tab = build_singular(CUBIC, 5, R_max=4.0)
    assert tab.u_star(4.0) == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-9)
    with pytest.raises(OutOfRange,
                       match=r"built on \(0, 4\], asked at r = 8"):
        tab.u_star(8.0)
    with pytest.raises(OutOfRange):
        tab.du_star(np.array([1.0, 8.0]))


def test_u_star_keeps_the_shape_of_r(table_cubic):
    # a float r gives a float; an array, one of any size, keeps its shape,
    # on the dense output and on the patch formula below it alike
    assert isinstance(table_cubic.u_star(1.0), float)
    assert isinstance(table_cubic.du_star(np.float64(1.0)), float)
    one = table_cubic.u_star(np.array([1.0]))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    r = np.array([[1e-9, 1.0], [2.0, 4.0]])
    for r_in in (np.array([[1.0]]), r, r[:, :1]):
        u, du = table_cubic.u_star(r_in), table_cubic.du_star(r_in)
        assert u.shape == du.shape == r_in.shape
        assert np.allclose(u, math.sqrt(2.0) / r_in, rtol=1e-9)
        assert np.allclose(du, -math.sqrt(2.0) / r_in ** 2, rtol=1e-8)


@pytest.mark.parametrize("which", ["power_exp", "cubic"])
@pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
def test_u_star_below_its_domain_is_out_of_range(which, r, request):
    # a radius r <= 0 or NaN names itself, with no warning on the way, for
    # a float and inside an array
    tab = request.getfixturevalue(f"table_{which}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ask in (tab.u_star, tab.du_star):
            for r_in in (r, np.array([1.0, r])):
                with pytest.raises(OutOfRange,
                                   match=rf"asked at r = {r:g}$"):
                    ask(r_in)


@pytest.mark.parametrize("which", ["power_exp", "cutoff", "cubic"])
def test_one_radius_is_its_lone_step_bit_for_bit(which, request):
    # the midpoint of every dense step, each alone in its step: in one
    # array they take the lone-step products of a stacked call, and a
    # float or a one-element array takes the one-radius path, with the
    # same bits, at every Nordsieck order the output holds
    tab = request.getfixturevalue(f"table_{which}")
    edges = tab.dense.edges
    radii = np.exp(0.5 * (edges[:-1] + edges[1:]))
    step = np.searchsorted(edges[1:-1], np.log(radii), side="right")
    assert np.array_equal(step, np.arange(len(radii)))
    assert set(tab.dense._order[step]) == set(tab.dense._order)
    for ask in (tab.u_star, tab.du_star):
        stacked = ask(radii)
        alone = np.array([ask(float(x)) for x in radii])
        one = np.concatenate([ask(np.array([x])) for x in radii])
        assert alone.tobytes() == stacked.tobytes()
        assert one.tobytes() == stacked.tobytes()


def test_invalid_patch_radius_rejected():
    with pytest.raises(ValueError):
        build_singular(CUBIC, 5, r_patch=20.0, R_max=10.0)


def test_patch_seed_derivative_consistent():
    # u' = -r f(u)/(N-2) up to the second-order factor
    u, du = patch_seed(POWER_EXP, 3, 1e-3)
    plain = -1e-3 * float(POWER_EXP.f(u))
    assert du == pytest.approx(plain, rel=0.1)
    assert du < 0


@pytest.mark.parametrize("spec", [POWER_EXP, CUTOFF, CUBIC],
                         ids=lambda s: s.label)
def test_patch_seed_batch_matches_scalar(spec):
    r = np.geomspace(1e-9, 1e-3, 24)
    u, du = patch_seed(spec, 3 if spec is not CUBIC else 5, r)
    single = [patch_seed(spec, 3 if spec is not CUBIC else 5, float(x))
              for x in r]
    assert all(isinstance(v, float) for pair in single for v in pair)
    np.testing.assert_allclose(u, [x[0] for x in single], rtol=1e-15, atol=0)
    # du carries f(u), which turns an ulp of u into u g'(u) <= 100 ulps
    np.testing.assert_allclose(du, [x[1] for x in single], rtol=1e-13,
                               atol=0)


def test_reaction_antiderivative_along_table_closed_forms():
    # table values decrease along r; the helper accumulates between them
    u = np.geomspace(40.0, 0.01, 300)
    np.testing.assert_allclose(_F0_along(CUBIC, u), u ** 4 / 4.0,
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose(_F0_along(GELFAND, u), np.expm1(u),
                               rtol=1e-13, atol=0)
    # g(u) >= 700 reads inf, as eval_F0 does
    big = _F0_along(GELFAND, np.array([1.0, 699.0, 701.0]))
    assert np.isfinite(big[:2]).all() and big[2] == math.inf
    # the anchor, one downward ladder, at both ends of the range
    for x in (1e-6, 1e3):
        assert eval_F0(CUBIC, x) == pytest.approx(x ** 4 / 4.0, rel=1e-13)
    assert eval_F0(GELFAND, 1e-6) == pytest.approx(math.expm1(1e-6),
                                                   rel=1e-13)
    # e^1000 overflows; with g = u written out, the ladder's sum against
    # f(u) is 1 - e^-u
    gelfand_g = NonlinearitySpec("gelfand", {}, np.exp, np.exp, np.exp,
                                 g=lambda v: v, gp=np.ones_like,
                                 gpp=np.zeros_like, tail=GELFAND.tail)
    _, ratio = _scaled_antiderivative(gelfand_g, np.array([1e3]))
    assert ratio[0] == pytest.approx(-math.expm1(-1e3), rel=1e-13)
    # condition A4's near-critical margin: p = p_S for power_exp(5, 2) in
    # N = 3, so Q/(u f) = 1 - 6 integral_0^u f/(u f) = u^2/4 to leading
    # order, a difference of nearly equal numbers, smallest at u = 1e-6
    a4 = check_admissibility(POWER_EXP, 3).conditions["A4"]
    min_q = float(a4.detail.split("=")[1])
    assert a4.passed and 0.0 < min_q == pytest.approx(2.5e-13, rel=0.02)


def test_profile_evaluation_continuous_at_patch(table_power_exp):
    rp = table_power_exp.r_patch
    below = table_power_exp.u_star(rp * (1 - 1e-9))
    above = table_power_exp.u_star(rp * (1 + 1e-9))
    assert below == pytest.approx(above, rel=1e-6)


def test_profile_evaluation_below_inner_uses_asymptotic(table_power_exp):
    r = table_power_exp.r_patch / 1e5
    u = table_power_exp.u_star(r)
    log_v = 2.0 * math.log(r) - math.log(2.0)
    # F(u*) tracks r^2/(2N-4) to a few percent this deep
    assert eval_F_log(POWER_EXP, u) == pytest.approx(log_v, rel=0.05)


def test_du_star_matches_closed_form_in_all_regions(table_cubic):
    # u*' = -sqrt(2)/r^2 for the five-dimensional cubic: check it below
    # the dense output (patch formula) and on the dense output below and
    # above r_patch
    r_lo = table_cubic.dense.t_min
    r = np.concatenate([np.geomspace(1e-8, 0.5 * r_lo, 20),
                        np.geomspace(r_lo, 0.9 * table_cubic.r[0], 20),
                        np.geomspace(table_cubic.r[0], 5.0, 20)])
    assert r[0] < r_lo <= r[20] and r[39] < table_cubic.r[0] <= r[40]
    du = np.asarray(table_cubic.du_star(r))
    assert np.abs(-du * r ** 2 / math.sqrt(2.0) - 1.0).max() <= 1e-6


def lsoda_reference(spec, dim, r_start, R_max, u0, du0, rtol, atol,
                    events=None):
    """solve_ivp's LSODA run with dense output and events, from the same
    start as heatlab's own stepping loop."""
    return solve_ivp(_rhs(spec, dim), (math.log(r_start), math.log(R_max)),
                     [u0, r_start * du0], method="LSODA", rtol=rtol,
                     atol=atol, dense_output=True, events=events)


@pytest.mark.parametrize("which", ["power_exp", "cutoff", "cubic"])
def test_dense_output_matches_ode_solution(which, request):
    # the stacked dense output against solve_ivp's OdeSolution on the
    # table's own seed: the same steps, and the same values on a dense
    # radius set with every step edge and on one radius alone
    tab = request.getfixturevalue(f"table_{which}")
    spec, dim = {"power_exp": POWER_EXP, "cutoff": CUTOFF,
                 "cubic": CUBIC}[which], tab.dim
    dense, r_in = tab.dense, tab.dense.t_min
    ref = lsoda_reference(spec, dim, r_in, tab.R_max,
                          *patch_seed(spec, dim, r_in),
                          tab.tolerances["rtol"], tab.tolerances["atol"]).sol
    steps = ref.interpolants
    assert np.array_equal(dense.edges, ref.ts)
    assert np.array_equal(dense._t, [p.t for p in steps])
    assert np.array_equal(dense._h, [p.h for p in steps])
    for k, p in enumerate(steps):
        order = p.yh.shape[1]
        assert np.array_equal(dense._yh[k, :, :order], p.yh)
        assert not np.any(dense._yh[k, :, order:])
    # every edge as a radius: the same step as OdeSolution's and, with one
    # or two radii per step, the same bits
    edges = np.exp(ref.ts)
    u, v = ref(np.log(edges))
    assert np.array_equal(dense(edges), [u, v / edges])
    # on an edge whose log is the edge itself, the two steps meeting there
    # differ in the last bits, and the later one is taken
    exact = np.log(edges) == ref.ts
    assert exact.sum() > 0.8 * len(edges)
    inner = np.flatnonzero(exact[1:-1]) + 1
    later = np.array([steps[k](ref.ts[k]) for k in inner]).T
    assert np.array_equal(dense(edges[inner]),
                          [later[0], later[1] / edges[inner]])
    r = np.unique(np.concatenate([
        edges, np.geomspace(r_in, tab.R_max, 5000)]))
    r = r[(r >= r_in) & (r <= tab.R_max)]
    for radii in (r, float(r[len(r) // 3])):
        u, v = ref(np.log(radii))
        got = dense(radii)
        assert got.shape == (2,) + np.shape(radii)
        for have, want in ((got[0], u), (got[1], v / radii)):
            assert np.all(np.abs(have - want) <= 2e-15 * np.abs(want))


@pytest.mark.parametrize("alpha, xi", [
    (1.0, 6.8968), (2.0, 3.4484), (5.0, 1.3794)])
def test_vanishing_shot_matches_solve_ivp_events(alpha, xi):
    # the zero of u is solve_ivp's terminal event of direction -1, and the
    # 400 values are its dense output's, bit for bit
    shot = integrate_regular(CUBIC, 3, alpha, 10.0)
    assert shot.termination == "vanished"
    assert shot.r_end == pytest.approx(xi, abs=1e-4)

    def hit_zero(s, y):
        return y[0]
    hit_zero.terminal = True
    hit_zero.direction = -1
    f_a = alpha ** 3
    r_start = min(1e-6, math.sqrt(0.01 * 2.0 * 3 * alpha / f_a))
    ref = lsoda_reference(CUBIC, 3, r_start, 10.0,
                          alpha - f_a * r_start ** 2 / 6.0,
                          -f_a * r_start / 3.0, 1e-10, 1e-12,
                          events=hit_zero)
    assert ref.status == 1
    r_end = math.exp(ref.t_events[0][0])
    r = np.geomspace(r_start, r_end, 399)
    u, v = ref.sol(np.log(r))
    assert shot.r_end == r_end
    assert np.array_equal(shot.r, np.concatenate([[0.0], r]))
    assert np.array_equal(shot.u, np.concatenate([[alpha], u]))
    assert np.array_equal(shot.du, np.concatenate([[0.0], v / r]))


@pytest.mark.parametrize("which", ["power_exp", "cutoff"])
def test_regular_shot_to_R_max_matches_solve_ivp(which, request):
    # the cross-check's own shot from 2 u*(r_patch), which reaches R_max:
    # the same steps as solve_ivp's OdeSolution, and its 400 values to the
    # bit
    tab = request.getfixturevalue(f"table_{which}")
    spec, dim = {"power_exp": POWER_EXP, "cutoff": CUTOFF}[which], tab.dim
    alpha = 2.0 * tab.u[0]
    shot = integrate_regular(spec, dim, alpha, tab.R_max,
                             rtol=1e-8, atol=1e-10)
    assert shot.termination == "reached_rmax"
    f_a = float(spec.f(alpha))
    r_start = min(1e-6, math.sqrt(0.01 * 2.0 * dim * alpha / f_a))
    ref = lsoda_reference(spec, dim, r_start, tab.R_max,
                          alpha - f_a * r_start ** 2 / (2.0 * dim),
                          -f_a * r_start / dim, 1e-8, 1e-10).sol
    steps, dense = ref.interpolants, shot.dense
    assert np.array_equal(dense.edges, ref.ts)
    assert np.array_equal(dense._t, [p.t for p in steps])
    assert np.array_equal(dense._h, [p.h for p in steps])
    for k, p in enumerate(steps):
        order = p.yh.shape[1]
        assert np.array_equal(dense._yh[k, :, :order], p.yh)
        assert not np.any(dense._yh[k, :, order:])
    r = np.geomspace(r_start, tab.R_max, 399)
    u, v = ref(np.log(r))
    assert np.array_equal(shot.r, np.concatenate([[0.0], r]))
    assert np.array_equal(shot.u, np.concatenate([[alpha], u]))
    assert np.array_equal(shot.du, np.concatenate([[0.0], v / r]))


def test_collapsed_step_raises_step_underflow():
    # LSODA gives up near the start at an unreachable tolerance: rtol is
    # raised to 100 eps with scipy's warning, as scipy's LSODA class
    # raises it (atol stays 1e-40), so the run fails for excess accuracy
    # and never as illegal input; the error carries the last radius and
    # state the solver accepted
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StepUnderflow) as info:
            integrate_regular(CUBIC, 5, 1.0, 10.0, rtol=1e-30, atol=1e-40)
    said = [str(w.message) for w in caught]
    assert "At least one element of `rtol` is too small. Setting `rtol = " \
           "np.maximum(rtol, 2.220446049250313e-14)`." in said
    assert any("Excess accuracy requested" in m for m in said)
    assert not any("Illegal input" in m for m in said)
    err = info.value
    assert 1e-6 <= err.r < 1e-5
    u, du = err.state
    assert math.isfinite(u) and math.isfinite(du)
    assert 0.99 < u < 1.0 and du < 0.0
    assert err.r == 1.122258112810855e-06
    assert (u, du) == (0.999999999999874, -2.244516225621485e-07)


def test_integrator_inputs_are_checked():
    # the checks scipy's LSODA class made: a negative atol is refused, and
    # a non-finite start state is a typed error
    with pytest.raises(ValueError, match="atol"):
        integrate_regular(CUBIC, 5, 1.0, 10.0, atol=-1e-12)
    with pytest.raises(OutOfRange, match="non-finite start"):
        _solve(CUBIC, 5, 1e-6, 10.0, math.nan, 0.0, 1e-10, 1e-12, "shot")


@pytest.mark.parametrize("R_max", [1e-6, 1e-7])
def test_regular_shot_needs_R_max_beyond_its_start(R_max):
    # the N = 5 cubic at alpha = 1 starts at r = 1e-6: an end at or below
    # it is refused, not integrated inward or over an empty range
    with pytest.raises(ValueError, match="start radius"):
        integrate_regular(CUBIC, 5, 1.0, R_max)


@pytest.mark.parametrize("R_max", [1e-6, 1e-7, 0.0, -1.0])
def test_zero_shot_needs_R_max_beyond_its_start(R_max):
    # alpha = 0 is the zero solution, with no integration: it refuses the
    # same ends as every alpha > 0, not lay radii 0, -0.0025, ...
    with pytest.raises(ValueError, match="start radius"):
        integrate_regular(CUBIC, 5, 0.0, R_max)
    sol = integrate_regular(CUBIC, 5, 0.0, 2e-6)
    assert sol.termination == "reached_rmax" and sol.r_end == 2e-6
    assert not np.any(sol.u) and np.all(np.diff(sol.r) > 0.0)


def test_overflowing_centre_height_is_step_underflow():
    # power-exp's f overflows from u = 26.6 on: no start radius exists
    with np.errstate(over="ignore"):
        with pytest.raises(StepUnderflow) as info:
            integrate_regular(POWER_EXP, 3, 40.0, 10.0)
    assert info.value.r == 0.0


def test_non_finite_patch_seed_is_out_of_range():
    # at r_patch = 1e-300 the seed height is finite but f there is not
    with np.errstate(over="ignore"):
        with pytest.raises(OutOfRange, match="r_patch = 1e-300"):
            build_singular(POWER_EXP, 3, r_patch=1e-300)


def test_tiny_patch_radius_has_a_finite_flux_residual():
    # at r_patch = 1e-150 power-exp's f overflows at the smallest patch
    # nodes of the flux check, and the regular shot's centre height
    # overflows f: f s^(N-1) is formed in logs there, the shot ends in its
    # typed note, and no overflow warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = build_singular(POWER_EXP, 3, r_patch=1e-150)
        residual = verify_flux_identity(table, POWER_EXP)
    assert math.isfinite(residual)
    assert table.cross_check["note"] == "regular integration underflowed"


# ---------------------------------------------------------------------------
# conservation identities
# ---------------------------------------------------------------------------

def test_flux_identity_cubic_closed_form(table_cubic):
    # both sides equal sqrt(2) r^2:
    # -r^4 (u*)' = sqrt(2) r^2 and int_0^r 2 sqrt(2) s ds = sqrt(2) r^2
    lhs = -table_cubic.r ** 4 * table_cubic.du
    assert np.allclose(lhs, math.sqrt(2.0) * table_cubic.r ** 2, rtol=1e-7)
    assert verify_flux_identity(table_cubic, CUBIC) <= 1e-8


def test_flux_identity_exponential_families(table_power_exp, table_cutoff):
    assert verify_flux_identity(table_power_exp, POWER_EXP) <= 1e-4
    assert verify_flux_identity(table_cutoff, CUTOFF) <= 1e-4


def fine_flux_residual(table, spec):
    """verify_flux_identity's residual with (dense.t_min, r_patch) taken by
    64-point Gauss-Legendre on each of 64 equal panels in log r."""
    dim, t_min, panels = table.dim, table.dense.t_min, 64
    x, w = np.polynomial.legendre.leggauss(64)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    s = t_min * x
    patch = np.dot(t_min * w, spec.f(patch_seed(spec, dim, s)[0])
                   * s ** (dim - 1))
    width = math.log(table.r_patch / t_min) / panels
    r = t_min * np.exp(width * (np.arange(panels)[:, None] + x)).ravel()
    inner = np.dot(width * np.tile(w, panels) * r,
                   spec.f(table.dense(r)[0]) * r ** (dim - 1))
    lhs = -table.r ** (dim - 1) * table.du
    rhs = patch + inner + cumulative_simpson(
        spec.f(table.u) * table.r ** (dim - 1), x=table.r, initial=0.0)
    return float((np.abs(lhs - rhs) / np.abs(lhs)).max())


@pytest.mark.parametrize("family, dim", [
    ("power_exp", 3), ("power_exp", 8), ("cutoff_exp", 3), ("cubic", 5),
])
def test_flux_identity_inner_range_is_converged(family, dim):
    # (t_min, r_patch) carries nearly all of the flux at r_patch, so its
    # quadrature error enters the residual at full weight; cutoff-exp's
    # C^2 join at u = 1 lies in that range
    spec = {"power_exp": POWER_EXP, "cutoff_exp": CUTOFF,
            "cubic": CUBIC}[family]
    table = build_singular(spec, dim)
    assert verify_flux_identity(table, spec) == pytest.approx(
        fine_flux_residual(table, spec), abs=1e-12)


def test_pohozaev_energy_decreases(table_power_exp, table_cutoff,
                                   table_cubic):
    for tab, spec in ((table_power_exp, POWER_EXP),
                      (table_cutoff, CUTOFF), (table_cubic, CUBIC)):
        trace = trace_pohozaev(tab, spec)
        assert trace.max_fd_slope <= 1e-10


def test_pohozaev_slope_matches_deficit_for_cubic(table_cubic):
    # dP/dr = -(N-2)/2 r^4 Q(u*) = -1 identically for p=3, N=5
    trace = trace_pohozaev(table_cubic, CUBIC)
    slopes = trace.fd_slopes()
    assert np.allclose(slopes, -1.0, atol=1e-4)
    assert np.allclose(trace.P, -trace.r, atol=1e-5)


def test_pohozaev_constant_at_critical_exponent():
    # p = p_S: the deficit vanishes and P freezes at its invariant value,
    # -243/160 for N=5 from the closed-form profile
    p_s = sobolev_exponent(5)
    tab = build_singular(pure_power(p_s), 5, n_points=150,
                         rtol=1e-12, atol=1e-14)
    trace = trace_pohozaev(tab, pure_power(p_s))
    assert np.allclose(trace.P, -243.0 / 160.0, atol=1e-7)
    assert np.abs(trace.fd_slopes()).max() <= 1e-10


def test_pohozaev_vanishes_at_shrinking_patch():
    vals = []
    for rp in (1e-2, 1e-3, 1e-4):
        tab = build_singular(POWER_EXP, 3, r_patch=rp)
        vals.append(abs(trace_pohozaev(tab, POWER_EXP).P[0]))
    assert vals[1] < vals[0] / 4
    assert vals[2] < vals[1] / 4


# ---------------------------------------------------------------------------
# shooting from the center
# ---------------------------------------------------------------------------

def test_zero_amplitude_is_equilibrium():
    shot = integrate_regular(CUBIC, 5, 0.0, 10.0)
    assert np.all(shot.u == 0.0)
    assert shot.termination == "reached_rmax"


def test_shot_decreases_from_center():
    shot = integrate_regular(CUBIC, 5, 10.0, 10.0)
    assert shot.u[0] == 10.0
    assert shot.du[0] == 0.0
    assert np.all(np.diff(shot.u) <= 0)


def test_shot_residual_small():
    shot = integrate_regular(CUBIC, 5, 10.0, 10.0, rtol=1e-12, atol=1e-14)
    assert ode_residual(shot, CUBIC, 5, 0.5, 5.0) <= 1e-6


def test_shots_ordered_near_center():
    # ordering in the center height holds before the oscillatory tail
    lo = integrate_regular(CUBIC, 5, 10.0, 10.0)
    hi = integrate_regular(CUBIC, 5, 20.0, 10.0)
    r = np.linspace(0.0, 0.1, 50)
    assert np.all(np.interp(r, lo.r, lo.u) < np.interp(r, hi.r, hi.u))


@pytest.mark.parametrize("alpha", [1.0, 4.0])
def test_shot_vanishes_at_lane_emden_zero(alpha):
    # for f = u^3 in N = 3, u(r) = alpha theta(alpha r) with theta the
    # Lane-Emden n = 3 solution, whose first zero is xi_1
    xi_1 = 6.896848619376960
    shot = integrate_regular(CUBIC, 3, alpha, 10.0)
    assert shot.termination == "vanished"
    assert shot.r_end * alpha == pytest.approx(xi_1, rel=1e-8)
    assert shot.r[-1] == shot.r_end and abs(shot.u[-1]) <= 1e-8 * alpha


def test_shots_bracket_singular_value(table_cubic):
    # convergence to u*(0.5) is oscillatory at this dimension: successive
    # center heights land on alternating sides, and the envelope shrinks
    target = float(table_cubic.u_star(0.5))
    shots = [integrate_regular(CUBIC, 5, a, 10.0)
             for a in (10.0, 20.0, 40.0, 80.0)]
    vals = np.array([np.interp(0.5, s.r, s.u) for s in shots])
    assert vals.min() < target < vals.max()
    assert abs(vals[-1] - target) / target < 0.05
    assert np.abs(vals - target).max() / target < 0.15


# ---------------------------------------------------------------------------
# growth near the origin
# ---------------------------------------------------------------------------

def test_log_growth_slower_than_any_power(table_power_exp):
    # u* ~ sqrt(2 log 1/r) grows slower than r^(-2 delta) for every
    # delta > 0: the log-log slope over the smallest decade is near 0
    assert -loglog_slope_near_origin(table_power_exp) < 2.0 * 0.1


def test_shift_contraction_exact_on_plateau():
    # f(u - delta)/f(u) = e^{-a delta} wherever the shape function has
    # saturated on both arguments
    u = np.linspace(4.1, 30.0, 40)
    ratio = np.asarray(CUTOFF.f(u - 0.1)) / np.asarray(CUTOFF.f(u))
    assert np.allclose(ratio, math.exp(-2.0), rtol=1e-12)


def test_power_law_profile_fails_log_growth_check(table_cubic):
    # the cubic profile decays like 1/r, so the log-type growth bound
    # r^(-2 delta) with delta = 0.3 must be violated
    assert -loglog_slope_near_origin(table_cubic) >= 2.0 * 0.3


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_table_roundtrips_through_csv(tmp_path, table_power_exp):
    t = table_power_exp
    out = Artifacts(tmp_path)
    # the rows `heatlab singular` writes to singular_table.csv
    out.write_csv("profile.csv", ("r", "u_star", "du_star"),
                  zip(t.r, t.u, t.du))
    out.commit()
    with open(tmp_path / "profile.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "u_star", "du_star"]
    data = np.array(rows[1:], dtype=float)
    assert np.array_equal(data[:, 0], table_power_exp.r)
    assert np.array_equal(data[:, 1], table_power_exp.u)
    assert np.array_equal(data[:, 2], table_power_exp.du)
