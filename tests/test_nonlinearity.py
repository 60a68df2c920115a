"""Tests for the nonlinearity evaluators, the barrier integral F and the
admissibility checks."""

import dataclasses
import json
import math

import numpy as np
import pytest

from heatlab import nonlinearity
from heatlab.errors import NonIntegrableTail, OutOfRange
from heatlab.nonlinearity import (
    NonlinearitySpec,
    TailGrowth,
    check_admissibility,
    check_fprime_F_limit,
    custom,
    cutoff_exp,
    eval_F,
    eval_F_inverse_log,
    eval_F_log,
    power_exp,
    pure_power,
    sobolev_exponent,
)

FAMILIES = {
    "power_exp": power_exp(5.0, 2.0),
    "cutoff_exp": cutoff_exp(20.0),
    "pure_power": pure_power(3.0),
}


def central_diff(fn, u, rel=1e-5):
    h = u * rel
    return (fn(u + h) - fn(u - h)) / (2 * h)


# ---------------------------------------------------------------------------
# evaluator consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_first_derivative_matches_finite_difference(name):
    spec = FAMILIES[name]
    u = np.geomspace(0.05, 15.0, 100)
    fd = central_diff(spec.f, u, rel=1e-6)
    assert np.allclose(spec.fp(u), fd, rtol=5e-6)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_second_derivative_matches_finite_difference(name):
    spec = FAMILIES[name]
    u = np.geomspace(0.05, 15.0, 100)
    fd = central_diff(spec.fp, u, rel=1e-6)
    assert np.allclose(spec.fpp(u), fd, rtol=5e-6)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_log_profile_consistent_with_f(name):
    spec = FAMILIES[name]
    u = np.geomspace(0.1, 25.0, 50)
    assert np.allclose(spec.g(u), np.log(spec.f(u)), rtol=0, atol=1e-12)
    fd = central_diff(spec.g, u)
    assert np.allclose(spec.gp(u), fd, rtol=1e-6)
    fd2 = central_diff(spec.gp, u)
    assert np.allclose(spec.gpp(u), fd2, rtol=1e-5, atol=1e-10)


def test_cutoff_shape_function_plateau():
    spec = cutoff_exp(20.0)
    # chi == 20 for u >= 4, so f is exactly 20 e^{20u} there
    for u in (4.0, 4.5, 6.0):
        assert spec.f(u) == pytest.approx(20.0 * math.exp(20.0 * u), rel=1e-14)
    # C^2 matching at the joints
    for joint in (1.0, 3.0, 4.0):
        lo, hi = joint - 1e-9, joint + 1e-9
        assert spec.f(lo) == pytest.approx(spec.f(hi), rel=1e-7)
        assert spec.fp(lo) == pytest.approx(spec.fp(hi), rel=1e-7)
        assert spec.fpp(lo) == pytest.approx(spec.fpp(hi), rel=1e-6)


def _piece_reference(name, x):
    """The three-piece formulation of the cutoff polynomial on a Python
    float, powers written as repeated products."""
    x = float(x)
    a, b = x - 2.0, x - 4.0
    pieces, default = {
        "_chi": ((x * x * x * x * x, 10.0 * (x - 1.0) - a * a * a * a * a,
                  20.0 + b * b * b * b * b), 20.0),
        "_chi_p": ((5.0 * (x * x * x * x), 10.0 - 5.0 * (a * a * a * a),
                    5.0 * (b * b * b * b)), 0.0),
        "_chi_pp": ((20.0 * (x * x * x), -20.0 * (a * a * a),
                     20.0 * (b * b * b)), 0.0),
    }[name]
    for bound, value in zip((1.0, 3.0, 4.0), pieces):
        if x <= bound:
            return value
    return default


@pytest.mark.parametrize("name", ["_chi", "_chi_p", "_chi_pp"])
def test_cutoff_polynomial_scalar_branch_is_bit_identical(name):
    # the scalar branch must return exactly the piece formula evaluated on
    # the Python float; an array input must agree with it to 1e-15.
    fn = getattr(nonlinearity, name)
    pts = [0.0, 1.0, 3.0, 4.0]
    for b in (1.0, 3.0, 4.0):
        pts += [np.nextafter(b, 0.0), np.nextafter(b, 6.0)]
    pts += np.random.default_rng(3).uniform(0.0, 6.0, 200).tolist()
    from_array = fn(np.array(pts))
    for x, y_arr in zip(pts, from_array):
        y = fn(x)
        assert type(y) is float
        ref = _piece_reference(name, x)
        assert np.float64(y).tobytes() == np.float64(ref).tobytes(), x
        assert y == pytest.approx(y_arr, rel=1e-15, abs=0.0)


# overflow inputs per family: f overflows there in double precision
_OVERFLOW_POINTS = {"power_exp": [30.0, 1e3], "cutoff_exp": [50.0],
                    "pure_power": [1e200]}


def _scalar_contract_points(name):
    pts = [0.0, 1e-6]
    for b in (1.0, 3.0, 4.0):
        pts += [b, float(np.nextafter(b, 0.0)), float(np.nextafter(b, 6.0))]
    pts += np.random.default_rng(11).uniform(0.0, 6.0, 200).tolist()
    return pts + _OVERFLOW_POINTS[name]


@pytest.mark.parametrize("ev", ["f", "fp", "fpp", "g", "gp", "gpp"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_scalar_evaluation_matches_array_path(name, ev):
    # a scalar goes through Python float arithmetic and math, an array
    # through numpy; the scalar must come back as a plain float, never
    # raise (overflow, log(0), division by zero), carry the array's inf/nan
    # and agree with it to 1e-15 relative.  At 0 the log-profile g and its
    # derivatives are outside their domain; only the inf/nan must agree.
    spec = FAMILIES[name]
    fn = getattr(spec, ev)
    pts = _scalar_contract_points(name)
    with np.errstate(all="ignore"):
        from_array = fn(np.array(pts))
        # scale of the agreement: |value|, except for the cutoff g'', where
        # chi'' chi - chi'^2 cancels up to a factor 9 for u <= 1 and the
        # last-bit pow differences are measured against the two terms
        scale = np.abs(from_array)
        if (name, ev) == ("cutoff_exp", "gpp"):
            u = np.array(pts)
            c = nonlinearity._chi(u)
            scale = (np.abs(nonlinearity._chi_pp(u) * c)
                     + nonlinearity._chi_p(u) ** 2) / c ** 2
        for x, y_arr, s in zip(pts, from_array, scale):
            for arg in (x, np.float64(x)):
                y = fn(arg)
                assert type(y) is float, (x, type(y))
                assert np.isnan(y) == np.isnan(y_arr), (x, y, y_arr)
                assert np.isinf(y) == np.isinf(y_arr), (x, y, y_arr)
                if np.isfinite(y_arr):
                    assert abs(y - y_arr) <= 1e-15 * s, (x, y, y_arr)
                elif np.isinf(y_arr):
                    assert y == y_arr, (x, y, y_arr)


def test_family_constructors_reject_bad_parameters():
    with pytest.raises(ValueError):
        power_exp(5.0, 1.0)     # tail not superexponential
    with pytest.raises(ValueError):
        pure_power(1.0)         # no integrable reciprocal tail
    with pytest.raises(ValueError):
        cutoff_exp(0.0)


def test_custom_family_roundtrip():
    # shifted exponential e^u - 1 through the custom constructor
    spec = custom(
        f=lambda u: np.exp(u) - 1.0,
        fp=lambda u: np.exp(u),
        fpp=lambda u: np.exp(u),
        log_convex_from=0.0,
        label="shifted exp",
    )
    assert spec.label == "shifted exp"
    assert spec.f(1.0) == pytest.approx(math.e - 1.0)


def test_custom_family_overflow_ends_the_ladder():
    # f = e^u - 1 overflows past u = 709, where g = log f is inf and g' NaN:
    # the upward ladder must raise, not step on NaN, and the f'F limit at
    # u = 1000 is then left unset
    spec = custom(
        f=lambda u: np.exp(u) - 1.0,
        fp=lambda u: np.exp(u),
        fpp=lambda u: np.exp(u),
        log_convex_from=0.0,
        label="shifted exp",
    )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(NonIntegrableTail):
            eval_F_log(spec, 800.0)
        report = check_admissibility(spec, 3)
    assert report.limit_estimates["fprime_F"] == {"value": None,
                                                  "errbar": None}


# ---------------------------------------------------------------------------
# barrier integral F and its inverse
# ---------------------------------------------------------------------------

def test_barrier_integral_pure_power_closed_form():
    # F(u) = u^{1-p}/(p-1); for p=3, F(2) = 1/8
    spec = pure_power(3.0)
    assert eval_F(spec, 2.0) == pytest.approx(0.125, rel=1e-10)
    for u in (0.5, 1.0, 7.0):
        assert eval_F(spec, u) == pytest.approx(u ** -2 / 2.0, rel=1e-10)


def test_barrier_integral_cutoff_tail_closed_form():
    # above the plateau: F(u) = e^{-a u}/(20 a)
    spec = cutoff_exp(20.0)
    assert eval_F_log(spec, 5.0) == pytest.approx(
        -100.0 - math.log(400.0), rel=1e-12)


def test_barrier_integral_array_matches_scalar_and_closed_forms():
    u = np.geomspace(1e-3, 1e3, 61)

    def gelfand(log_exact_tail):
        # f = e^u with g = u written out, so F(u) = e^-u is computable
        # where e^u overflows
        return NonlinearitySpec(
            "gelfand", {}, np.exp, np.exp, np.exp, g=lambda v: v,
            gp=np.ones_like, gpp=np.zeros_like,
            tail=TailGrowth(log_convex_from=0.0,
                            log_exact_tail=log_exact_tail))

    closed = {
        "cubic": (pure_power(3.0), -2.0 * np.log(u) - math.log(2.0)),
        "gelfand": (gelfand(lambda M: -M), -u),
        # no exact tail: the ladder runs to depth 40 and ends on the
        # log-convex bound, which is exact for f = e^u
        "gelfand ladder": (gelfand(None), -u),
    }
    for name, (spec, want) in closed.items():
        got = eval_F_log(spec, u)
        assert isinstance(got, np.ndarray) and got.shape == u.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13,
                                   err_msg=name)
    plateau = u[u >= 4.0]
    np.testing.assert_allclose(
        eval_F_log(cutoff_exp(20.0), plateau),
        -20.0 * plateau - math.log(400.0), rtol=1e-13, atol=1e-13)
    # one request, each entry its own ladder: the same values as one call
    # per entry, with power-exp points far apart in g in the same request
    for name, v in (("power_exp", np.r_[u, 250.0, 500.0, 700.0, 1000.0]),
                    ("cutoff_exp", u)):
        batch = eval_F_log(FAMILIES[name], v)
        single = [eval_F_log(FAMILIES[name], float(x)) for x in v]
        assert all(isinstance(x, float) for x in single)
        np.testing.assert_allclose(batch, single, rtol=1e-15, atol=1e-15)


def test_barrier_integral_across_the_cutoff_joins():
    # just below the C^2 joins of chi at 1 and 3, where a Gauss-Legendre
    # segment straddles a jump of the third derivative of 1/f; reference
    # values from 40- and 50-digit mpmath quadrature split at the joins
    u = [0.9, 0.97, 0.99, 2.95, 2.99]
    ref = [-20.70480782309977454, -22.46280745931441017,
           -22.95965285127155147, -64.93887533727374048,
           -65.74870729019577771]
    np.testing.assert_allclose(eval_F_log(cutoff_exp(20.0), u), ref,
                               rtol=0.0, atol=2e-12)


def test_barrier_integral_decreasing():
    for spec in FAMILIES.values():
        u = np.geomspace(0.2, 30.0, 40)
        vals = [eval_F_log(spec, x) for x in u]
        assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_inverse_roundtrip(name):
    spec = FAMILIES[name]
    for u in np.geomspace(0.3, 25.0, 12):
        log_y = eval_F_log(spec, float(u))
        back = eval_F_inverse_log(spec, log_y)
        assert back == pytest.approx(float(u), rel=1e-8)


@pytest.mark.parametrize("make", [lambda: power_exp(5.0, 2.0),
                                  lambda: cutoff_exp(20.0)])
def test_inverse_bracket_memo_keeps_roots(make):
    # patch-seed targets log(r^2/2) plus a few away from the origin: the
    # roots do not depend on what the spec was asked before
    targets = [2.0 * math.log(r) - math.log(2.0)
               for r in np.geomspace(1e-6, 1e-3, 8)] + [-60.0, -2.0, 1.5]
    fresh = [eval_F_inverse_log(make(), t) for t in targets]
    warm = make()
    for t in np.linspace(-40.0, 2.0, 7):
        eval_F_inverse_log(warm, float(t))
    assert [eval_F_inverse_log(warm, t) for t in targets] == fresh


def test_log_F_table_is_history_independent():
    # a spec first asked high up (u = 1e3, log F = -60) gives the same bits
    # as a fresh one: every value depends on its own argument and the spec
    u = np.geomspace(0.05, 30.0, 17)
    targets = np.linspace(-45.0, 5.0, 11)

    def calls(spec):
        return (eval_F_log(spec, u), eval_F_log(spec, 2.5),
                eval_F_inverse_log(spec, targets),
                eval_F_inverse_log(spec, -20.0))

    for make in (lambda: power_exp(5.0, 2.0), lambda: cutoff_exp(20.0)):
        warm = make()
        eval_F_log(warm, 1e3)
        eval_F_inverse_log(warm, -60.0)
        for got, want in zip(calls(warm), calls(make())):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_inverse_cost_does_not_grow_with_height():
    # a power-exp F^-1 from a fresh spec evaluates g at about as many
    # points at u = 10, 1e2 and 1e3 (g grows by 1e6 over that range), and
    # each root comes back to its u
    points = []
    for u in (10.0, 1e2, 1e3):
        spec = power_exp(5.0, 2.0)
        log_y = eval_F_log(spec, u)
        counted = [0]

        def g(v, g=spec.g):
            counted[0] += np.size(v)
            return g(v)

        spec = dataclasses.replace(spec, g=g)
        assert eval_F_inverse_log(spec, log_y) == pytest.approx(u,
                                                                rel=1e-12)
        points.append(counted[0])
    assert max(points) <= 2 * min(points), points


def test_inverse_gelfand_closed_form():
    # f = e^u has F(u) = e^{-u}; F(0+) = 1, so targets log_y >= 0 have no
    # preimage u > 0
    spec = custom(np.exp, np.exp, np.exp, log_convex_from=0.0,
                  log_exact_tail=lambda M: -M)
    log_y = np.linspace(-60.0, 2.0, 200)
    inside = log_y < 0.0
    u = eval_F_inverse_log(spec, log_y[inside])
    np.testing.assert_allclose(u, -log_y[inside], rtol=0.0, atol=1e-12)
    with pytest.raises(OutOfRange):
        eval_F_inverse_log(spec, log_y)


@pytest.mark.parametrize("name", ["power_exp", "cutoff_exp"])
def test_inverse_array_matches_scalar(name):
    spec = FAMILIES[name]
    log_y = np.linspace(-45.0, -5.0, 33)
    batch = eval_F_inverse_log(spec, log_y)
    assert isinstance(batch, np.ndarray) and batch.shape == log_y.shape
    single = [eval_F_inverse_log(spec, float(t)) for t in log_y]
    assert all(isinstance(x, float) for x in single)
    # both read the spec's one table; the batched Gauss-Legendre segments
    # may round differently from single ones
    np.testing.assert_allclose(batch, single, rtol=1e-15, atol=0.0)


def test_barrier_integral_survives_overflowing_f():
    # f overflows in float64 far below u=500; the log-space path must not
    spec = power_exp(5.0, 2.0)
    val = eval_F_log(spec, 500.0)
    assert np.isfinite(val)
    assert val < -1e5   # e^{-250000} scale


def test_log_F_beyond_the_table_is_out_of_range():
    # power-exp at u = 5e7: a quarter unit of g is below the spacing of
    # doubles there; at 1e9, g(u) = 1e18 is past the pieces' index range
    spec = power_exp(5.0, 2.0)
    for u in (5e7, 1e9):
        with pytest.raises(OutOfRange):
            eval_F_log(spec, u)
    with pytest.raises(OutOfRange):
        eval_F_inverse_log(spec, -1e17)


def test_inverse_below_log_F_at_the_top_is_out_of_range():
    # the cubic's g(2^600) = 1247.7 lies below every level from m = 156 on:
    # those anchors are the top 2^LOG2_U_MAX itself, so a target below
    # log F(2^600) = -832.4 has no preimage (it was searched for forever)
    spec = pure_power(3.0)
    assert spec.log_F_table.anchor(200) == 2.0 ** nonlinearity.LOG2_U_MAX
    with pytest.raises(OutOfRange):
        eval_F_inverse_log(spec, -835.0)
    # above it, F = u^-2 / 2 inverts in closed form
    assert eval_F_inverse_log(spec, -830.0) == pytest.approx(
        math.exp(0.5 * (830.0 - math.log(2.0))), rel=1e-12)


# ---------------------------------------------------------------------------
# scalar limit diagnostics
# ---------------------------------------------------------------------------

def test_fprime_F_exactly_one_on_cutoff_plateau():
    spec = cutoff_exp(20.0)
    for _, v in check_fprime_F_limit(spec, [4.0, 10.0, 40.0]):
        assert v == pytest.approx(1.0, abs=1e-12)
    assert check_fprime_F_limit(spec, []) == []
    assert eval_F_log(spec, np.array([])).shape == (0,)


def test_fprime_F_approaches_one_for_power_exp():
    spec = power_exp(5.0, 2.0)
    vals = [v for _, v in check_fprime_F_limit(spec, [10.0, 100.0, 1000.0])]
    errs = np.abs(np.array(vals) - 1.0)
    assert np.all(np.diff(errs) < 0)
    assert errs[-1] < 1e-4


def test_fprime_F_constant_for_pure_power():
    # f'F = p/(p-1) identically: 3/2 for p=3, 2 for p=2
    for p, want in ((3.0, 1.5), (2.0, 2.0)):
        for _, v in check_fprime_F_limit(pure_power(p), [1.0, 10.0, 100.0]):
            assert v == pytest.approx(want, rel=1e-10)


def test_log_convexity_ratio_values():
    # the ratio g''/g'^2 that condition A3 takes from the evaluators:
    # for u^p e^{u^q} it is (q(q-1)u^q - p)/(q u^q + p)^2
    spec = power_exp(5.0, 2.0)
    assert spec.gpp(10.0) / spec.gp(10.0) ** 2 == pytest.approx(
        195.0 / 42025.0, rel=1e-12)
    # for u^p: ratio is -1/p identically
    cubic = pure_power(3.0)
    assert cubic.gpp(7.0) / cubic.gp(7.0) ** 2 == pytest.approx(
        -1.0 / 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# antiderivative of f (condition A4)
# ---------------------------------------------------------------------------

#: f = e^u with g = u written out, so that the ladder reaches u = 1e3
GELFAND_G = NonlinearitySpec("gelfand", {}, np.exp, np.exp, np.exp,
                             g=lambda v: v, gp=np.ones_like,
                             gpp=np.zeros_like,
                             tail=TailGrowth(log_convex_from=0.0))


@pytest.mark.parametrize("spec", [power_exp(5.0, 2.0), cutoff_exp(20.0),
                                  pure_power(3.0), GELFAND_G],
                         ids=lambda spec: spec.family)
def test_antiderivative_sweep_matches_single_ladders(spec):
    # condition A4's 80 points in one cumulative sweep (each entry a ladder
    # down to the previous point) against one ladder to 0 per point, and
    # at most half the segments of those 80 ladders
    u = np.geomspace(1e-6, 1e3, 80)
    g, ratio = nonlinearity._scaled_antiderivative(spec, u)
    single = [nonlinearity._scaled_antiderivative(spec, np.array([x]))
              for x in u]
    np.testing.assert_array_equal(g, [s[0][0] for s in single])
    np.testing.assert_allclose(ratio, [s[1][0] for s in single],
                               rtol=2e-15, atol=0.0)
    swept = nonlinearity._ladder(spec, u, 1.0, np.r_[0.0, u[:-1]])[0].size
    apart = nonlinearity._ladder(spec, u, 1.0)[0].size
    assert swept <= 0.5 * apart, (swept, apart)


def test_antiderivative_references():
    # integral_0^u f / f(u) from 50-digit mpmath quadrature split at the
    # cutoff's joins, on points straddling each join, in one sweep
    u = [0.99, 1.01, 2.99, 3.01, 3.99, 4.01]
    ref = [0.039575085327088573398, 0.03974549456376412396,
           0.049203862897601128945, 0.049253367137865723142,
           0.049999885493844877661, 0.04999992324405549772]
    _, ratio = nonlinearity._scaled_antiderivative(cutoff_exp(20.0),
                                                   np.array(u))
    np.testing.assert_allclose(ratio, ref, rtol=2e-14, atol=0.0)
    # power-exp(5, 2) at u = 1e3, the top of A4's sweep: the integral of
    # s^5 e^(s^2) is e^(s^2) (s^4 - 2 s^2 + 2)/2, so the ratio is
    # (1 - 2/u^2 + 2/u^4)/(2u) - e^(-u^2)/u^5 = 4.99999000001e-4.  g is
    # near 1e6 there and rounded to 1.2e-10 absolute, which every node's
    # e^(g(s) - g(u)) carries: the tolerance is that, averaged
    _, ratio = nonlinearity._scaled_antiderivative(
        power_exp(5.0, 2.0), np.geomspace(1e-6, 1e3, 80))
    assert ratio[-1] == pytest.approx(4.99999000001e-4, rel=2e-11)


def test_antiderivative_sweep_needs_ascending_points():
    for u in ([1.0, 0.5], [1.0, 1.0], [0.1, 2.0, 1.5]):
        with pytest.raises(ValueError, match="ascending"):
            nonlinearity._scaled_antiderivative(power_exp(5.0, 2.0),
                                                np.array(u))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_sobolev_exponent():
    assert sobolev_exponent(3) == pytest.approx(5.0)
    assert sobolev_exponent(5) == pytest.approx(7.0 / 3.0)
    with pytest.raises(ValueError):
        sobolev_exponent(2)


def test_admissibility_exponential_families_all_pass():
    for spec in (power_exp(5.0, 2.0), cutoff_exp(20.0)):
        report = check_admissibility(spec, dim=3)
        assert report.all_pass, report.to_dict()
        fpF = report.limit_estimates["fprime_F"]["value"]
        assert fpF == pytest.approx(1.0, abs=1e-3)


def test_admissibility_subcritical_power_fails_deficit():
    # p=2 < p_S=5 in three dimensions: Q/(u f) = 1 - (p_S+1)/(p+1) = -1
    report = check_admissibility(pure_power(2.0), dim=3)
    assert not report.conditions["A4"].passed
    assert not report.conditions["A3"].passed  # -1/p does not vanish
    assert report.conditions["A1"].passed
    assert report.conditions["A2"].passed


def test_admissibility_supercritical_power_passes_deficit():
    # p=3 > p_S=7/3 in five dimensions: deficit = 1 - (10/3)/4 = 1/6 > 0
    report = check_admissibility(pure_power(3.0), dim=5)
    assert report.conditions["A4"].passed
    assert not report.conditions["A3"].passed


def test_admissibility_report_serializes():
    report = check_admissibility(power_exp(5.0, 2.0), dim=3)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["all_pass"] is True
    names = {c["condition"] for c in doc["conditions"]}
    assert names == {"A1", "A2", "A3", "A4"}


def test_inverse_seeds_its_piece_from_the_exact_tail(monkeypatch):
    # the cubic's log F = -log 2 - (2/3) g falls 2/3 of a unit per unit of
    # g, so floor(-t / TABLE_PIECE) starts 49 pieces low at log y = -800
    # (and laid 51 pieces); the exact tail's tangent lands on the root's
    # piece, and the root keeps its bits
    spec = pure_power(3.0)
    assert eval_F_inverse_log(spec, -800.0) == 3.6921366253923445e+173
    assert len(spec.log_F_table.pieces) <= 11
    # the first guess changes which pieces are laid, never a root
    targets = np.array([-830.0, -300.0, -100.0, -20.0, -5.0, 3.0])
    for make in (lambda: pure_power(3.0), lambda: pure_power(7.0),
                 lambda: cutoff_exp(20.0)):
        seeded = [eval_F_inverse_log(make(), t) for t in targets]
        with monkeypatch.context() as m:
            m.setattr(nonlinearity.LogFTable, "_first_guess",
                      lambda self, t: np.floor(-t / nonlinearity.TABLE_PIECE))
            stepped = [eval_F_inverse_log(make(), t) for t in targets]
        assert seeded == stepped
