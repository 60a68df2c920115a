"""Tests for the singular stationary profile: construction, conservation
identities, energy monotonicity and growth envelopes."""

import csv
import json
import math

import numpy as np
import pytest

from heatlab.nonlinearity import (
    custom,
    cutoff_exp,
    eval_F_log,
    power_exp,
    pure_power,
    sobolev_exponent,
)
from heatlab.singular_ode import (
    asymptotic_ratio,
    build_singular,
    integrate_regular,
    ode_residual,
    patch_seed,
    pure_power_profile_coefficient,
    trace_pohozaev,
    verify_flux_identity,
    verify_growth_bounds,
)

POWER_EXP = power_exp(5.0, 2.0)
CUTOFF = cutoff_exp(20.0)
CUBIC = pure_power(3.0)
# Gelfand nonlinearity f = e^u: outside the exponential class (f(0) = 1),
# but u* = log(2(N-2)) - 2 log r and F(u*) = r^2/(2N-4) hold exactly
GELFAND = custom(np.exp, np.exp, np.exp, log_convex_from=0.0,
                 log_exact_tail=lambda M: -M)


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
    r = np.geomspace(1e-9, 0.999 * tab.r_patch, 200)
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
    finer = build_singular(POWER_EXP, 3, r_patch=1e-4,
                           check_patch=False, cross_check=False)
    dev = np.abs(series[:, 1] - 1.0).max()
    dev_fine = np.abs(asymptotic_ratio(finer, POWER_EXP)[:, 1] - 1.0).max()
    assert dev_fine < dev


def test_stationary_residual_small(table_power_exp, table_cutoff):
    assert ode_residual(table_power_exp, POWER_EXP, 3, 0.5, 5.0) <= 1e-6
    assert ode_residual(table_cutoff, CUTOFF, 3, 0.5, 5.0) <= 1e-6


def test_invalid_patch_radius_rejected():
    with pytest.raises(ValueError):
        build_singular(CUBIC, 5, r_patch=20.0, R_max=10.0)


def test_patch_seed_derivative_consistent():
    # u' = -r f(u)/(N-2) up to the second-order factor
    u, du = patch_seed(POWER_EXP, 3, 1e-3)
    plain = -1e-3 * float(POWER_EXP.f(u))
    assert du == pytest.approx(plain, rel=0.1)
    assert du < 0


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
    # the dense output (patch formula), on the dense output below r_patch
    # and on the main table
    r_lo = table_cubic.dense.t_min
    r = np.concatenate([np.geomspace(1e-8, 0.5 * r_lo, 20),
                        np.geomspace(r_lo, 0.9 * table_cubic.r[0], 20),
                        np.geomspace(table_cubic.r[0], 5.0, 20)])
    assert r[0] < r_lo <= r[20] and r[39] < table_cubic.r[0] <= r[40]
    du = np.asarray(table_cubic.du_star(r))
    assert np.abs(-du * r ** 2 / math.sqrt(2.0) - 1.0).max() <= 1e-6


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
                         rtol=1e-12, atol=1e-14,
                         check_patch=False, cross_check=False)
    trace = trace_pohozaev(tab, pure_power(p_s))
    assert np.allclose(trace.P, -243.0 / 160.0, atol=1e-7)
    assert np.abs(trace.fd_slopes()).max() <= 1e-10


def test_pohozaev_vanishes_at_shrinking_patch():
    vals = []
    for rp in (1e-2, 1e-3, 1e-4):
        tab = build_singular(POWER_EXP, 3, r_patch=rp,
                             check_patch=False, cross_check=False)
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


def test_shots_bracket_singular_value(table_cubic):
    # convergence to u*(0.5) is oscillatory at this dimension: successive
    # center heights land on alternating sides, and the envelope shrinks
    target = float(table_cubic.u_star(0.5))
    vals = np.array([integrate_regular(CUBIC, 5, a, 10.0).value_at(0.5)
                     for a in (10.0, 20.0, 40.0, 80.0)])
    assert vals.min() < target < vals.max()
    assert abs(vals[-1] - target) / target < 0.05
    assert np.abs(vals - target).max() / target < 0.15


# ---------------------------------------------------------------------------
# growth envelopes near the origin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.1, 0.3])
def test_envelopes_hold_for_exponential_families(table_power_exp,
                                                 table_cutoff, delta):
    for tab, spec in ((table_power_exp, POWER_EXP), (table_cutoff, CUTOFF)):
        report = verify_growth_bounds(tab, spec, delta)
        assert report.all_hold, report.entries


def test_log_growth_slower_than_any_power(table_power_exp):
    report = verify_growth_bounds(table_power_exp, POWER_EXP, 0.1)
    assert report.entries["value_envelope"]["slope_within_2delta"]


def test_shift_contraction_exact_on_plateau():
    # f(u - delta)/f(u) = e^{-a delta} wherever the shape function has
    # saturated on both arguments
    u = np.linspace(4.1, 30.0, 40)
    ratio = np.asarray(CUTOFF.f(u - 0.1)) / np.asarray(CUTOFF.f(u))
    assert np.allclose(ratio, math.exp(-2.0), rtol=1e-12)


def test_power_law_profile_fails_log_growth_check(table_cubic):
    # the cubic profile decays like 1/r, so the log-type value envelope
    # with small delta must be reported as violated
    report = verify_growth_bounds(table_cubic, CUBIC, 0.3)
    assert not report.entries["value_envelope"]["slope_within_2delta"]


def test_delta_range_validated(table_power_exp):
    with pytest.raises(ValueError):
        verify_growth_bounds(table_power_exp, POWER_EXP, 0.9)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_table_roundtrips_through_csv(tmp_path, table_power_exp):
    path = tmp_path / "profile.csv"
    table_power_exp.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "u_star", "du_star"]
    data = np.array(rows[1:], dtype=float)
    assert np.array_equal(data[:, 0], table_power_exp.r)
    assert np.array_equal(data[:, 1], table_power_exp.u)
    assert np.array_equal(data[:, 2], table_power_exp.du)


def test_sidecar_metadata(tmp_path, table_power_exp):
    path = tmp_path / "profile.json"
    table_power_exp.write_sidecar(path)
    doc = json.loads(path.read_text())
    assert doc["N"] == 3
    assert doc["r_patch"] == table_power_exp.r_patch
    assert doc["R_max"] == table_power_exp.R_max
    assert doc["spec_descriptor"]["family"] == "power_exp"
    assert "rtol" in doc["tolerances"]
