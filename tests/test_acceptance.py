"""End-to-end acceptance checks.

Each test verifies one headline capability at desk scale and prints a
single pass/fail line with its runtime.  Run with `-s` (or read captured
output) to see the lines.
"""

import math
import time

import numpy as np
import pytest

from heatlab.evolution import (
    BoundaryCondition,
    RadialField,
    field_from_table,
    make_grid,
    ul_norm,
)
from heatlab.iteration import LadderSeed, fixed_point_residual, run_ladder
from heatlab.nonlinearity import (
    check_admissibility,
    check_fprime_F_limit,
    cutoff_exp,
    eval_F,
    power_exp,
    pure_power,
    sobolev_exponent,
)
from heatlab.singular_ode import (
    asymptotic_ratio,
    build_singular,
    trace_pohozaev,
    verify_flux_identity,
)
from heatlab.threshold import RadialBump, threshold_scan

POWER_EXP = power_exp(5.0, 2.0)
CUTOFF = cutoff_exp(20.0)
CUBIC = pure_power(3.0)


@pytest.fixture(scope="module")
def cubic_table():
    return build_singular(CUBIC, 5)


@pytest.fixture(scope="module")
def power_exp_table():
    return build_singular(POWER_EXP, 3)


@pytest.fixture(scope="module")
def cutoff_table():
    return build_singular(CUTOFF, 3)


def _report(num: int, ok: bool, limit: float, elapsed: float, detail: str):
    verdict = "PASS" if (ok and elapsed < limit) else "FAIL"
    print(f"criterion {num:02d}: {verdict} ({elapsed:.1f}s) {detail}")
    assert ok, detail
    assert elapsed < limit, f"runtime {elapsed:.1f}s over {limit:.0f}s budget"


def test_criterion_01_closed_form_profile():
    t0 = time.perf_counter()
    table = build_singular(CUBIC, 5)
    r = np.geomspace(1e-2, 1.0, 200)
    u = np.asarray(table.u_star(r, CUBIC))
    err = float(np.abs(u * r / math.sqrt(2.0) - 1.0).max())
    _report(1, err <= 1e-3, 5.0, time.perf_counter() - t0,
            f"max rel error vs sqrt(2)/r: {err:.2e}")


def test_criterion_02_asymptotic_ratio_tightens():
    t0 = time.perf_counter()
    devs = []
    for r_patch in (1e-3, 1e-4):
        table = build_singular(POWER_EXP, 3, r_patch=r_patch)
        ratio = asymptotic_ratio(table)[:, 1]
        devs.append(float(np.abs(ratio - 1.0).max()))
    in_band = devs[0] <= 0.05 and devs[1] <= 0.05
    _report(2, in_band and devs[1] < devs[0], 30.0,
            time.perf_counter() - t0,
            f"max |ratio-1| on smallest decade: {devs[0]:.2e} -> "
            f"{devs[1]:.2e} under patch refinement")


def test_criterion_03_barrier_product_limit():
    t0 = time.perf_counter()
    prods = {}
    for name, spec in (("power_exp", POWER_EXP), ("cutoff", CUTOFF)):
        prods[name] = check_fprime_F_limit(spec, [700.0])[0][1]
    in_band = all(0.99 <= v <= 1.01 for v in prods.values())
    exact = max(abs(v - 1.0) for _, v in
                check_fprime_F_limit(CUTOFF, [4.0, 10.0, 20.0, 30.0]))
    _report(3, in_band and exact <= 1e-12, 5.0, time.perf_counter() - t0,
            f"f'F at u=700: {prods['power_exp']:.4f}, "
            f"{prods['cutoff']:.4f}; cutoff deviation on u>=4: {exact:.1e}")


def test_criterion_04_admissibility_suite():
    t0 = time.perf_counter()
    ok_pe = check_admissibility(POWER_EXP, 3).all_pass
    ok_co = check_admissibility(CUTOFF, 3).all_pass
    sub = check_admissibility(pure_power(2.0), 3)   # p < p_S = 5
    a4_fails = not sub.conditions["A4"].passed
    _report(4, ok_pe and ok_co and a4_fails, 5.0,
            time.perf_counter() - t0,
            f"examples pass: {ok_pe}, {ok_co}; subcritical A4 verdict: "
            f"{sub.conditions['A4'].verdict}")


def test_criterion_05_flux_identity(power_exp_table, cutoff_table):
    t0 = time.perf_counter()
    res = {
        "power_exp": verify_flux_identity(power_exp_table),
        "cutoff": verify_flux_identity(cutoff_table),
    }
    worst = max(res.values())
    _report(5, worst <= 1e-4, 10.0, time.perf_counter() - t0,
            f"max relative flux residual: {worst:.2e}")


def test_criterion_06_pohozaev(power_exp_table):
    t0 = time.perf_counter()
    slope = trace_pohozaev(power_exp_table).max_fd_slope
    p_s = sobolev_exponent(5)
    crit_table = build_singular(pure_power(p_s), 5, n_points=150,
                                rtol=1e-12, atol=1e-14)
    trace = trace_pohozaev(crit_table)
    spread = float(np.abs(trace.P - trace.P[-1]).max())
    _report(6, slope <= 1e-10 and spread <= 1e-7,
            5.0, time.perf_counter() - t0,
            f"max fd slope: {slope:.2e}; critical-power P spread: "
            f"{spread:.2e} about {trace.P[-1]:.6f}")


def test_criterion_07_sandwich(cubic_table):
    t0 = time.perf_counter()
    bc = BoundaryCondition("dirichlet", float(cubic_table.u_star(8.0)))
    grid = make_grid(5, 8.0, 64, bc=bc)
    envelope = field_from_table(cubic_table, grid, cap=2.0, spec=CUBIC)
    u0 = RadialField(grid, 0.9 * envelope.u, envelope.cap_mask.copy())
    below = run_ladder("from_below", u0, CUBIC, 0.01, k_max=6,
                       ladder_tol=0.0)
    above = run_ladder(LadderSeed.from_above(envelope), u0, CUBIC, 0.01,
                       k_max=6, ladder_tol=0.0)
    cross = max(float((below.trajectories[k].values
                       - above.trajectories[k].values).max())
                for k in range(7))
    worst = max(below.ordering_violation_max, above.ordering_violation_max,
                cross)
    _report(7, worst <= 1e-8, 60.0, time.perf_counter() - t0,
            f"worst ordering violation across both chains: {worst:.2e}")


def test_criterion_08_stationarity_fixed_point(cubic_table):
    t0 = time.perf_counter()
    bc = BoundaryCondition("dirichlet", float(cubic_table.u_star(8.0)))
    coarse = make_grid(5, 8.0, 65, bc=bc)
    grids = (coarse, coarse.refined())
    res = [fixed_point_residual(
        field_from_table(cubic_table, g, cap=50.0, spec=CUBIC),
        CUBIC, 0.01) for g in grids]
    ratio = res[0] / res[1]
    _report(8, res[1] <= 1e-2 and ratio >= 1.5, 60.0,
            time.perf_counter() - t0,
            f"defect {res[0]:.2e} -> {res[1]:.2e} under 2x refinement "
            f"(ratio {ratio:.1f})")


def test_criterion_09_threshold_dichotomy(cubic_table):
    t0 = time.perf_counter()
    ustar2 = float(cubic_table.u_star(2.0, CUBIC))
    A_grid = [fa * ustar2 for fa in (-0.3, -0.1, 0.1, 0.3)]
    bump = RadialBump(2.0, 2.0, 0.0)
    want = ["GlobalBounded", "GlobalBounded", "BlowUp", "BlowUp"]
    results = {}
    for n in (129, 257):
        rep = threshold_scan(CUBIC, cubic_table, bump, A_grid,
                             horizon=2.0, caps=(1e4, 1e5), n_nodes=n)
        results[n] = (rep.classifications(),
                      all(rep.cases[a].cap_stable for a in rep.amplitudes))
    ok = all(cls == want and stable for cls, stable in results.values())
    _report(9, ok, 600.0, time.perf_counter() - t0,
            f"classifications {results[129][0]}, cap-stable and identical "
            f"at 2x refinement")


def test_criterion_10_reaction_disabled_control(cubic_table):
    t0 = time.perf_counter()
    ustar2 = float(cubic_table.u_star(2.0, CUBIC))
    A_grid = [fa * ustar2 for fa in (-0.3, -0.1, 0.1, 0.3)]
    rep = threshold_scan(None, cubic_table, RadialBump(2.0, 2.0, 0.0),
                         A_grid, horizon=0.5, caps=(1e4, 1e5))
    cls = rep.classifications()
    _report(10, cls == ["GlobalBounded"] * 4, 60.0,
            time.perf_counter() - t0, f"classifications: {cls}")


def test_criterion_11_uniformly_local_norms(cubic_table):
    t0 = time.perf_counter()
    g3 = make_grid(3, 12.0, 257)
    ones = RadialField(g3, np.ones(g3.n_nodes))
    err_unit = abs(ul_norm(ones, 1.0).norm / (4.0 * math.pi / 3.0) - 1.0)

    g5 = make_grid(5, 8.0, 257)
    l1 = {}
    l5 = {}
    for cap in (1e2, 1e3, 1e4):
        fld = field_from_table(cubic_table, g5, cap=cap, spec=CUBIC)
        l1[cap] = ul_norm(fld, 1.0).norm
        l5[cap] = ul_norm(fld, 5.0).norm
    l1_drift = abs(l1[1e4] / l1[1e3] - 1.0)
    l5_growth = min(l5[1e3] / l5[1e2], l5[1e4] / l5[1e3])
    ok = err_unit <= 1e-6 and l1_drift <= 0.01 and l5_growth > 1.2
    _report(11, ok, 60.0, time.perf_counter() - t0,
            f"unit-window error {err_unit:.1e}; L1 drift per cap decade "
            f"{l1_drift:.1e}; L5 growth factor per decade {l5_growth:.2f}")
