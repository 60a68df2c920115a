"""Tests for perturbed-profile evolution experiments and the sign scan."""

import json

import numpy as np
import pytest

from heatlab.cli import Artifacts
from heatlab.errors import NonMonotoneScan, OutOfRange
from heatlab.nonlinearity import power_exp, pure_power
from heatlab.singular_ode import build_singular
from heatlab.threshold import (
    CaseReport,
    EvolutionOutcome,
    RadialBump,
    ScanReport,
    Truncation,
    _check_monotone,
    case_grid,
    initial_data,
    run_case,
    threshold_scan,
)

CUBIC = pure_power(3.0)


@pytest.fixture(scope="module")
def table():
    return build_singular(CUBIC, 5)


@pytest.fixture(scope="module")
def ustar2(table):
    return float(table.u_star(2.0, CUBIC))


@pytest.fixture(scope="module")
def dichotomy_pair(table, ustar2):
    """One below and one above case at the strong amplitude."""
    below = run_case(CUBIC, table, RadialBump(2.0, 2.0, -0.3 * ustar2),
                     caps=(1e4,), horizon=0.5)
    above = run_case(CUBIC, table, RadialBump(2.0, 2.0, +0.3 * ustar2),
                     caps=(1e4,), horizon=0.5)
    return below, above


# ---------------------------------------------------------------------------
# perturbations and initial data
# ---------------------------------------------------------------------------

def test_perturbation_validation():
    with pytest.raises(ValueError):
        RadialBump(2.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        RadialBump(-1.0, 0.3, 0.1)
    with pytest.raises(ValueError):
        Truncation(-5.0)


def test_initial_data_one_sided(table, ustar2):
    g = case_grid(table, 1e4, 5, 8.0, 129, CUBIC)
    star = np.asarray(table.u_star(g.r[1:], CUBIC))

    below, side = initial_data(table, g, RadialBump(2.0, 2.0, -0.3 * ustar2),
                               1e4, CUBIC)
    assert side == "below"
    assert np.all(below.u >= 0.0)
    assert np.all(below.u[1:] <= star * (1 + 1e-12))

    above, side = initial_data(table, g, RadialBump(2.0, 2.0, +0.3 * ustar2),
                               1e4, CUBIC)
    assert side == "above"
    assert np.all(above.u[1:] >= np.minimum(star, 1e4) * (1 - 1e-12))

    trunc, side = initial_data(table, g, Truncation(1e4), 1e4, CUBIC)
    assert side == "below"
    assert trunc.cap_mask[0]
    assert np.all(trunc.u <= 1e4)

    # a neutral bump is the capped profile itself, handled as below
    neutral, side = initial_data(table, g, RadialBump(2.0, 2.0, 0.0),
                                 1e4, CUBIC)
    assert side == "below"
    assert np.array_equal(neutral.u, np.minimum(
        np.concatenate([[np.inf], star]), 1e4))


def test_case_grid_resolves_capped_zone(table):
    # the first positive node must sit inside the region where the profile
    # exceeds the cap, otherwise the cap acts as a wide reacting plateau
    for cap in (1e4, 1e5):
        g = case_grid(table, cap, 5, 8.0, 129, CUBIC)
        r1 = g.r[1]
        assert float(table.u_star(r1, CUBIC)) > cap
        assert g.bc.kind == "dirichlet"


def test_case_grid_rejects_unreachable_cap():
    # u* of power_exp grows like sqrt(2 log 1/r): 6.6 at r = 1e-12
    spec = power_exp(5.0, 2.0)
    tab = build_singular(spec, 3)
    with pytest.raises(OutOfRange, match=r"cap 10000 .* u\*\(1e-12\) = 6\.6"):
        case_grid(tab, 1e4, 3, 8.0, 129, spec)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_sign_dichotomy(dichotomy_pair, ustar2):
    below, above = dichotomy_pair
    assert below.classification == "GlobalBounded"
    assert below.t_detect is None
    assert above.classification == "BlowUp"
    assert above.t_detect is not None and above.t_detect < 0.5
    # divergence guards were actually hit
    o = above.finest
    assert o.sup_final > 1e8
    assert o.mass_final > 1e6 * max(o.mass_series[0], 1e-300)


def test_below_stays_one_sided(dichotomy_pair):
    # the deficit side never overtakes the stationary profile beyond
    # grid-truncation noise
    below, _ = dichotomy_pair
    assert below.finest.one_sided_excess <= 5e-3


def test_truncation_alone_is_global(table):
    rep = run_case(CUBIC, table, Truncation(1e4), caps=(1e4, 1e5),
                   horizon=0.5)
    assert rep.classification == "GlobalBounded"
    assert rep.cap_stable
    assert rep.t_detect is None
    for o in rep.outcomes.values():
        tail = o.sup_series[o.times >= 0.25]
        assert tail[-1] <= tail[0] * 1.02


def test_blowup_time_monotone_in_amplitude(table, ustar2):
    t_det = {}
    for fa in (0.1, 0.3):
        rep = run_case(CUBIC, table, RadialBump(2.0, 2.0, fa * ustar2),
                       caps=(1e4,), horizon=2.0)
        assert rep.classification == "BlowUp"
        t_det[fa] = rep.t_detect
    assert t_det[0.3] < t_det[0.1]


def test_reaction_disabled_always_global(table, ustar2):
    for fa in (-0.1, +0.3):
        rep = run_case(None, table, RadialBump(2.0, 2.0, fa * ustar2),
                       caps=(1e4, 1e5), horizon=0.5)
        assert rep.classification == "GlobalBounded"
        assert rep.cap_stable


# ---------------------------------------------------------------------------
# instability mechanism
# ---------------------------------------------------------------------------

def test_probe_tracks_mechanism(dichotomy_pair, table):
    # the largest alpha with u >= alpha u* on 0.3 <= r <= 1 ratchets upward
    # in a diverging run and keeps falling in a decaying one
    def alpha_series(outcome):
        grid = outcome.snapshots[0][1].grid
        sel = (grid.r >= 0.3) & (grid.r <= 1.0)
        star = np.asarray(table.u_star(grid.r[sel], CUBIC))
        return np.array([(fld.u[sel] / star).min()
                         for _, fld in outcome.snapshots])

    below, above = dichotomy_pair
    al_above = alpha_series(above.finest)
    assert np.all(np.diff(al_above) >= -5e-3)      # ratchets upward
    assert al_above[-1] == al_above.max() > 1.1
    al_below = alpha_series(below.finest)
    tail = al_below[len(al_below) // 2:]
    assert np.all(np.diff(tail) <= 1e-9)           # keeps falling
    assert tail[-1] < 1.0


# ---------------------------------------------------------------------------
# scan assembly and reporting
# ---------------------------------------------------------------------------

def test_monotone_classification_check():
    amps = np.array([-0.3, -0.1, 0.1, 0.3])
    _check_monotone(amps, ["GlobalBounded", "GlobalBounded",
                           "BlowUp", "BlowUp"])
    _check_monotone(amps, ["GlobalBounded", "Undetermined",
                           "BlowUp", "BlowUp"])
    _check_monotone(amps, ["GlobalBounded"] * 4)
    _check_monotone(amps, ["BlowUp"] * 4)
    with pytest.raises(NonMonotoneScan):
        _check_monotone(amps, ["GlobalBounded", "BlowUp",
                               "GlobalBounded", "BlowUp"])
    with pytest.raises(NonMonotoneScan):
        _check_monotone(amps, ["Undetermined", "GlobalBounded",
                               "Undetermined", "BlowUp"])


def test_repeated_cap_or_amplitude_is_rejected_before_any_grid(
        table, monkeypatch):
    # a repeated cap used to run once while the config listed it twice,
    # and a repeated amplitude ran its case twice
    def no_grid(*args, **kwargs):
        raise AssertionError("a case grid was built")

    monkeypatch.setattr("heatlab.threshold.case_grid", no_grid)
    bump = RadialBump(2.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="caps must not repeat"):
        threshold_scan(CUBIC, table, bump, [-1.0, 1.0], caps=(1e4, 1e4))
    with pytest.raises(ValueError, match="amplitudes must not repeat"):
        threshold_scan(CUBIC, table, bump, [1.0, 1.0], caps=(1e4,))
    with pytest.raises(ValueError, match="caps must not repeat"):
        run_case(CUBIC, table, bump, caps=(1e4, 1e5, 1e4))


def _fake_outcome(cls, cap, t_detect=None):
    t = np.array([0.0, 0.5])
    return EvolutionOutcome(classification=cls, cap=cap, t_detect=t_detect,
                            times=t, sup_series=np.array([3.0, 2.0]),
                            l1ul_series=np.array([1.0, 0.9]),
                            mass_series=np.array([0.1, 0.05]))


def test_scan_report_serialization(tmp_path):
    amps = np.array([-0.1, 0.1])
    cases = {
        -0.1: CaseReport({1e4: _fake_outcome("GlobalBounded", 1e4)},
                         "GlobalBounded", True, None),
        0.1: CaseReport({1e4: _fake_outcome("BlowUp", 1e4, 0.25)},
                        "BlowUp", True, 0.25),
    }
    rep = ScanReport(amps, cases, {"horizon": 0.5, "caps": [1e4]})
    out = Artifacts(tmp_path)
    # the header `heatlab scan` writes to scan.csv
    out.write_csv("scan.csv", ("amplitude", "classification", "t_detect",
                               "cap", "sup_final", "reaction_mass_final"),
                  rep.rows())
    out.commit()
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == ("amplitude,classification,t_detect,cap,"
                        "sup_final,reaction_mass_final")
    assert len(lines) == 3
    assert "BlowUp" in lines[2]
    # no detection time is written as nan
    assert lines[1].split(",")[:3] == ["-0.10000000000000001",
                                       "GlobalBounded", "nan"]

    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["config"]["horizon"] == 0.5
    assert doc["classifications"] == ["GlobalBounded", "BlowUp"]
    assert doc["t_detect"] == [None, 0.25]
    # the caller may extend the dict's config without touching the report's
    fresh = rep.to_dict()
    fresh["config"]["run"] = {"family": "pure-power"}
    assert rep.config == {"horizon": 0.5, "caps": [1e4]}
