"""Tests for perturbed-profile evolution experiments and the sign scan."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from heatlab.cli import Artifacts
from heatlab.errors import OutOfRange
from heatlab.evolution import (
    RadialField,
    _ul_windows,
    make_grid,
    sphere_area,
    ul_norm,
)
from heatlab.nonlinearity import power_exp, pure_power
from heatlab.singular_ode import build_singular
from heatlab.threshold import (
    MASS_GUARD,
    N_SAMPLES,
    SUP_GUARD,
    CaseReport,
    EvolutionOutcome,
    RadialBump,
    ScanReport,
    _cap_radius,
    _Run,
    case_grid,
    initial_data,
    threshold_scan,
)

CUBIC = pure_power(3.0)
PE = power_exp(5.0, 2.0)


@pytest.fixture(scope="module")
def table():
    return build_singular(CUBIC, 5)


@pytest.fixture(scope="module")
def table_pe():
    return build_singular(PE, 3)


@pytest.fixture(scope="module")
def ustar2(table):
    return float(table.u_star(2.0, CUBIC))


@pytest.fixture(scope="module")
def dichotomy_pair(table, ustar2):
    """One below and one above case at the strong amplitude."""
    scan = threshold_scan(CUBIC, table, RadialBump(2.0, 2.0, 0.0),
                          [-0.3 * ustar2, +0.3 * ustar2], caps=(1e4,),
                          horizon=0.5)
    below, above = (scan.cases[a] for a in scan.amplitudes)
    return below, above


@pytest.fixture(scope="module")
def capped_case(table):
    """The capped profile itself (A = 0) at two caps."""
    scan = threshold_scan(CUBIC, table, RadialBump(2.0, 2.0, 0.0), [0.0],
                          caps=(1e4, 1e5), horizon=0.5)
    return scan.cases[0.0]


# ---------------------------------------------------------------------------
# perturbations and initial data
# ---------------------------------------------------------------------------

def test_perturbation_validation():
    with pytest.raises(ValueError):
        RadialBump(2.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        RadialBump(-1.0, 0.3, 0.1)


def test_initial_data_one_sided(table, ustar2, dichotomy_pair, capped_case):
    # exact ordering, with no slack: initial_data has no one-sided clip, so
    # the rounding of min(u*, cap) + bump alone must keep each side
    g = case_grid(table, 1e4, 8.0, 129)
    star = np.asarray(table.u_star(g.r[1:], CUBIC))
    on_nodes = np.concatenate([[np.inf], star])

    below = initial_data(g, on_nodes, RadialBump(2.0, 2.0, -0.3 * ustar2),
                         1e4)
    assert np.all(below.u >= 0.0)
    assert np.all(below.u[1:] <= star)

    above = initial_data(g, on_nodes, RadialBump(2.0, 2.0, +0.3 * ustar2),
                         1e4)
    assert np.all(above.u[1:] >= np.minimum(star, 1e4))

    # a zero bump is the capped profile itself, clipped at the origin
    capped = initial_data(g, on_nodes, RadialBump(2.0, 2.0, 0.0), 1e4)
    assert capped.cap_mask[0]
    assert np.all(capped.u <= 1e4)
    assert np.array_equal(capped.u, np.minimum(
        np.concatenate([[np.inf], star]), 1e4))

    # the side of a run follows the sign of its amplitude; A = 0 is below
    below_case, above_case = dichotomy_pair
    assert {o.side for o in below_case.outcomes.values()} == {"below"}
    assert {o.side for o in above_case.outcomes.values()} == {"above"}
    assert {o.side for o in capped_case.outcomes.values()} == {"below"}


def test_case_grid_resolves_capped_zone(table):
    # the first positive node must sit inside the region where the profile
    # exceeds the cap, otherwise the cap acts as a wide reacting plateau
    for cap in (1e4, 1e5):
        g = case_grid(table, cap, 8.0, 129)
        r1 = g.r[1]
        assert float(table.u_star(r1, CUBIC)) > cap
        assert g.bc.kind == "dirichlet"


def test_cap_radius_keeps_its_bits(table):
    # where the cubic's profile sqrt(2)/r crosses each cap, to the bit
    assert [_cap_radius(table, cap) for cap in (1e2, 1e4, 1e5)] == [
        0.014142135623787985, 0.00014142135623819213,
        1.4142135623825377e-05]


def test_case_grid_rejects_unreachable_cap(table_pe):
    # u* of power_exp grows like sqrt(2 log 1/r): 6.6 at r = 1e-12
    with pytest.raises(OutOfRange, match=r"cap 10000 .* u\*\(1e-12\) = 6\.6"):
        case_grid(table_pe, 1e4, 8.0, 129)


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


def test_truncation_alone_is_global(capped_case):
    assert capped_case.classification == "GlobalBounded"
    assert capped_case.cap_stable
    assert capped_case.t_detect is None
    for o in capped_case.outcomes.values():
        tail = o.sup_series[o.times >= 0.25]
        assert tail[-1] <= tail[0] * 1.02


def test_blowup_time_monotone_in_amplitude(table, ustar2):
    scan = threshold_scan(CUBIC, table, RadialBump(2.0, 2.0, 0.0),
                          [0.1 * ustar2, 0.3 * ustar2], caps=(1e4,),
                          horizon=2.0)
    weak, strong = (scan.cases[a] for a in scan.amplitudes)
    for rep in (weak, strong):
        assert rep.classification == "BlowUp"
    assert strong.t_detect < weak.t_detect


def test_reaction_disabled_always_global(table, ustar2):
    scan = threshold_scan(None, table, RadialBump(2.0, 2.0, 0.0),
                          [-0.1 * ustar2, +0.3 * ustar2], caps=(1e4, 1e5),
                          horizon=0.5)
    for rep in scan.cases.values():
        assert rep.classification == "GlobalBounded"
        assert rep.cap_stable


# ---------------------------------------------------------------------------
# instability mechanism
# ---------------------------------------------------------------------------

def test_probe_tracks_mechanism(dichotomy_pair, table):
    # the largest alpha with u >= alpha u* on 0.3 <= r <= 1 ratchets upward
    # in a diverging run and keeps falling in a decaying one
    def alpha_series(outcome):
        r = outcome.grid.r
        sel = (r >= 0.3) & (r <= 1.0)
        star = np.asarray(table.u_star(r[sel], CUBIC))
        return (outcome.values[:, sel] / star).min(axis=1)

    below, above = dichotomy_pair
    al_above = alpha_series(above.finest)
    assert np.all(np.diff(al_above) >= -5e-3)      # ratchets upward
    assert al_above[-1] == al_above.max() > 1.1
    al_below = alpha_series(below.finest)
    tail = al_below[len(al_below) // 2:]
    assert np.all(np.diff(tail) <= 1e-9)           # keeps falling
    assert tail[-1] < 1.0


# ---------------------------------------------------------------------------
# lockstep runs: results do not depend on the batch
# ---------------------------------------------------------------------------

def _bits(x):
    return None if x is None else np.float64(x).tobytes()


def _assert_same_outcome(a, b):
    assert (a.classification, a.cap, a.side) == \
        (b.classification, b.cap, b.side)
    assert a.grid.key() == b.grid.key()
    for name in ("times", "values", "sup_series", "l1ul_series",
                 "mass_series"):
        assert getattr(a, name).shape == getattr(b, name).shape, name
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert _bits(a.t_detect) == _bits(b.t_detect)
    assert _bits(a.one_sided_excess) == _bits(b.one_sided_excess)


def _scan(spec, tab, factors, caps):
    u2 = float(tab.u_star(2.0, spec))
    return threshold_scan(spec, tab, RadialBump(2.0, 2.0, 0.0),
                          [fa * u2 for fa in factors], horizon=2.0,
                          caps=caps)


@pytest.fixture(scope="module")
def cubic_scan(table):
    return _scan(CUBIC, table, (-0.3, -0.1, 0.1, 0.3), (1e4, 1e5))


@pytest.fixture(scope="module")
def pe_scan(table_pe):
    # at A = +0.1 u*(2) the reaction overflows below the sup guard
    return _scan(PE, table_pe, (-0.1, 0.1), (4.0, 5.0))


@pytest.mark.parametrize("spec,scan_name,table_name", [
    (CUBIC, "cubic_scan", "table"), (PE, "pe_scan", "table_pe")],
    ids=["cubic", "power_exp"])
def test_scan_outcomes_equal_runs_alone(request, spec, scan_name,
                                        table_name):
    # each run of the lockstep scan equals, bit for bit, a scan of its
    # amplitude alone, and of its amplitude at one cap (each cap in turn)
    scan = request.getfixturevalue(scan_name)
    tab = request.getfixturevalue(table_name)
    caps = scan.config["caps"]
    bump = RadialBump(2.0, 2.0, 0.0)
    for k, a in enumerate(scan.amplitudes.tolist()):
        alone = threshold_scan(spec, tab, bump, [a], horizon=2.0,
                               caps=caps).cases[a]
        assert scan.cases[a].classification == alone.classification
        assert scan.cases[a].cap_stable == alone.cap_stable
        assert _bits(scan.cases[a].t_detect) == _bits(alone.t_detect)
        for cap in caps:
            _assert_same_outcome(scan.cases[a].outcomes[cap],
                                 alone.outcomes[cap])
        cap = caps[k % len(caps)]
        one_cap = threshold_scan(spec, tab, bump, [a], horizon=2.0,
                                 caps=(cap,)).cases[a]
        _assert_same_outcome(scan.cases[a].outcomes[cap],
                             one_cap.outcomes[cap])
    # every outcome's snapshot matrix owns its values: none is a view that
    # pins a run's whole preallocated matrix or the stacked array, and none
    # shares memory with another outcome's.  Sorted by start address, two
    # overlapping buffers imply an overlapping neighbouring pair.
    values = sorted((o.values for case in scan.cases.values()
                     for o in case.outcomes.values()),
                    key=lambda x: x.ctypes.data)
    assert all(x.flags.owndata for x in values)
    assert not any(np.shares_memory(x, y)
                   for x, y in zip(values, values[1:]))


@pytest.mark.parametrize("spec,scan_name,table_name", [
    (CUBIC, "cubic_scan", "table"), (PE, "pe_scan", "table_pe")],
    ids=["cubic", "power_exp"])
def test_snapshot_matrix_rows(request, spec, scan_name, table_name):
    # one row per time: u0 bit for bit, a row per sample time reached and
    # the state where the run ended, so at most N_SAMPLES + 2 rows
    scan = request.getfixturevalue(scan_name)
    tab = request.getfixturevalue(table_name)
    for a, case in scan.cases.items():
        for cap, o in case.outcomes.items():
            rows = len(o.times)
            assert o.values.shape == (rows, o.grid.n_nodes)
            assert 2 <= rows <= N_SAMPLES + 2
            assert o.times[0] == 0.0 and np.all(np.diff(o.times) >= 0.0)
            star = np.concatenate([[np.inf],
                                   tab.u_star(o.grid.r[1:], spec)])
            u0 = initial_data(o.grid, star, RadialBump(2.0, 2.0, a), cap)
            assert o.values[0].tobytes() == u0.u.tobytes()


def test_cubic_scan_verdicts(cubic_scan):
    assert cubic_scan.classifications() == ["GlobalBounded", "GlobalBounded",
                                            "BlowUp", "BlowUp"]


def test_power_exp_overflow_leaves_its_neighbour_stepping(pe_scan):
    # the +0.1 runs end themselves Undetermined when their reaction
    # overflows, before the horizon and below the sup guard, while the
    # -0.1 runs in the same stack step on to a bounded verdict
    below, above = (pe_scan.cases[a] for a in pe_scan.amplitudes)
    assert below.classification == "GlobalBounded"
    for o in below.outcomes.values():
        assert o.times[-1] == 2.0
    assert above.classification == "Undetermined"
    for o in above.outcomes.values():
        assert o.classification == "Undetermined"
        assert o.times[-1] < 2.0 and o.sup_final < SUP_GUARD
        assert o.t_detect is None


def _inner_mass_reference(spec, grid, u):
    """sphere_area * sum(f(u) vol) over r <= r_star, with f(min(u, 1e60))
    passed through nan_to_num(posinf=1e200) and capped at 1e200; 0 for the
    heat flow."""
    if spec is None:
        return 0.0
    sel = grid.r <= max(grid.r[10], grid.R_outer / 8.0)
    with np.errstate(over="ignore", invalid="ignore"):
        fu = np.asarray(spec.f(np.minimum(u[sel], 1e60)), dtype=float)
    fu = np.minimum(np.nan_to_num(fu, posinf=1e200), 1e200)
    return float(sphere_area(grid.dim) * np.sum(fu * grid.cell_volumes[sel]))


def test_inner_mass_is_the_reference_formula(table):
    # the reaction mass keeps the bits of the reference formula, for one
    # row of values and for each row of a stack
    grid = case_grid(table, 1e4, 8.0, 129)
    star = np.concatenate([[np.inf], table.u_star(grid.r[1:], CUBIC)])
    u0 = initial_data(grid, star, RadialBump(2.0, 2.0, 0.1), 1e4)
    r_star = max(grid.r[10], grid.R_outer / 8.0)
    assert r_star in grid.r                 # the node at r_star counts

    # f = inf on (100, 1e3] and NaN above 1e3
    ragged = SimpleNamespace(f=lambda u: np.where(
        u > 1e3, np.nan, np.where(u > 100.0, np.inf, u ** 3)))
    fields = [u0.u, 1e3 * u0.u, np.full(grid.n_nodes, 1e70), 0.0 * u0.u]
    for spec in (CUBIC, PE, ragged, None):
        run = _Run(spec, u0, "above", star, 2.0, 1e4)
        want = [_bits(_inner_mass_reference(spec, grid, u)) for u in fields]
        with np.errstate(invalid="ignore"):
            assert [_bits(run.inner_mass(u)) for u in fields] == want
            stacked = run.inner_mass(np.stack(fields))
        assert [_bits(m) for m in stacked] == want


def test_divergence_test_decides_as_the_reference(table):
    # past the sup and dt guards the divergence test takes the inner mass:
    # from the iteration's reaction values while no node passes 1e60, from
    # the values as inner_mass takes them past it.  Either way a run ends
    # BlowUp exactly when the reference mass passes MASS_GUARD * mass0;
    # its block sits behind another in the stack
    grid = case_grid(table, 1e4, 8.0, 129)
    star = np.concatenate([[np.inf], table.u_star(grid.r[1:], CUBIC)])
    u0 = initial_data(grid, star, RadialBump(2.0, 2.0, 0.1), 1e4)
    n_inner = int(np.sum(grid.r <= max(grid.r[10], grid.R_outer / 8.0)))
    # the cubic up to 1e60 and 0 above: only f(min(u, 1e60)) reads it right
    cut = SimpleNamespace(
        f=lambda u: np.where(u > 1e60, 0.0, np.minimum(u, 1e60) ** 3),
        fp=lambda u: 3.0 * u * u)
    inner, outer = slice(0, n_inner), slice(n_inner + 5, n_inner + 6)
    cases = [(inner, 1e9, True), (outer, 1e9, False),
             (inner, 1e70, True), (outer, 1e70, False)]
    ahead = np.ones(37)
    for spec in (CUBIC, cut):
        for where, level, blows_up in cases:
            u = u0.u.copy()
            u[where] = level
            run = _Run(spec, u0, "above", star, 2.0, 1e4)
            stacked = np.concatenate([ahead, u])
            with np.errstate(over="ignore"):
                fu = np.asarray(spec.f(stacked), dtype=float)
            a = len(ahead)
            want = (_inner_mass_reference(spec, grid, u)
                    > MASS_GUARD * run.mass0)
            assert want is blows_up
            if level > 1e60 and where is inner and spec is cut:
                # the reaction values alone would miss this divergence
                mass = run._mass(fu[a:a + n_inner].copy())
                assert not mass > MASS_GUARD * run.mass0
            dt = run.next_dt(stacked, fu, a, float(u.max()), 0.0)
            assert (dt is None) is want
            assert (run.classification == "BlowUp") is want


def _excess_per_snapshot(tab, spec, o):
    """The largest (u - u*)/u* on r >= 0.1 of each snapshot of outcome o."""
    r = o.grid.r
    star = np.concatenate([[np.inf], tab.u_star(r[1:], spec)])
    sel = r >= 0.1
    return [float(((u[sel] - star[sel]) / star[sel]).max())
            for u in o.values]


@pytest.fixture(scope="module")
def pe_dense_scan(table_pe):
    # most snapshots of these runs rise somewhere, so their L^1_ul norms
    # scan every window centre; the others take the origin window
    return _scan(PE, table_pe, (-0.3,), (4.0, 5.0))


@pytest.mark.parametrize("scan_name", ["cubic_scan", "pe_dense_scan"])
def test_outcome_series_match_per_snapshot_reference(request, scan_name):
    # the series an outcome derives from its snapshot matrix keep, bit
    # for bit, the values each row gives on its own as a field
    scan = request.getfixturevalue(scan_name)
    spec = CUBIC if scan_name == "cubic_scan" else PE
    tab = request.getfixturevalue("table" if spec is CUBIC else "table_pe")
    scanned = []
    for case in scan.cases.values():
        for o in case.outcomes.values():
            grid = o.grid
            flds = [RadialField(grid, u) for u in o.values]
            estimates = [ul_norm(fld, 1.0) for fld in flds]
            scanned += [est.centers_sampled > 1 for est in estimates]
            assert o.sup_series.tobytes() == np.array(
                [float(fld.u.max()) for fld in flds]).tobytes()
            assert o.l1ul_series.tobytes() == np.array(
                [est.norm for est in estimates]).tobytes()
            assert o.mass_series.tobytes() == np.array(
                [_inner_mass_reference(spec, grid, fld.u)
                 for fld in flds]).tobytes()
            if o.side == "above":
                assert o.one_sided_excess is None
            else:
                assert _bits(o.one_sided_excess) == _bits(
                    max(_excess_per_snapshot(tab, spec, o)))
    if scan_name == "pe_dense_scan":
        # both window branches ran
        assert any(scanned) and not all(scanned)


@pytest.fixture(scope="module")
def table_cubic8():
    return build_singular(CUBIC, 8)


def test_one_sided_excess_counts_the_state_where_a_run_ends(table_cubic8):
    # the capped profile at cap 1e2 in N = 8 lies below u* and blows up
    # before the horizon; the state it ends in exceeds u* by more than any
    # sample before it, and the excess is the largest over every snapshot
    scan = threshold_scan(CUBIC, table_cubic8, RadialBump(2.0, 2.0, 0.0),
                          [0.0], horizon=2.0, caps=(1e2,), n_nodes=257)
    o = scan.cases[0.0].finest
    assert (o.classification, o.side) == ("BlowUp", "below")
    assert o.times[-1] < 2.0
    excess = _excess_per_snapshot(table_cubic8, CUBIC, o)
    assert excess[-1] > 0.1 > max(excess[:-1])
    assert o.one_sided_excess == excess[-1]


# ---------------------------------------------------------------------------
# scan assembly and reporting
# ---------------------------------------------------------------------------

def _no_grid(*args, **kwargs):
    raise AssertionError("a case grid was built")


def test_repeated_cap_or_amplitude_is_rejected_before_any_grid(
        table, monkeypatch):
    # a repeated cap used to run once while the config listed it twice,
    # and a repeated amplitude ran its case twice
    monkeypatch.setattr("heatlab.threshold.case_grid", _no_grid)
    bump = RadialBump(2.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="caps must not repeat"):
        threshold_scan(CUBIC, table, bump, [-1.0, 1.0], caps=(1e4, 1e4))
    with pytest.raises(ValueError, match="amplitudes must not repeat"):
        threshold_scan(CUBIC, table, bump, [1.0, 1.0], caps=(1e4,))
    with pytest.raises(ValueError, match="caps must not repeat"):
        threshold_scan(CUBIC, table, bump, [0.0], caps=(1e4, 1e5, 1e4))
    with pytest.raises(ValueError, match="amplitudes must not be empty"):
        threshold_scan(CUBIC, table, bump, [], caps=(1e4,))
    with pytest.raises(ValueError, match="caps must not be empty"):
        threshold_scan(CUBIC, table, bump, [0.0], caps=())


@pytest.mark.parametrize("horizon", [-1.0, 0.0, float("nan"), float("inf")])
def test_horizon_must_be_finite_and_positive(table, monkeypatch, horizon):
    # a negative horizon ended every run at t = 0 as Undetermined, nan
    # gave Undetermined and inf a BlowUp above u*; each is refused before
    # any grid is built
    monkeypatch.setattr("heatlab.threshold.case_grid", _no_grid)
    with pytest.raises(ValueError, match="horizon must be finite and > 0"):
        threshold_scan(CUBIC, table, RadialBump(2.0, 2.0, 0.0), [-1.0, 1.0],
                       horizon=horizon, caps=(1e4,))


@pytest.mark.parametrize("kwargs, message", [
    ({"caps": (float("nan"),)}, "caps must be > 0 and not NaN"),
    ({"caps": (0.0,)}, "caps must be > 0 and not NaN"),
    ({"caps": (1e4, -1.0)}, "caps must be > 0 and not NaN"),
    ({"R_outer": float("nan")}, "R_outer must be finite and > 0"),
    ({"R_outer": -1.0}, "R_outer must be finite and > 0"),
    ({"R_outer": 0.0}, "R_outer must be finite and > 0"),
    ({"R_outer": float("inf")}, "R_outer must be finite and > 0"),
    ({"A_grid": [float("inf")]}, "amplitudes must be finite"),
    ({"A_grid": [-float("inf")]}, "amplitudes must be finite"),
    ({"A_grid": [float("nan")]}, "amplitudes must be finite"),
    ({"n_nodes": 0}, "n_nodes must be >= 8"),
    ({"n_nodes": 5}, "n_nodes must be >= 8"),
], ids=["cap-nan", "cap-0", "cap-negative", "R_outer-nan", "R_outer-negative",
        "R_outer-0", "R_outer-inf", "amplitude-inf", "amplitude-minus-inf",
        "amplitude-nan", "n_nodes-0", "n_nodes-5"])
def test_cap_and_outer_radius_are_checked_before_any_grid(
        table, monkeypatch, kwargs, message):
    # a NaN cap raised a bare IndexError in _cap_radius, a zero cap stepped
    # all-zero data to GlobalBounded, and R_outer = nan or -1 failed inside
    # the grid's construction; an infinite amplitude gave a verdict (BlowUp
    # for inf, GlobalBounded for -inf), a NaN one failed in RadialField, and
    # fewer than 8 nodes ran on the nodes the cap needs; each is refused
    # before any grid is built
    monkeypatch.setattr("heatlab.threshold.case_grid", _no_grid)
    kwargs = {"A_grid": [-1.0, 1.0], "caps": (1e4,), **kwargs}
    with pytest.raises(ValueError, match=message):
        threshold_scan(CUBIC, table, RadialBump(2.0, 2.0, 0.0), **kwargs)


def test_scan_computes_l1ul_only_when_read(table, ustar2, monkeypatch):
    # no scan reports L^1_ul (only `heatlab evolve` writes it): the
    # verdicts, sup and mass series come without a window integral, and
    # the first read computes the series from the snapshot matrix, once
    def no_windows(*args, **kwargs):
        raise AssertionError("the scan computed L^1_ul")

    monkeypatch.setattr("heatlab.threshold._ul_windows", no_windows)
    scan = threshold_scan(CUBIC, table, RadialBump(2.0, 2.0, 0.0),
                          [-0.3 * ustar2, 0.3 * ustar2], caps=(1e4,),
                          horizon=0.5)
    assert scan.classifications() == ["GlobalBounded", "BlowUp"]
    outcomes = [case.finest for case in scan.cases.values()]
    for o in outcomes:
        assert len(o.sup_series) == len(o.mass_series) == len(o.values)
    monkeypatch.undo()
    for o in outcomes:
        first = o.l1ul_series
        assert first.tobytes() == _ul_windows(
            o.grid, o.values, 1.0)[0].tobytes()
        assert o.l1ul_series is first


def _fake_outcome(cls, cap, t_detect=None):
    grid = make_grid(3, 2.0, 9)
    return EvolutionOutcome(classification=cls, cap=cap, t_detect=t_detect,
                            grid=grid, times=np.array([0.0, 0.5]),
                            values=np.repeat([[3.0], [2.0]], grid.n_nodes,
                                             axis=1),
                            sup_series=np.array([3.0, 2.0]),
                            mass_series=np.array([0.1, 0.05]))


def test_monotone_classification_check():
    # the verdict may switch GlobalBounded -> BlowUp once, with at most one
    # Undetermined in the buffer zone; the report states it, nothing raises
    amps = np.array([-0.3, -0.1, 0.1, 0.3])

    def monotone(classes):
        cases = {a: CaseReport({1e4: _fake_outcome(cls, 1e4)}, cls, True,
                               None)
                 for a, cls in zip(amps.tolist(), classes)}
        return ScanReport(amps, cases, {}).monotone

    assert monotone(["GlobalBounded", "GlobalBounded", "BlowUp", "BlowUp"])
    assert monotone(["GlobalBounded", "Undetermined", "BlowUp", "BlowUp"])
    assert monotone(["GlobalBounded"] * 4)
    assert monotone(["BlowUp"] * 4)
    assert not monotone(["GlobalBounded", "BlowUp", "GlobalBounded",
                         "BlowUp"])
    assert not monotone(["Undetermined", "GlobalBounded", "Undetermined",
                         "BlowUp"])


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
                               "cap", "sup_final", "reaction_mass_final",
                               "nodes"),
                  rep.rows())
    out.commit()
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == ("amplitude,classification,t_detect,cap,"
                        "sup_final,reaction_mass_final,nodes")
    # the last column is the node count of the run's grid
    assert [line.split(",")[-1] for line in lines[1:]] == ["9", "9"]
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
