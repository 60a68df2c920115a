"""Tests for the Duhamel trajectory map and the monotone Picard ladders."""

import json
import math

import numpy as np
import pytest

from heatlab.errors import ReactionOverflow
from heatlab.evolution import (
    BoundaryCondition,
    ImexStack,
    RadialField,
    _reaction,
    field_from_table,
    make_grid,
    semigroup_operator,
    ul_norm,
)
from heatlab.iteration import (
    IDENTITY_TIME,
    N_SLICES,
    IterationLadder,
    LadderSeed,
    Trajectory,
    check_immediate_boundedness,
    duhamel_map,
    fixed_point_residual,
    run_ladder,
)
from heatlab.nonlinearity import pure_power
from heatlab.singular_ode import build_singular
from heatlab.threshold import _stability_bound

CUBIC = pure_power(3.0)


@pytest.fixture(scope="module")
def table_cubic():
    return build_singular(CUBIC, 5)


def sandwich_grid(table, n_nodes=64, R=8.0):
    bc = BoundaryCondition("dirichlet", float(table.u_star(R)))
    return make_grid(5, R, n_nodes, bc=bc)


# ---------------------------------------------------------------------------
# trajectory container
# ---------------------------------------------------------------------------

G16 = make_grid(5, 8.0, 16)


@pytest.mark.parametrize("t_obs, shape, error", [
    (math.nan, (5, G16.n_nodes), "t_obs"),
    (math.inf, (5, G16.n_nodes), "t_obs"),
    (0.0, (5, G16.n_nodes), "t_obs"),
    (-1.0, (5, G16.n_nodes), "t_obs"),
    (0.01, (1, G16.n_nodes), "shape"),       # one row is no slice
    (0.01, (5, 3), "shape"),
    (0.01, (G16.n_nodes,), "shape"),
    (0.01, (2, 5, G16.n_nodes), "shape"),
    # the mesh is uniform by construction at every time scale and size
    (7e-10, (8, G16.n_nodes), None),
    (1e-16, (20001, G16.n_nodes), None),
    (1.0, (20001, G16.n_nodes), None),
])
def test_trajectory_validation(t_obs, shape, error):
    values = np.zeros(shape)
    if error is not None:
        with pytest.raises(ValueError, match=error):
            Trajectory(G16, t_obs, values)
        return
    traj = Trajectory(G16, t_obs, values)
    n = shape[0] - 1
    assert (traj.t_obs, traj.n_slices) == (t_obs, n)
    assert traj.times.tobytes() == np.linspace(0.0, t_obs, n + 1).tobytes()


def _interp(traj, s):
    """Linear-in-time interpolant of a trajectory's nodal values."""
    j = min(int(s / (traj.times[1] - traj.times[0])), traj.n_slices - 1)
    lam = (s - traj.times[j]) / (traj.times[j + 1] - traj.times[j])
    return (1.0 - lam) * traj.values[j] + lam * traj.values[j + 1]


def _apply(op, u, u_ext):
    """S(t) on nodal values u extended by the value u_ext beyond the outer
    radius."""
    return op.matrix @ u + op.ext * u_ext


def test_constant_trajectory_interpolates_flat():
    g = make_grid(5, 8.0, 16)
    fld = RadialField(g, np.linspace(1.0, 0.0, g.n_nodes))
    traj = Trajectory.constant(fld, 0.5, 8)
    assert traj.n_slices == 8
    assert np.allclose(_interp(traj, 0.31), fld.u)
    assert np.array_equal(traj.values[-1], fld.u)


def test_time_mesh_mismatch():
    # the map steps on the trajectory's own time mesh; initial data on
    # another grid are refused, as S(t) refuses a field on another grid
    g = make_grid(5, 8.0, 16)
    u0 = RadialField(g, np.ones(g.n_nodes))
    traj = Trajectory.constant(u0, 0.5, 8)
    other = make_grid(5, 8.0, 32)
    with pytest.raises(ValueError, match="different grid"):
        duhamel_map(traj, RadialField(other, np.ones(other.n_nodes)), CUBIC)
    # the time mesh is no argument: passing t_obs by position fails
    with pytest.raises(TypeError):
        duhamel_map(traj, u0, CUBIC, 0.5)


# ---------------------------------------------------------------------------
# Duhamel map
# ---------------------------------------------------------------------------

def test_zero_data_zero_seed_is_fixed():
    # f(0) = 0: the zero trajectory maps to the zero trajectory
    g = make_grid(5, 8.0, 33)
    zero = RadialField(g, np.zeros(g.n_nodes))
    traj = Trajectory.constant(zero, 0.1, 16)
    out = duhamel_map(traj, zero, CUBIC)
    assert np.all(out.values == 0.0)


def test_reaction_free_step_reproduces_semigroup():
    # against a zero previous iterate the map returns S(t) u0; the
    # slice-recursion composition must agree with the direct operator
    g = make_grid(5, 8.0, 129)
    u0 = RadialField(g, np.exp(-g.r ** 2))
    zero = Trajectory.constant(RadialField(g, np.zeros(g.n_nodes)), 0.01, 64)
    out = duhamel_map(zero, u0, CUBIC, interp="cubic")
    direct = np.maximum(_apply(semigroup_operator(g, 0.01), u0.u,
                               g.exterior_value(u0.u)), 0.0)
    assert np.abs(out.values[-1] - direct).max() <= 1e-3


# a slice's time rule: nodes lam in [0, 1] and weights summing to 1; the
# node at t_j + lam dt takes the lag factor S((1 - lam) dt)
SIMPSON = ((0.0, 0.5, 1.0), (1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0))
_GL3_X, _GL3_W = np.polynomial.legendre.leggauss(3)
GL3 = (0.5 + 0.5 * _GL3_X, 0.5 * _GL3_W)


def _per_slice_duhamel(prev, u0, spec, interp, rule):
    """Reference Duhamel step: reactions, lag factors and the two slice
    recursions (homogeneous part and Duhamel integral) one slice and one
    node of the time rule at a time."""
    grid = prev.grid
    n = prev.n_slices
    dt = prev.t_obs / n
    lams, wts = rule
    step_op = semigroup_operator(grid, dt, interp)
    lag_ops = [None if tau < IDENTITY_TIME
               else semigroup_operator(grid, tau, interp)
               for tau in dt * (1.0 - np.asarray(lams))]
    values = np.empty((n + 1, grid.n_nodes))
    values[0] = u0.u
    hom = u0.u.copy()
    hom_ext = grid.exterior_value(u0.u)
    duh = np.zeros(grid.n_nodes)
    duh_ext = 0.0
    for j in range(n):
        b = np.zeros(grid.n_nodes)
        b_ext = 0.0
        for lam, wt, lag_op in zip(lams, wts, lag_ops):
            u_s = _interp(prev, prev.times[j] + lam * dt)
            f_all = _reaction(spec,
                              np.append(u_s, grid.exterior_value(u_s)))
            w = dt * wt
            if lag_op is None:
                b += w * f_all[:-1]
            else:
                b += w * _apply(lag_op, f_all[:-1], f_all[-1])
            b_ext += w * f_all[-1]
        duh = _apply(step_op, duh, duh_ext) + b
        duh_ext += b_ext
        hom = _apply(step_op, hom, hom_ext)
        values[j + 1] = np.maximum(hom + duh, 0.0)
    return values


@pytest.mark.parametrize("interp", ["linear", "cubic"])
@pytest.mark.parametrize("bc", [BoundaryCondition("neumann"),
                                BoundaryCondition("dirichlet", 0.4)])
def test_duhamel_map_matches_per_slice_loop(bc, interp):
    # a previous iterate that varies in time, so the reactions come from
    # the interpolant between slices and the exterior value moves too
    rng = np.random.default_rng(5)
    g = make_grid(5, 8.0, 33, bc=bc)
    u0 = RadialField(g, 1.5 * np.exp(-g.r ** 2) + 0.4)
    prev = Trajectory(g, 0.01, rng.uniform(0.0, 2.0, (17, g.n_nodes)))
    out = duhamel_map(prev, u0, CUBIC, interp=interp)
    ref = _per_slice_duhamel(prev, u0, CUBIC, interp, SIMPSON)
    assert np.abs(out.values - ref).max() <= 1e-13 * np.abs(ref).max()


def test_duhamel_map_overflow_raises():
    # one entry of one slice overflows the cubic: the map raises the typed
    # error instead of returning a non-finite trajectory
    g = make_grid(5, 8.0, 33)
    u0 = RadialField(g, np.ones(g.n_nodes))
    prev = Trajectory.constant(u0, 0.01, 16)
    prev.values[9, 4] = 1e200
    with pytest.raises(ReactionOverflow):
        duhamel_map(prev, u0, CUBIC)


def test_duhamel_map_is_monotone():
    # ordered previous iterates and ordered data give ordered outputs
    rng = np.random.default_rng(11)
    g = make_grid(5, 8.0, 33)
    lo_f = RadialField(g, rng.uniform(0.0, 1.0, g.n_nodes))
    hi_f = RadialField(g, lo_f.u + rng.uniform(0.0, 0.5, g.n_nodes))
    lo = Trajectory.constant(lo_f, 0.01, 16)
    hi = Trajectory.constant(hi_f, 0.01, 16)
    out_lo = duhamel_map(lo, lo_f, CUBIC, interp="linear")
    out_hi = duhamel_map(hi, hi_f, CUBIC, interp="linear")
    assert np.all(out_lo.values <= out_hi.values)


# ---------------------------------------------------------------------------
# monotone ladders
# ---------------------------------------------------------------------------

def test_sandwich_ladders(table_cubic):
    # 6 iterates each side bracket every integral solution:
    # v0 <= ... <= v6 <= w6 <= ... <= w0 nodewise
    g = sandwich_grid(table_cubic)
    envelope = field_from_table(table_cubic, g, cap=2.0, spec=CUBIC)
    u0 = RadialField(g, 0.9 * envelope.u, envelope.cap_mask.copy())
    below = run_ladder("from_below", u0, CUBIC, 0.01, k_max=6,
                       ladder_tol=0.0)
    above = run_ladder(LadderSeed.from_above(envelope), u0, CUBIC, 0.01,
                       k_max=6, ladder_tol=0.0)
    assert below.ordering_violation_max <= 1e-8
    assert above.ordering_violation_max <= 1e-8
    cross = max(float((below.trajectories[k].values
                       - above.trajectories[k].values).max())
                for k in range(7))
    assert cross <= 1e-8
    # the chains genuinely move and approach each other
    assert below.cauchy_gaps[0] > 0.1
    assert above.cauchy_gaps[-1] < above.cauchy_gaps[0]


@pytest.mark.parametrize("interp", ["linear", "cubic"])
def test_ladder_builds_two_operators_per_grid(table_cubic, interp):
    # Simpson's rule lags each slice's reactions by dt, dt/2 and 0: the
    # slice step S(dt) is the only other operator a ladder needs
    g = sandwich_grid(table_cubic)
    envelope = field_from_table(table_cubic, g, cap=2.0, spec=CUBIC)
    u0 = RadialField(g, 0.9 * envelope.u, envelope.cap_mask.copy())
    run_ladder("from_below", u0, CUBIC, 0.01, k_max=2, interp=interp)
    dt = 0.01 / N_SLICES
    assert set(g.semigroup_operators) == {(dt, interp), (0.5 * dt, interp)}


def test_simpson_rule_error_is_far_below_mesh_error(table_cubic):
    # criterion 7's from-above ladder, final row of iterate 6: on 64
    # slices Simpson's rule and the 3-point Gauss-Legendre rule differ by
    # 2.9e-6, while 64 and 512 Gauss-Legendre slices differ by 8.5e-2, so
    # the change of rule is lost in the time-mesh error already there
    g = sandwich_grid(table_cubic)
    envelope = field_from_table(table_cubic, g, cap=2.0, spec=CUBIC)
    u0 = RadialField(g, 0.9 * envelope.u, envelope.cap_mask.copy())
    ladder = run_ladder(LadderSeed.from_above(envelope), u0, CUBIC, 0.01,
                        k_max=6, ladder_tol=0.0)

    def gl3_final_row(n_slices):
        traj = Trajectory.constant(envelope, 0.01, n_slices)
        for _ in range(6):
            traj = Trajectory(g, 0.01, _per_slice_duhamel(
                traj, u0, CUBIC, "linear", GL3))
        return traj.values[-1]

    gl3_64, gl3_512 = gl3_final_row(64), gl3_final_row(512)
    rule_err = np.abs(ladder.final.values[-1] - gl3_64).max()
    mesh_err = np.abs(gl3_64 - gl3_512).max()
    assert ladder.k == 6
    assert rule_err <= 1e-3 * mesh_err


def test_ordering_violation_recorded(table_cubic):
    # a high cap is not a discrete supersolution: the from-above chain
    # must flag the break instead of silently absorbing it, and still
    # return every iterate it computed
    g = sandwich_grid(table_cubic)
    envelope = field_from_table(table_cubic, g, cap=50.0, spec=CUBIC)
    u0 = RadialField(g, 0.9 * envelope.u, envelope.cap_mask.copy())
    ladder = run_ladder(LadderSeed.from_above(envelope), u0, CUBIC, 0.01,
                        k_max=6)
    assert ladder.k == 6
    # the first step already overshoots the envelope by 2.9, the fourth
    # by 5.9; f(50) dt = 20 leaves the capped zone's step unresolved, so
    # the size of the break is an artifact of the time rule
    assert ladder.ordering_violation_max == pytest.approx(5.88511, rel=1e-5)
    assert not ladder.ordered


def test_from_below_converges_with_small_horizon(table_cubic):
    g = sandwich_grid(table_cubic)
    envelope = field_from_table(table_cubic, g, cap=2.0, spec=CUBIC)
    u0 = RadialField(g, 0.5 * envelope.u, envelope.cap_mask.copy())
    ladder = run_ladder("from_below", u0, CUBIC, 1e-3, k_max=8,
                        ladder_tol=1e-8)
    assert ladder.converged
    assert ladder.cauchy_gaps[-1] <= 1e-8


def test_maximal_solution_gaps_decrease(table_cubic):
    g = sandwich_grid(table_cubic)
    envelope = field_from_table(table_cubic, g, cap=2.0, spec=CUBIC)
    u0 = RadialField(g, 0.9 * envelope.u, envelope.cap_mask.copy())
    ladder = run_ladder(LadderSeed.from_above(envelope), u0, CUBIC, 0.01,
                        k_max=6, ladder_tol=0.0)
    # the record `heatlab iterate` writes as gaps_nonincreasing
    assert np.all(np.diff(ladder.cauchy_gaps) <= 1e-12)
    assert np.all(ladder.final.values[-1] >= 0.0)


def test_ladder_report_serializes(table_cubic):
    g = sandwich_grid(table_cubic)
    envelope = field_from_table(table_cubic, g, cap=2.0, spec=CUBIC)
    u0 = RadialField(g, 0.9 * envelope.u, envelope.cap_mask.copy())
    ladder = run_ladder("from_below", u0, CUBIC, 0.01, k_max=3,
                        ladder_tol=0.0)
    doc = json.loads(json.dumps(ladder.to_dict()))
    assert doc["seed"] == "from_below"
    assert doc["k"] == 3
    assert len(doc["sup_norm_per_iterate"]) == 4
    assert len(doc["cauchy_gaps"]) == 3
    assert doc["ordering_violation_max"] <= 1e-8


def test_seed_validation():
    with pytest.raises(ValueError):
        LadderSeed("sideways")
    with pytest.raises(ValueError):
        LadderSeed("from_above")


# ---------------------------------------------------------------------------
# stationarity fixed point
# ---------------------------------------------------------------------------

def test_fixed_point_residual_contracts_under_refinement(table_cubic):
    # one Duhamel application almost reproduces the capped profile; the
    # defect away from the capped zone at least halves when every grid
    # interval is split in two
    bc = BoundaryCondition("dirichlet", float(table_cubic.u_star(8.0)))
    coarse = make_grid(5, 8.0, 65, bc=bc)
    fine = coarse.refined()
    resids = []
    for g in (coarse, fine):
        env = field_from_table(table_cubic, g, cap=50.0, spec=CUBIC)
        resids.append(fixed_point_residual(env, CUBIC, 0.01))
    assert resids[1] <= 1e-2          # tolerance from the refinement study
    assert resids[0] / resids[1] >= 1.5


# ---------------------------------------------------------------------------
# immediate boundedness
# ---------------------------------------------------------------------------

def test_immediate_boundedness_cap_stable(table_cubic):
    # singular-ish data regularizes instantly: the late iterates carry
    # finite sup and reaction norms, stable under a 10x cap change
    bc = BoundaryCondition("dirichlet", float(table_cubic.u_star(8.0)))
    g = make_grid(5, 8.0, 129, bc=bc)
    reports = []
    # caps kept low enough that the capped zone's unresolved reaction mass
    # (~ cap^3 x origin-cell volume) stays negligible on this grid
    for cap in (1e2, 1e3):
        env = field_from_table(table_cubic, g, cap=cap, spec=CUBIC)
        u0 = RadialField(g, 0.5 * env.u, env.cap_mask.copy())
        ladder = run_ladder("from_below", u0, CUBIC, 0.05, k_max=4,
                            ladder_tol=0.0)
        assert ladder.ordering_violation_max <= 1e-3
        reports.append(check_immediate_boundedness(ladder, CUBIC,
                                                   (0.01, 0.05)))
    for rep in reports:
        assert rep["bounded"]
    a, b = (r["sup_iterate4"] for r in reports)
    assert abs(a - b) / a <= 0.05
    a, b = (r["reaction_ul_iterate3"] for r in reports)
    assert abs(a - b) / a <= 0.05


def test_immediate_boundedness_window_validated(table_cubic):
    g = sandwich_grid(table_cubic)
    env = field_from_table(table_cubic, g, cap=2.0, spec=CUBIC)
    u0 = RadialField(g, 0.5 * env.u, env.cap_mask.copy())
    ladder = run_ladder("from_below", u0, CUBIC, 0.01, k_max=2,
                        ladder_tol=0.0)
    with pytest.raises(ValueError):
        check_immediate_boundedness(ladder, CUBIC, (0.05, 0.01))


def _per_row_reaction_record(ladder, spec, window):
    """Reference of the record's reaction norm: one RadialField and one
    ul_norm per sampled mesh time of iterate 3, and the largest norm; also
    the number of centres each row's norm scanned."""
    tr3 = ladder.trajectories[min(3, ladder.k)]
    t0, T = window
    idx = np.flatnonzero((tr3.times > t0) & (tr3.times <= T * (1 + 1e-12)))
    p = tr3.grid.dim / 2.0 + 0.1
    ests = [ul_norm(RadialField(tr3.grid, _reaction(spec, tr3.values[j])), p)
            for j in idx[:: max(1, len(idx) // 8)]]
    return (max([0.0] + [e.norm for e in ests]),
            [e.centers_sampled for e in ests])


def test_immediate_boundedness_matches_per_row_norms(table_cubic):
    # criterion 7's from-above ladder: every sampled reaction row is
    # nonincreasing up to r = 7.6 or 7.8, where it rises towards the
    # Dirichlet value, so each takes the origin window and the 77 or 90
    # centres past r - 1; the one stacked window call gives the per-row
    # norms' maximum bit for bit
    g = sandwich_grid(table_cubic)
    envelope = field_from_table(table_cubic, g, cap=2.0, spec=CUBIC)
    u0 = RadialField(g, 0.9 * envelope.u, envelope.cap_mask)
    ladder = run_ladder(LadderSeed.from_above(envelope), u0, CUBIC, 0.01,
                        k_max=6, ladder_tol=0.0)
    rep = check_immediate_boundedness(ladder, CUBIC, (0.002, 0.01))
    ref, sampled = _per_row_reaction_record(ladder, CUBIC, (0.002, 0.01))
    assert set(sampled) == {78, 91}
    assert rep["reaction_ul_iterate3"] == ref


def test_immediate_boundedness_mixes_origin_and_scanned_rows():
    # rows that are radially nonincreasing take the origin window, the
    # others rise from the origin and take the 512-centre scan; in one
    # stack the record still equals
    # the per-row reference bit for bit
    g = make_grid(5, 8.0, 65)
    falling = np.exp(-g.r ** 2)
    bump = np.exp(-(g.r - 3.0) ** 2)
    vals = np.array([(1.0 + t) * (bump if k % 3 else falling)
                     for k, t in enumerate(np.linspace(0.0, 0.01, 17))])
    traj = Trajectory(g, 0.01, vals)
    ladder = IterationLadder(LadderSeed("from_below"), [traj] * 5,
                             [2.0] * 5, [0.0] * 4, 0.0, True)
    rep = check_immediate_boundedness(ladder, CUBIC, (0.0, 0.01))
    ref, sampled = _per_row_reaction_record(ladder, CUBIC, (0.0, 0.01))
    assert set(sampled) == {1, 512}
    assert rep["reaction_ul_iterate3"] == ref


def test_immediate_boundedness_window_end_is_relative():
    # at exponential-class observation times (t_obs = 1e-16 here) an
    # absolute slack on the window end admitted every later mesh time; the
    # sup rises from 1 to 2 in time, so the window (0, 5e-17] reads 1.5
    g = make_grid(5, 8.0, 65)
    traj = Trajectory(g, 1e-16, np.repeat(np.linspace(1.0, 2.0, 5)[:, None],
                                          g.n_nodes, axis=1))
    ladder = IterationLadder(LadderSeed("from_below"), [traj] * 5,
                             [2.0] * 5, [0.0] * 4, 0.0, True)
    rep = check_immediate_boundedness(ladder, CUBIC, (0.0, 5e-17))
    assert rep["sup_iterate4"] == 1.5
    # the ladder's t_obs, which ladder_*.json records, is its trajectories'
    assert ladder.to_dict()["t_obs"] == 1e-16


# ---------------------------------------------------------------------------
# agreement with the time stepper
# ---------------------------------------------------------------------------

def test_ladder_limit_matches_imex_evolution(table_cubic):
    # the converged from-below iterate and the IMEX march approximate the
    # same solution from bounded data
    bc = BoundaryCondition("dirichlet", float(table_cubic.u_star(8.0)))
    g = make_grid(5, 8.0, 129, bc=bc)
    env = field_from_table(table_cubic, g, cap=100.0, spec=CUBIC)
    u0 = RadialField(g, 0.5 * env.u, env.cap_mask.copy())
    t_obs = 0.05
    ladder = run_ladder("from_below", u0, CUBIC, t_obs, k_max=8,
                        ladder_tol=0.0, interp="cubic")
    assert ladder.ordering_violation_max <= 1e-3
    duh = ladder.final.values[-1]

    stack, cur, t = ImexStack((g,)), u0.u, 0.0
    while t < t_obs:
        dt = min(_stability_bound(CUBIC, cur.max(), 1e-3), t_obs - t)
        cur = stack.step(cur, _reaction(CUBIC, cur), (dt,))
        t += dt
    window = (g.r >= 0.5) & (g.r <= 4.0)
    rel = np.abs(duh[window] - cur[window]) / np.abs(cur[window])
    assert rel.max() <= 0.1
