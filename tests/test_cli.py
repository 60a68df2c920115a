"""Tests for the command-line front end: config handling, exit codes,
artifact layout, and determinism."""

import json
import math
import os

import numpy as np
import pytest

from heatlab.cli import Artifacts, RunConfig, load_config, main
from heatlab.evolution import RadialField, make_grid
from heatlab.threshold import (
    CaseReport,
    EvolutionOutcome,
    ScanReport,
    threshold_scan,
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_defaults_validate():
    cfg = load_config()
    assert cfg.family == "power-exp"
    assert cfg.dim == 3
    assert cfg.cap_list() == (1e4, 1e5)


@pytest.mark.parametrize("overrides", [
    {"dim": 2},
    {"family": "nope"},
    {"family": "power-exp", "p": 2.0, "dim": 3},   # subcritical
    {"family": "power-exp", "q": 1.0},
    {"family": "pure-power", "p": 0.5},
    {"horizon": -1.0},
    {"caps": "1e4,-2"},
    {"n_nodes": 4},
    {"k_max": 0},
    {"n_slices": 0},
    {"amplitudes": "abc"},
    {"caps": "abc"},
    {"r_patch": 20.0, "R_max": 10.0},
    {"family": "cutoff-exp", "a": -1.0},
    {"bump_r_c": -1.0},
    {"seed_factor": -1.0},
    {"caps": "1e4,1e4"},
    {"amplitudes": "-0.3,0.3,-0.3"},
])
def test_invalid_config_rejected(overrides):
    with pytest.raises(ValueError):
        load_config(overrides=overrides)


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[nonlinearity]\nfamily = pure-power\np = 3\n"
        "[domain]\ndim = 5\nn_nodes = 65\nR_max = 4\nR_outer = 4\n"
        "[solver]\nhorizon = 0.25\n"
        "[experiment]\npure_heat = true\n")
    cfg = load_config(path)
    assert cfg.family == "pure-power"
    assert cfg.dim == 5
    assert cfg.horizon == 0.25
    assert (cfg.R_max, cfg.R_outer) == (4.0, 4.0)
    assert cfg.pure_heat is True
    # flags beat the file
    cfg = load_config(path, overrides={"horizon": 0.125})
    assert cfg.horizon == 0.125


def test_config_file_unknown_key(tmp_path):
    # a misspelled key or section is refused, not skipped: [solvr] or
    # [DEFAULT] would otherwise run at the default cap
    path = tmp_path / "bad.ini"
    for text, match in (("[solver]\nwarp_speed = 9\n", "warp_speed"),
                        ("[solvr]\ncap = 5\n", r"unknown section \[solvr\]"),
                        ("[DEFAULT]\ncap = 5\n",
                         r"unknown section \[DEFAULT\]")):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_config(path)


def test_missing_config_file():
    with pytest.raises(ValueError):
        load_config("/nonexistent/heatlab.ini")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_check_admissible_family(tmp_path):
    out = tmp_path / "out"
    rc = main(["check", "--family", "power-exp", "--p", "5", "--q", "2",
               "--dim", "3", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "admissibility.json").read_text())
    assert doc["all_pass"] is True
    assert doc["config"]["family"] == "power-exp"


def test_check_subcritical_power_fails(tmp_path):
    rc = main(["check", "--family", "pure-power", "--p", "2", "--dim", "3",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1


def test_config_error_exit_code(tmp_path, capsys):
    rc = main(["check", "--family", "power-exp", "--p", "2", "--q", "2",
               "--dim", "3", "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "p >=" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["iterate", "--k-max", "0"], "k_max and n_slices must be >= 1"),
    (["scan", "--amplitudes=abc"], "'abc'"),
    (["scan", "--amplitudes=0.1,x"],
     "amplitudes must be a comma-separated list of numbers, got '0.1,x'"),
    (["scan", "--caps=abc"],
     "caps must be a comma-separated list of numbers, got 'abc'"),
    (["singular", "--r-patch", "20", "--R-max", "10"],
     "r_patch must be < R_max"),
    (["check", "--family", "cutoff-exp", "--a", "-1"],
     "cutoff-exp requires a > 0"),
    (["scan", "--r-c", "-1"], "bump_r_c must be positive"),
    (["iterate", "--config", "bad_seed.ini"], "seed_factor must be >= 0"),
    (["scan", "--config", "far_outer.ini"], "R_outer must be <= R_max"),
    (["scan", "--r-c", "12"], "bump_r_c must be <= R_max"),
    (["scan", "--amplitudes=-0.3,0.3", "--caps=1e4,1e4"],
     "caps must not repeat an entry, got '1e4,1e4'"),
    (["scan", "--amplitudes=0.1,-0.3,1e-1"],
     "amplitudes must not repeat an entry, got '0.1,-0.3,1e-1'"),
    # pure powers at or below N/(N-2) have no singular profile to start from
    (["evolve", "--family", "pure-power", "--p", "1.5", "--dim", "3"],
     "no positive singular profile for p = 1.5 in dimension 3"),
    (["iterate", "--family", "pure-power", "--p", "3", "--dim", "3"],
     "it needs p > 3"),
    (["scan", "--family", "pure-power", "--p", "2", "--dim", "3"],
     "no positive singular profile"),
    # non-finite numbers: a nan horizon would step until MAX_STEPS
    (["scan", "--amplitudes=nan,0.3"],
     "amplitudes must be finite, got 'nan,0.3'"),
    (["scan", "--caps", "nan"], "caps must be finite, got 'nan'"),
    (["evolve", "--cap", "nan"], "cap must be finite, got nan"),
    (["iterate", "--t-obs", "nan"], "t_obs must be finite, got nan"),
    (["evolve", "--horizon", "nan"], "horizon must be finite, got nan"),
    (["evolve", "--horizon", "inf"], "horizon must be finite, got inf"),
    # a boolean that is no boolean word would read as False
    (["evolve", "--config", "bad_bool.ini"],
     "pure_heat must be true/false, yes/no, on/off or 1/0, got 'ture'"),
    (["scan", "--config", "two_bool.ini"],
     "pure_heat must be true/false, yes/no, on/off or 1/0, got '2'"),
    # the ladders' slice t_obs / n_slices = 1.5625e-42 lies below S(t)'s
    # floor spacing(16)^2 = 1.26e-29 at R_outer = 8
    (["iterate", "--family", "pure-power", "--p", "3", "--dim", "5",
      "--t-obs", "1e-40"],
     "the slice t_obs / n_slices = 1.5625e-42 is below S(t)'s floor "
     "1.26218e-29 at R_outer = 8"),
])
def test_bad_run_option_is_config_error(tmp_path, monkeypatch, capsys, argv,
                                        message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad_seed.ini").write_text(
        "[experiment]\nseed_factor = -1\n")
    (tmp_path / "far_outer.ini").write_text(
        "[domain]\nR_max = 4\nR_outer = 8\n")
    (tmp_path / "bad_bool.ini").write_text("[experiment]\npure_heat = ture\n")
    (tmp_path / "two_bool.ini").write_text("[experiment]\npure_heat = 2\n")
    rc = main([*argv, "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_scan_unreachable_cap_exit_code(tmp_path, capsys):
    # default caps 1e4, 1e5 lie above u*(1e-12) = 6.6 for power_exp(5, 2)
    rc = main(["scan", "--family", "power-exp", "--p", "5", "--q", "2",
               "--dim", "3", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("OutOfRange: cap 10000 ")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# artifact writer
# ---------------------------------------------------------------------------

def test_snapshot_csv(tmp_path):
    g = make_grid(3, 2.0, 9)
    fld = RadialField(g, np.ones(g.n_nodes))
    out = Artifacts(tmp_path)
    out.write_csv("snap.csv", ("t", "r", "u"),
                  ((t, r, u) for t, f in [(0.0, fld), (0.5, fld)]
                   for r, u in zip(f.grid.r, f.u)))
    out.commit()
    lines = (tmp_path / "snap.csv").read_text().splitlines()
    assert lines[0] == "t,r,u"
    assert len(lines) == 1 + 2 * g.n_nodes


def test_norm_series_csv(tmp_path):
    out = Artifacts(tmp_path)
    out.write_csv("norms.csv", ("t", "sup_norm", "l1ul_norm", "f_mass_inner"),
                  [(0.0, 1.0, 2.0, 3.0), (0.1, 1.5, 2.5, 3.5)])
    out.commit()
    lines = (tmp_path / "norms.csv").read_text().splitlines()
    assert lines[0] == "t,sup_norm,l1ul_norm,f_mass_inner"
    assert len(lines) == 3



# ---------------------------------------------------------------------------
# singular
# ---------------------------------------------------------------------------

def test_singular_power_exp_small_patch_radius(tmp_path):
    # the re-seed check reads both integrations through their dense
    # outputs, so interpolation error cannot trip it at a tiny r_patch
    rc = main(["singular", "--family", "power-exp", "--p", "5", "--q", "2",
               "--dim", "3", "--r-patch", "1e-9",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_singular_overflowing_regular_shot_is_recorded(tmp_path):
    # at r_patch = 1e-60 the shot's centre height 2 u*(r_patch) lies where
    # power-exp's f overflows: the profile is built, the shot is noted
    out = tmp_path / "out"
    rc = main(["singular", "--family", "power-exp", "--p", "5", "--q", "2",
               "--dim", "3", "--r-patch", "1e-60", "--out-dir", str(out)])
    assert rc == 0
    doc = json.loads((out / "singular_verification.json").read_text())
    assert doc["cross_check"]["regular_below"] is None
    assert doc["cross_check"]["note"] == "regular integration underflowed"


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_singular_non_finite_seed_exit_code(tmp_path, capsys):
    rc = main(["singular", "--family", "power-exp", "--p", "5", "--q", "2",
               "--dim", "3", "--r-patch", "1e-300",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "OutOfRange" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family", [
    ["--family", "pure-power", "--p", "3", "--dim", "5"],
    ["--family", "power-exp", "--p", "5", "--q", "2", "--dim", "3"],
])
@pytest.mark.parametrize("R_max", ["1e200", "1e300"])
def test_singular_far_outer_radius_is_a_typed_error(tmp_path, capsys, family,
                                                    R_max):
    # past r = 1e154 e^(2 log r) overflows a float, taken as inf: the build
    # ends in a typed error naming the radius, not a traceback
    rc = main(["singular", *family, "--R-max", R_max,
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    r = {"pure-power": {"1e200": "3.112e+14", "1e300": "4.066e+14"},
         "power-exp": {"1e200": "8.952e+29", "1e300": "6.160e+29"}}
    assert (capsys.readouterr().err == "StepUnderflow: singular profile "
            f"lost positivity at r={r[family[1]][R_max]}\n")


def test_singular_pure_power_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main(["singular", "--family", "pure-power", "--p", "3",
               "--dim", "5", "--out-dir", str(out)])
    assert rc == 0
    assert not any(p.name.endswith(".partial") for p in out.iterdir())
    rows = (out / "singular_table.csv").read_text().strip().splitlines()
    assert rows[0] == "r,u_star,du_star"
    r, u, _ = map(float, rows[200].split(","))
    assert u == pytest.approx(math.sqrt(2.0) / r, rel=1e-3)
    doc = json.loads((out / "singular_verification.json").read_text())
    assert doc["flux_identity_max_rel_residual"] <= 1e-4
    assert doc["config"]["p"] == 3.0
    tol = doc["tolerances"]
    assert tol["patch_mismatch"] <= tol["patch_tol"]
    assert doc["cross_check"]["regular_below"] is True


def test_singular_ignores_outer_radius(tmp_path):
    # singular never evaluates u* at R_outer (default 8, no flag), so an
    # R_max below it is no config error there
    out = tmp_path / "out"
    rc = main(["singular", "--family", "pure-power", "--p", "3",
               "--dim", "5", "--R-max", "5", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "singular_table.csv").exists()


def test_singular_failure_leaves_partial(tmp_path):
    # an unmeetable patch tolerance aborts the build after the
    # admissibility report was started; nothing gets promoted
    path = tmp_path / "run.ini"
    path.write_text("[solver]\npatch_tol = 1e-30\n")
    out = tmp_path / "out"
    rc = main(["--config", str(path), "singular", "--family", "power-exp",
               "--p", "5", "--q", "2", "--dim", "3",
               "--out-dir", str(out)])
    assert rc == 1
    names = {p.name for p in out.iterdir()}
    assert "admissibility.json.partial" in names
    assert "singular_table.csv" not in names


# ---------------------------------------------------------------------------
# evolve / iterate / scan
# ---------------------------------------------------------------------------

def _evolve_args(out, extra=()):
    return ["evolve", "--family", "pure-power", "--p", "3", "--dim", "5",
            "--cap", "1e3", "--horizon", "0.05", "--n-nodes", "65",
            "--out-dir", str(out), *extra]


def test_evolve_truncated_profile_is_global(tmp_path):
    out = tmp_path / "out"
    assert main(_evolve_args(out)) == 0
    doc = json.loads((out / "evolve.json").read_text())
    assert doc["classification"] == "GlobalBounded"
    header = (out / "norm_series.csv").read_text().splitlines()[0]
    assert header == "t,sup_norm,l1ul_norm,f_mass_inner"
    assert (out / "snapshots.csv").read_text().startswith("t,r,u\n")


def test_evolve_snapshots_csv_holds_the_outcome_rows(tmp_path, monkeypatch):
    # snapshots.csv holds min(9, rows) rows of the outcome's snapshot
    # matrix, spread from the first to the last, one line per grid node
    reports = []

    def scan(*args, **kwargs):
        reports.append(threshold_scan(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr("heatlab.cli.threshold_scan", scan)
    out = tmp_path / "out"
    assert main(_evolve_args(out)) == 0
    o = reports[0].cases[0.0].finest
    lines = (out / "snapshots.csv").read_text().splitlines()
    assert lines[0] == "t,r,u"
    body = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    rows = len(o.times)
    k = min(9, rows)
    assert rows > 9 and body.shape == (k * o.grid.n_nodes, 3)
    idx = np.linspace(0, rows - 1, k).astype(int)
    assert idx[0] == 0 and idx[-1] == rows - 1
    t, r, u = (body[:, j].reshape(k, o.grid.n_nodes) for j in range(3))
    assert t.tobytes() == np.repeat(o.times[idx, None], o.grid.n_nodes,
                                    axis=1).tobytes()
    assert r.tobytes() == np.tile(o.grid.r, (k, 1)).tobytes()
    assert u.tobytes() == o.values[idx].tobytes()


def test_evolve_records_the_nodes_it_stepped(tmp_path):
    # cap 5 needs more nodes than the 129 asked for: evolve.json records
    # the 171 the run stepped, one snapshots.csv line per node and row
    out = tmp_path / "out"
    assert main(["evolve", "--family", "power-exp", "--p", "5", "--q", "2",
                 "--dim", "3", "--cap", "5", "--out-dir", str(out)]) == 0
    doc = json.loads((out / "evolve.json").read_text())
    assert doc["config"]["n_nodes"] == 129 and doc["nodes"] == 171
    rows = len((out / "norm_series.csv").read_text().splitlines()) - 1
    lines = (out / "snapshots.csv").read_text().splitlines()
    assert len(lines) - 1 == doc["nodes"] * min(9, rows)


def test_evolve_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_evolve_args(a)) == 0
    assert main(_evolve_args(b)) == 0
    assert (a / "norm_series.csv").read_bytes() == \
        (b / "norm_series.csv").read_bytes()


def test_evolve_pure_heat_control(tmp_path):
    out = tmp_path / "out"
    assert main(_evolve_args(out, ["--pure-heat"])) == 0
    doc = json.loads((out / "evolve.json").read_text())
    assert doc["classification"] == "GlobalBounded"


def test_evolve_ignores_bump_centre(tmp_path, capsys):
    # evolve never evaluates u* at the bump centre, so a centre beyond
    # R_max is no config error there; scan's is
    path = tmp_path / "far_bump.ini"
    path.write_text("[experiment]\nbump_r_c = 20\n")
    out = tmp_path / "out"
    assert main(_evolve_args(out, ["--config", str(path)])) == 0
    assert (out / "evolve.json").exists()
    rc = main(["scan", "--family", "pure-power", "--p", "3", "--dim", "5",
               "--config", str(path), "--out-dir", str(tmp_path / "scan")])
    assert rc == 2
    assert "bump_r_c must be <= R_max" in capsys.readouterr().err


def test_iterate_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main(["iterate", "--family", "pure-power", "--p", "3",
               "--dim", "5", "--n-nodes", "64", "--out-dir", str(out)])
    assert rc == 0
    below = json.loads((out / "ladder_below.json").read_text())
    assert below["seed"] == "from_below"
    assert below["k"] == 6
    assert below["ordering_violation_max"] <= 1e-8
    above = json.loads((out / "ladder_above.json").read_text())
    gaps = above["cauchy_gaps"]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    summary = json.loads((out / "iterate_summary.json").read_text())
    assert summary["cross_chain_violation_max"] <= 1e-8


def test_iterate_slice_above_the_floor_runs(tmp_path):
    # t_obs = 1e-25 takes slices of 1.6e-27, above S(t)'s floor 1.26e-29
    rc = main(["iterate", "--family", "pure-power", "--p", "3", "--dim", "5",
               "--t-obs", "1e-25", "--n-nodes", "64",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0


def test_iterate_broken_ordering_keeps_artifacts(tmp_path, capsys):
    # a cap of 50 is no discrete supersolution: the from-above chain breaks
    # its ordering, and the command writes every ladder before it exits 1
    out = tmp_path / "out"
    rc = main(["iterate", "--family", "pure-power", "--p", "3", "--dim", "5",
               "--iterate-cap", "50", "--out-dir", str(out)])
    assert rc == 1
    above = json.loads((out / "ladder_above.json").read_text())
    assert above["k"] == 6
    assert above["ordering_violation_max"] > 1e-6
    assert (out / "ladder_below.json").exists()
    assert (out / "iterate_summary.json").exists()
    err = capsys.readouterr().err
    assert err == "from_above chain broke ordering by 7.144e-01\n"


def test_scan_artifacts(tmp_path):
    out = tmp_path / "out"
    rc = main(["scan", "--family", "pure-power", "--p", "3", "--dim", "5",
               "--amplitudes=-0.3,0.3", "--caps", "1e4",
               "--scan-horizon", "0.5", "--out-dir", str(out)])
    assert rc == 0
    rows = (out / "scan.csv").read_text().strip().splitlines()
    assert rows[0] == ("amplitude,classification,t_detect,cap,"
                      "sup_final,reaction_mass_final,nodes")
    classes = [r.split(",")[1] for r in rows[1:]]
    assert classes == ["GlobalBounded", "BlowUp"]
    doc = json.loads((out / "scan.json").read_text())
    assert doc["config"]["run"]["family"] == "pure-power"
    assert doc["classifications"] == ["GlobalBounded", "BlowUp"]


def _fake_case(cls, cap):
    grid = make_grid(3, 2.0, 9)
    outcome = EvolutionOutcome(classification=cls, cap=cap, t_detect=None,
                               grid=grid, times=np.array([0.0, 0.5]),
                               values=np.repeat([[3.0], [2.0]], grid.n_nodes,
                                                axis=1),
                               sup_series=np.array([3.0, 2.0]),
                               mass_series=np.array([0.1, 0.05]))
    return CaseReport({cap: outcome}, cls, True, None)


@pytest.mark.parametrize("argv, classes", [
    (["scan", "--caps", "1e4", "--amplitudes=-0.1,0.1"],
     ["GlobalBounded", "Undetermined"]),
    (["evolve", "--cap", "1e4"], ["Undetermined"]),
    (["scan", "--caps", "1e4", "--amplitudes=-0.1,0,0.1"],
     ["GlobalBounded", "BlowUp", "GlobalBounded"]),
])
def test_undetermined_case_exits_1(tmp_path, monkeypatch, argv, classes):
    # scan and evolve share one rule: exit 1 when any case is Undetermined
    # or the verdicts are not monotone in the amplitude; the scan is faked
    # so that the verdicts do not hang on guard tuning
    def fake_scan(spec, table, bump, A_grid, caps, **kwargs):
        amps = np.array(sorted(A_grid))
        cases = {a: _fake_case(cls, caps[0])
                 for a, cls in zip(amps.tolist(), classes)}
        return ScanReport(amps, cases, {"caps": list(caps)})

    monkeypatch.setattr("heatlab.cli.threshold_scan", fake_scan)
    out = tmp_path / "out"
    assert main([*argv, "--family", "pure-power", "--p", "3", "--dim", "5",
                 "--out-dir", str(out)]) == 1
    # the artifacts are written all the same
    assert (out / f"{argv[0]}.json").exists()
