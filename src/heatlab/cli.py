"""Command-line front end.

Subcommands: check, singular, evolve, iterate, scan.  Configuration comes
from an INI-style file (sections [nonlinearity], [domain], [solver],
[experiment]) with command-line flags taking precedence.  Exit codes:
0 success, 1 scientific failure, 2 usage or configuration error.  A
finding (an Undetermined or non-monotone scan, a ladder that broke its
ordering) is report data: it exits 1 after every artifact is written.

Artifacts writes every file a run leaves: each command names its CSV
headers and rows (numbers to 17 significant digits, so every value reads
back exactly) and its JSON documents, built from the reports' to_dict().
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import HeatLabError
from .evolution import RadialField, field_from_table
from .iteration import N_SLICES, LadderSeed, run_ladder
from .nonlinearity import (
    NonlinearitySpec,
    check_admissibility,
    cutoff_exp,
    power_exp,
    pure_power,
    sobolev_exponent,
)
from .singular_ode import (
    asymptotic_ratio,
    build_singular,
    pure_power_profile_coefficient,
    trace_pohozaev,
    verify_flux_identity,
)
from .threshold import RadialBump, _distinct, case_grid, threshold_scan

__all__ = ["RunConfig", "load_config", "main",
           "cmd_check", "cmd_singular", "cmd_evolve", "cmd_iterate",
           "cmd_scan"]


@dataclass
class RunConfig:
    """Resolved run configuration (defaults < file < flags)."""

    # nonlinearity
    family: str = "power-exp"
    p: float = 5.0
    q: float = 2.0
    a: float = 20.0
    # domain
    dim: int = 3
    r_patch: float = 1e-3
    R_max: float = 10.0
    R_outer: float = 8.0
    n_nodes: int = 129
    # solver
    cap: float = 1e6
    caps: str = "1e4,1e5"
    horizon: float = 0.5
    patch_tol: float = 1e-5
    # experiment
    t_obs: float = 0.01
    k_max: int = 6
    n_slices: int = N_SLICES
    iterate_cap: float = 2.0
    seed_factor: float = 0.9
    bump_r_c: float = 2.0
    bump_sigma: float = 2.0
    amplitudes: str = "-0.3,-0.1,0.1,0.3"
    scan_horizon: float = 2.0
    pure_heat: bool = False
    verbose: bool = False

    def _float_list(self, key):
        raw = str(getattr(self, key))
        try:
            return tuple(float(x) for x in raw.split(","))
        except ValueError:
            raise ValueError(f"{key} must be a comma-separated list of "
                             f"numbers, got '{raw}'") from None

    def cap_list(self):
        return self._float_list("caps")

    def amplitude_factors(self):
        return self._float_list("amplitudes")

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.family not in ("power-exp", "cutoff-exp", "pure-power"):
            raise ValueError(f"unknown family '{self.family}'")
        if self.dim < 3:
            raise ValueError("dim must be >= 3")
        if self.family == "power-exp":
            if self.q <= 1:
                raise ValueError("power-exp requires q > 1")
            if self.p < sobolev_exponent(self.dim):
                raise ValueError(
                    f"power-exp requires p >= {sobolev_exponent(self.dim):g} "
                    f"in dimension {self.dim}")
        if self.family == "pure-power" and self.p <= 1:
            raise ValueError("pure-power requires p > 1")
        if self.family == "cutoff-exp" and self.a <= 0:
            raise ValueError("cutoff-exp requires a > 0")
        for key in ("r_patch", "R_max", "R_outer", "cap", "horizon",
                    "patch_tol", "t_obs", "scan_horizon", "bump_r_c",
                    "bump_sigma", "iterate_cap"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")
        if self.r_patch >= self.R_max:
            raise ValueError("r_patch must be < R_max")
        if self.seed_factor < 0:
            raise ValueError("seed_factor must be >= 0")
        if self.n_nodes < 8:
            raise ValueError("n_nodes must be >= 8")
        if self.k_max < 1 or self.n_slices < 1:
            raise ValueError("k_max and n_slices must be >= 1")
        if any(c <= 0 for c in self.cap_list()):
            raise ValueError("caps must be positive")
        for key in ("caps", "amplitudes"):
            values, shown = self._float_list(key), f"'{getattr(self, key)}'"
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{key} must be finite, got {shown}")
            _distinct(key, values, shown)

    def spec(self):
        if self.family == "power-exp":
            return power_exp(self.p, self.q)
        if self.family == "cutoff-exp":
            return cutoff_exp(self.a)
        return pure_power(self.p)

    def echo(self) -> dict:
        return asdict(self)


_SECTION_KEYS = {
    "nonlinearity": ("family", "p", "q", "a"),
    "domain": ("dim", "r_patch", "R_max", "R_outer", "n_nodes"),
    "solver": ("cap", "caps", "horizon", "patch_tol"),
    "experiment": ("t_obs", "k_max", "n_slices", "iterate_cap",
                   "seed_factor", "bump_r_c", "bump_sigma", "amplitudes",
                   "scan_horizon", "pure_heat"),
}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind == "bool":
        word = str(raw).strip().lower()
        if word not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"{name} must be true/false, yes/no, on/off "
                             f"or 1/0, got '{raw}'")
        return configparser.ConfigParser.BOOLEAN_STATES[word]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return str(raw)


def load_config(path=None, overrides=None) -> RunConfig:
    """Build a RunConfig from an optional INI file plus flag overrides."""
    values = {}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str    # keep the case of R_max and R_outer
        read = parser.read(path)
        if not read:
            raise ValueError(f"cannot read config file '{path}'")
        if parser.defaults():       # its keys would reach every section
            raise ValueError("unknown section [DEFAULT]")
        for section in parser.sections():
            keys = _SECTION_KEYS.get(section)
            if keys is None:
                raise ValueError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in keys:
                    raise ValueError(
                        f"unknown key '{key}' in section [{section}]")
                values[key] = _coerce(key, raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = _coerce(key, val) if isinstance(val, str) else val
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


class Artifacts:
    """Writes artifacts under .partial names, renaming on success only."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self._pending = []

    def path(self, name: str) -> str:
        partial = os.path.join(self.out_dir, name + ".partial")
        self._pending.append((partial, os.path.join(self.out_dir, name)))
        return partial

    def write_json(self, name: str, doc: dict) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(doc, fh, indent=2)

    def write_csv(self, name: str, header, rows) -> None:
        """CSV with a header line: strings as given, numbers as %.17g,
        which reads back exactly.  The first row sets each column's kind."""
        with open(self.path(name), "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fmt = None
            for row in rows:
                if fmt is None:
                    fmt = ",".join("%s" if isinstance(v, str) else "%.17g"
                                   for v in row) + "\n"
                fh.write(fmt % tuple(row))

    def commit(self) -> None:
        for partial, final in self._pending:
            if os.path.exists(partial):
                os.replace(partial, final)
        self._pending = []


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(cfg: RunConfig, out: Artifacts) -> int:
    report = check_admissibility(cfg.spec(), cfg.dim)
    out.write_json("admissibility.json",
                   {**report.to_dict(), "config": cfg.echo()})
    out.commit()
    if cfg.verbose:
        for c in report.conditions.values():
            print(f"{c.name}: {c.verdict}")
    return 0 if report.all_pass else 1


def _build_table(cfg: RunConfig, spec: NonlinearitySpec):
    """u* of the command's one spec, so that the profile and every check
    on it share one log F table."""
    return build_singular(spec, cfg.dim, r_patch=cfg.r_patch,
                          R_max=cfg.R_max, patch_tol=cfg.patch_tol)


def cmd_singular(cfg: RunConfig, out: Artifacts) -> int:
    spec = cfg.spec()
    report = check_admissibility(spec, cfg.dim)
    # the tail-convexity condition only gates the exponential-class
    # asymptotics; the profile itself exists whenever the remaining
    # conditions hold (supercritical pure powers fail tail convexity but
    # have an explicit singular profile)
    blocking = [c for name, c in report.conditions.items()
                if name != "A3" and not c.passed]
    out.write_json("admissibility.json",
                   {**report.to_dict(), "config": cfg.echo()})
    if blocking:
        out.commit()
        return 1
    table = _build_table(cfg, spec)
    out.write_csv("singular_table.csv", ("r", "u_star", "du_star"),
                  zip(table.r, table.u, table.du))
    out.write_csv("asymptotic_ratio.csv", ("r", "ratio"),
                  asymptotic_ratio(table, spec))
    trace = trace_pohozaev(table, spec)
    out.write_json("singular_verification.json", {
        "config": cfg.echo(),
        "flux_identity_max_rel_residual": verify_flux_identity(table, spec),
        "pohozaev_max_fd_slope": trace.max_fd_slope,
        "patch_method": table.patch_method,
        "tolerances": table.tolerances,
        "cross_check": table.cross_check,
    })
    out.commit()
    return 0


def _exit_code(report) -> int:
    """1 when a case is Undetermined or the verdicts are not monotone in
    the amplitude (said on stderr), else 0."""
    classes = report.classifications()
    if not report.monotone:
        print(f"scan not monotone in amplitude: {classes}", file=sys.stderr)
    return 1 if "Undetermined" in classes or not report.monotone else 0


def cmd_evolve(cfg: RunConfig, out: Artifacts) -> int:
    spec = cfg.spec()
    table = _build_table(cfg, spec)
    # the capped profile min(u*, cap): the zero bump at the one cap
    report = threshold_scan(None if cfg.pure_heat else spec, table,
                            RadialBump(cfg.bump_r_c, cfg.bump_sigma, 0.0),
                            [0.0], horizon=cfg.horizon, caps=(cfg.cap,),
                            n_nodes=cfg.n_nodes, R_outer=cfg.R_outer)
    case = report.cases[0.0]
    o = case.finest
    out.write_csv("norm_series.csv",
                  ("t", "sup_norm", "l1ul_norm", "f_mass_inner"),
                  zip(o.times, o.sup_series, o.l1ul_series, o.mass_series))
    idx = np.linspace(0, len(o.times) - 1,
                      min(9, len(o.times))).astype(int)
    # long format: one row (t, r, u) per node of each chosen snapshot row
    out.write_csv("snapshots.csv", ("t", "r", "u"),
                  ((o.times[k], r, u) for k in idx
                   for r, u in zip(o.grid.r, o.values[k])))
    out.write_json("evolve.json", {
        "config": cfg.echo(),
        "classification": case.classification,
        "t_detect": case.t_detect,
        "sup_final": o.sup_final,
        "nodes": o.grid.n_nodes,
    })
    out.commit()
    return _exit_code(report)


def cmd_iterate(cfg: RunConfig, out: Artifacts) -> int:
    spec = cfg.spec()
    table = _build_table(cfg, spec)
    grid = case_grid(table, cfg.iterate_cap, cfg.R_outer, cfg.n_nodes)
    envelope = field_from_table(table, grid, cap=cfg.iterate_cap, spec=spec)
    u0 = RadialField(grid, cfg.seed_factor * envelope.u, envelope.cap_mask)
    below = run_ladder("from_below", u0, spec, cfg.t_obs, k_max=cfg.k_max,
                       n_slices=cfg.n_slices, ladder_tol=0.0)
    above = run_ladder(LadderSeed.from_above(envelope), u0, spec, cfg.t_obs,
                       k_max=cfg.k_max, n_slices=cfg.n_slices,
                       ladder_tol=0.0)
    for name, ladder in (("ladder_below.json", below),
                         ("ladder_above.json", above)):
        out.write_json(name, {**ladder.to_dict(), "config": cfg.echo()})
    cross = max(float((below.trajectories[k].values
                       - above.trajectories[k].values).max())
                for k in range(min(below.k, above.k) + 1))
    out.write_json("iterate_summary.json", {
        "config": cfg.echo(),
        "cross_chain_violation_max": cross,
        "gaps_nonincreasing": bool(
            np.all(np.diff(above.cauchy_gaps) <= 1e-12)),
    })
    out.commit()
    broken = "; ".join(f"{ladder.seed.kind} chain broke ordering by "
                       f"{ladder.ordering_violation_max:.3e}"
                       for ladder in (below, above) if not ladder.ordered)
    if broken:
        print(broken, file=sys.stderr)
    return 1 if broken else 0


def cmd_scan(cfg: RunConfig, out: Artifacts) -> int:
    spec = cfg.spec()
    table = _build_table(cfg, spec)
    u_ref = table.u_star(cfg.bump_r_c)
    A_grid = [fa * u_ref for fa in cfg.amplitude_factors()]
    bump = RadialBump(cfg.bump_r_c, cfg.bump_sigma, 0.0)
    report = threshold_scan(None if cfg.pure_heat else spec, table, bump,
                            A_grid, horizon=cfg.scan_horizon,
                            caps=cfg.cap_list(), n_nodes=cfg.n_nodes,
                            R_outer=cfg.R_outer)
    out.write_csv("scan.csv", ("amplitude", "classification", "t_detect",
                               "cap", "sup_final", "reaction_mass_final",
                               "nodes"),
                  report.rows())
    doc = report.to_dict()
    doc["config"]["run"] = cfg.echo()
    out.write_json("scan.json", doc)
    out.commit()
    return _exit_code(report)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--family", choices=["power-exp", "cutoff-exp",
                                          "pure-power"])
    sub.add_argument("--p", type=float)
    sub.add_argument("--q", type=float)
    sub.add_argument("--a", type=float)
    # the global flags are also accepted after the subcommand; SUPPRESS
    # keeps them from clobbering values parsed before it
    sub.add_argument("--config", default=argparse.SUPPRESS)
    sub.add_argument("--out-dir", dest="out_dir",
                     default=argparse.SUPPRESS)
    sub.add_argument("--dim", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--verbose", action="store_true",
                     default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="Singular stationary profiles of the semilinear heat "
                    "equation and their threshold behaviour.")
    parser.add_argument("--config")
    parser.add_argument("--out-dir")
    parser.add_argument("--dim", type=int)
    parser.add_argument("--verbose", action="store_true")
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("check", "singular", "evolve", "iterate", "scan"):
        sub = subs.add_parser(name)
        _add_common(sub)
    subs.choices["singular"].add_argument("--r-patch", type=float,
                                          dest="r_patch")
    subs.choices["singular"].add_argument("--R-max", type=float,
                                          dest="R_max")
    for name in ("evolve", "iterate", "scan"):
        subs.choices[name].add_argument("--n-nodes", type=int,
                                        dest="n_nodes")
    subs.choices["evolve"].add_argument("--cap", type=float)
    subs.choices["evolve"].add_argument("--horizon", type=float)
    subs.choices["evolve"].add_argument("--pure-heat", action="store_true",
                                        dest="pure_heat", default=None)
    subs.choices["iterate"].add_argument("--k-max", type=int, dest="k_max")
    subs.choices["iterate"].add_argument("--t-obs", type=float,
                                         dest="t_obs")
    subs.choices["iterate"].add_argument("--iterate-cap", type=float,
                                         dest="iterate_cap")
    subs.choices["scan"].add_argument("--amplitudes")
    subs.choices["scan"].add_argument("--caps")
    subs.choices["scan"].add_argument("--scan-horizon", type=float,
                                      dest="scan_horizon")
    subs.choices["scan"].add_argument("--sigma", type=float,
                                      dest="bump_sigma")
    subs.choices["scan"].add_argument("--r-c", type=float, dest="bump_r_c")
    subs.choices["scan"].add_argument("--pure-heat", action="store_true",
                                      dest="pure_heat", default=None)
    return parser


_COMMANDS = {
    "check": cmd_check,
    "singular": cmd_singular,
    "evolve": cmd_evolve,
    "iterate": cmd_iterate,
    "scan": cmd_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k in _FIELD_TYPES and v is not None}
    try:
        cfg = load_config(args.config, overrides)
        if args.command in ("evolve", "iterate", "scan"):
            # u* is evaluated at R_outer, and by scan at the bump centre
            if cfg.R_outer > cfg.R_max:
                raise ValueError("R_outer must be <= R_max")
            if args.command == "scan" and cfg.bump_r_c > cfg.R_max:
                raise ValueError("bump_r_c must be <= R_max")
            if cfg.family == "pure-power":     # these runs start from u*
                pure_power_profile_coefficient(cfg.p, cfg.dim)
    except (ValueError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out_dir
    if out_dir is None:
        out_dir = os.path.join("heatlab-runs",
                               time.strftime("%Y%m%d-%H%M%S"))
    out = Artifacts(out_dir)
    try:
        return _COMMANDS[args.command](cfg, out)
    except HeatLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
