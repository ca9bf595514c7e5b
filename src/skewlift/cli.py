"""Command-line driver: convergence studies and interface-detection runs.

Two subcommands:

* ``skewlift run``    -- build one of the three test cases, train a reduction
  space adaptively, sweep m = 1..m_max and write a convergence CSV with
  columns m, err_V_rel, err_L2_rel, delta_m, e_pod, lambda_m, pbar_norm.
* ``skewlift detect`` -- run interface detection on a named data function and
  write the located polyline CSV.

Flags may also be supplied through a plain key=value config file (--config);
a flag given on the command line wins. Exit codes: 0 success, 2 configuration
error, 3 numerical failure; any other exception is a bug and propagates.
"""

import argparse
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import cases
from .estimator import error_report, reports_to_csv
from .interface import InterfaceNotFoundError, locate_interface
from .mesh import TensorGrid, build_uniform_partition
from .problem import reference_operators, solve_reference
from .reduced import assemble_reduced, solve_reduced
from .training import adaptive_train_extension, pod


class ConfigError(ValueError):
    pass


MODE_MAP = {
    "gD": "plain_gD",
    "lift": "weak_lifting",
    "delta-h": "delta_h",
    "riesz": "riesz_recon",
}


@dataclass
class RunConfig:
    """Hyperparameters of one convergence study."""

    case: int = 1
    NH: int = 80
    nh: int = 40
    NHp: int = 10
    qbar: int = 2
    mode: str = "lift"
    m_max: int = 8
    i_max: int = 1
    n_xi: int = 4
    theta: float = 0.1
    sigma_thres: float = 30.0
    eps_tol: float = 0.0
    seed: int = 0
    out: str = "convergence.csv"
    g0: int = 2  # initial training grid: g0^qbar cells

    def validate(self):
        for name in ("qbar", "m_max", "i_max", "n_xi", "g0"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        for name in ("NH", "nh", "NHp"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be at least 2 (one interior "
                                  f"grid node)")
        if self.case not in (1, 2, 3):
            raise ConfigError(f"case must be 1, 2 or 3 (got {self.case})")
        if self.mode not in MODE_MAP:
            raise ConfigError(
                f"mode must be one of {sorted(MODE_MAP)} (got {self.mode!r})")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must lie in (0, 1] (got {self.theta})")
        if self.sigma_thres <= 0.0:
            raise ConfigError("sigma-thres must be positive")
        if self.eps_tol < 0.0:
            raise ConfigError("eps-tol must be nonnegative")
        return self


@dataclass
class DetectConfig:
    """Configuration of one interface-detection run."""

    data: str = "case1-f"
    NHp: int = 20
    nh: int = 100
    mode: str = "min"
    out: str = "interface.csv"

    def validate(self):
        if self.NHp < 1:
            raise ConfigError("NHp must be a positive integer")
        if self.nh < 3:
            # fewer than two y-differences per station have no spread
            raise ConfigError(f"nh must be at least 3 (got {self.nh})")
        if self.mode not in ("max", "min", "both"):
            raise ConfigError(f"mode must be max, min or both (got {self.mode!r})")
        try:
            cases.detection_data(self.data)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
        return self


def run_case(cfg, log=print):
    """Execute one convergence study; returns the ErrorReport rows."""
    t_start = time.perf_counter()
    case = cases.get_case(cfg.case)
    pd, lift = case.problem, case.lift
    mode = MODE_MAP[cfg.mode]
    th = build_uniform_partition(pd.omega_x[0], pd.omega_x[1], cfg.NH)
    yh = build_uniform_partition(pd.omega_y[0], pd.omega_y[1], cfg.nh)
    grid = TensorGrid(th, yh)

    log(f"[{case.name}] mode={mode} grid {cfg.NH}x{cfg.nh}, "
        f"indicator grid {cfg.NHp}x{cfg.nh}, qbar={cfg.qbar}")
    ops = reference_operators(pd, lift, grid, mode)
    ref = solve_reference(ops)
    log(f"  reference solved ({grid.node_count} nodes, "
        f"{time.perf_counter() - t_start:.2f}s)")

    result = adaptive_train_extension(
        ops, cfg.g0, cfg.m_max, cfg.i_max, cfg.n_xi, cfg.theta,
        cfg.sigma_thres, cfg.NHp, qbar=cfg.qbar, seed=cfg.seed)
    n_mu = len({s.mu for s in result.snapshots})
    log(f"  training: {len(result.cells)} cells, {n_mu} parameter points, "
        f"{len(result.snapshots)} snapshots "
        f"({time.perf_counter() - t_start:.2f}s)")

    space = pod(result.snapshots, yh, count=cfg.m_max)
    if space.m < cfg.m_max:
        raise RuntimeError(
            f"POD yielded only {space.m} numerically independent modes "
            f"(< m_max={cfg.m_max}); enlarge the training set (n-xi, g0)")
    if cfg.eps_tol > 0.0:
        reached = [m for m in range(1, space.m + 1)
                   if space.tail(m) <= cfg.eps_tol]
        if reached:
            log(f"  POD tail meets eps-tol {cfg.eps_tol:g} at m={reached[0]}")
        else:
            log(f"  POD tail does not reach eps-tol {cfg.eps_tol:g} "
                f"within m_max={cfg.m_max}")

    full = assemble_reduced(ops, space)
    reports = []
    for m in range(1, cfg.m_max + 1):
        rsol = solve_reduced(full.truncate(m))
        rep = error_report(ops, ref, rsol)
        reports.append(rep)
        log(f"  m={m:3d}  err_V_rel={rep.err_V_rel:.3e}  "
            f"err_L2_rel={rep.err_L2_rel:.3e}  delta_m={rep.delta_m:.3e}  "
            f"e_pod={rep.e_pod:.3e}")
    reports_to_csv(reports, cfg.out)
    log(f"  wrote {cfg.out} ({len(reports)} rows, "
        f"{time.perf_counter() - t_start:.2f}s total)")
    return reports


def run_detect(cfg, log=print):
    """Execute one interface-detection run; returns the located curve."""
    data = cases.detection_data(cfg.data)
    coarse = build_uniform_partition(0.0, 2.0, cfg.NHp)
    fine = build_uniform_partition(0.0, 1.0, cfg.nh)
    t0 = time.perf_counter()
    curve = locate_interface(data, coarse, fine, mode=cfg.mode)
    log(f"[detect {cfg.data}] {cfg.NHp}x{cfg.nh} cells, mode={cfg.mode}, "
        f"{time.perf_counter() - t0:.3f}s")
    curve.to_csv(cfg.out)
    log(f"  wrote {cfg.out} ({curve.xs.size} vertices)")
    return curve


# ---------------------------------------------------------------------------
# Argument / config-file handling

def read_config_file(path, cfg_cls):
    """Parse a plain key=value file (# comments, blank lines allowed) into
    values of the fields of cfg_cls, converted by their declared types."""
    types = {f.name: f.type for f in fields(cfg_cls)}
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in types:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        try:
            values[key] = types[key](val.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: bad value for {key}: {exc}") from exc
    return values


def _add_run_flags(p):
    p.add_argument("--config", help="key=value config file (flags win)")
    p.add_argument("--case", type=int, help="test case: 1, 2 or 3")
    p.add_argument("--NH", type=int, help="reference elements along x")
    p.add_argument("--nh", type=int, help="elements along y")
    p.add_argument("--NHp", type=int, help="coarse indicator elements along x")
    p.add_argument("--qbar", type=int, help="quadrature points per parameter")
    p.add_argument("--mode", choices=sorted(MODE_MAP),
                   help="lifting treatment: gD | lift | delta-h | riesz")
    p.add_argument("--m-max", type=int, help="largest reduced dimension")
    p.add_argument("--i-max", type=int, help="mark/refine rounds per iteration")
    p.add_argument("--n-xi", type=int, help="samples per training cell")
    p.add_argument("--theta", type=float, help="marking fraction in (0, 1]")
    p.add_argument("--sigma-thres", type=float, help="age-indicator threshold")
    p.add_argument("--eps-tol", type=float, help="POD tail tolerance to report")
    p.add_argument("--seed", type=int, help="training RNG seed")
    p.add_argument("--g0", type=int, help="initial cells per parameter direction")
    p.add_argument("--out", help="output CSV path")


def _add_detect_flags(p):
    p.add_argument("--config", help="key=value config file (flags win)")
    p.add_argument("--data", help="data function: case1-f | case1-f-adv | step")
    p.add_argument("--NHp", type=int, help="coarse sampling elements along x")
    p.add_argument("--nh", type=int, help="fine sampling elements along y")
    p.add_argument("--mode", choices=("max", "min", "both"),
                   help="derivative extremum to track")
    p.add_argument("--out", help="output CSV path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewlift",
        description="Interface-aware tensor model reduction studies")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(sub.add_parser("run", help="convergence study"))
    _add_detect_flags(sub.add_parser("detect", help="interface detection"))
    return parser


def _merge(cfg_cls, args):
    base = {}
    if args.config:
        base = read_config_file(args.config, cfg_cls)
    for f in fields(cfg_cls):
        v = getattr(args, f.name, None)
        if v is not None:
            base[f.name] = v
    try:
        return cfg_cls(**base).validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            cfg = _merge(RunConfig, args)
            runner = run_case
        else:
            cfg = _merge(DetectConfig, args)
            runner = run_detect
    except ConfigError as exc:
        print(f"skewlift: config error: {exc}", file=sys.stderr)
        return 2
    try:
        runner(cfg)
    except (ConfigError, InterfaceNotFoundError) as exc:
        # domain problems surfacing mid-run still count as numerical failures
        print(f"skewlift: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # numerical guards; programming errors (ValueError, KeyError, ...)
        # propagate with their traceback
        print(f"skewlift: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
