"""Command-line driver: convergence studies and interface-detection runs.

Two subcommands:

* ``skewlift run``    -- build one of the three test cases, train a reduction
  space adaptively, sweep m = 1..m_max and write a convergence CSV with
  columns m, err_V_rel, err_L2_rel, delta_m, e_pod, lambda_m, pbar_norm.
* ``skewlift detect`` -- run interface detection on a named data function and
  write the located polyline CSV.

Each flag is one field of RunConfig or DetectConfig, which declares its
default, help text and any bound or allowed values; the flags, the keys of a
key=value --config file (a flag wins) and validate's checks come from the
fields. Exit codes: 0 success, 2 configuration error, 3 numerical failure;
any other exception is a bug and propagates.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import cases
from .estimator import error_report, reports_to_csv
from .interface import DETECT_MODES, InterfaceNotFoundError, locate_interface
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
}


def _knob(default, help, low=None, choices=None):
    """A config field that declares its knob: the default, the --help text
    and, where it has them, the smallest value or the allowed values."""
    return field(default=default,
                 metadata={"help": help, "low": low, "choices": choices})


def _bound(f):
    """The declared bound or choices of config field f as text, or ""."""
    low, choices = f.metadata["low"], f.metadata["choices"]
    if low is not None:
        return f"at least {low}"
    if choices is not None:
        return "one of " + ", ".join(map(str, choices))
    return ""


def _check_knobs(cfg):
    """Check every field of cfg against its declared bound or choices, and
    reject an output directory that does not exist ("" is the cwd)."""
    for f in fields(cfg):
        value, low = getattr(cfg, f.name), f.metadata["low"]
        choices = f.metadata["choices"]
        if ((low is not None and value < low)
                or (choices is not None and value not in choices)):
            raise ConfigError(f"{f.name} must be {_bound(f)} (got {value!r})")
    folder = os.path.dirname(cfg.out)
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"output directory {folder!r} does not exist")
    return cfg


@dataclass
class RunConfig:
    """Hyperparameters of one convergence study."""

    case: int = _knob(1, "test case", choices=cases.CASES)
    # NH, nh, NHp: a grid needs one interior node
    NH: int = _knob(80, "reference elements along x", low=2)
    nh: int = _knob(40, "elements along y", low=2)
    NHp: int = _knob(10, "coarse indicator elements along x", low=2)
    qbar: int = _knob(2, "quadrature points per parameter", low=1)
    mode: str = _knob("lift", "lifting treatment", choices=MODE_MAP)
    m_max: int = _knob(8, "largest reduced dimension (at most nh - 1)", low=1)
    i_max: int = _knob(1, "mark/refine rounds per iteration", low=1)
    n_xi: int = _knob(4, "samples per training cell", low=1)
    theta: float = _knob(0.1, "marking fraction in (0, 1]")
    sigma_thres: float = _knob(30.0, "age-indicator threshold (positive)")
    seed: int = _knob(0, "training RNG seed", low=0)
    out: str = _knob("convergence.csv", "output CSV path")
    g0: int = _knob(2, "initial cells per parameter direction", low=1)

    def validate(self):
        _check_knobs(self)
        # POD modes vanish on the transverse boundary, so at most nh - 1 of
        # them are independent
        if self.m_max > self.nh - 1:
            raise ConfigError(
                f"m_max={self.m_max} exceeds nh - 1 = {self.nh - 1}, the "
                f"number of independent transverse modes "
                f"(need m_max <= nh - 1)")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must lie in (0, 1] (got {self.theta})")
        if self.sigma_thres <= 0.0:
            raise ConfigError("sigma-thres must be positive")
        # an initial cell is NH / g0 elements wide; the sampler redraws a
        # sample on the diagonal cell until its qbar components land in
        # distinct elements, which needs a whole element of room per
        # component (1.005 elements for qbar = 2 failed 87 of 200 seeds)
        if self.qbar > 1 and self.NH < self.qbar * self.g0:
            raise ConfigError(
                f"g0={self.g0} initial cells per axis are too narrow for "
                f"qbar={self.qbar} samples in distinct elements of NH="
                f"{self.NH} (need NH >= qbar g0)")
        return self


@dataclass
class DetectConfig:
    """Configuration of one interface-detection run."""

    data: str = _knob("case1-f", "data function",
                      choices=cases.DETECTION_DATA)
    NHp: int = _knob(20, "coarse sampling elements along x", low=1)
    # fewer than two y-differences per station have no spread
    nh: int = _knob(100, "fine sampling elements along y", low=3)
    mode: str = _knob("min", "derivative extremum to track",
                      choices=DETECT_MODES)
    out: str = _knob("interface.csv", "output CSV path")

    def validate(self):
        return _check_knobs(self)


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
    n_mu = len({mu for cell in result.cells for mu in cell.samples})
    log(f"  training: {len(result.cells)} cells, {n_mu} parameter points, "
        f"{len(result.snapshots)} snapshots "
        f"({time.perf_counter() - t_start:.2f}s)")

    space = pod(result.snapshots, yh, count=cfg.m_max)
    if space.m < cfg.m_max:
        raise RuntimeError(
            f"POD yielded only {space.m} numerically independent modes "
            f"(< m_max={cfg.m_max}); enlarge the training set (n-xi, g0)")

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


_COMMANDS = {"run": (RunConfig, "convergence study"),
             "detect": (DetectConfig, "interface detection")}


def build_parser():
    """The run and detect subcommands, one --flag per config field (the
    field name with _ as -) plus --config."""
    parser = argparse.ArgumentParser(
        prog="skewlift",
        description="Interface-aware tensor model reduction studies")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (cfg_cls, summary) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--config", help="key=value config file (flags win)")
        for f in fields(cfg_cls):
            bound = _bound(f)
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=f.type, help=f.metadata["help"]
                           + (f"; {bound}" if bound else ""))
    return parser


def _merge(cfg_cls, args):
    base = {}
    if args.config:
        base = read_config_file(args.config, cfg_cls)
    for f in fields(cfg_cls):
        v = getattr(args, f.name, None)
        if v is not None:
            base[f.name] = v
    return cfg_cls(**base).validate()


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge(_COMMANDS[args.command][0], args)
        # by module-global name, so that a wrapper rebinding cli.run_case
        # sees the call
        runner = run_case if args.command == "run" else run_detect
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
