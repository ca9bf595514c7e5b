"""Command-line driver: flags, config files, exit codes, determinism."""

import csv
import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import pytest

from skewlift import cli, problem
from skewlift.cli import (
    MODE_MAP,
    ConfigError,
    DetectConfig,
    RunConfig,
    main,
    read_config_file,
)
from skewlift.cases import case1
from skewlift.mesh import TensorGrid, build_uniform_partition
from skewlift.problem import MODES, reference_operators, solve_reference


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _run_args(out, **over):
    base = dict(case=1, NH=24, nh=12, NHp=6, m_max=3, n_xi=2, theta=0.5,
                g0=2, seed=0)
    base.update(over)
    args = ["run", "--out", str(out)]
    for key, val in base.items():
        args += [f"--{key.replace('_', '-')}", str(val)]
    return args


def test_run_writes_convergence_csv(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    assert main(_run_args(out)) == 0
    rows = _read_rows(out)
    assert rows[0] == ["m", "err_V_rel", "err_L2_rel", "delta_m", "e_pod",
                       "lambda_m", "pbar_norm"]
    assert len(rows) == 4  # header + m = 1..3
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    errs = [float(r[1]) for r in rows[1:]]
    assert errs[-1] < errs[0]
    log = capsys.readouterr().out
    assert "reference solved" in log and "wrote" in log


def test_one_interior_y_node_study(tmp_path):
    # nh = 2: one interior node per x-line, so every operator keeps only its
    # dy = 0 diagonals and the one mode spans the transverse space; at b = 0
    # the estimator is the V-norm error (here both are round-off)
    out = tmp_path / "nh2.csv"
    assert main(_run_args(out, nh=2, m_max=1)) == 0
    rows = _read_rows(out)
    assert [r[0] for r in rows[1:]] == ["1"]
    err_V_rel, delta_m = float(rows[1][1]), float(rows[1][3])
    cs = case1()
    grid = TensorGrid(build_uniform_partition(*cs.problem.omega_x, 24),
                      build_uniform_partition(*cs.problem.omega_y, 2))
    ref = solve_reference(reference_operators(cs.problem, cs.lift, grid))
    assert err_V_rel < 1e-9  # the reference, to round-off
    assert abs(delta_m - err_V_rel * ref.norms[0]) <= 1e-9


def test_identical_seeds_are_byte_identical(tmp_path):
    out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(_run_args(out_a, seed=3)) == 0
    assert main(_run_args(out_b, seed=3)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert main(_run_args(out_c, seed=4)) == 0
    assert out_a.read_bytes() != out_c.read_bytes()


def test_case3_delta_h_smoke(tmp_path):
    out = tmp_path / "c3.csv"
    args = _run_args(out, case=3, NH=16, nh=10, m_max=2)
    args += ["--mode", "delta-h"]
    assert main(args) == 0
    assert len(_read_rows(out)) == 3


# case 1 keeps the bare mode as its id
@pytest.mark.parametrize("case, mode", [
    pytest.param(case, mode, id=mode if case == 1 else f"case{case}-{mode}")
    for case in (1, 2, 3) for mode in sorted(MODE_MAP)])
def test_run_case_smoke_in_every_mode(tmp_path, case, mode):
    cfg = RunConfig(case=case, NH=16, nh=10, NHp=4, m_max=2, n_xi=2,
                    theta=0.5, mode=mode,
                    out=str(tmp_path / "conv.csv")).validate()
    reports = cli.run_case(cfg, log=lambda *a: None)
    assert [r.m for r in reports] == [1, 2]
    for r in reports:
        assert all(math.isfinite(float(v)) for v in r.row())
    assert reports[-1].err_V_rel < reports[0].err_V_rel
    assert len(_read_rows(cfg.out)) == 3


_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# a fresh interpreter, so modules other tests imported do not count
_RUN_WITHOUT_INTERPOLATE = """
import sys
from skewlift import cli
code = cli.main(["run", "--NH", "20", "--nh", "10", "--NHp", "4",
                 "--m-max", "2", "--out", sys.argv[1]])
print(code, "scipy.interpolate" in sys.modules,
      "scipy.sparse.linalg" in sys.modules)
"""


def test_run_does_not_load_scipy_interpolate(tmp_path):
    # PCHIP is only needed by a smooth build_lifting, which run never calls;
    # SuperLU only by the advective reference solve, which a b = 0 run skips
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_INTERPOLATE,
         str(tmp_path / "conv.csv")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-3:] == ["0", "False", "False"], out.stdout


def test_config_error_exit_code(tmp_path, capsys):
    assert main(_run_args(tmp_path / "x.csv", case=9)) == 2
    assert "config error" in capsys.readouterr().err
    assert main(_run_args(tmp_path / "y.csv", theta="1.5")) == 2
    # a grid without interior nodes is a configuration error, not a crash
    for knob in ("NH", "nh", "NHp"):
        assert main(_run_args(tmp_path / "z.csv", **{knob: 1})) == 2
    # np.random.Philox rejects a negative seed only after the reference
    # solve; validation turns it away before any work
    assert main(_run_args(tmp_path / "s.csv", seed=-1)) == 2
    assert "seed must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--NH", "32", "--nh", "10", "--NHp", "4", "--m-max", "6", "--theta",
     "1.0", "--i-max", "3"],
    ["--NH", "128", "--nh", "10", "--NHp", "8", "--m-max", "8", "--theta",
     "1.0", "--i-max", "2", "--n-xi", "2"]], ids=["NH32", "NH128"])
def test_refinement_keeps_cells_samplable(tmp_path, args):
    # NH a power of two: bisecting a diagonal cell 2H wide would leave
    # children one element wide, which cannot hold two distinct elements
    out = tmp_path / "conv.csv"
    assert main(["run", "--out", str(out)] + args) == 0
    assert len(_read_rows(out)) == int(args[args.index("--m-max") + 1]) + 1


def test_unsamplable_initial_cells_are_a_config_error(tmp_path, capsys,
                                                      monkeypatch):
    # 30 cells per axis on 20 elements: the diagonal cells are narrower
    # than one element, so a pair sample cannot take two distinct elements;
    # validation turns this away before the reference solve
    monkeypatch.setattr(cli, "reference_operators", None)
    out = tmp_path / "g0.csv"
    assert main(["run", "--NH", "20", "--g0", "30", "--out", str(out)]) == 2
    assert "need NH >= qbar g0" in capsys.readouterr().err
    assert not out.exists()
    # 1.005 elements per diagonal cell: the sampler's redraws fail for
    # many seeds, after the reference solve
    assert main(["run", "--NH", "201", "--g0", "200", "--out", str(out)]) == 2
    assert "need NH >= qbar g0" in capsys.readouterr().err
    # one point per sample fits any cell; otherwise each initial cell needs
    # qbar whole elements
    RunConfig(NH=20, g0=30, qbar=1).validate()
    RunConfig(NH=40, g0=20).validate()
    for bad in (dict(NH=39, g0=20), dict(NH=40, g0=20, qbar=3)):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()


def test_m_max_above_the_transverse_rank_is_a_config_error(tmp_path, capsys,
                                                          monkeypatch):
    # POD modes vanish on the transverse boundary, so at most nh - 1 are
    # independent; validation turns a larger m_max away before any work,
    # and m_max = nh - 1 runs
    assert main(_run_args(tmp_path / "ok.csv", NH=20, nh=10, m_max=9)) == 0
    monkeypatch.setattr(cli, "reference_operators", None)
    out = tmp_path / "m.csv"
    assert main(_run_args(out, NH=20, nh=10, m_max=10)) == 2
    assert "need m_max <= nh - 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "detect"])
def test_missing_output_directory_is_a_config_error(tmp_path, capsys,
                                                    command):
    # rejected before the study runs, not when the CSV is written; a bare
    # file name writes to the working directory
    out = tmp_path / "missing" / "out.csv"
    args = (_run_args(out) if command == "run"
            else ["detect", "--out", str(out)])
    assert main(args) == 2
    assert "output directory" in capsys.readouterr().err
    assert not out.parent.exists()
    cfg_cls = RunConfig if command == "run" else cli.DetectConfig
    assert cfg_cls(out="bare.csv").validate().out == "bare.csv"


def test_numerical_failure_exit_code(tmp_path, capsys):
    # NH = 2 has one interior hat and cells that cannot be refined below
    # one element: two cells of one sample each give two snapshots, so
    # five POD modes never materialize and the rank guard fails the run
    out = tmp_path / "short.csv"
    code = main(_run_args(out, NH=2, nh=6, NHp=2, qbar=1, g0=1, n_xi=1,
                          m_max=5))
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_gram_solve_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a Gram solve that does not converge is a numerical failure; the
    # reference solve is the first Gram solve of a b = 0 study
    monkeypatch.setattr(problem, "_PCG_MAXITER", 0)
    out = tmp_path / "gram.csv"
    assert main(_run_args(out)) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "V-Gram system G_int" in err
    assert not out.exists()


def test_programming_errors_are_not_numerical_failures(tmp_path,
                                                       monkeypatch):
    # only numerical guards map to exit 3; a bug inside run_case keeps its
    # exception and traceback
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "pod", broken)
    out = tmp_path / "bug.csv"
    with pytest.raises(KeyError):
        main(_run_args(out, m_max=1))
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# mini study\n"
        "case = 1\n"
        "NH = 24\n"
        "nh = 12\n"
        "NHp = 6\n"
        "m-max = 2\n"          # hyphenated keys are accepted
        "n_xi = 2\n"
        "theta = 0.5\n"
        "g0 = 2\n"
    )
    out = tmp_path / "conv.csv"
    args = ["run", "--config", str(cfg), "--m-max", "3", "--out", str(out)]
    assert main(args) == 0
    assert len(_read_rows(out)) == 4  # the flag beat the file's m-max = 2


def test_config_file_validation(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("NH = 24\nunknown_knob = 1\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err
    worse = tmp_path / "worse.cfg"
    worse.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        read_config_file(worse, RunConfig)
    with pytest.raises(ConfigError):
        read_config_file(tmp_path / "missing.cfg", RunConfig)


def test_detect_subcommand_writes_polyline(tmp_path):
    out = tmp_path / "interface.csv"
    args = ["detect", "--data", "case1-f", "--NHp", "20", "--nh", "100",
            "--mode", "min", "--out", str(out)]
    assert main(args) == 0
    rows = _read_rows(out)
    assert rows[0] == ["x", "y_lo", "y_hi"]
    assert len(rows) == 21  # header + one vertex per coarse element
    for row in rows[1:]:
        x, y = float(row[0]), float(row[1])
        assert abs(y - (0.85 - 0.4 * x)) <= 0.06


def test_detect_config_errors(tmp_path, capsys):
    assert main(["detect", "--data", "no-such-data"]) == 2
    assert main(["detect", "--NHp", "0"]) == 2
    # one or two transverse cells leave fewer than two y-differences per
    # station: a config error, not a crash or a false "no variation"
    assert main(["detect", "--nh", "1"]) == 2
    assert main(["detect", "--nh", "2"]) == 2
    assert "nh must be at least 3" in capsys.readouterr().err


def test_mode_map_covers_all_modes(capsys):
    assert set(MODE_MAP.values()) == set(MODES)
    cfg = RunConfig(mode="delta-h").validate()
    assert MODE_MAP[cfg.mode] == "delta_h"
    # riesz was lift under a second name and is gone
    assert main(["run", "--mode", "riesz"]) == 2
    assert "mode must be one of gD, lift, delta-h" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        RunConfig(mode="weak_lifting").validate()  # internal names rejected


# a valid value other than the default for every config field
_KNOB_VALUES = {
    "run": dict(case=2, NH=30, nh=12, NHp=4, qbar=1, mode="delta-h", m_max=3,
                i_max=2, n_xi=3, theta=0.5, sigma_thres=12.5, seed=7,
                out="x.csv", g0=3),
    "detect": dict(data="step", NHp=8, nh=30, mode="both", out="x.csv"),
}
_CONFIGS = {"run": RunConfig, "detect": DetectConfig}


def _flag(name):
    return "--" + name.replace("_", "-")


def _recorded(monkeypatch, command):
    """Stub the command's runner; returns the list its configs go to."""
    seen = []
    runner = "run_case" if command == "run" else "run_detect"
    monkeypatch.setattr(cli, runner, lambda cfg: seen.append(cfg))
    return seen


@pytest.mark.parametrize("command", ["run", "detect"])
def test_every_field_is_a_flag_and_a_config_key(tmp_path, monkeypatch,
                                                capsys, command):
    # each field gives one knob: --name (name with _ as -) and a config key
    # set the same typed value, and --help lists the flag
    monkeypatch.chdir(tmp_path)
    seen = _recorded(monkeypatch, command)
    values = _KNOB_VALUES[command]
    cfg_cls = _CONFIGS[command]
    assert list(values) == [f.name for f in dataclasses.fields(cfg_cls)]
    for f in dataclasses.fields(cfg_cls):
        value = values[f.name]
        (tmp_path / "knob.cfg").write_text(f"{f.name} = {value}\n")
        assert main([command, _flag(f.name), str(value)]) == 0
        assert main([command, "--config", "knob.cfg"]) == 0
        from_flag, from_file = (getattr(c, f.name) for c in seen[-2:])
        assert from_flag == from_file == value, f.name
        assert type(from_flag) is type(from_file) is f.type, f.name
        assert from_flag != f.default, f.name
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    listed = capsys.readouterr().out
    for f in dataclasses.fields(cfg_cls):
        assert _flag(f.name) + " " in listed, f.name


def _outside(f):
    """A value of field f's type outside its declared bound or choices."""
    low, choices = f.metadata["low"], f.metadata["choices"]
    if low is not None:
        return low - 1
    return max(choices) + 1 if f.type is int else "no-such-" + f.name


@pytest.mark.parametrize("command", ["run", "detect"])
def test_every_declared_bound_is_a_config_error(tmp_path, monkeypatch,
                                                capsys, command):
    # one check path: a value outside a field's bound or choices is exit
    # code 2 and a config error, from a flag and from a config file alike
    monkeypatch.chdir(tmp_path)
    seen = _recorded(monkeypatch, command)
    bounded = [f for f in dataclasses.fields(_CONFIGS[command])
               if f.metadata["low"] is not None
               or f.metadata["choices"] is not None]
    assert len(bounded) >= 3
    for f in bounded:
        bad = _outside(f)
        (tmp_path / "bad.cfg").write_text(f"{f.name} = {bad}\n")
        for args in ([_flag(f.name), str(bad)], ["--config", "bad.cfg"]):
            assert main([command] + args) == 2, (f.name, args)
            err = capsys.readouterr().err
            assert "config error" in err and f.name in err, (f.name, err)
    assert seen == []
