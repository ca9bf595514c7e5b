"""Command-line driver: flags, config files, exit codes, determinism."""

import csv
import math

import pytest

from skewlift import cli
from skewlift.cli import (
    MODE_MAP,
    ConfigError,
    RunConfig,
    main,
    read_config_file,
)
from skewlift.problem import MODES


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


@pytest.mark.parametrize("mode", sorted(MODE_MAP))
def test_run_case_smoke_in_every_mode(tmp_path, mode):
    cfg = RunConfig(NH=16, nh=10, NHp=4, m_max=2, n_xi=2, theta=0.5,
                    mode=mode, out=str(tmp_path / "conv.csv")).validate()
    reports = cli.run_case(cfg, log=lambda *a: None)
    assert [r.m for r in reports] == [1, 2]
    for r in reports:
        assert all(math.isfinite(float(v)) for v in r.row())
    assert reports[-1].err_V_rel < reports[0].err_V_rel
    assert len(_read_rows(cfg.out)) == 3


def test_config_error_exit_code(tmp_path, capsys):
    assert main(_run_args(tmp_path / "x.csv", case=9)) == 2
    assert "config error" in capsys.readouterr().err
    assert main(_run_args(tmp_path / "y.csv", theta="1.5")) == 2
    # a grid without interior nodes is a configuration error, not a crash
    for knob in ("NH", "nh", "NHp"):
        assert main(_run_args(tmp_path / "z.csv", **{knob: 1})) == 2


def test_numerical_failure_exit_code(tmp_path, capsys):
    # nh = 6 leaves five interior transverse dofs, so eight POD modes can
    # never materialize: the run must fail with the numerical exit code
    out = tmp_path / "short.csv"
    code = main(_run_args(out, NH=12, nh=6, m_max=8))
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
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


def test_mode_map_covers_all_modes():
    assert set(MODE_MAP.values()) == set(MODES)
    cfg = RunConfig(mode="riesz").validate()
    assert MODE_MAP[cfg.mode] == "riesz_recon"
    with pytest.raises(ConfigError):
        RunConfig(mode="weak_lifting").validate()  # internal names rejected
