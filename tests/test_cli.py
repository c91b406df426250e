import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chemhill.scheme
from chemhill.cli import ConfigError, build_scenario, dispatch, main, parse_config
from chemhill.elliptic import SolverFailure
from chemhill.grid import load_field_csv, make_grid

MINIMAL = """
[params]
eps = 0.1
lambda = 0.01
N = 64
T = 0.5
c3 = 0

[pi]
family = zero
"""

RUNNABLE = """
[grid]
d = 1
n = 48

[params]
eps = 0.1
lambda = 0.02
N = 8
T = 0.1
eta = 0.5
c3 = 0

[beta]
family = power
m = 3
c1 = 0.25
c2 = 0

[pi]
family = zero

[initial]
preset = cosine
k = 1
smooth = false

[source]
preset = zero
"""


def test_parse_minimal_config_accepted():
    cfg = parse_config(MINIMAL)
    assert cfg.eps == 0.1
    assert cfg.lam == 0.01
    assert cfg.N == 64
    assert cfg.pi_family == "zero"


def test_parse_rejects_lambda_outside_range():
    text = MINIMAL.replace("lambda = 0.01", "lambda = 0.2")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert any("lambda must lie in (0, eps)" in v for v in info.value.violations)


def test_parse_rejects_stepsize_violation():
    text = MINIMAL.replace("c3 = 0", "c3 = 1").replace("N = 64", "N = 4")
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert any("stepsize" in v for v in info.value.violations)


def test_parse_rejects_unknown_keys_and_sections():
    text = MINIMAL + "\n[params]\nepz = 0.2\n"
    with pytest.raises(ConfigError):
        parse_config(text)
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL + "\n[mystery]\nx = 1\n")
    assert any("unknown section" in v for v in info.value.violations)


def test_parse_collects_all_violations_at_once():
    text = (
        MINIMAL.replace("lambda = 0.01", "lambda = 0.2").replace("N = 64", "N = 0")
        + "\n[grid]\nn = 2\n"
    )
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    joined = "\n".join(info.value.violations)
    assert "lambda" in joined
    assert "N" in joined
    assert "n >= 4" in joined


def test_build_scenario_materializes_fields():
    sc = build_scenario(parse_config(RUNNABLE))
    assert sc.grid.n == 48
    assert sc.u0.values.shape == (48,)
    assert sc.source is None
    assert sc.smooth_u0 is False


def test_growth_constants_default_per_family():
    # leaving [beta] constants unset must pick the family defaults, which
    # certify on the validation window even for the linear graph
    text = MINIMAL + "\n[beta]\nfamily = linear\n"
    cfg = parse_config(text)
    sc = build_scenario(cfg)
    assert sc.beta.c1 == pytest.approx(1.0 / 32.0)
    assert dispatch("validate", cfg) == 0


def test_validate_command_exit_zero(capsys):
    cfg = parse_config(RUNNABLE)
    assert dispatch("validate", cfg) == 0
    out = capsys.readouterr().out
    assert "A5" in out
    assert "all checks passed" in out


def test_check_identities_command(capsys):
    cfg = parse_config(RUNNABLE)
    assert dispatch("check-identities", cfg) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4


def test_simulate_writes_artifacts(tmp_path):
    cfg = parse_config(RUNNABLE)
    out = tmp_path / "runA"
    assert dispatch("simulate", cfg, outdir=out) == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "ledger.csv").exists()
    assert (out / "metadata.txt").exists()
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "time,node,u,mu,v"


def test_simulate_deterministic_artifacts(tmp_path):
    cfg = parse_config(RUNNABLE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    dispatch("simulate", cfg, outdir=out1)
    dispatch("simulate", cfg, outdir=out2)
    for name in ("trajectory.csv", "ledger.csv", "metadata.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_main_bad_config_exit_two(tmp_path, capsys):
    conf = tmp_path / "bad.ini"
    conf.write_text(MINIMAL.replace("lambda = 0.01", "lambda = 0.9"))
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(conf), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_main_missing_config_exit_two(tmp_path, capsys):
    code = main(["validate", "--config", str(tmp_path / "nope.ini")])
    assert code == 2


def test_main_study_h(tmp_path, capsys):
    conf = tmp_path / "run.ini"
    conf.write_text(RUNNABLE + "\n[study]\nh_levels = 8,16\n")
    out = tmp_path / "study"
    code = main(["study-h", "--config", str(conf), "--out", str(out)])
    assert code == 0
    assert (out / "study_h.csv").exists()
    assert "refinement study along the h axis" in capsys.readouterr().out


def test_csv_initial_and_series_source(tmp_path):
    g = make_grid(1, 48)
    field_path = tmp_path / "u0.csv"
    with open(field_path, "w") as fh:
        fh.write("x,value\n")
        for x in g.axis:
            fh.write(f"{x:.17g},{0.25 * np.cos(np.pi * x):.17g}\n")
    series_path = tmp_path / "g.csv"
    with open(series_path, "w") as fh:
        fh.write("t,node,value\n")
        for j, x in enumerate(g.axis):
            fh.write(f"0.0,{j},{0.05 * np.cos(np.pi * x):.17g}\n")
    text = RUNNABLE.replace(
        "[initial]\npreset = cosine\nk = 1\nsmooth = false",
        f"[initial]\npreset = csv\npath = {field_path}\nsmooth = false",
    ).replace(
        "[source]\npreset = zero",
        f"[source]\npreset = csv-series\nrole = g\npath = {series_path}",
    )
    cfg = parse_config(text)
    sc = build_scenario(cfg)
    assert np.max(np.abs(sc.u0.values - load_field_csv(g, field_path).values)) == 0.0
    assert sc.source.kind == "g"
    out = tmp_path / "run"
    assert dispatch("simulate", cfg, outdir=out) == 0


def _series_config(tmp_path, series_path):
    conf = tmp_path / "series.ini"
    conf.write_text(
        RUNNABLE.replace("n = 48", "n = 16").replace(
            "[source]\npreset = zero", f"[source]\npreset = csv-series\nrole = g\npath = {series_path}"
        )
    )
    return conf


@pytest.mark.parametrize("node", [-1, 99])
def test_main_csv_series_node_out_of_range_exit_two(tmp_path, capsys, node):
    # a 16-node grid: -1 must not wrap to the last node, 99 must not escape as IndexError
    series = tmp_path / "g.csv"
    series.write_text(f"t,node,value\n0.0,3,0.5\n0.0,{node},-0.5\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(_series_config(tmp_path, series)), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "input error" in err and f"node {node}" in err


def test_main_missing_csv_series_exit_two(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    code = main(["validate", "--config", str(_series_config(tmp_path, missing))])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_simulate_1d_n512_logit_cosine_completes(tmp_path):
    # without the refinement round in the spectral shifted solve this run
    # fails its residual check (about 1.8e-10 against a limit near 7e-11)
    text = (
        RUNNABLE.replace("n = 48", "n = 512")
        .replace("family = power\nm = 3\nc1 = 0.25\nc2 = 0", "family = logit")
        .replace("k = 1\n", "k = 1\namplitude = 0.9\n")
    )
    assert dispatch("simulate", parse_config(text), outdir=tmp_path / "run") == 0


def _fail_shifted_solves_after(monkeypatch, n_ok):
    real = chemhill.scheme.helmholtz_solve
    calls = []

    def solve(*args, **kwargs):
        calls.append(None)
        if len(calls) > n_ok:
            raise SolverFailure("shifted Neumann solve residual 1.000e-03 exceeds tolerance")
        return real(*args, **kwargs)

    monkeypatch.setattr(chemhill.scheme, "helmholtz_solve", solve)


def test_simulate_setup_failure_reported_as_setup(tmp_path, monkeypatch, capsys):
    _fail_shifted_solves_after(monkeypatch, 0)
    code = dispatch("simulate", parse_config(RUNNABLE), outdir=tmp_path / "run")
    assert code == 1
    out = capsys.readouterr().out
    assert "simulate failed during set-up: shifted Neumann solve" in out
    assert "step" not in out
    assert not (tmp_path / "run").exists()


def test_simulate_shifted_solve_failure_in_step_reports_step(tmp_path, monkeypatch, capsys):
    # one shifted solve builds v_0 (smoothing is off), the next ones are step 0's
    _fail_shifted_solves_after(monkeypatch, 1)
    assert dispatch("simulate", parse_config(RUNNABLE), outdir=tmp_path / "run") == 1
    assert "simulate failed at step 0: shifted Neumann solve" in capsys.readouterr().out


def test_cli_import_loads_only_the_scipy_it_uses():
    src = str(Path(chemhill.__file__).resolve().parents[1])
    probe = (
        "import sys, chemhill.cli\n"
        "heavy = [m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse') if m in sys.modules]\n"
        "assert not heavy, heavy\n"
        "import scipy.sparse.linalg, chemhill.elliptic\n"
        "assert chemhill.elliptic.sla is scipy.sparse.linalg\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
