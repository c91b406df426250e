import contextlib
import csv
import dataclasses
import io
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chemhill.limits
import chemhill.scheme
from chemhill.cli import ConfigError, ScenarioConfig, build_scenario, dispatch, main, parse_config
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


# every key of the config grammar, each at a value other than its default
EVERY_KEY = """
[grid]
d = 2
n = 40

[params]
eps = 0.2
lambda = 0.02
N = 40
T = 0.4
eta = 0.5
c3 = 0.5

[beta]
family = logit
m = 4
c1 = 0.5
c2 = 2

[pi]
family = tanh_decay

[initial]
preset = csv
c = 0.25
k = 2
amplitude = 0.5
path = /data/u0.csv
smooth = off

[source]
preset = csv-series
k = 3
amplitude = 2
ramp = 1
role = f
path = /data/g.csv

[solver]
lin_tol = 1e-12
newton_tol = 1e-11
max_newton = 20

[output]
directory = results
snapshot_stride = 2

[study]
h_levels = 40, 80
lambda_levels = 0.02, 0.01
epsilon_levels = 0.2, 0.1
"""


def _render_ini(cfg):
    # each field's value written under its own [section] key
    sections = {}
    for f in dataclasses.fields(cfg):
        section, key = f.metadata["ini"]
        value = getattr(cfg, f.name)
        text = ", ".join(map(repr, value)) if isinstance(value, tuple) else str(value)
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n" for name, lines in sections.items())


def test_every_field_round_trips_through_its_key():
    want = ScenarioConfig(
        d=2, n=40, eps=0.2, lam=0.02, N=40, T=0.4, eta=0.5, c3=0.5,
        beta_family="logit", m=4.0, c1=0.5, c2=2.0, pi_family="tanh_decay",
        initial_preset="csv", initial_c=0.25, initial_k=2, initial_amplitude=0.5,
        initial_path="/data/u0.csv", smooth=False,
        source_preset="csv-series", source_k=3, source_amplitude=2.0, source_ramp=1.0,
        source_role="f", source_path="/data/g.csv",
        lin_tol=1e-12, newton_tol=1e-11, max_newton=20,
        directory="results", snapshot_stride=2,
        h_levels=(40.0, 80.0), lambda_levels=(0.02, 0.01), epsilon_levels=(0.2, 0.1),
    )
    default = ScenarioConfig()
    assert [f.name for f in dataclasses.fields(want) if getattr(want, f.name) == getattr(default, f.name)] == []
    assert parse_config(EVERY_KEY) == want
    assert parse_config(_render_ini(want)) == want


def test_build_scenario_materializes_fields():
    sc = build_scenario(parse_config(RUNNABLE))
    assert sc.grid.n == 48
    assert sc.u0.shape == (48,)
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


@pytest.mark.parametrize("family", ["logit", "power"])
def test_check_identities_at_the_newton_floor(family):
    # 1D n=8192: the Newton residual's stencil term costs about 2.4e-12 to
    # evaluate, above the 1e-13 that check-identities asks for; Newton
    # stagnated at 2.3e-13 before the step accepted at that floor
    text = (
        RUNNABLE.replace("n = 48", "n = 8192")
        .replace("lambda = 0.02", "lambda = 0.01")
        .replace("N = 8\nT = 0.1", "N = 16\nT = 0.01")
        .replace("family = power\nm = 3\nc1 = 0.25\nc2 = 0", f"family = {family}")
        .replace("k = 1\nsmooth = false", "amplitude = 0.9")
    )
    assert dispatch("check-identities", parse_config(text)) == 0


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


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(("d = 1", "d = 3"), "unsupported dimension d=3; expected 1 or 2", id="d-3"),
        pytest.param(("n = 48", "n = 3"), "n=3 too coarse; need n >= 4 for second-order stencils", id="n-3"),
    ],
)
def test_main_reports_the_grid_rule_exit_two(tmp_path, capsys, edit, message):
    # the config check reports Grid's own message, so the rule lives in one place
    conf = tmp_path / "bad.ini"
    conf.write_text(RUNNABLE.replace(*edit))
    assert main(["validate", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {message}" in captured.err


def test_main_csv_datum_on_another_grid_exit_two(tmp_path, capsys):
    # a datum written for n = 16 does not fit the config's n = 32 grid
    (tmp_path / "u0.csv").write_text(
        "x,value\n" + "".join(f"{x:.17g},0.25\n" for x in make_grid(1, 16).axis)
    )
    conf = tmp_path / "run.ini"
    conf.write_text(
        RUNNABLE.replace("n = 48", "n = 32").replace(
            "[initial]\npreset = cosine\nk = 1", "[initial]\npreset = csv\npath = u0.csv"
        )
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(conf), "--out", str(out)]) == 2
    assert not out.exists()
    assert "input error: expected 32 rows, found 16" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, edits, key",
    [
        pytest.param("simulate", {"c3 = 0": "c3 = nan"}, "c3", id="c3-nan"),
        pytest.param("simulate", {"eta = 0.5": "eta = nan"}, "eta", id="eta-nan"),
        pytest.param("simulate", {"[source]": "[solver]\nnewton_tol = nan\n\n[source]"}, "newton_tol", id="newton_tol-nan"),
        pytest.param(
            "validate", {"preset = zero": "preset = cosine_g\namplitude = nan"}, "amplitude", id="cosine_g-amplitude-nan"
        ),
        pytest.param("study-h", {"[source]": "[study]\nh_levels = nan\n\n[source]"}, "h_levels", id="h_levels-nan"),
        pytest.param("study-h", {"[source]": "[study]\nh_levels = 8, 16.5\n\n[source]"}, "h_levels", id="h_levels-fraction"),
        pytest.param(
            "study-lambda", {"[source]": "[study]\nlambda_levels = 0.02, inf\n\n[source]"}, "lambda_levels", id="lambda_levels-inf"
        ),
        pytest.param("simulate", {"preset = zero": "preset = cosine_g\nk = 0"}, "k", id="cosine_g-k-0"),
    ],
)
def test_main_rejects_unusable_value_exit_two(tmp_path, capsys, command, edits, key):
    # each of these once ran (exit 0), failed later (exit 1) or escaped as a traceback
    text = RUNNABLE.replace("n = 48", "n = 16")
    for old, new in edits.items():
        text = text.replace(old, new)
    conf = tmp_path / "bad.ini"
    conf.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err and f"] {key} = " in err


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


def test_main_study_h_level_times_one_ulp_past_T(tmp_path, capsys):
    # 11 * (0.1/11) and 22 * (0.1/22) round one ulp above T = 0.1; the study
    # reads u_N there instead of refusing the time as outside [0, T]
    text = RUNNABLE.replace("n = 48", "n = 16").replace("lambda = 0.02", "lambda = 0.05")
    conf = tmp_path / "run.ini"
    conf.write_text(text + "\n[study]\nh_levels = 11, 22\n")
    out = tmp_path / "study"
    assert main(["study-h", "--config", str(conf), "--out", str(out)]) == 0
    with open(out / "study_h.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["diff_linf_h"] and rows[0]["diff_l2_vstar"]
    numbers = [v for row in rows for k, v in row.items() if k not in ("axis", "beta_family") and v]
    assert all(np.isfinite(float(v)) for v in numbers)


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
    assert np.max(np.abs(sc.u0 - load_field_csv(g, field_path))) == 0.0
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


@pytest.mark.parametrize(
    "row, reason",
    [
        pytest.param("0.0,-1,-0.5", "node -1", id="-1"),
        pytest.param("0.0,99,-0.5", "node 99", id="99"),
        pytest.param("0.0,4,nan", "line 3: non-finite", id="nan"),
        pytest.param("0.0,3,5.0", "line 3: second row for t=0.0, node 3", id="duplicate"),
        pytest.param("0.0,4,0.5,1", "line 3: expected 3 values, found 4", id="extra-column"),
        pytest.param("0.0,x,0.5", "line 3: invalid literal for int() with base 10: 'x'", id="bad-node"),
    ],
)
def test_main_csv_series_node_out_of_range_exit_two(tmp_path, capsys, row, reason):
    # a 16-node grid: -1 must not wrap to the last node, 99 must not escape as
    # IndexError, a nan must not reach the run, a second row must not overwrite the first
    series = tmp_path / "g.csv"
    series.write_text(f"t,node,value\n0.0,3,0.5\n{row}\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(_series_config(tmp_path, series)), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "input error" in err and reason in err


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_main_csv_series_starting_late_exits_one(tmp_path, capsys, command):
    # 1D n=8, N=4, T=0.1: the first step's midpoint is t=0.0125, before the
    # series' first row. Both commands refuse the run with a message, exit 1
    series = tmp_path / "g.csv"
    series.write_text("t,node,value\n" + "".join(f"0.5,{j},{0.1 * (-1) ** j}\n" for j in range(8)))
    conf = tmp_path / "late.ini"
    conf.write_text(
        RUNNABLE.replace("n = 48", "n = 8")
        .replace("N = 8", "N = 4")
        .replace("[source]\npreset = zero", f"[source]\npreset = csv-series\nrole = g\npath = {series}")
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"{command} rejected: series starts at t=0.5, asked for 0.0125" in captured.out
    assert captured.err == ""


def test_main_missing_csv_series_exit_two(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    code = main(["validate", "--config", str(_series_config(tmp_path, missing))])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "undecodable, message",
    [
        ("run.ini", "cannot read config: 'utf-8' codec can't decode byte 0xff in position 0"),
        ("u0.csv", "input error: 'utf-8' codec can't decode byte 0xff in position 0"),
        ("g.csv", "input error: 'utf-8' codec can't decode byte 0xff in position 0"),
    ],
)
def test_main_undecodable_input_exit_two(tmp_path, capsys, undecodable, message):
    # a config, datum or series file that is not UTF-8 text is an input error, not a traceback
    g = make_grid(1, 16)
    (tmp_path / "u0.csv").write_text("x,value\n" + "".join(f"{x:.17g},0.25\n" for x in g.axis))
    (tmp_path / "g.csv").write_text("t,node,value\n0.0,0,0.1\n0.0,1,-0.1\n")
    (tmp_path / "run.ini").write_text(
        RUNNABLE.replace("n = 48", "n = 16")
        .replace("[initial]\npreset = cosine\nk = 1", "[initial]\npreset = csv\npath = u0.csv")
        .replace("[source]\npreset = zero", "[source]\npreset = csv-series\nrole = g\npath = g.csv")
    )
    bad = tmp_path / undecodable
    bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
    assert main(["validate", "--config", str(tmp_path / "run.ini")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_main_resolves_relative_csv_paths_against_config_dir(tmp_path, monkeypatch):
    # relative input paths name files next to the config, whatever the working directory
    cfg_dir = tmp_path / "scenario"
    cfg_dir.mkdir()
    g = make_grid(1, 16)
    (cfg_dir / "u0.csv").write_text(
        "x,value\n" + "".join(f"{x:.17g},{0.25 * np.cos(np.pi * x):.17g}\n" for x in g.axis)
    )
    (cfg_dir / "g.csv").write_text(
        "t,node,value\n" + "".join(f"0.0,{j},{0.05 * np.cos(np.pi * x):.17g}\n" for j, x in enumerate(g.axis))
    )
    (cfg_dir / "scenario.ini").write_text(
        RUNNABLE.replace("n = 48", "n = 16")
        .replace("[initial]\npreset = cosine\nk = 1", "[initial]\npreset = csv\npath = u0.csv")
        .replace("[source]\npreset = zero", "[source]\npreset = csv-series\nrole = g\npath = g.csv")
    )
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    out = tmp_path / "out"
    assert main(["simulate", "--config", "../scenario/scenario.ini", "--out", str(out)]) == 0
    meta = (out / "metadata.txt").read_text()
    assert f"initial_path = {(cfg_dir / 'u0.csv').resolve()}\n" in meta
    assert f"source_path = {(cfg_dir / 'g.csv').resolve()}\n" in meta
    # a config parsed from text alone resolves them against the working directory
    assert parse_config((cfg_dir / "scenario.ini").read_text()).initial_path == str(elsewhere.resolve() / "u0.csv")


@pytest.mark.parametrize(
    "beta,changes",
    [
        # without the polished final Newton step the energy defect is 5.7e-9:
        # exact Newton stops just inside newton_tol
        (
            "family = logit",
            {"lambda = 0.02": "lambda = 0.05", "T = 0.1": "T = 0.25", "k = 1\nsmooth = false": "amplitude = 0.9"},
        ),
        # 1.006e-10 when the continuation stages decided where the iteration stopped
        ("family = power\nm = 3", {"lambda = 0.02": "lambda = 0.01", "T = 0.1": "T = 0.125"}),
    ],
    ids=["logit", "power"],
)
def test_check_identities_2d_holds_at_roundoff(beta, changes):
    text = RUNNABLE.replace("d = 1\nn = 48", "d = 2\nn = 16").replace("N = 8", "N = 16").replace(
        "family = power\nm = 3\nc1 = 0.25\nc2 = 0", beta
    )
    for old, new in changes.items():
        text = text.replace(old, new)
    assert dispatch("check-identities", parse_config(text)) == 0


@pytest.mark.parametrize("n", [512, 2048], ids=["n512", "n2048"])
def test_simulate_1d_logit_cosine_completes(tmp_path, n):
    # the stencil residual of a spectral solve carries an evaluation floor of
    # about eps_mach * 4/dx^2 * |x|; a check of lin_tol * max(1, |b|) alone
    # refuses set-up's first shifted solve at n=2048 (2.3e-9 after a round of
    # refinement)
    text = (
        RUNNABLE.replace("n = 48", f"n = {n}")
        .replace("family = power\nm = 3\nc1 = 0.25\nc2 = 0", "family = logit")
        .replace("k = 1\n", "k = 1\namplitude = 0.9\n")
    )
    assert dispatch("simulate", parse_config(text), outdir=tmp_path / "run") == 0


# the benchmark's study-1d-abslogit and snapshots-2d-power scenarios, with
# their seeded csv data replaced by the cosine and bump presets
_BENCHMARK_LIKE = {
    "1d-abslogit": (
        "[grid]\nd = 1\nn = 256\n\n[params]\neps = 0.1\nlambda = 0.01\nN = 32\nT = 0.02\neta = 0.5\n\n"
        "[beta]\nfamily = abs_logit\n\n[initial]\npreset = cosine\namplitude = 0.9\n\n"
        "[source]\npreset = cosine_g\nk = 2\n"
    ),
    "2d-power": (
        "[grid]\nd = 2\nn = 48\n\n[params]\neps = 0.1\nlambda = 0.01\nN = 48\nT = 0.03\neta = 0.5\n\n"
        "[beta]\nfamily = power\nm = 3\n\n[initial]\npreset = bump\n\n"
        "[source]\npreset = cosine_g\nk = 2\nramp = 1\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_BENCHMARK_LIKE))
def test_check_identities_on_benchmark_scenarios(tmp_path, capsys, name):
    # check-identities tightens lin_tol to 1e-12, below the residual's
    # evaluation floor on these grids
    conf = tmp_path / "bench.ini"
    conf.write_text(_BENCHMARK_LIKE[name])
    assert main(["check-identities", "--config", str(conf)]) == 0
    assert capsys.readouterr().out.count("pass") == 4


@pytest.mark.parametrize(
    "command, study, message",
    [
        pytest.param("study-h", "h_levels = 1, 2", "stepsize condition", id="h-stepsize"),
        pytest.param("study-lambda", "lambda_levels = 0.01, 0.05", "levels must strictly decrease", id="lambda-order"),
    ],
)
def test_main_study_levels_rejected_before_any_run_exit_two(tmp_path, capsys, command, study, message):
    # both follow from the config alone, so they are config errors
    text = RUNNABLE.replace("n = 48", "n = 16").replace("lambda = 0.02", "lambda = 0.01").replace("c3 = 0", "c3 = 0.5")
    conf = tmp_path / "study.ini"
    conf.write_text(text + f"\n[study]\n{study}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert f"config error: {command} levels: " in captured.err and message in captured.err
    assert captured.out == ""


def test_main_study_value_error_after_the_levels_ran_exit_one(tmp_path, capsys, monkeypatch):
    # the levels passed their checks and ran; a ValueError from the ledger is
    # a run failure, not a config error
    def failing_ledger(traj, b):
        raise ValueError("ledger broke")

    monkeypatch.setattr(chemhill.limits, "build_ledger", failing_ledger)
    conf = tmp_path / "study.ini"
    conf.write_text(RUNNABLE + "\n[study]\nh_levels = 8,16\n")
    assert main(["study-h", "--config", str(conf), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "config error" not in captured.err
    assert "study-h failed: ledger broke" in captured.out


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


@pytest.mark.parametrize("d,n", [(1, 16), (2, 32)])
def test_simulate_overflow_in_the_first_step_names_the_step(tmp_path, capsys, d, n):
    # eta = 1e308 overflows the transport term to inf: the first shifted solve
    # of step 0 fails its residual check instead of returning NaN
    text = RUNNABLE.replace("d = 1", f"d = {d}").replace("n = 48", f"n = {n}").replace("eta = 0.5", "eta = 1e308")
    conf = tmp_path / "overflow.ini"
    conf.write_text(text)
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "simulate failed at step 0: shifted Neumann solve residual nan" in captured.out
    assert captured.err == ""


def test_simulate_nan_density_fails_at_its_step(tmp_path, monkeypatch, capsys):
    # the density solve returns NaN at step 2: that step fails, exit 1, no artifacts
    calls = []
    real = chemhill.scheme.step_solve

    def nan_at_step_two(*args, **kwargs):
        u, ku, local = real(*args, **kwargs)
        calls.append(1)
        return (np.full_like(u, np.nan) if len(calls) == 3 else u), ku, local

    monkeypatch.setattr(chemhill.scheme, "step_solve", nan_at_step_two)
    conf = tmp_path / "nan.ini"
    conf.write_text(RUNNABLE)
    assert main(["simulate", "--config", str(conf), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "simulate failed at step 2: " in captured.out
    assert captured.err == ""
    assert not (tmp_path / "out").exists()


def _run_probe(probe):
    # run a Python snippet in a fresh interpreter that imports this chemhill
    src = str(Path(chemhill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)


def test_cli_import_loads_only_the_scipy_it_uses(tmp_path):
    # the CLI uses no SciPy at all: not on import, not in a 2D simulate, a 1D
    # study or a validation; only reading elliptic.sla loads scipy.sparse.
    # Nor does it load numpy.random, numpy.ma or the hashlib numpy.random
    # pulls in, or fractions and decimal, unless one was loaded before
    # chemhill.cli was imported. The CSV formatter's powers of ten are built
    # on first use, so the import leaves its cache empty
    conf_2d = tmp_path / "sim.ini"
    conf_2d.write_text(RUNNABLE.replace("d = 1\nn = 48", "d = 2\nn = 12"))
    conf_1d = tmp_path / "study.ini"
    conf_1d.write_text(RUNNABLE + "\n[study]\nh_levels = 8,16\n")
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import chemhill.cli\n"
        "def check(stage):\n"
        "    loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "    assert not loaded, (stage, loaded[:5])\n"
        "    extra = [m for m in ('numpy.random', 'numpy.ma', 'hashlib', 'fractions', 'decimal') if m in sys.modules and m not in before]\n"
        "    assert not extra, (stage, extra)\n"
        "check('import')\n"
        "assert chemhill.scheme._G17_POW10 == {}\n"
        f"assert chemhill.cli.main(['simulate', '--config', {str(conf_2d)!r}, '--out', {str(tmp_path / 'sim')!r}]) == 0\n"
        "check('simulate')\n"
        f"assert chemhill.cli.main(['study-h', '--config', {str(conf_1d)!r}, '--out', {str(tmp_path / 'study')!r}]) == 0\n"
        "check('study-h')\n"
        f"assert chemhill.cli.main(['validate', '--config', {str(conf_1d)!r}]) == 0\n"
        "check('validate')\n"
        "import scipy.sparse.linalg, chemhill.elliptic\n"
        "assert chemhill.elliptic.sla is scipy.sparse.linalg\n"
    )
    done = _run_probe(probe)
    assert done.returncode == 0, done.stderr


def test_main_rejects_jobs_as_an_unrecognized_argument(tmp_path, capsys):
    # a study runs its levels in the command's own process; there is no --jobs
    conf = tmp_path / "run.ini"
    conf.write_text(RUNNABLE + "\n[study]\nh_levels = 8,16\n")
    out = tmp_path / "study"
    with pytest.raises(SystemExit) as info:
        main(["study-h", "--config", str(conf), "--out", str(out), "--jobs", "2"])
    assert info.value.code == 2
    assert not out.exists()
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_cli_study_loads_no_process_pool(tmp_path):
    # a study runs its levels in this process, and the trajectory writer forks with os alone
    conf = tmp_path / "study.ini"
    conf.write_text(RUNNABLE + "\n[study]\nh_levels = 8,16\n")
    # a simulate whose trajectory CSV is above the fork threshold, on two CPUs
    # whatever the machine has: the writer forks with os alone
    big = tmp_path / "big.ini"
    big.write_text(RUNNABLE.replace("n = 48", "n = 4096"))
    probe = (
        "import os, sys, chemhill.cli\n"
        "def check(stage):\n"
        "    loaded = [m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]\n"
        "    assert not loaded, (stage, loaded)\n"
        "check('import')\n"
        f"assert chemhill.cli.main(['study-h', '--config', {str(conf)!r}, '--out', {str(tmp_path / 'study')!r}]) == 0\n"
        "check('study-h')\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"assert chemhill.cli.main(['simulate', '--config', {str(big)!r}, '--out', {str(tmp_path / 'sim')!r}]) == 0\n"
        "assert forks == [1], forks\n"
        "check('simulate')\n"
    )
    done = _run_probe(probe)
    assert done.returncode == 0, done.stderr


def test_main_freezes_the_collector_and_still_collects_cycles(tmp_path):
    # main moves what is alive at entry to the permanent generation; a cycle
    # made during the command is still collected
    conf = tmp_path / "run.ini"
    conf.write_text(RUNNABLE)
    probe = (
        "import gc, weakref, chemhill.cli\n"
        "inner, seen = chemhill.cli.dispatch, {}\n"
        "class Node: pass\n"
        "def wrapped(*args, **kwargs):\n"
        "    seen['frozen'] = gc.get_freeze_count()\n"
        "    node = Node()\n"
        "    node.self = node\n"
        "    seen['ref'] = weakref.ref(node)\n"
        "    del node\n"
        "    return inner(*args, **kwargs)\n"
        "chemhill.cli.dispatch = wrapped\n"
        f"assert chemhill.cli.main(['validate', '--config', {str(conf)!r}]) == 0\n"
        "assert seen['frozen'] > 0, seen\n"
        "gc.collect()\n"
        "assert seen['ref']() is None\n"
    )
    done = _run_probe(probe)
    assert done.returncode == 0, done.stderr


def test_dispatch_leaves_the_collector_unfrozen(tmp_path):
    # the library entry does not freeze: in-process callers keep normal collection
    probe = (
        "import gc, chemhill.cli\n"
        f"cfg = chemhill.cli.parse_config({RUNNABLE!r})\n"
        "assert chemhill.cli.dispatch('validate', cfg) == 0\n"
        "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n"
    )
    done = _run_probe(probe)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command", ["simulate", "study-h", "validate"])
def test_main_unwritable_out_exit_two(tmp_path, capsys, command):
    # an --out below a regular file cannot be created: an input error, not a traceback
    conf = tmp_path / "run.ini"
    conf.write_text(RUNNABLE + "\n[study]\nh_levels = 8,16\n")
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 2
    assert f"cannot write {out}: Not a directory" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["file", "run.ini"]


def test_check_identities_on_a_constant_datum(tmp_path, capsys):
    # a constant datum near the logit singularity: a step's polish correction
    # runs its CG on a zero residual, which must give a zero direction, not a
    # ZeroDivisionError
    conf = tmp_path / "constant.ini"
    conf.write_text(
        "[grid]\nd = 1\nn = 16\n\n[params]\neps = 0.1\nlambda = 0.02\nN = 4\nT = 0.05\nc3 = 0\n\n"
        "[beta]\nfamily = logit\n\n[pi]\nfamily = zero\n\n[initial]\npreset = constant\nc = 0.99999999\n"
    )
    assert main(["check-identities", "--config", str(conf)]) == 0
    assert capsys.readouterr().out.count("pass") == 4


# a linear graph from a datum of amplitude 1e100, without transport: every
# solve stays finite, but the quartic q5 overflows to inf; no artifact carries it
_HUGE_DATUM = (
    RUNNABLE.replace("n = 48", "n = 16")
    .replace("eta = 0.5", "eta = 0")
    .replace("family = power\nm = 3\nc1 = 0.25\nc2 = 0", "family = linear")
    .replace("k = 1\n", "k = 1\namplitude = 1e100\n")
    + "\n[study]\nh_levels = 4, 8\n"
)
# eta = 1e300 overflows the transport term of the first step, so the first
# shifted solve's residual check overflows and the run fails closed
_HUGE_ETA = RUNNABLE.replace("n = 48", "n = 16").replace("eta = 0.5", "eta = 1e300") + "\n[study]\nh_levels = 4, 8\n"
_ETA_OVERFLOW = "shifted Neumann solve residual check overflows: its tolerance is inf"


@pytest.mark.parametrize(
    "command, text, message, wrote",
    [
        ("simulate", _HUGE_DATUM, "simulate failed: ledger entries q5 are not finite", False),
        ("study-h", _HUGE_DATUM, "study-h failed: level 0.025 entries q5 are not finite", False),
        ("simulate", _HUGE_ETA, f"simulate failed at step 0: {_ETA_OVERFLOW}", False),
        # a failed level ends the study, whose table of no finished level is written
        ("study-h", _HUGE_ETA, f"level 0.025: FAILED ({_ETA_OVERFLOW})", True),
    ],
)
def test_main_nonfinite_ledger_exit_one(tmp_path, capsys, command, text, message, wrote):
    conf = tmp_path / "huge.ini"
    conf.write_text(text)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(conf), "--out", str(out)]) == 1
    assert out.exists() == wrote
    captured = capsys.readouterr()
    assert message in captured.out
    assert not caught and "Warning" not in captured.err


# for each key the fuzz varies: usable values, then boundary and unusable ones
_FUZZ_KEYS = {
    ("grid", "d"): (["1", "2"], ["3"]),
    ("grid", "n"): (["4", "8", "16"], ["2"]),
    ("params", "eps"): (["0.1", "0.05"], ["0", "-1", "nan"]),
    ("params", "lambda"): (["0.01", "0.02"], ["0.2", "inf"]),
    ("params", "N"): (["1", "2", "4"], ["0"]),
    ("params", "T"): (["0.05", "0.1"], ["0", "1e300", "nan"]),
    ("params", "eta"): (["0", "0.5"], ["-0.5", "1e300", "1e308", "nan"]),
    ("params", "c3"): (["0", "0.1"], ["0.5", "nan"]),
    ("beta", "family"): (["linear", "power", "logit", "abs_logit"], ["cubic"]),
    ("beta", "m"): (["3", "4"], ["2", "inf"]),
    ("pi", "family"): (["zero", "tanh_decay"], []),
    ("initial", "preset"): (["constant", "cosine", "bump"], ["csv"]),
    ("initial", "c"): (["0", "0.5", "0.99999999"], ["1.5", "nan"]),
    ("initial", "k"): (["1", "3"], ["0"]),
    # from 1e155 the values stay finite but their squares overflow
    ("initial", "amplitude"): (["0.5", "0.9", "1"], ["1e155", "1e160", "1e300", "nan"]),
    ("initial", "smooth"): (["true", "false"], []),
    ("source", "preset"): (["zero", "cosine_g", "csv-series"], []),
    # the two files the fuzz writes next to its config (_FUZZ_SERIES): one from t=0, one from t=0.5
    ("source", "path"): (["series.csv"], ["late.csv"]),
    ("source", "k"): (["1", "2"], ["0"]),
    ("source", "amplitude"): (["0", "1"], ["1e155", "1e160", "1e300", "nan"]),
    ("solver", "lin_tol"): (["1e-11", "1e-14"], ["0", "nan"]),
    ("solver", "newton_tol"): (["1e-10", "1e-13"], ["0", "nan"]),
    ("study", "h_levels"): (["2, 4"], ["2.5, 4", "nan"]),
    ("study", "lambda_levels"): (["0.02, 0.01", "0.01, 0.005, 0.0025"], ["nan", "0.01, 0.02"]),
    ("study", "epsilon_levels"): (["0.1, 0.05", "0.2, 0.1, 0.05"], ["nan", "0.05, 0.1"]),
}
_FUZZ_BREAKS = [(key, value) for key, (_, bad) in _FUZZ_KEYS.items() for value in bad]
# mean-free rows on nodes 0..3, which every drawn grid has: a series that
# covers every run, and one that starts after the first step's midpoint
_FUZZ_SERIES = {
    name: "t,node,value\n" + "".join(f"{t},{j},{0.1 * (-1) ** j}\n" for j in range(4))
    for name, t in (("series.csv", 0.0), ("late.csv", 0.5))
}
# a mean-free step datum on the 1D n=16 grid, and the same datum with a nan
# on node 3; either is drawn with preset = csv, on whatever grid the config names
_FUZZ_STEP = [0.5] * 8 + [-0.5] * 8
_FUZZ_DATA = {
    name: "x,value\n" + "".join(f"{(j + 0.5) / 16!r},{v}\n" for j, v in enumerate(values))
    for name, values in (("datum.csv", _FUZZ_STEP), ("nan.csv", _FUZZ_STEP[:3] + ["nan"] + _FUZZ_STEP[4:]))
}


def _fuzz_config(values):
    sections = {}
    for (section, key), value in values.items():
        if value is not None:
            sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n" for name, lines in sections.items())


def _artifacts_finite(outdir):
    for path in outdir.glob("*.csv"):
        # an all-numeric table (a trajectory) parses in one call; a table with
        # text or empty cells is read token by token
        try:
            if not np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1)).all():
                return False
            continue
        except ValueError:
            pass
        for line in path.read_text().splitlines()[1:]:
            for token in line.split(","):
                try:
                    x = float(token)
                except ValueError:
                    continue
                if not np.isfinite(x):
                    return False
    return True


@settings(max_examples=60)
@given(
    command=st.sampled_from(["simulate", "study-h", "study-lambda", "study-epsilon", "validate", "check-identities"]),
    values=st.fixed_dictionaries({k: st.sampled_from([None] + ok) for k, (ok, _) in _FUZZ_KEYS.items()}),
    breaks=st.lists(st.sampled_from(_FUZZ_BREAKS), max_size=2),
    out_name=st.sampled_from(["out", "file/sub"]),
    datum=st.sampled_from([None, *_FUZZ_DATA]),
)
@example(
    command="validate",
    values={("source", "preset"): "csv-series", ("source", "path"): "late.csv"},
    breaks=[],
    out_name="out",
    datum=None,
)
@example(command="simulate", values={("grid", "n"): "16"}, breaks=[], out_name="out", datum="datum.csv")
def test_main_keeps_its_exit_code_contract(command, values, breaks, out_name, datum):
    # whatever the config and output path, main returns 0, 1 or 2, never
    # raises and emits no warning; a run that returns 0 writes only finite
    # numbers. A key drawn as None is left out, up to two keys take a boundary
    # or unusable value, "file/sub" is an --out below a regular file, and a
    # drawn datum file replaces the initial preset
    if datum is not None:
        values = {**values, ("initial", "preset"): "csv", ("initial", "path"): datum}
    values = {**values, **dict(breaks)}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        conf = tmp / "fuzz.ini"
        conf.write_text(_fuzz_config(values))
        for name, text in {**_FUZZ_SERIES, **_FUZZ_DATA}.items():
            (tmp / name).write_text(text)
        (tmp / "file").write_text("")
        out = tmp / out_name
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, "--config", str(conf), "--out", str(out)])
        assert code in (0, 1, 2)
        assert not caught and "Warning" not in err.getvalue()
        if code == 0:
            assert _artifacts_finite(out)
