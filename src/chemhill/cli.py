"""Batch front end: INI scenario configs, command dispatch, CSV artifacts.

Config grammar (INI sections, ``key = value``; keys are case-sensitive and
unknown keys are rejected so typos surface immediately):

    [grid]    d, n
    [params]  eps, lambda, N, T, eta, c3
    [beta]    family (linear|power|logit|abs_logit), m, c1, c2
    [pi]      family (zero|tanh_decay)
    [initial] preset (constant|cosine|bump|csv), c, k, amplitude, path, smooth
    [source]  preset (zero|cosine_g|csv-series), k, amplitude, ramp, role, path
    [solver]  newton_tol, max_newton
    [output]  directory, snapshot_stride
    [study]   h_levels, lambda_levels, epsilon_levels (comma lists; optional)

Each key is declared once, in the metadata of its ``ScenarioConfig``
field; the field's annotation picks the converter unless the field names
its own. The converters reject at parse time what no run can use: a
non-finite number in any float key or level list, an ``h_levels`` entry
that is not a whole step count, and a source ``k`` below 1.

A relative ``path`` in [initial] or [source] names a file next to the
config: it resolves against the directory of the ``--config`` file, not the
working directory (``parse_config`` on text alone resolves against the
working directory). Absolute paths are used as given, and ``metadata.txt``
records the resolved path.

Commands: simulate, study-h, study-lambda, study-epsilon, validate,
check-identities. Validation reports every violation at once, not just the
first. Artifacts are plain CSV plus a text sidecar and are byte-identical
across repeated runs of the same config.
"""

import argparse
import configparser
import gc
import io
import math
import os
import sys
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np

from .diagnostics import LEDGER_COLUMNS, append_ledger_csv, build_ledger, identity_report
from .elliptic import SolverFailure, SolverOptions
from .grid import _read_node_csv, load_field_csv, make_grid
from .limits import STUDY_COLUMNS, check_levels, save_study_csv, study, study_rows, summarize
from .nonlinearity import BetaSpec, PiSpec, validate_assumptions
from .scheme import Scenario, SimParams, average_sources, run, save_trajectory_csv

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "build_scenario", "dispatch", "main"]

COMMANDS = ("simulate", "study-h", "study-lambda", "study-epsilon", "validate", "check-identities")


class ConfigError(ValueError):
    """Carries every violation found in a config document."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def _ini(section, key, default, convert=None):
    # a ScenarioConfig field read from ``key`` in ``[section]``; ``convert``
    # replaces the converter the annotation picks
    return field(default=default, metadata={"ini": (section, key), "convert": convert})


def _to_float(s):
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {s!r}")
    return x


def _to_positive_int(s):
    k = int(s)
    if k < 1:
        raise ValueError(f"must be at least 1, got {k}")
    return k


def _to_bool(s):
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _to_levels(s):
    vals = tuple(_to_float(x) for x in s.split(",") if x.strip())
    if not vals:
        raise ValueError("empty level list")
    return vals


def _to_step_counts(s):
    # h levels are step counts N, kept as the floats the other level lists hold
    vals = _to_levels(s)
    if any(x != int(x) for x in vals):
        raise ValueError("step counts must be whole numbers")
    return vals


@dataclass
class ScenarioConfig:
    d: int = _ini("grid", "d", 1)
    n: int = _ini("grid", "n", 64)
    eps: float = _ini("params", "eps", 0.1)
    lam: float = _ini("params", "lambda", 0.01)
    N: int = _ini("params", "N", 64)
    T: float = _ini("params", "T", 0.5)
    eta: float = _ini("params", "eta", 0.0)
    c3: float = _ini("params", "c3", 0.0)
    beta_family: str = _ini("beta", "family", "power")
    m: float = _ini("beta", "m", 3.0)
    c1: float = _ini("beta", "c1", None)  # None defers to the family defaults
    c2: float = _ini("beta", "c2", None)
    pi_family: str = _ini("pi", "family", "zero")
    initial_preset: str = _ini("initial", "preset", "cosine")
    initial_c: float = _ini("initial", "c", 0.0)
    initial_k: int = _ini("initial", "k", 1)
    initial_amplitude: float = _ini("initial", "amplitude", 1.0)
    initial_path: str = _ini("initial", "path", "")
    smooth: bool = _ini("initial", "smooth", True)
    source_preset: str = _ini("source", "preset", "zero")
    source_k: int = _ini("source", "k", 1, _to_positive_int)
    source_amplitude: float = _ini("source", "amplitude", 1.0)
    source_ramp: float = _ini("source", "ramp", 0.0)
    source_role: str = _ini("source", "role", "g")
    source_path: str = _ini("source", "path", "")
    newton_tol: float = _ini("solver", "newton_tol", 1e-10)
    max_newton: int = _ini("solver", "max_newton", 50)
    directory: str = _ini("output", "directory", "out")
    snapshot_stride: int = _ini("output", "snapshot_stride", 1)
    h_levels: tuple = _ini("study", "h_levels", None, _to_step_counts)
    lambda_levels: tuple = _ini("study", "lambda_levels", None)
    epsilon_levels: tuple = _ini("study", "epsilon_levels", None)

    def sim_params(self):
        return SimParams(eps=self.eps, lam=self.lam, N=self.N, T=self.T, eta=self.eta, c3=self.c3)

    def solver_options(self):
        return SolverOptions(newton_tol=self.newton_tol, max_newton=self.max_newton)


def _schema():
    # section -> key -> (attribute, converter); the converter follows the annotation
    converters = {bool: _to_bool, float: _to_float, tuple: _to_levels}
    schema = {}
    for f in dc_fields(ScenarioConfig):
        section, key = f.metadata["ini"]
        convert = f.metadata["convert"] or converters.get(f.type, f.type)
        schema.setdefault(section, {})[key] = (f.name, convert)
    return schema


_SCHEMA = _schema()


def parse_config(text, base_dir="."):
    """Parse and fully validate a config document.

    Raises ConfigError carrying the complete list of violations; a valid
    document returns a ScenarioConfig with every invariant already checked.
    Relative ``initial_path`` and ``source_path`` entries are resolved to
    absolute paths against ``base_dir``: the config file's directory when
    the document came from a file, the working directory by default.
    """
    violations = []
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"config syntax: {exc}"]) from exc

    cfg = ScenarioConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            violations.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            entry = _SCHEMA[section].get(key)
            if entry is None:
                violations.append(f"unknown key {key!r} in section [{section}]")
                continue
            attr, conv = entry
            try:
                setattr(cfg, attr, conv(raw))
            except (ValueError, TypeError) as exc:
                violations.append(f"[{section}] {key} = {raw!r}: {exc}")
    for attr in ("initial_path", "source_path"):
        path = getattr(cfg, attr)
        if path and not os.path.isabs(path):
            setattr(cfg, attr, os.path.abspath(os.path.join(base_dir, path)))

    violations.extend(_semantic_violations(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


def _semantic_violations(cfg):
    bad = []
    try:
        make_grid(cfg.d, cfg.n)
    except ValueError as exc:
        bad.append(str(exc))
    bad.extend(cfg.sim_params().violations())
    try:
        BetaSpec(cfg.beta_family, m=cfg.m, c1=cfg.c1, c2=cfg.c2)
    except ValueError as exc:
        bad.append(str(exc))
    try:
        PiSpec(cfg.pi_family, c3=cfg.c3)
    except ValueError as exc:
        bad.append(str(exc))
    if cfg.initial_preset not in ("constant", "cosine", "bump", "csv"):
        bad.append(f"unknown initial preset {cfg.initial_preset!r}")
    if cfg.initial_preset == "csv" and not cfg.initial_path:
        bad.append("initial preset csv requires a path")
    if cfg.source_preset not in ("zero", "cosine_g", "csv-series"):
        bad.append(f"unknown source preset {cfg.source_preset!r}")
    if cfg.source_preset == "csv-series" and not cfg.source_path:
        bad.append("source preset csv-series requires a path")
    if cfg.source_role not in ("g", "f"):
        bad.append(f"source role must be 'g' or 'f', got {cfg.source_role!r}")
    if cfg.snapshot_stride < 1:
        bad.append(f"snapshot_stride must be >= 1, got {cfg.snapshot_stride}")
    try:
        cfg.solver_options()
    except ValueError as exc:
        bad.append(f"solver options: {exc}")
    for name in ("h_levels", "lambda_levels", "epsilon_levels"):
        levels = getattr(cfg, name)
        if levels is not None and any(x <= 0 for x in levels):
            bad.append(f"{name} must be positive")
    return bad


# ---------------------------------------------------------------------------
# scenario materialization


def _separable(grid, k):
    # cos(k*pi*x), and its product cos(k*pi*x)*cos(k*pi*y) in 2D
    ax = np.cos(k * np.pi * grid.axis)
    return ax if grid.d == 1 else np.outer(ax, ax)


class CosineSource:
    """Mass-free density source amplitude*(1 + ramp*t)*cos(k*pi*x) (product form in 2D)."""

    kind = "g"

    def __init__(self, k=1, amplitude=1.0, ramp=0.0):
        self.k = k
        self.amplitude = amplitude
        self.ramp = ramp

    def __call__(self, t, grid):
        return self.amplitude * (1.0 + self.ramp * t) * _separable(grid, self.k)


class CsvSeriesSource:
    """Piecewise-constant-in-time series from rows t,node,value (sorted blocks).

    The rows are read by ``grid._read_node_csv``: node indices are C-order
    flat indices into a grid of ``node_count`` nodes, and an index outside
    ``[0, node_count)`` is rejected, never wrapped. A malformed row, a
    non-finite time or value and a second row for one (t, node) pair are
    rejected too, with their line number. A node without a row at some
    time is zero there.
    """

    def __init__(self, path, node_count, role="g"):
        self.kind = role
        self.path = path
        rows = _read_node_csv(path, "csv-series", ["t", "node", "value"], node_count)
        if not rows:
            raise ValueError("csv-series file holds no rows")
        self.times = sorted(rows)
        self.blocks = [np.zeros(node_count) for _ in self.times]
        for vals, t in zip(self.blocks, self.times):
            for node, (value,) in rows[t].items():
                vals[node] = value

    def __call__(self, t, grid):
        if t < self.times[0] - 1e-12:
            raise ValueError(f"series starts at t={self.times[0]}, asked for {t}")
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return self.blocks[max(idx, 0)].reshape(grid.shape)


def build_initial(cfg, grid):
    """The initial datum of the configured preset, an array of shape ``grid.shape``."""
    if cfg.initial_preset == "constant":
        return np.full(grid.shape, cfg.initial_c)
    if cfg.initial_preset == "cosine":
        return cfg.initial_amplitude * _separable(grid, cfg.initial_k)
    if cfg.initial_preset == "bump":
        r2 = sum((c - 0.5) ** 2 for c in grid.coords())
        return cfg.initial_amplitude * np.exp(-r2 / 0.02)
    return load_field_csv(grid, cfg.initial_path)


def build_source(cfg, grid):
    if cfg.source_preset == "zero":
        return None
    if cfg.source_preset == "cosine_g":
        return CosineSource(cfg.source_k, cfg.source_amplitude, cfg.source_ramp)
    return CsvSeriesSource(cfg.source_path, grid.node_count, cfg.source_role)


def build_scenario(cfg):
    grid = make_grid(cfg.d, cfg.n)
    return Scenario(
        grid=grid,
        params=cfg.sim_params(),
        beta=BetaSpec(cfg.beta_family, m=cfg.m, c1=cfg.c1, c2=cfg.c2),
        pi=PiSpec(cfg.pi_family, c3=cfg.c3),
        u0=build_initial(cfg, grid),
        source=build_source(cfg, grid),
        smooth_u0=cfg.smooth,
    )


def _render_metadata(cfg, extra):
    buf = io.StringIO()
    buf.write("[resolved-config]\n")
    for f in dc_fields(ScenarioConfig):
        buf.write(f"{f.name} = {getattr(cfg, f.name)}\n")
    buf.write("\n[run]\n")
    for key in sorted(extra):
        buf.write(f"{key} = {extra[key]}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands


def _nonfinite(columns, row):
    # the columns of an artifact row whose number is not finite
    return [c for c, x in zip(columns, row) if isinstance(x, float) and not math.isfinite(x)]


def _cannot_write(outdir, exc):
    # an output directory that cannot be created or written is an input error
    print(f"cannot write {exc.filename or outdir}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _cmd_simulate(cfg, scenario, outdir):
    opts = cfg.solver_options()
    try:
        traj = run(scenario, opts)
    except SolverFailure as exc:
        if exc.step_index is None:
            print(f"simulate failed during set-up: {exc}")
        else:
            print(f"simulate failed at step {exc.step_index}: {exc}")
        return 1
    except ValueError as exc:
        print(f"simulate rejected: {exc}")
        return 1
    ledger = build_ledger(traj, scenario.beta)
    bad = _nonfinite(LEDGER_COLUMNS, ledger.row())
    if bad:
        print(f"simulate failed: ledger entries {', '.join(bad)} are not finite")
        return 1
    meta = _render_metadata(
        cfg,
        {
            "steps": traj.params.N,
            "ledger": " ".join(f"q{i + 1}={v:.6e}" for i, v in enumerate(ledger.qvalues())),
        },
    )
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        save_trajectory_csv(traj, outdir / "trajectory.csv", stride=cfg.snapshot_stride)
        append_ledger_csv(outdir / "ledger.csv", ledger)
        (outdir / "metadata.txt").write_text(meta)
    except OSError as exc:
        return _cannot_write(outdir, exc)
    print(f"simulate: wrote {outdir}/trajectory.csv ({traj.params.N} steps)")
    return 0


def _cmd_study(cfg, scenario, axis, outdir):
    opts = cfg.solver_options()
    if axis == "h":
        levels = [int(x) for x in (cfg.h_levels or (cfg.N, 2 * cfg.N, 4 * cfg.N))]
    elif axis == "lambda":
        levels = list(cfg.lambda_levels or (cfg.lam, cfg.lam / 2, cfg.lam / 4))
    else:
        levels = list(cfg.epsilon_levels or (cfg.eps, cfg.eps / 2, cfg.eps / 4))
    try:
        check_levels(axis, scenario, levels)
    except ValueError as exc:
        print(f"config error: study-{axis} levels: {exc}", file=sys.stderr)
        return 2
    try:
        report = study(axis, scenario, levels, opts=opts)
    except ValueError as exc:  # raised after the levels ran: a run failure
        print(f"study-{axis} failed: {exc}")
        return 1
    for row in study_rows(report):
        bad = _nonfinite(STUDY_COLUMNS, row)
        if bad:
            print(f"study-{axis} failed: level {row[1]:.6g} entries {', '.join(bad)} are not finite")
            return 1
    text = summarize(report)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        save_study_csv(report, outdir / f"study_{axis}.csv")
        (outdir / f"study_{axis}_summary.txt").write_text(text + "\n")
    except OSError as exc:
        return _cannot_write(outdir, exc)
    print(text)
    return 0 if report.failed_level is None else 1


def _cmd_validate(cfg, scenario, outdir):
    probes = []
    if scenario.source is not None and scenario.source.kind == "g":
        try:  # a csv-series source that cannot serve a step, as simulate reports it
            probes = average_sources(scenario.source, scenario.params, scenario.grid)
        except ValueError as exc:
            print(f"validate rejected: {exc}")
            return 1
    report = validate_assumptions(scenario.grid, scenario.beta, scenario.pi, scenario.u0, probes)
    text = report.render()
    print(text)
    if outdir is not None:
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / "validation.txt").write_text(text + "\n")
        except OSError as exc:
            return _cannot_write(outdir, exc)
    return 0 if report.passed else 1


def _cmd_check_identities(cfg, scenario):
    # short run at the configured step size with a tightened, polished Newton
    # solve: the identities are exact, so any slack beyond roundoff is a defect
    n_short = min(cfg.N, 16)
    scenario = scenario.with_params(N=n_short, T=cfg.T * n_short / cfg.N)
    opts = SolverOptions(newton_tol=min(cfg.newton_tol, 1e-13), max_newton=cfg.max_newton, polish=True)
    try:
        traj = run(scenario, opts)
    except (SolverFailure, ValueError) as exc:
        print(f"check-identities run failed: {exc}")
        return 1
    rows = identity_report(traj, scenario.beta, scenario.pi, tol=1e-10)
    ok = True
    for name, defect, passed in rows:
        ok &= passed
        print(f"{name:36s} defect={defect:.3e}  {'pass' if passed else 'FAIL'}")
    return 0 if ok else 1


def dispatch(command, cfg, outdir=None):
    """Run one command against a validated config; returns the exit status."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    out = Path(outdir) if outdir is not None else Path(cfg.directory)
    # the commands' own checks report overflow (exit 1); NumPy's warnings would repeat it
    with np.errstate(all="ignore"):
        # unreadable or malformed input files are input errors, like a bad config
        try:
            scenario = build_scenario(cfg)
        except (OSError, ValueError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return 2
        if command == "simulate":
            return _cmd_simulate(cfg, scenario, out)
        if command.startswith("study-"):
            return _cmd_study(cfg, scenario, command.split("-", 1)[1], out)
        if command == "validate":
            return _cmd_validate(cfg, scenario, out if outdir is not None else None)
        return _cmd_check_identities(cfg, scenario)


def main(argv=None):
    """Process entry point: parse ``argv``, run the command, return its exit status.

    ``main`` freezes the collector first; ``dispatch``, the library entry,
    leaves collection as it finds it.
    """
    # the ~22,000 objects alive here, mostly NumPy's, live until exit; in the
    # permanent generation no collection walks them, the shutdown ones
    # included, which cut exit from about 40 ms to 10-14 ms (2-vCPU VM,
    # NumPy 2.4.6). Objects the command makes stay collectable.
    gc.freeze()
    parser = argparse.ArgumentParser(
        prog="chemhill",
        description="Batch driver for the regularized chemotaxis scheme and its refinement studies.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "--config",
        required=True,
        help="path to the INI scenario config (relative input paths in it resolve against its directory)",
    )
    parser.add_argument("--out", default=None, help="output directory (default: config output.directory)")
    args = parser.parse_args(argv)

    config = Path(args.config)
    try:
        text = config.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, base_dir=config.parent)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    return dispatch(args.command, cfg, outdir=args.out)


if __name__ == "__main__":
    sys.exit(main())
