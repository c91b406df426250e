"""Batch front end: INI scenario configs, command dispatch, CSV artifacts.

Config grammar (INI sections, ``key = value``; keys are case-sensitive and
unknown keys are rejected so typos surface immediately):

    [grid]    d, n
    [params]  eps, lambda, N, T, eta, c3
    [beta]    family (linear|power|logit|abs_logit), m, c1, c2
    [pi]      family (zero|tanh_decay)
    [initial] preset (constant|cosine|bump|csv), c, k, amplitude, path, smooth
    [source]  preset (zero|cosine_g|csv-series), k, amplitude, ramp, role, path
    [solver]  lin_tol, newton_tol, max_newton, tau_schedule (auto or a
              decreasing comma list)
    [output]  directory, snapshot_stride
    [study]   h_levels, lambda_levels, epsilon_levels (comma lists; optional)

Commands: simulate, study-h, study-lambda, study-epsilon, validate,
check-identities. Validation reports every violation at once, not just the
first. Artifacts are plain CSV plus a text sidecar and are byte-identical
across repeated runs of the same config.
"""

import argparse
import configparser
import io
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from .diagnostics import append_ledger_csv, build_ledger, identity_report
from .elliptic import SolverFailure, SolverOptions
from .grid import Field, load_field_csv, make_grid
from .limits import save_study_csv, study, summarize
from .nonlinearity import BetaSpec, PiSpec, validate_assumptions
from .scheme import Scenario, SimParams, average_sources, run, save_trajectory_csv

__all__ = ["ScenarioConfig", "ConfigError", "parse_config", "build_scenario", "dispatch", "main"]

COMMANDS = ("simulate", "study-h", "study-lambda", "study-epsilon", "validate", "check-identities")


class ConfigError(ValueError):
    """Carries every violation found in a config document."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass
class ScenarioConfig:
    d: int = 1
    n: int = 64
    eps: float = 0.1
    lam: float = 0.01
    N: int = 64
    T: float = 0.5
    eta: float = 0.0
    c3: float = 0.0
    beta_family: str = "power"
    m: float = 3.0
    c1: float = None  # None defers to the family defaults
    c2: float = None
    pi_family: str = "zero"
    initial_preset: str = "cosine"
    initial_c: float = 0.0
    initial_k: int = 1
    initial_amplitude: float = 1.0
    initial_path: str = ""
    smooth: bool = True
    source_preset: str = "zero"
    source_k: int = 1
    source_amplitude: float = 1.0
    source_ramp: float = 0.0
    source_role: str = "g"
    source_path: str = ""
    lin_tol: float = 1e-11
    newton_tol: float = 1e-10
    max_newton: int = 50
    tau_schedule: tuple = None
    directory: str = "out"
    snapshot_stride: int = 1
    h_levels: tuple = None
    lambda_levels: tuple = None
    epsilon_levels: tuple = None

    def sim_params(self):
        return SimParams(eps=self.eps, lam=self.lam, N=self.N, T=self.T, eta=self.eta, c3=self.c3)

    def solver_options(self):
        return SolverOptions(
            lin_tol=self.lin_tol,
            newton_tol=self.newton_tol,
            max_newton=self.max_newton,
            tau_schedule=self.tau_schedule,
        )


# section -> key -> (attribute, converter)
def _to_bool(s):
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _to_levels(s):
    vals = tuple(float(x) for x in s.split(",") if x.strip())
    if not vals:
        raise ValueError("empty level list")
    return vals


def _to_schedule(s):
    if s.strip().lower() == "auto":
        return None
    vals = tuple(float(x) for x in s.split(",") if x.strip())
    if not vals:
        raise ValueError("empty tau schedule")
    return vals


_SCHEMA = {
    "grid": {"d": ("d", int), "n": ("n", int)},
    "params": {
        "eps": ("eps", float),
        "lambda": ("lam", float),
        "N": ("N", int),
        "T": ("T", float),
        "eta": ("eta", float),
        "c3": ("c3", float),
    },
    "beta": {
        "family": ("beta_family", str),
        "m": ("m", float),
        "c1": ("c1", float),
        "c2": ("c2", float),
    },
    "pi": {"family": ("pi_family", str)},
    "initial": {
        "preset": ("initial_preset", str),
        "c": ("initial_c", float),
        "k": ("initial_k", int),
        "amplitude": ("initial_amplitude", float),
        "path": ("initial_path", str),
        "smooth": ("smooth", _to_bool),
    },
    "source": {
        "preset": ("source_preset", str),
        "k": ("source_k", int),
        "amplitude": ("source_amplitude", float),
        "ramp": ("source_ramp", float),
        "role": ("source_role", str),
        "path": ("source_path", str),
    },
    "solver": {
        "lin_tol": ("lin_tol", float),
        "newton_tol": ("newton_tol", float),
        "max_newton": ("max_newton", int),
        "tau_schedule": ("tau_schedule", _to_schedule),
    },
    "output": {
        "directory": ("directory", str),
        "snapshot_stride": ("snapshot_stride", int),
    },
    "study": {
        "h_levels": ("h_levels", _to_levels),
        "lambda_levels": ("lambda_levels", _to_levels),
        "epsilon_levels": ("epsilon_levels", _to_levels),
    },
}


def parse_config(text):
    """Parse and fully validate a config document.

    Raises ConfigError carrying the complete list of violations; a valid
    document returns a ScenarioConfig with every invariant already checked.
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

    violations.extend(_semantic_violations(cfg))
    if violations:
        raise ConfigError(violations)
    return cfg


def _semantic_violations(cfg):
    bad = []
    if cfg.d not in (1, 2):
        bad.append(f"grid dimension must be 1 or 2, got {cfg.d}")
    if cfg.n < 4:
        bad.append(f"grid needs n >= 4, got {cfg.n}")
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


def _axis_profile(grid, k):
    return np.cos(k * np.pi * grid.axis)


def _separable(grid, k):
    if grid.d == 1:
        return _axis_profile(grid, k)
    ax = _axis_profile(grid, k)
    return np.outer(ax, ax)


class CosineSource:
    """Mass-free density source amplitude*(1 + ramp*t)*cos(k*pi*x) (product form in 2D)."""

    kind = "g"

    def __init__(self, k=1, amplitude=1.0, ramp=0.0):
        self.k = k
        self.amplitude = amplitude
        self.ramp = ramp

    def __call__(self, t, grid):
        return Field(grid, self.amplitude * (1.0 + self.ramp * t) * _separable(grid, self.k))


class CsvSeriesSource:
    """Piecewise-constant-in-time series from rows t,node,value (sorted blocks).

    Node indices are C-order flat indices into a grid of ``node_count``
    nodes; an index outside ``[0, node_count)`` is rejected, never wrapped.
    """

    def __init__(self, path, node_count, role="g"):
        self.kind = role
        self.path = path
        blocks = {}
        with open(path, newline="") as fh:
            header = fh.readline().strip().split(",")
            if header != ["t", "node", "value"]:
                raise ValueError(f"csv-series must have header t,node,value, got {header}")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                t, node, value = line.strip().split(",")
                node = int(node)
                if not 0 <= node < node_count:
                    raise ValueError(
                        f"csv-series line {lineno}: node {node} outside 0..{node_count - 1}"
                    )
                blocks.setdefault(float(t), {})[node] = float(value)
        if not blocks:
            raise ValueError("csv-series file holds no rows")
        self.times = sorted(blocks)
        self.blocks = [blocks[t] for t in self.times]

    def __call__(self, t, grid):
        if t < self.times[0] - 1e-12:
            raise ValueError(f"series starts at t={self.times[0]}, asked for {t}")
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        idx = max(idx, 0)
        block = self.blocks[idx]
        vals = np.zeros(grid.node_count)
        for node, value in block.items():
            vals[node] = value
        return Field(grid, vals)


def build_initial(cfg, grid):
    if cfg.initial_preset == "constant":
        return Field(grid, np.full(grid.shape, cfg.initial_c))
    if cfg.initial_preset == "cosine":
        return Field(grid, cfg.initial_amplitude * _separable(grid, cfg.initial_k))
    if cfg.initial_preset == "bump":
        coords = grid.coords()
        r2 = sum((c - 0.5) ** 2 for c in coords)
        return Field(grid, cfg.initial_amplitude * np.exp(-r2 / 0.02))
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
    outdir.mkdir(parents=True, exist_ok=True)
    save_trajectory_csv(traj, outdir / "trajectory.csv", stride=cfg.snapshot_stride)
    ledger = build_ledger(traj, scenario.beta, opts)
    append_ledger_csv(outdir / "ledger.csv", ledger)
    meta = _render_metadata(
        cfg,
        {
            "steps": traj.params.N,
            "ledger": " ".join(f"q{i + 1}={v:.6e}" for i, v in enumerate(ledger.qvalues())),
        },
    )
    (outdir / "metadata.txt").write_text(meta)
    print(f"simulate: wrote {outdir}/trajectory.csv ({traj.params.N} steps)")
    return 0


def _cmd_study(cfg, scenario, axis, outdir, jobs):
    opts = cfg.solver_options()
    if axis == "h":
        levels = [int(x) for x in (cfg.h_levels or (cfg.N, 2 * cfg.N, 4 * cfg.N))]
    elif axis == "lambda":
        levels = list(cfg.lambda_levels or (cfg.lam, cfg.lam / 2, cfg.lam / 4))
    else:
        levels = list(cfg.epsilon_levels or (cfg.eps, cfg.eps / 2, cfg.eps / 4))
    try:
        report = study(axis, scenario, levels, opts=opts, jobs=jobs)
    except ValueError as exc:
        print(f"study-{axis} rejected: {exc}")
        return 1
    outdir.mkdir(parents=True, exist_ok=True)
    save_study_csv(report, outdir / f"study_{axis}.csv")
    text = summarize(report)
    (outdir / f"study_{axis}_summary.txt").write_text(text + "\n")
    print(text)
    return 0 if report.failed_level is None else 1


def _cmd_validate(cfg, scenario, outdir, seed):
    probes = []
    if scenario.source is not None and scenario.source.kind == "g":
        probes = average_sources(scenario.source, scenario.params, scenario.grid)
    report = validate_assumptions(scenario.beta, scenario.pi, scenario.u0, probes, seed=seed)
    text = report.render()
    print(text)
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "validation.txt").write_text(text + "\n")
    return 0 if report.passed else 1


def _cmd_check_identities(cfg, scenario):
    # short run at the configured step size with tightened solves: the
    # identities are exact, so any slack beyond roundoff is a defect
    n_short = min(cfg.N, 16)
    scenario = scenario.with_params(N=n_short, T=cfg.T * n_short / cfg.N)
    opts = SolverOptions(
        lin_tol=min(cfg.lin_tol, 1e-12),
        newton_tol=min(cfg.newton_tol, 1e-13),
        max_newton=cfg.max_newton,
        tau_schedule=cfg.tau_schedule,
    )
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


def dispatch(command, cfg, jobs=1, outdir=None, seed=0):
    """Run one command against a validated config; returns the exit status."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    out = Path(outdir) if outdir is not None else Path(cfg.directory)
    # unreadable or malformed input files are input errors, like a bad config
    try:
        scenario = build_scenario(cfg)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if command == "simulate":
        return _cmd_simulate(cfg, scenario, out)
    if command.startswith("study-"):
        return _cmd_study(cfg, scenario, command.split("-", 1)[1], out, jobs)
    if command == "validate":
        return _cmd_validate(cfg, scenario, out if outdir is not None else None, seed)
    return _cmd_check_identities(cfg, scenario)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chemhill",
        description="Batch driver for the regularized chemotaxis scheme and its refinement studies.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the INI scenario config")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for study levels")
    parser.add_argument("--out", default=None, help="output directory (default: config output.directory)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized validation samples")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    return dispatch(args.command, cfg, jobs=args.jobs, outdir=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
