"""Refinement studies along the step size and the two regularization axes.

A study runs the same scenario over a strictly decreasing parameter
sequence and measures consecutive-level differences of the piecewise-linear
density reconstruction in Linf(0,T;H) and L2(0,T;dual). Shrinking
differences are the empirical footprint of the limit passages; observed
orders come from log-ratios of consecutive differences. No rate is
asserted by the theory behind the scheme, so orders are reported, not
demanded.

Axis conventions:

    h        levels are step counts N (increasing); one shared spatial grid.
    lambda   levels are lambda values (decreasing) at fixed eps.
    epsilon  levels are eps values (decreasing) with lambda co-scaled as
             eps/10, a one-parameter diagonal through the two-parameter
             limit.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import LEDGER_COLUMNS, _blocks, _level_sum, build_ledger
from .elliptic import SolverFailure, SolverOptions, dual_coefficients
from .grid import _pair, _sum
from .scheme import run

__all__ = [
    "StudyReport", "STUDY_COLUMNS", "check_levels", "study", "estimate_order", "study_rows", "save_study_csv", "summarize"
]

AXES = ("h", "lambda", "epsilon")


@dataclass
class StudyReport:
    axis: str
    levels: list                      # parameter values, strictly decreasing
    diffs_linf_h: list = field(default_factory=list)
    diffs_l2_vstar: list = field(default_factory=list)
    orders_linf_h: list = field(default_factory=list)
    orders_l2_vstar: list = field(default_factory=list)
    ledgers: list = field(default_factory=list)
    failed_level: float = None
    failure_message: str = ""


def _level_scenario(axis, base, level):
    if axis == "h":
        return base.with_params(N=int(level))
    if axis == "lambda":
        return base.with_params(lam=float(level))
    return base.with_params(eps=float(level), lam=float(level) / 10.0)


def _level_value(axis, scenario):
    if axis == "h":
        return scenario.params.h
    if axis == "lambda":
        return scenario.params.lam
    return scenario.params.eps


def estimate_order(diffs, ratios=None, floor=0.0):
    """Observed orders log(d_k / d_{k+1}) / log(ratio_k); None below the noise floor."""
    if ratios is None:
        ratios = [2.0] * (len(diffs) - 1)
    orders = []
    for d0, d1, r in zip(diffs, diffs[1:], ratios):
        if d0 <= floor or d1 <= floor or r <= 1.0:
            orders.append(None)
        else:
            orders.append(float(np.log(d0 / d1) / np.log(r)))
    return orders


def _uhat_at(traj, ts):
    """u_hat of ``traj`` (linear from u_n to u_{n+1} on step n) at the sorted times ``ts``, stacked.

    A time within 1e-9 steps of a level takes that level exactly, and the step
    index is clamped to N - 1, so a level time one ulp past T reads u_N.
    """
    kf = ts / traj.params.h
    k = np.rint(kf)
    level = np.abs(kf - k) <= 1e-9
    n = np.minimum(np.where(level, k, np.floor(kf)), traj.params.N - 1)
    s = (np.where(level, k, kf) - n).reshape((-1,) + (1,) * traj.grid.d)
    i = n.astype(int)
    return (1.0 - s) * traj.u[i] + s * traj.u[i + 1]


def _uhat_diff_norms(traj_a, traj_b):
    """Exact Linf(0,T;H) and L2(0,T;dual) distance between the u_hat of two trajectories.

    Both reconstructions are linear between their own level times, so on the
    union partition the difference is linear per segment and both norms are
    exact: the Linf over a segment of a norm of a linear path is attained at
    an endpoint, and the squared dual norm integrates by the endpoint rule
    (ip(a,a) + ip(a,b) + ip(b,b))/3 per segment. The breakpoints are taken
    in blocks, each gathered by ``_uhat_at``, and each pairing
    ip(a,b) = (a, (I - Lap)^(-1) b)_h is the sum of products of the
    ``dual_coefficients`` of a and b. The segments' integrals are added one
    segment at a time, in time order.
    """
    g = traj_a.grid
    # np.union1d of the two sorted time grids, without np.unique (which imports numpy.ma)
    breaks = np.sort(np.concatenate([traj_a.times, traj_b.times]))
    breaks = breaks[np.concatenate([[True], breaks[1:] != breaks[:-1]])]
    linf_sq, segments = 0.0, []
    for start, stop in _blocks(len(breaks) - 1, g.node_count):
        ts = breaks[start : stop + 1]
        diff = _uhat_at(traj_a, ts) - _uhat_at(traj_b, ts)
        linf_sq = max(linf_sq, float(np.max(_pair(g, diff, diff))))
        w = dual_coefficients(g, diff, 1.0)
        own = _sum(g, w * w)
        segments.append(np.diff(ts) * (own[:-1] + _sum(g, w[:-1] * w[1:]) + own[1:]))
    return float(np.sqrt(linf_sq)), float(np.sqrt(max(_level_sum(segments) / 3.0, 0.0)))


def check_levels(axis, base_scenario, levels):
    """The level scenarios of a study and their parameter values, strictly decreasing.

    Raises ValueError for an unknown axis, a level that breaks the
    stepsize condition, or levels out of order: all of them follow from
    the configuration alone, before any level runs.
    """
    if axis not in AXES:
        raise ValueError(f"unknown study axis {axis!r}")
    scenarios = [_level_scenario(axis, base_scenario, lv) for lv in levels]
    for sc in scenarios:
        sc.params.validate()
    values = [_level_value(axis, sc) for sc in scenarios]
    if any(v1 >= v0 for v0, v1 in zip(values, values[1:])):
        raise ValueError(f"levels must strictly decrease along the {axis} axis, got {values}")
    return scenarios, values


def study(axis, base_scenario, levels, opts=None):
    """Run one trajectory per level and tabulate consecutive differences.

    Parameters
    ----------
    axis : {"h", "lambda", "epsilon"}
    base_scenario : Scenario
        Template; the axis parameter is overridden per level. Its graph
        also serves every level's ledger.
    levels : sequence
        Step counts N (increasing) for the h axis, parameter values
        (decreasing) otherwise.
    opts : SolverOptions, optional

    The levels run one after another, in order, in the calling process.
    Orders are suppressed below the noise floor 10 * newton_tol. The
    rejections of :func:`check_levels` raise ValueError before any level
    runs. A level whose run fails marks the report failed and truncates
    the tables after the last successful level.
    """
    scenarios, values = check_levels(axis, base_scenario, levels)
    opts = opts or SolverOptions()

    report = StudyReport(axis=axis, levels=values)
    trajectories = []
    for lv, sc in zip(values, scenarios):
        try:
            trajectories.append(run(sc, opts))
        except (SolverFailure, ValueError) as exc:
            report.failed_level = lv
            report.failure_message = str(exc)
            break

    report.ledgers = [build_ledger(tr, base_scenario.beta) for tr in trajectories]
    for ta, tb in zip(trajectories, trajectories[1:]):
        linf, l2v = _uhat_diff_norms(ta, tb)
        report.diffs_linf_h.append(linf)
        report.diffs_l2_vstar.append(l2v)
    ratios = [v0 / v1 for v0, v1 in zip(values, values[1:])][: max(len(report.diffs_linf_h) - 1, 0)]
    floor = 10.0 * opts.newton_tol
    report.orders_linf_h = estimate_order(report.diffs_linf_h, ratios, floor)
    report.orders_l2_vstar = estimate_order(report.diffs_l2_vstar, ratios, floor)
    return report


STUDY_COLUMNS = [
    "axis", "level", "diff_linf_h", "diff_l2_vstar", "order_linf_h", "order_l2_vstar"
] + LEDGER_COLUMNS


def study_rows(report):
    """One row of values per finished level, in ``STUDY_COLUMNS`` order; None where a column has no value."""
    columns = (report.diffs_linf_h, report.diffs_l2_vstar, report.orders_linf_h, report.orders_l2_vstar)
    for i, lv in enumerate(report.levels[: len(report.ledgers)]):
        yield [report.axis, lv] + [seq[i] if i < len(seq) else None for seq in columns] + report.ledgers[i].row()


def save_study_csv(report, path):
    """One row per level: parameter, diffs/orders to the next level, ledger."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STUDY_COLUMNS)
        for row in study_rows(report):
            writer.writerow(["" if x is None else x if isinstance(x, str) else f"{x:.17g}" for x in row])


def summarize(report):
    """Human-readable block mirroring the CSV table."""
    lines = [f"refinement study along the {report.axis} axis"]
    for i, lv in enumerate(report.levels):
        if i >= len(report.ledgers):
            lines.append(f"  level {lv:.6g}: FAILED ({report.failure_message})")
            break
        entry = f"  level {lv:.6g}"
        if i < len(report.diffs_linf_h):
            entry += f"  dLinfH={report.diffs_linf_h[i]:.6e}  dL2V*={report.diffs_l2_vstar[i]:.6e}"
        if i < len(report.orders_linf_h) and report.orders_linf_h[i] is not None:
            entry += f"  order={report.orders_linf_h[i]:.2f}/{report.orders_l2_vstar[i]:.2f}"
        lines.append(entry)
    if report.failed_level is not None and len(report.ledgers) >= len(report.levels):
        lines.append(f"  failed at level {report.failed_level:.6g}: {report.failure_message}")
    return "\n".join(lines)
