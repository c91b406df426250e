"""Implicit time marching of the regularized chemotaxis system.

One step advances (u_n, mu_n) to (u_{n+1}, mu_{n+1}) through the decoupled
form of the scheme: the new density solves the monotone equation

    (lam + K) u - eps*h*Lap u + h*beta(u) + h*pi(u)
        = h*f_{n+1} + lam*u_n + K u_n + h*K(mu_n - adv_n),

with K = (I - Lap)^(-1) and adv_n = eta * div(u_n grad v_n) the explicitly
lagged transport term; K u_n is the stored v_n, so the right-hand side
costs one shifted solve. The chemical potential then updates by its own
checked shifted solve,

    mu_{n+1} = K(mu_n - (u_{n+1} - u_n)/h - adv_n),

and the chemotaxis potential by v_{n+1} = K u_{n+1}. That is the K u the
Newton residual of the accepted iterate already formed from the same
table, which ``elliptic.step_solve`` returns with the density, so bitwise
the shifted solve's result, and it gets the solve's stencil residual
check: two shifted solves per step. The first Newton residual takes
K u_n from v_n as well, unless a bounded graph's start was clipped.
mu_{n+1} is not recovered from (v_{n+1} - v_n)/h, which would divide the
solves' forward error by h and skip a residual check. The initial
potential is identically zero and the initial density is the smoothed
datum.

A step works on its states' arrays, as ``elliptic``'s solvers do, and
builds a ``Field`` (the state type, which rejects non-finite entries)
only for the transport term and the new state's u, mu and v.

Besides the marching loop this module holds the trajectory CSV format.
"""

import csv
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .elliptic import SolverFailure, SolverOptions, helmholtz_solve, source_potential, step_solve
from .grid import Field, advective_divergence
from .nonlinearity import validate_assumptions

__all__ = [
    "SimParams",
    "StepState",
    "Trajectory",
    "Scenario",
    "average_sources",
    "step",
    "run",
    "save_trajectory_csv",
    "load_trajectory_csv",
]


@dataclass(frozen=True)
class SimParams:
    """Run parameters: regularization eps, damping lam, N steps to time T.

    Invariants: 0 < lam < eps <= 1, N >= 1, T > 0, and the stepsize
    condition h < lam / (2*c3*eps) that makes every per-step operator
    strongly monotone. With a vanishing perturbation (c3 = 0) the unit
    budget c3 = 1 is imposed as the analog, i.e. h < lam / (2*eps).
    """

    eps: float
    lam: float
    N: int
    T: float
    eta: float = 0.0
    c3: float = 0.0

    @property
    def h(self):
        return self.T / self.N

    @property
    def stepsize_bound(self):
        c3_eff = self.c3 if self.c3 > 0 else 1.0
        return self.lam / (2.0 * c3_eff * self.eps)

    def violations(self):
        bad = []
        if not 0 < self.eps <= 1:
            bad.append(f"eps must lie in (0, 1], got {self.eps}")
        if not 0 < self.lam < self.eps:
            bad.append(f"lambda must lie in (0, eps), got lambda={self.lam}, eps={self.eps}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            bad.append(f"N must be a positive integer, got {self.N}")
        if not self.T > 0:
            bad.append(f"T must be positive, got {self.T}")
        if self.c3 < 0:
            bad.append(f"c3 must be nonnegative, got {self.c3}")
        if not bad and not self.h < self.stepsize_bound:
            bad.append(
                f"stepsize condition h < lambda/(2*c3*eps) violated: "
                f"h={self.h:.6g}, bound={self.stepsize_bound:.6g}"
            )
        return bad

    def validate(self):
        bad = self.violations()
        if bad:
            raise ValueError("; ".join(bad))


@dataclass
class StepState:
    """State after step n: density u, potential mu, chemotaxis potential v.

    Invariant: v = K u with K = (I - Lap)^(-1), i.e. ``helmholtz_solve(grid, u.values)``;
    ``run`` and ``step`` build every state that way and ``step`` relies on it.
    """

    n: int
    u: Field
    mu: Field
    v: Field


@dataclass
class Trajectory:
    states: list
    params: SimParams
    sources: list = field(default_factory=list)

    @property
    def grid(self):
        return self.states[0].u.grid

    @property
    def times(self):
        return np.arange(len(self.states)) * self.params.h


@dataclass
class Scenario:
    """Everything a run needs: grid, parameters, graphs, datum, source.

    ``source`` is None (no forcing) or an object with attribute ``kind`` in
    {"f", "g"} that is callable as source(t, grid) -> Field; kind "g" means
    a mass-free density source whose potential is solved for, kind "f" a
    ready-made potential forcing.
    """

    grid: object
    params: SimParams
    beta: object
    pi: object
    u0: Field
    source: object = None
    smooth_u0: bool = True

    def with_params(self, **kw):
        return replace(self, params=replace(self.params, **kw))


def average_sources(provider, params, grid):
    """Interval averages of a time-dependent field by midpoint sampling.

    Midpoint sampling integrates exactly anything linear in t per interval
    (and any provider that is constant on the step intervals), which is one
    order better than the scheme itself.
    """
    params.validate()
    h = params.h
    return [provider((k + 0.5) * h, grid) for k in range(params.N)]


def step(prev, f_next, params, b, p, opts=None):
    """Advance one level; raises SolverFailure (with step index) on solver failure.

    ``prev.v`` serves as K u_n on the right-hand side and in the first
    Newton residual, so it must be ``helmholtz_solve(grid, prev.u.values)`` (the
    StepState invariant); the shifted solves are deterministic, so this
    equals recomputing it bit for bit. The new state keeps the invariant:
    its v is the K u of the accepted Newton residual, bitwise the solve.
    """
    opts = opts or SolverOptions()
    g = prev.u.grid
    h, lam = params.h, params.lam
    u, mu, v = prev.u.values, prev.mu.values, prev.v.values
    try:
        adv = params.eta * advective_divergence(g, prev.u, prev.v).values
        rhs = h * f_next.values + lam * u + v + h * helmholtz_solve(g, mu - adv, opts)
        u_next, v_next = step_solve(g, params, b, p, rhs, u, opts, k_warm=v)
        mu_next = helmholtz_solve(g, mu - (u_next - u) / h - adv, opts)
    except SolverFailure as exc:
        exc.step_index = prev.n
        raise
    return StepState(prev.n + 1, Field(g, u_next), Field(g, mu_next), Field(g, v_next))


def run(scenario, opts=None):
    """March the full scheme and return the trajectory.

    The structural assumptions are re-validated first and a failure there
    raises before any stepping. A step failure mid-run re-raises with the
    partial trajectory attached to the exception.
    """
    opts = opts or SolverOptions()
    g = scenario.grid
    params = scenario.params
    params.validate()

    zero = Field(g, np.zeros(g.shape))
    probes = []
    if scenario.source is None:
        f_fields = [zero] * params.N
    elif scenario.source.kind == "g":
        probes = average_sources(scenario.source, params, g)
        f_fields = [Field(g, source_potential(g, gk.values, opts)) for gk in probes]
    else:
        f_fields = average_sources(scenario.source, params, g)

    report = validate_assumptions(scenario.beta, scenario.pi, scenario.u0, probes)
    if not report.passed:
        raise ValueError("assumption validation failed: " + ", ".join(report.failed_names()))

    u0e = scenario.u0
    if scenario.smooth_u0:
        u0e = Field(g, helmholtz_solve(g, u0e.values, opts, alpha=params.eps))
    state = StepState(0, u0e, zero, Field(g, helmholtz_solve(g, u0e.values, opts)))
    states = [state]
    for k in range(params.N):
        try:
            state = step(state, f_fields[k], params, scenario.beta, scenario.pi, opts)
        except SolverFailure as exc:
            exc.trajectory = Trajectory(states, params, f_fields)
            raise
        states.append(state)
    return Trajectory(states, params, f_fields)


# ---------------------------------------------------------------------------
# serialization


# Least number of values (snapshots x nodes x 3) that each chunk of a forked
# trajectory CSV must hold. Sweep on a 2-vCPU VM, two chunks, the writer timed
# inside `chemhill simulate` processes (2D, 7 alternating runs, serial vs fork
# medians): 10,368 values per chunk 22.7 vs 27.7 ms, 12,288 27.7 vs 26.2,
# 17,280 35.7 vs 37.7, 30,720 65.0 vs 55.5 (fork faster 7/7), 31,104 64.1 vs
# 48.1 (7/7), 55,296 112 vs 80. In one process, without a CLI run before it,
# the fork already won from 13,824 values per chunk (30.4 vs 24.9 ms) and lost
# at 6,912 (15.2 vs 16.0). So a chunk below about 2e4 values saves less than
# its fork costs, and the threshold is the next power of two past that.
_FORK_MIN_VALUES = 1 << 15


def save_trajectory_csv(traj, path, stride=1):
    """Write snapshots as rows time,node,u,mu,v (flat node index).

    Every stride-th level and the final one are written; values are
    ``.17g`` (exact float64 round trip) and lines end in CRLF, as a
    ``csv.writer`` in its default dialect writes them.

    Correctly rounded 17-digit formatting costs about 0.6 us per value by
    every serial route, so a large trajectory is formatted on every CPU
    the process may run on: the kept snapshots split into contiguous
    chunks, at most one per CPU, each of at least ``_FORK_MIN_VALUES``
    values. The first chunk is written here; each other one by a forked
    child into a file that was unlinked before the fork, appended in
    order once every child has exited. The bytes are those of the serial
    write. Without ``os.fork`` or ``os.sched_getaffinity``, with one CPU,
    or below the threshold the write stays serial. A child that fails
    raises OSError here, after every child is reaped.
    """
    kept = [s for s in traj.states if s.n % stride == 0 or s.n == traj.params.N]
    count = traj.grid.node_count
    # one row line per node, so each snapshot is a single % over 4*count values
    template = "".join(f"%s,{j},%.17g,%.17g,%.17g\r\n" for j in range(count))
    bounds = _chunk_bounds(len(kept), 3 * count)
    chunks = [kept[a:z] for a, z in zip(bounds, bounds[1:])]
    with open(path, "w", newline="") as fh:
        fh.write("time,node,u,mu,v\r\n")
        parts = []  # (pid, fd) of each child, in chunk order
        try:
            try:
                for i, chunk in enumerate(chunks[1:], start=1):
                    parts.append(_fork_writer(f"{path}.{os.getpid()}.part{i}", chunk, template, traj.params.h))
                _write_snapshots(fh, chunks[0], template, traj.params.h)
            finally:
                codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in parts]
            if any(codes):
                raise OSError(f"trajectory CSV writer children exited with status {codes}")
            fh.flush()
            for _, fd in parts:
                os.lseek(fd, 0, os.SEEK_SET)
                while block := os.read(fd, 1 << 20):
                    fh.buffer.write(block)
        finally:
            for _, fd in parts:
                os.close(fd)


def _chunk_bounds(snapshots, values_each):
    # bounds of contiguous chunks, at most one per usable CPU; every chunk
    # holds at least _FORK_MIN_VALUES values, so it is one chunk below that
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return [0, snapshots]
    least = -(-_FORK_MIN_VALUES // values_each)  # snapshots per chunk
    parts = max(1, min(len(os.sched_getaffinity(0)), snapshots // least))
    return [snapshots * i // parts for i in range(parts + 1)]


def _write_snapshots(fh, states, template, h):
    for s in states:
        args = [f"{s.n * h:.17g}"] * (4 * s.u.values.size)
        args[1::4] = s.u.values.ravel().tolist()
        args[2::4] = s.mu.values.ravel().tolist()
        args[3::4] = s.v.values.ravel().tolist()
        fh.write(template % tuple(args))


def _fork_writer(name, states, template, h):
    # opens and unlinks ``name`` (so no part file outlives the process), then
    # forks a child that writes the states into it; returns (pid, fd). The
    # child only formats and writes, and ends in os._exit on every path, so it
    # never returns into the caller or flushes the parent's buffers
    fd = os.open(name, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        os.unlink(name)
        pid = os.fork()
    except BaseException:
        os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            with open(fd, "w", newline="", closefd=False) as part:
                _write_snapshots(part, states, template, h)
            status = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(status)
    return pid, fd


def load_trajectory_csv(path, grid, params):
    """Rebuild a trajectory saved with stride 1 (all N+1 states present).

    A node outside ``[0, node_count)`` or a second row for one (t, node) is
    rejected with its line number; snapshot n must lie at exactly n*h.
    """
    count = grid.node_count
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, node, u, mu, v in reader:
            block, node = rows.setdefault(float(t), {}), int(node)
            if not 0 <= node < count:
                raise ValueError(f"trajectory csv line {reader.line_num}: node {node} outside 0..{count - 1}")
            if node in block:
                raise ValueError(f"trajectory csv line {reader.line_num}: second row for t={t}, node {node}")
            block[node] = (float(u), float(mu), float(v))
    times = sorted(rows)
    if len(times) != params.N + 1:
        raise ValueError(f"expected {params.N + 1} snapshots, found {len(times)}")
    states = []
    for n, t in enumerate(times):
        if t != n * params.h:  # the writer's .17g times round-trip exactly
            raise ValueError(f"snapshot {n} at t={t!r}, expected n*h = {n * params.h!r}")
        if len(rows[t]) != count:
            raise ValueError(f"snapshot at t={t} has {len(rows[t])} nodes, expected {count}")
        arr = np.array([rows[t][j] for j in range(count)])
        states.append(StepState(n, Field(grid, arr[:, 0]), Field(grid, arr[:, 1]), Field(grid, arr[:, 2])))
    return Trajectory(states, params)
