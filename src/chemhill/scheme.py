"""Implicit time marching of the regularized chemotaxis system.

One step advances (u_n, mu_n) to (u_{n+1}, mu_{n+1}) through the decoupled
form of the scheme: the new density solves the monotone equation

    (lam + K) u - eps*h*Lap u + h*beta(u) + h*pi(u)
        = h*f_{n+1} + lam*u_n + K u_n + h*K mu_n - h*K adv_n,

with K = (I - Lap)^(-1) and adv_n = eta * div(u_n grad v_n) the explicitly
lagged transport term, after which the chemical potential updates by one
shifted solve,

    mu_{n+1} = K(mu_n - (u_{n+1} - u_n)/h - adv_n),

and the chemotaxis potential by v_{n+1} = K u_{n+1}. The initial potential
is identically zero and the initial density is the smoothed datum.

Besides the marching loop this module holds the piecewise-in-time
reconstructions of a finished run (linear and one-sided constant
interpolants) together with exact evaluation of their time-integral norms;
none of the diagnostics introduce additional time-quadrature error.
"""

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .elliptic import SolverFailure, SolverOptions, helmholtz_solve, source_potential, step_solve
from .grid import Field, advective_divergence, inner_h
from .nonlinearity import validate_assumptions

__all__ = [
    "SimParams",
    "StepState",
    "Trajectory",
    "Scenario",
    "average_sources",
    "step",
    "run",
    "interpolants",
    "InterpolantView",
    "time_l2_sq",
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

    Invariant: v = K u with K = (I - Lap)^(-1), i.e. ``helmholtz_solve(grid, u)``;
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

    ``prev.v`` serves as K u_n on the right-hand side, so it must be
    ``helmholtz_solve(grid, prev.u)`` (the StepState invariant); the shifted
    solves are deterministic, so this equals recomputing it bit for bit.
    """
    opts = opts or SolverOptions()
    g = prev.u.grid
    h, lam = params.h, params.lam
    try:
        adv = params.eta * advective_divergence(g, prev.u, prev.v)
        k_mu = helmholtz_solve(g, prev.mu, opts)
        k_adv = helmholtz_solve(g, adv, opts)
        rhs = h * f_next + lam * prev.u + prev.v + h * k_mu - h * k_adv
        u_next = step_solve(g, params, b, p, rhs, warm=prev.u, opts=opts)
        mu_next = helmholtz_solve(g, prev.mu - (u_next - prev.u) / h - adv, opts)
        v_next = helmholtz_solve(g, u_next, opts)
    except SolverFailure as exc:
        exc.step_index = prev.n
        raise
    return StepState(prev.n + 1, u_next, mu_next, v_next)


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

    if scenario.source is None:
        f_fields = [Field(g, np.zeros(g.shape)) for _ in range(params.N)]
        probes = []
    elif scenario.source.kind == "g":
        probes = average_sources(scenario.source, params, g)
        f_fields = [source_potential(g, gk, opts) for gk in probes]
    else:
        f_fields = average_sources(scenario.source, params, g)
        probes = []

    report = validate_assumptions(scenario.beta, scenario.pi, scenario.u0, probes)
    if not report.passed:
        raise ValueError("assumption validation failed: " + ", ".join(report.failed_names()))

    if scenario.smooth_u0:
        u0e = helmholtz_solve(g, scenario.u0, opts, alpha=params.eps)
    else:
        u0e = scenario.u0
    zero = Field(g, np.zeros(g.shape))
    state = StepState(0, u0e, zero, helmholtz_solve(g, u0e, opts))
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
# interpolants


class InterpolantView:
    """Piecewise time reconstructions of a trajectory.

    ``u_hat`` is continuous piecewise linear through the levels, ``u_bar``
    takes the right level on each interval, ``u_under`` the left one; the
    same for the potential. Evaluation outside [0, T] is an error. The
    endpoint conventions follow the interval-interior definitions:
    u_bar(0) is the first-interval value, u_under(T) the last one.
    """

    def __init__(self, traj):
        self.traj = traj
        self.params = traj.params
        self.h = traj.params.h
        self.times = traj.times
        self._u = [s.u for s in traj.states]
        self._mu = [s.mu for s in traj.states]

    def _locate(self, t):
        T = self.params.T
        if not (np.isfinite(t) and 0.0 <= t <= T):
            raise ValueError(f"t={t} outside [0, {T}]")
        kf = t / self.h
        k = int(round(kf))
        exact = 0 <= k <= self.params.N and abs(kf - k) <= 1e-9
        return kf, k, exact

    def _hat(self, seq, t):
        kf, k, exact = self._locate(t)
        if exact:
            return seq[k]
        n = min(int(kf), self.params.N - 1)
        s = kf - n
        return (1.0 - s) * seq[n] + s * seq[n + 1]

    def _right_index(self, t):
        # right-constant convention on the half-open intervals (t_n, t_{n+1}]
        kf, k, exact = self._locate(t)
        n = k if exact else int(np.ceil(kf))
        return min(max(n, 1), self.params.N)

    def _left_index(self, t):
        kf, k, exact = self._locate(t)
        n = k if exact else int(kf)
        return min(max(n, 0), self.params.N - 1)

    def u_hat(self, t):
        return self._hat(self._u, t)

    def mu_hat(self, t):
        return self._hat(self._mu, t)

    def u_bar(self, t):
        return self._u[self._right_index(t)]

    def mu_bar(self, t):
        return self._mu[self._right_index(t)]

    def u_under(self, t):
        return self._u[self._left_index(t)]

    # exact per-interval segment endpoints (the reconstruction is linear
    # in t between breakpoints, so these carry the full information)
    def hat_segments(self, which="u"):
        seq = self._u if which == "u" else self._mu
        return [(seq[n], seq[n + 1]) for n in range(self.params.N)]

    def dot_fields(self, which="u"):
        """Time derivative of the linear reconstruction, constant per interval."""
        seq = self._u if which == "u" else self._mu
        return [(seq[n + 1] - seq[n]) / self.h for n in range(self.params.N)]


def interpolants(traj):
    return InterpolantView(traj)


def time_l2_sq(segments, h, ip=inner_h):
    """Exact squared L2(0,T) norm of a path that is linear on each interval.

    ``segments`` is a list of (a, b) endpoint fields; ``ip`` any bilinear
    inner product. For a segment x(s) = (1-s) a + s b the exact integral is
    h/3 * (ip(a,a) + ip(a,b) + ip(b,b)).
    """
    total = 0.0
    for a, b in segments:
        total += ip(a, a) + ip(a, b) + ip(b, b)
    return h * total / 3.0


# ---------------------------------------------------------------------------
# serialization


def save_trajectory_csv(traj, path, stride=1):
    """Write snapshots as rows time,node,u,mu,v (flat node index).

    Every stride-th level and the final one are written; values are
    ``.17g`` (exact float64 round trip) and lines end in CRLF, as a
    ``csv.writer`` in its default dialect writes them.
    """
    with open(path, "w", newline="") as fh:
        fh.write("time,node,u,mu,v\r\n")
        for s in traj.states:
            if s.n % stride and s.n != traj.params.N:
                continue
            t = f"{s.n * traj.params.h:.17g}"
            rows = zip(*(f.values.ravel().tolist() for f in (s.u, s.mu, s.v)))
            fh.write("".join(f"{t},{j},{a:.17g},{b:.17g},{c:.17g}\r\n" for j, (a, b, c) in enumerate(rows)))


def load_trajectory_csv(path, grid, params):
    """Rebuild a trajectory saved with stride 1 (all N+1 states present)."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for t, node, u, mu, v in reader:
            rows.setdefault(float(t), []).append((int(node), float(u), float(mu), float(v)))
    times = sorted(rows)
    if len(times) != params.N + 1:
        raise ValueError(f"expected {params.N + 1} snapshots, found {len(times)}")
    states = []
    for n, t in enumerate(times):
        block = sorted(rows[t])
        if len(block) != grid.node_count:
            raise ValueError(f"snapshot at t={t} has {len(block)} nodes, expected {grid.node_count}")
        arr = np.asarray(block, dtype=float)
        states.append(
            StepState(n, Field(grid, arr[:, 1]), Field(grid, arr[:, 2]), Field(grid, arr[:, 3]))
        )
    return Trajectory(states, params)
