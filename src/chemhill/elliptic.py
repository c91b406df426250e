"""Neumann linear solvers, dual norms, and the per-step nonlinear solve.

The cell-centred mirror-ghost Laplacian is diagonal in the orthonormal
DCT-II basis, with eigenvalue sum_axes (2cos(pi*k/n) - 2)/dx^2 on mode k
(Strang, SIAM Review 41, 1999). So the shifted solve (I - alpha*Lap)^(-1)
and the inverse Neumann Laplacian on mean-zero data are each a forward
transform, a division by the symbol and an inverse transform. The
transforms keep the forward error at roundoff, but the stencil residual
multiplies it by the operator norm (about 4*d/dx^2), so each public solve
does one round of iterative refinement and then checks the true stencil
residual against ``lin_tol``.

The nonlinear per-step equation

    (lam + (I - Lap)^(-1)) u - eps*h*Lap u + h*beta(u) + h*pi(u) = rhs

is strongly monotone whenever h < lam / (2*c3*eps), so it has exactly one
solution. It is solved by damped Newton in u alone, with a continuation in
the Yosida parameter before a final pass with the exact graph. The Newton
operator lam + D - eps*h*Lap + (I - Lap)^(-1), D diagonal, is symmetric
positive definite under the same condition, so each direction comes from
matrix-free conjugate gradients. The preconditioner is the same operator
with D replaced by a constant, which the DCT inverts exactly, under a
diagonal scaling for the nodes where D is large.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn

from . import nonlinearity as nl
from .grid import Field, _laplacian, inner_h, mean, norm_h

__all__ = [
    "SolverOptions",
    "SolverFailure",
    "StepFailure",
    "CompatibilityError",
    "helmholtz_solve",
    "neumann_poisson_solve",
    "source_potential",
    "vstar_norm",
    "v0star_norm",
    "step_solve",
]


def __getattr__(name):
    # the solver uses no sparse linear algebra; ``elliptic.sla`` stays readable
    # for perfbench/tracing.py, which patches it, and loads scipy.sparse only then
    if name == "sla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverFailure(RuntimeError):
    """A linear or nonlinear solve missed its tolerance.

    When the failure happens inside a time step, the marching loop attaches
    ``step_index`` and the partial trajectory; both stay None for a failure
    in set-up (datum smoothing, source potentials) or outside a run.
    """

    step_index = None
    trajectory = None

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = list(history) if history else []


class StepFailure(SolverFailure):
    """Per-step nonlinear solve failed; carries the residual history."""


class CompatibilityError(ValueError):
    """Right-hand side is not in the range of the singular Neumann operator."""


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and continuation schedule for the solvers.

    ``tau_schedule=None`` means the h-scaled default (1e-2*h, 1e-4*h, 1e-6*h)
    followed by a final pass with the exact graph.
    """

    lin_tol: float = 1e-11
    newton_tol: float = 1e-10
    max_newton: int = 50
    tau_schedule: tuple = None

    def __post_init__(self):
        if self.lin_tol <= 0 or self.newton_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        if self.tau_schedule is not None:
            sched = tuple(self.tau_schedule)
            if any(t <= 0 for t in sched):
                raise ValueError("tau schedule entries must be positive")
            if any(a <= b for a, b in zip(sched, sched[1:])):
                raise ValueError("tau schedule must be strictly decreasing")
            object.__setattr__(self, "tau_schedule", sched)


@functools.lru_cache(maxsize=16)
def _eigenvalues(d, n):
    """Stencil symbol on the DCT-II modes, shape (n,)*d; read-only, cached per (d, n)."""
    dx = 1.0 / n
    ev = (2.0 * np.cos(np.pi * np.arange(n) / n) - 2.0) / dx**2
    if d == 2:
        ev = ev[:, None] + ev[None, :]
    ev.setflags(write=False)
    return ev


def _dct_apply(values, mult):
    """Apply the operator that is multiplication by ``mult`` on the DCT-II modes."""
    return idctn(dctn(values, norm="ortho") * mult, norm="ortho")


def helmholtz_solve(g, rhs, opts=None, alpha=1.0):
    """Solve (I - alpha*Lap) w = rhs; alpha=1 is the chemotaxis potential operator.

    Spectral solve plus one refinement round; the stencil residual is
    checked against ``lin_tol * max(1, |rhs|)`` on every call.
    """
    opts = opts or SolverOptions()
    if not g.matches(rhs.grid):
        raise ValueError(f"grid mismatch: {g} vs {rhs.grid}")
    mult = 1.0 / (1.0 - alpha * _eigenvalues(g.d, g.n))
    b = rhs.values
    x = _dct_apply(b, mult)
    x = x + _dct_apply(b - (x - alpha * _laplacian(x, g.dx)), mult)
    res = b - (x - alpha * _laplacian(x, g.dx))
    scale = max(1.0, float(np.linalg.norm(b)))
    rnorm = float(np.linalg.norm(res))
    if rnorm > opts.lin_tol * scale:
        raise SolverFailure(
            f"shifted Neumann solve residual {rnorm:.3e} exceeds tolerance", residual=rnorm
        )
    return Field(g, x)


def neumann_poisson_solve(g, rhs, opts=None):
    """Solve -Lap w = rhs for the unique mean-zero w (rhs must be mean-free).

    Spectral solve with the constant mode zeroed, plus one refinement round;
    the stencil residual is checked against ``lin_tol * |rhs|``.
    """
    opts = opts or SolverOptions()
    if not g.matches(rhs.grid):
        raise ValueError(f"grid mismatch: {g} vs {rhs.grid}")
    m = mean(rhs)
    if abs(m) > 1e-10:
        raise CompatibilityError(f"right-hand side must have zero average, got {m:.3e}")
    ev = _eigenvalues(g.d, g.n)
    mult = np.divide(-1.0, ev, out=np.zeros_like(ev), where=ev != 0.0)
    b = rhs.values - rhs.values.mean()
    x = _dct_apply(b, mult)
    x = x + _dct_apply(b + _laplacian(x, g.dx), mult)
    rnorm = float(np.linalg.norm(b + _laplacian(x, g.dx)))
    if rnorm > opts.lin_tol * float(np.linalg.norm(b)):
        raise SolverFailure(
            f"mean-zero Poisson solve residual {rnorm:.3e} exceeds tolerance", residual=rnorm
        )
    return Field(g, x)


def source_potential(g, g_field, opts=None):
    """Mean-zero potential f with -Lap f = g (the representative is fixed mean-zero)."""
    return neumann_poisson_solve(g, g_field, opts)


def vstar_norm(g, r, opts=None):
    """Dual H1 norm through the shifted solve: sqrt((r, (I - Lap)^(-1) r))."""
    val = inner_h(r, helmholtz_solve(g, r, opts))
    return float(np.sqrt(max(val, 0.0)))


def v0star_norm(g, r, opts=None):
    """Dual norm on mean-zero data through the inverse Neumann Laplacian."""
    val = inner_h(r, neumann_poisson_solve(g, r, opts))
    return float(np.sqrt(max(val, 0.0)))


def step_solve(g, params, b, p, rhs, warm, opts=None):
    """Solve the per-step monotone equation for the new density.

    Parameters
    ----------
    g : Grid
    params : SimParams
        Supplies eps, lam, h, and the stepsize bound making the operator
        strongly monotone.
    b, p : BetaSpec, PiSpec
    rhs : Field
        Assembled right-hand side of the decoupled step equation.
    warm : Field
        Warm start, normally the previous time level.
    opts : SolverOptions, optional

    Returns
    -------
    Field
        The unique solution u with final residual below
        ``newton_tol * max(1, |rhs|_H)``.

    Raises
    ------
    ValueError
        If the stepsize condition fails (precondition).
    StepFailure
        On Newton stagnation at the damping floor, or on a Newton direction
        whose CG misses its tolerance, carrying the residual history.

    Notes
    -----
    The dense operator K = (I - Lap)^(-1) is never formed: it is applied
    on the DCT-II modes. Each Newton direction solves the reduced system
    (lam + D - eps*h*Lap + K) du = -r by conjugate gradients to a relative
    residual of 1e-13, within node_count iterations; a direction that
    misses it raises StepFailure and is never used. The preconditioner is
    the DCT-diagonal operator with D replaced by its minimum, scaled on
    both sides by a diagonal that restores the operator's diagonal where D
    is large. The graph is relaxed through the decreasing Yosida schedule
    (each stage warm-starting the next), then polished with the exact graph;
    bounded graphs use a fraction-to-the-boundary rule so iterates stay
    strictly inside the domain. Acceptance is the true residual alone.
    """
    opts = opts or SolverOptions()
    eps, lam, h = params.eps, params.lam, params.h
    if not h < params.stepsize_bound:
        raise ValueError(
            f"stepsize condition violated: h={h:.6g} must be below {params.stepsize_bound:.6g}"
        )
    if not g.matches(rhs.grid) or not g.matches(warm.grid):
        raise ValueError("grid mismatch in step_solve")
    k_mult = 1.0 / (1.0 - _eigenvalues(g.d, g.n))
    rhs_v = rhs.values
    rhs_scale = max(1.0, norm_h(rhs))
    tol = opts.newton_tol * rhs_scale

    def residual(uu, phi_u):
        return (
            lam * uu
            - eps * h * _laplacian(uu, g.dx)
            + h * phi_u
            + h * nl.pi_eval(p, eps, uu)
            + _dct_apply(uu, k_mult)
            - rhs_v
        )

    u = warm.values.copy()
    if b.bounded:
        u = np.clip(u, -1.0 + 1e-12, 1.0 - 1e-12)
    schedule = opts.tau_schedule if opts.tau_schedule is not None else (1e-2 * h, 1e-4 * h, 1e-6 * h)
    history = []
    for tau in (*schedule, None):
        # continuation stages only ferry the iterate into the Newton basin;
        # their residual cannot be evaluated below the resolvent tolerance
        # divided by tau, so the tight tolerance is left to the exact stage
        stage_tol = tol if tau is None else max(tol, 1e-8 * rhs_scale)
        u = _newton_stage(g, residual, k_mult, u, lam, eps, h, b, p, stage_tol, tau, opts, history)

    rfinal = _hnorm(g, residual(u, nl.beta_eval(b, u)))
    history.append(rfinal)
    if rfinal > tol:
        raise StepFailure(
            f"step solve residual {rfinal:.3e} above tolerance {tol:.3e}",
            residual=rfinal,
            history=history,
        )
    return Field(g, u)


# relative residual at which a Newton direction counts as solved
_PCG_RTOL = 1e-13


def _hnorm(g, vec):
    return float(np.sqrt(g.cell_volume * np.vdot(vec, vec)))


def _newton_direction(g, coef, diffusion, k_mult, rhs, rn, history):
    # PCG on (coef - diffusion*Lap + K) x = rhs with coef = lam + D > 0. The
    # preconditioner is S (c0 - diffusion*Lap + K) S with c0 = min(coef) and
    # S >= 1 diagonal: exact when coef is constant, and S gives it the
    # operator's diagonal where coef is large. Without S (c0 = mean(coef)),
    # a steep graph near its singularity (coef from 0.05 to 1e4 in 1D n=32)
    # gave a preconditioned condition number of 6e4 and CG stalled; with S, 16
    sym = k_mult - diffusion * _eigenvalues(g.d, g.n)
    c0 = float(coef.min())
    inv_sym = 1.0 / (c0 + sym)
    diag_mean = float(sym.mean())  # mean diagonal (trace / node count) of the constant part
    inv_s = np.sqrt((c0 + diag_mean) / (coef + diag_mean))

    def precond(vec):
        return inv_s * _dct_apply(inv_s * vec, inv_sym)

    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = precond(r)
    s = z
    rz = float(np.vdot(r, z))
    stop = _PCG_RTOL * float(np.linalg.norm(rhs))
    cg_history = []
    for _ in range(g.node_count):
        a_s = coef * s - diffusion * _laplacian(s, g.dx) + _dct_apply(s, k_mult)
        step = rz / float(np.vdot(s, a_s))
        x += step * s
        r -= step * a_s
        cg_history.append(float(np.linalg.norm(r)))
        if cg_history[-1] <= stop:
            return x
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        s = z + (rz_new / rz) * s
        rz = rz_new
    raise StepFailure(
        f"Newton direction CG missed relative residual {_PCG_RTOL:.0e} in {g.node_count} "
        f"iterations (CG residuals {cg_history[0]:.3e} -> {cg_history[-1]:.3e})",
        residual=rn,
        history=history,
    )


def _newton_stage(g, residual, k_mult, u, lam, eps, h, b, p, tol, tau, opts, history):
    # convergence is measured on the true equation residual, whose
    # evaluation floor is at roundoff rather than at cond(Lap)*eps
    exact = tau is None
    bounded_exact = exact and b.bounded
    if bounded_exact:
        u = np.clip(u, -1.0 + 1e-12, 1.0 - 1e-12)

    if exact:
        phi = lambda x: nl.beta_eval(b, x)
        phi_prime = lambda x: nl.beta_prime(b, x)
    else:
        phi = lambda x: nl.yosida(b, tau, x)
        phi_prime = lambda x: nl.yosida_prime(b, tau, x)

    r1 = residual(u, phi(u))
    rn = _hnorm(g, r1)
    for _ in range(opts.max_newton):
        if rn <= tol:
            return u
        coef = lam + h * (phi_prime(u) + nl.pi_prime(p, eps, u))
        du = _newton_direction(g, coef, eps * h, k_mult, -r1, rn, history)

        theta = 1.0
        if bounded_exact:
            room = np.where(du > 0, (1.0 - u) / np.where(du > 0, du, 1.0), np.inf)
            room = np.minimum(room, np.where(du < 0, (u + 1.0) / np.where(du < 0, -du, 1.0), np.inf))
            theta = min(1.0, 0.95 * float(np.min(room)))
        accepted = False
        while theta > 2.0**-40:
            ut = u + theta * du
            try:
                r1t = residual(ut, phi(ut))
            except nl.OutOfDomainError:
                theta *= 0.5
                continue
            rt = _hnorm(g, r1t)
            if rt <= (1.0 - 0.25 * theta) * rn or rt <= tol:
                u, r1, rn = ut, r1t, rt
                history.append(rn)
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            raise StepFailure(
                f"Newton stagnated at residual {rn:.3e} (damping floor reached)",
                residual=rn,
                history=history,
            )
    if rn <= tol:
        return u
    raise StepFailure(
        f"Newton used {opts.max_newton} iterations, residual {rn:.3e} above {tol:.3e}",
        residual=rn,
        history=history,
    )
