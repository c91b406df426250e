"""Independent reference computations used to freeze expected test values.

Nothing in here touches the solver paths it is used to check: eigenvalues
come from the stencil symbol, mode recurrences from per-step 2x2 solves of
the coupled equations restricted to one eigenvector, the linear and 2D
power-graph step solutions from a dense reformulation assembled with plain
numpy, closed forms from direct antiderivatives, CSV bytes from the
standard ``csv`` module, DCT-diagonal operators from ``scipy.fft``, graph
resolvents from bisection over float64 bit patterns, a time step whose
shifted solves are ``scipy.fft`` solves refined against the dense stencil,
with K mu_n and K adv_n solved separately, and dual norms, the ledger and
the study differences evaluated one step at a time, each dual norm through
a checked linear solve instead of a spectral sum, and the ledger's other
terms from ``np.diff`` face differences and the dense stencil. The
stencil's bitwise reference is the padded-slice sum over ``np.pad``, and
the fraction-to-the-boundary step's is the masked two-sided quotient, and
the advective divergence's is the axis-by-axis sum on the grid's shape. The
grid norms are exactly rounded ``math.fsum`` sums over ravelled fields.
The pointwise time reconstructions of a run (linear and one-sided
constant) are evaluated one time at a time, located against the level
times.
"""

import csv
import io
import math

import numpy as np
from scipy.fft import dctn, idctn


def mode_eigenvalue(n, k):
    """Symbol of the 3-point mirror-ghost stencil on n cell centers: -a_k."""
    return 4.0 * np.sin(k * np.pi / (2.0 * n)) ** 2 * n**2


def mode_values(grid, k):
    """cos(k pi x) sampled at cell centers (product of axes in 2D)."""
    ax = np.cos(k * np.pi * grid.axis)
    if grid.d == 1:
        return ax
    return np.outer(ax, ax)


def mode_recurrence(a, eps, lam, h, steps, alpha0, mu0=0.0):
    """Exact per-mode evolution of the coupled scheme equations.

    With the linear graph and no transport the two equations close on any
    eigenvector with eigenvalue -a; each step is the 2x2 linear system

        (alpha1 - alpha0)/h + (m1 - m0) + a*m1 = 0
        m1 = lam*(alpha1 - alpha0)/h + (eps*a + 1)*alpha1
    """
    alphas = [alpha0]
    ms = [mu0]
    for _ in range(steps):
        mat = np.array([[1.0 / h, 1.0 + a], [-(lam / h + eps * a + 1.0), 1.0]])
        rhs = np.array([alphas[-1] / h + ms[-1], -(lam / h) * alphas[-1]])
        sol = np.linalg.solve(mat, rhs)
        alphas.append(sol[0])
        ms.append(sol[1])
    return np.array(alphas), np.array(ms)


def exact_decay_rate(eps, lam, k=1):
    """Continuum decay rate of the cos(k pi x) mode of the linearized system."""
    ak = (k * np.pi) ** 2
    return ak * (eps * ak + 1.0) / (1.0 + lam * ak)


def dense_neumann_laplacian(n):
    """Dense 1D mirror-ghost Laplacian, assembled directly from the stencil."""
    lap = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            lap[i, i - 1] += 1.0
            lap[i, i] -= 1.0
        if i < n - 1:
            lap[i, i + 1] += 1.0
            lap[i, i] -= 1.0
    return lap * n**2


def dense_neumann_laplacian_2d(n):
    """Dense 2D mirror-ghost Laplacian on C-order flattened fields (Kronecker sum)."""
    lap = dense_neumann_laplacian(n)
    eye = np.eye(n)
    return np.kron(lap, eye) + np.kron(eye, lap)


def padded_slice_laplacian(v, dx, d=None):
    """The mirror-ghost stencil as sums of shifted slices of the edge-padded array.

    The trailing d axes (default: all) are the grid, leading axes a batch.
    The terms are added in the stencil's order, left + right - 2v in 1D and
    up + down + left + right - 4v in 2D, then divided by dx^2, so a stencil
    that keeps that order matches it bit for bit.
    """
    d = d or v.ndim
    p = np.pad(v, [(0, 0)] * (v.ndim - d) + [(1, 1)] * d, mode="edge")
    if d == 1:
        lap = p[..., :-2] + p[..., 2:] - 2.0 * v
    else:
        lap = p[..., :-2, 1:-1] + p[..., 2:, 1:-1] + p[..., 1:-1, :-2] + p[..., 1:-1, 2:] - 4.0 * v
    return lap / dx**2


def boundary_theta(u, du):
    """Fraction-to-the-boundary step: 0.95 of the largest theta keeping u + theta*du in (-1, 1), at most 1.

    The masked two-sided form: (1 - u)/du where du > 0, (u + 1)/(-du) where
    du < 0, and no bound where du is +-0.
    """
    room = np.where(du > 0, (1.0 - u) / np.where(du > 0, du, 1.0), np.inf)
    room = np.minimum(room, np.where(du < 0, (u + 1.0) / np.where(du < 0, -du, 1.0), np.inf))
    return min(1.0, 0.95 * float(np.min(room)))


def linear_step_solution(n, lam, eps, h, rhs):
    """Independent route to the linear-graph step equation.

    Multiplying (lam + K) u - eps*h*Lap u + h*u = rhs through by (I - Lap)
    removes the solve operator K and leaves one dense linear system.
    """
    lap = dense_neumann_laplacian(n)
    eye = np.eye(n)
    shifted = eye - lap
    a_lin = lam * eye - eps * h * lap + h * eye
    return np.linalg.solve(shifted @ a_lin + eye, shifted @ rhs)


def dct_diagonal_apply(values, mult):
    """Multiply by ``mult`` on the orthonormal DCT-II modes, through scipy.fft's DCTs."""
    return idctn(dctn(values, norm="ortho") * mult, norm="ortho")


def dct_coefficients(stack):
    """Orthonormal DCT-II coefficients of each field of ``stack`` (leading batch axis), via scipy.fft."""
    return dctn(stack, norm="ortho", axes=tuple(range(1, stack.ndim)))


def abs_logit_primitive_closed(r):
    """Closed-form antiderivative of |s| ln((1+s)/(1-s)) from 0 (even in r)."""
    x = np.abs(np.asarray(r, dtype=float))
    core = np.log1p(x) - np.log1p(-x)
    return (x * x - 1.0) / 2.0 * core + x


def _graph(b, x):
    """beta(x) for a BetaSpec, written out from the family definitions."""
    if b.family == "linear":
        return x
    if b.family == "power":
        return np.sign(x) * np.abs(x) ** b.m
    logit = np.log1p(x) - np.log1p(-x)
    return logit if b.family == "logit" else np.abs(x) * logit


def resolvent_bisect(b, tau, s):
    """Root of r + tau*beta(r) = s by bisection over the float64 bit patterns.

    The root has the sign of s and |root| <= |s|, and bounded graphs cap
    |root| at the largest double below 1. Between 0 and that cap the int64
    bit patterns of the nonnegative doubles are ordered as their values, so
    halving the pattern interval (at most 63 times) returns, for every
    entry, the largest double x with x + tau*beta(x) <= |s|, given the sign
    of s: the root rounded towards 0, or the cap for a root past it.
    """
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    top = np.minimum(a, np.nextafter(1.0, 0.0)) if b.family in ("logit", "abs_logit") else a
    # invariant: g(lo) <= 0 and hi is past every double with g <= 0
    lo = np.zeros(a.shape, dtype=np.int64)
    hi = top.view(np.int64) + 1
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        x = mid.view(np.float64)
        below = x + tau * _graph(b, x) - a <= 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.copysign(lo.view(np.float64), s)


def power_step_solution_2d(n, lam, eps, h, m, rhs, tol=1e-14, max_iter=100):
    """Independent route to the 2D step equation with beta(u) = sign(u)|u|^m.

    As in :func:`linear_step_solution`, the equation is multiplied through
    by (I - Lap), leaving F(u) = (I - Lap)(lam*u - eps*h*Lap u + h*beta(u))
    + u - (I - Lap) rhs = 0, which plain undamped Newton solves from u = 0
    with dense numpy linear algebra.
    """
    lap = dense_neumann_laplacian_2d(n)
    eye = np.eye(n * n)
    shifted = eye - lap
    b = shifted @ np.ravel(rhs)
    u = np.zeros(n * n)
    for _ in range(max_iter):
        f = shifted @ (lam * u - eps * h * (lap @ u) + h * np.sign(u) * np.abs(u) ** m) + u - b
        if np.linalg.norm(f) <= tol * max(1.0, np.linalg.norm(b)):
            return u.reshape(n, n)
        jac = shifted @ (lam * eye - eps * h * lap + np.diag(h * m * np.abs(u) ** (m - 1))) + eye
        u = u - np.linalg.solve(jac, f)
    raise RuntimeError("dense Newton reference did not converge")


def trajectory_csv_bytes(traj, stride=1):
    """Trajectory CSV written row by row through ``csv.writer`` (default dialect)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["time", "node", "u", "mu", "v"])
    for n in range(traj.params.N + 1):
        if n % stride and n != traj.params.N:
            continue
        t = n * traj.params.h
        uf, mf, vf = traj.u[n].ravel(), traj.mu[n].ravel(), traj.v[n].ravel()
        for j in range(uf.size):
            writer.writerow([f"{t:.17g}", j, f"{uf[j]:.17g}", f"{mf[j]:.17g}", f"{vf[j]:.17g}"])
    return buf.getvalue().encode()


def refined_shifted_solve(values):
    """(I - Lap)^(-1) values: a scipy.fft DCT solve plus one refinement round, always.

    The symbol comes from :func:`mode_eigenvalue` and the refinement
    residual from the dense stencil of :func:`dense_neumann_laplacian`.
    """
    n, d = values.shape[0], values.ndim
    a = np.array([mode_eigenvalue(n, k) for k in range(n)])
    if d == 2:
        a = a[:, None] + a[None, :]
    mult = 1.0 / (1.0 + a)
    lap = dense_neumann_laplacian(n) if d == 1 else dense_neumann_laplacian_2d(n)

    def residual(x):
        return values - (x - (lap @ x.ravel()).reshape(values.shape))

    x = dct_diagonal_apply(values, mult)
    return x + dct_diagonal_apply(residual(x), mult)


def four_solve_step(g, u, mu, v, f_next, params, b, p, opts):
    """One scheme step that solves K mu_n and K adv_n separately: 4 shifted solves.

    Takes the (u, mu, v) arrays of a level and returns the next level's.
    The right-hand side is h*f + lam*u_n + v_n + h*K mu_n - h*K adv_n, every
    K is :func:`refined_shifted_solve`, and the density comes from the
    package's ``step_solve``, which is not what this oracle checks.
    """
    from chemhill.elliptic import step_solve
    from chemhill.grid import advective_divergence

    h = params.h
    adv = params.eta * advective_divergence(g, u, v)
    k_mu, k_adv = refined_shifted_solve(mu), refined_shifted_solve(adv)
    rhs = h * f_next + params.lam * u + v + h * k_mu - h * k_adv
    u_next = step_solve(g, params, b, p, rhs, warm=u, opts=opts)[0]
    mu_next = refined_shifted_solve(mu - (u_next - u) / h - adv)
    return u_next, mu_next, refined_shifted_solve(u_next)


def fsum_pair(g, a, b):
    """(a, b)_h of two fields as an exactly rounded sum, ``math.fsum`` over the ravelled products."""
    return g.cell_volume * math.fsum((np.ravel(a) * np.ravel(b)).tolist())


def fsum_norms(g, x):
    """The grid norms of one field from exactly rounded sums over its ravel and its face differences."""
    faces = math.fsum(math.fsum((np.ravel(np.diff(x, axis=a)) ** 2).tolist()) for a in range(g.d))
    semi_sq = g.cell_volume * faces / g.dx**2
    h_sq = fsum_pair(g, x, x)
    return {
        "norm_h": math.sqrt(h_sq),
        "norm_l4": (g.cell_volume * math.fsum((np.ravel(x) ** 4).tolist())) ** 0.25,
        "seminorm_v": math.sqrt(semi_sq),
        "norm_v": math.sqrt(semi_sq + h_sq),
        "mean": g.cell_volume * math.fsum(np.ravel(x).tolist()),
    }


def solve_vstar_norm(g, r):
    """sqrt((r, (I - Lap)^(-1) r)_h) through the package's checked shifted solve."""
    from chemhill.elliptic import helmholtz_solve

    return float(np.sqrt(max(fsum_pair(g, r, helmholtz_solve(g, r)), 0.0)))


def solve_v0star_norm(g, r):
    """sqrt((r, (-Lap)^(-1) r)_h) through the package's checked mean-zero Poisson solve."""
    from chemhill.elliptic import neumann_poisson_solve

    return float(np.sqrt(max(fsum_pair(g, r, neumann_poisson_solve(g, r)), 0.0)))


def per_step_ledger(traj, b):
    """The twelve ledger entries, one step at a time, with solve-based dual norms."""
    from chemhill.diagnostics import DiagnosticsLedger
    from chemhill.nonlinearity import beta_eval

    params, g = traj.params, traj.grid
    h, eps, lam = params.h, params.eps, params.lam
    lap = dense_neumann_laplacian(g.n) if g.d == 1 else dense_neumann_laplacian_2d(g.n)

    def sq_h(x):
        return g.cell_volume * float(np.sum(x * x))

    def sq_semi(x):
        faces = sum(float(np.sum(np.diff(x, axis=a) ** 2)) for a in range(g.d))
        return g.cell_volume * faces / g.dx**2

    def sq_v(x):
        return sq_semi(x) + sq_h(x)

    led = DiagnosticsLedger(eps, lam, h, b.family, params.eta)
    for n in range(params.N):
        u0, u1 = traj.u[n], traj.u[n + 1]
        m0, m1 = traj.mu[n], traj.mu[n + 1]
        du = (u1 - u0) / h
        dmu = (m1 - m0) / h
        z = du + h * dmu
        led.q1 += h * solve_v0star_norm(g, z - z.mean()) ** 2
        led.q2 += h * sq_h(du)
        led.q4 += h * sq_v(du)
        led.q7 += h * sq_h(dmu)
        led.q9 += h * solve_vstar_norm(g, du) ** 2
        led.q3 = max(led.q3, sq_v(u1))
        led.q5 = max(led.q5, g.cell_volume * float(np.sum(u1**4)))
        led.q6 = max(led.q6, sq_h(m1))
        led.q8 += h * sq_semi(m1)
        led.q10 += h * (sq_h(lap @ u1.ravel()) + sq_v(u1))
        led.q11 += h * sq_h(beta_eval(b, u1))
        led.q12 += h * sq_v(m1)
    led.q2 *= lam
    led.q3 *= eps
    led.q4 *= eps * h
    led.q6 *= h
    led.q7 *= h * h
    led.q10 *= eps * eps
    return led


class Reconstruction:
    """Pointwise time reconstructions of a trajectory, one time at a time.

    ``u_hat`` is continuous piecewise linear through the levels, ``u_bar``
    takes the right level on each interval (t_n, t_{n+1}], ``u_under`` the
    left one on [t_n, t_{n+1}); the same for the potential. A time within
    1e-9 steps of a level time n*h is that level; any other time outside
    [0, T] is an error. The endpoint conventions follow the interval-interior
    definitions: u_bar(0) is the first interval's value, u_under(T) the last
    one's. Times are located against the level times themselves, and the
    linear blend is array arithmetic on one level at a time.
    """

    def __init__(self, traj):
        self.N, self.T, self.h = traj.params.N, traj.params.T, traj.params.h
        self.levels = np.arange(self.N + 1) * self.h
        self._u = list(traj.u)
        self._mu = list(traj.mu)

    def locate(self, t):
        """(n, s) with t = (n + s)*h: s == 0 exactly at a level, else 0 < s < 1."""
        if not np.isfinite(t):
            raise ValueError(f"t={t} outside [0, {self.T}]")
        nearest = int(np.argmin(np.abs(self.levels - t)))
        if abs(t - self.levels[nearest]) <= 1e-9 * self.h:
            return nearest, 0.0
        if not 0.0 <= t <= self.T:
            raise ValueError(f"t={t} outside [0, {self.T}]")
        n = int(np.searchsorted(self.levels, t)) - 1
        return n, t / self.h - n

    def _hat(self, seq, t):
        n, s = self.locate(t)
        return seq[n] if s == 0.0 else (1.0 - s) * seq[n] + s * seq[n + 1]

    def _right(self, seq, t):
        n, s = self.locate(t)
        return seq[min(max(n + (s > 0.0), 1), self.N)]

    def u_hat(self, t):
        return self._hat(self._u, t)

    def mu_hat(self, t):
        return self._hat(self._mu, t)

    def u_bar(self, t):
        return self._right(self._u, t)

    def mu_bar(self, t):
        return self._right(self._mu, t)

    def u_under(self, t):
        return self._u[min(self.locate(t)[0], self.N - 1)]


def solve_uhat_diff_norms(traj_a, traj_b):
    """Linf(0,T;H) and L2(0,T;dual) distance of two linear reconstructions, break by break.

    Each breakpoint's difference is an array from :class:`Reconstruction`,
    each norm and pairing an exactly rounded sum, and each dual pairing uses
    a checked shifted solve.
    """
    from chemhill.elliptic import helmholtz_solve

    g = traj_a.grid
    rec_a, rec_b = Reconstruction(traj_a), Reconstruction(traj_b)
    breaks = np.union1d(rec_a.levels, rec_b.levels)
    fields = [rec_a.u_hat(t) - rec_b.u_hat(t) for t in breaks]
    solved = [helmholtz_solve(g, f) for f in fields]
    l2v = 0.0
    for k in range(len(breaks) - 1):
        dt = breaks[k + 1] - breaks[k]
        pairs = fsum_pair(g, fields[k], solved[k]) + fsum_pair(g, fields[k], solved[k + 1])
        l2v += dt * (pairs + fsum_pair(g, fields[k + 1], solved[k + 1])) / 3.0
    return float(max(fsum_norms(g, f)["norm_h"] for f in fields)), float(np.sqrt(max(l2v, 0.0)))


def per_axis_advective_divergence(g, u, v):
    """Face-flux divergence of u_face * dv_face formed axis by axis on the grid's shape (no flat slices)."""
    out = np.zeros(g.shape)
    for axis in range(g.d):
        head = (slice(None),) * axis + (slice(None, -1),)
        tail = (slice(None),) * axis + (slice(1, None),)
        flux = u[tail] + u[head]
        flux *= 0.5
        dv = v[tail] - v[head]
        dv /= g.dx
        flux *= dv
        out[head] += flux
        out[tail] -= flux
    out /= g.dx
    return out
