"""Independent reference computations used to freeze expected test values.

Nothing in here touches the solver paths it is used to check: eigenvalues
come from the stencil symbol, mode recurrences from per-step 2x2 solves of
the coupled equations restricted to one eigenvector, the linear and 2D
power-graph step solutions from a dense reformulation assembled with plain
numpy, closed forms from direct antiderivatives, and CSV bytes from the
standard ``csv`` module.
"""

import csv
import io

import numpy as np


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


def abs_logit_primitive_closed(r):
    """Closed-form antiderivative of |s| ln((1+s)/(1-s)) from 0 (even in r)."""
    x = np.abs(np.asarray(r, dtype=float))
    core = np.log1p(x) - np.log1p(-x)
    return (x * x - 1.0) / 2.0 * core + x


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
    for s in traj.states:
        if s.n % stride and s.n != traj.params.N:
            continue
        t = s.n * traj.params.h
        uf, mf, vf = s.u.values.ravel(), s.mu.values.ravel(), s.v.values.ravel()
        for j in range(uf.size):
            writer.writerow([f"{t:.17g}", j, f"{uf[j]:.17g}", f"{mf[j]:.17g}", f"{vf[j]:.17g}"])
    return buf.getvalue().encode()
