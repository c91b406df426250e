"""Per-run ledger of the scheme's bounded quantities plus inequality probes.

The ledger collects the twelve squared/quartic norms whose boundedness
(uniformly in the step size, and with the eps/lam weights shown) is the
quantitative content of the a priori estimates:

    q1   |udot + h*mudot|^2 in L2(0,T; dual, mean-zero)
    q2   lam * |udot|^2 in L2(0,T; H)
    q3   eps * |u_bar|^2 in Linf(0,T; V)
    q4   eps*h * |udot|^2 in L2(0,T; V)
    q5   |u_bar|^4 in Linf(0,T; L4)
    q6   h * |mu_bar|^2 in Linf(0,T; H)
    q7   h^2 * |mudot|^2 in L2(0,T; H)
    q8   |grad mu_bar|^2 in L2(0,T; H)
    q9   |udot|^2 in L2(0,T; dual)
    q10  eps^2 * |u_bar|^2 in L2(0,T; W), with the W-seminorm realized
         discretely as |Lap u|^2_H + |u|^2_V
    q11  |beta(u_bar)|^2 in L2(0,T; H)
    q12  |mu_bar|^2 in L2(0,T; V)

All quantities are evaluated exactly from the piecewise-in-time structure
of the reconstructions. The dual norms of q1 and q9 are Parseval sums of
``elliptic.dual_coefficients``; q1's projection onto mean zero is the
dropped mode 0 of the inverse Neumann Laplacian's symbol.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import nonlinearity as nl
from .elliptic import dual_coefficients, helmholtz_solve
from .grid import Field, _face_diff_sq, _laplacian, inner_h, laplacian_apply, mean, norm_h, norm_v

__all__ = [
    "DiagnosticsLedger",
    "LEDGER_COLUMNS",
    "build_ledger",
    "append_ledger_csv",
    "identity_report",
    "PTReport",
    "check_pt_inequality",
    "check_growth_bound",
    "smoothed_random_field",
]

LEDGER_COLUMNS = ["eps", "lambda", "h", "beta_family", "eta"] + [f"q{i}" for i in range(1, 13)]


@dataclass
class DiagnosticsLedger:
    eps: float
    lam: float
    h: float
    beta_family: str
    eta: float
    q1: float = 0.0
    q2: float = 0.0
    q3: float = 0.0
    q4: float = 0.0
    q5: float = 0.0
    q6: float = 0.0
    q7: float = 0.0
    q8: float = 0.0
    q9: float = 0.0
    q10: float = 0.0
    q11: float = 0.0
    q12: float = 0.0

    def qvalues(self):
        return [getattr(self, f"q{i}") for i in range(1, 13)]

    def row(self):
        return [self.eps, self.lam, self.h, self.beta_family, self.eta] + self.qvalues()


# values per stacked array when a trajectory is walked in blocks: 8 steps per
# block in 1D at n=256, one in 2D from n=46. Peak RSS of the 1D n=256 study
# (median of 7 CLI runs, 2-vCPU VM) was 39.9 MB at 1024 values, 40.0 at 2048,
# 40.2 at 4096, 40.6 at 8192 and 42.3 with each trajectory stacked whole
_BLOCK_VALUES = 2048


def _blocks(count, node_count):
    """(start, stop) ranges that cover range(count) in blocks of about _BLOCK_VALUES values."""
    size = max(1, _BLOCK_VALUES // node_count)
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def build_ledger(traj, b):
    """Accumulate the twelve ledger quantities from a finished trajectory.

    The steps are taken in blocks of stacked states. q1 and q9 are Parseval
    sums on the DCT-II modes; every other entry is a reduction over face
    differences, the stencil or the graph, which stay exact at any grid size.
    """
    params = traj.params
    g = traj.grid
    h, eps, lam = params.h, params.eps, params.lam
    led = DiagnosticsLedger(eps, lam, h, b.family, params.eta)
    spatial = tuple(range(-g.d, 0))

    def sq_h(x):
        # squared H norm of each stacked field
        return g.cell_volume * np.sum(x * x, axis=spatial)

    def sq_semi(x):
        return g.cell_volume * _face_diff_sq(x, g.dx, g.d)

    def sq_dual(x, shift):
        # summed squared dual norms of the stacked fields
        w = dual_coefficients(g, x, shift)
        return float(np.sum(w * w))

    for start, stop in _blocks(params.N, g.node_count):
        u = np.stack([s.u.values for s in traj.states[start : stop + 1]])
        mu = np.stack([s.mu.values for s in traj.states[start : stop + 1]])
        du = (u[1:] - u[:-1]) / h
        dmu = (mu[1:] - mu[:-1]) / h
        u1, m1 = u[1:], mu[1:]
        du_h = sq_h(du)
        u1_v = sq_semi(u1) + sq_h(u1)
        m1_semi = sq_semi(m1)

        led.q1 += h * sq_dual(du + h * dmu, 0.0)
        led.q2 += h * float(np.sum(du_h))
        led.q4 += h * float(np.sum(sq_semi(du) + du_h))
        led.q7 += h * float(np.sum(sq_h(dmu)))
        led.q9 += h * sq_dual(du, 1.0)

        led.q3 = max(led.q3, float(np.max(u1_v)))
        led.q5 = max(led.q5, float(np.max(g.cell_volume * np.sum(u1**4, axis=spatial))))
        led.q6 = max(led.q6, float(np.max(sq_h(m1))))
        led.q8 += h * float(np.sum(m1_semi))
        led.q10 += h * float(np.sum(sq_h(_laplacian(u1, g.dx, g.d)) + u1_v))
        led.q11 += h * float(np.sum(sq_h(nl.beta_eval(b, u1))))
        led.q12 += h * float(np.sum(m1_semi + sq_h(m1)))

    led.q2 *= lam
    led.q3 *= eps
    led.q4 *= eps * h
    led.q6 *= h
    led.q7 *= h * h
    led.q10 *= eps * eps
    return led


def append_ledger_csv(path, ledger):
    """Append one keyed ledger row, writing the header for a fresh file."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(LEDGER_COLUMNS)
        writer.writerow(
            [x if isinstance(x, str) else f"{x:.17g}" for x in ledger.row()]
        )


# ---------------------------------------------------------------------------
# exact step identities


def identity_report(traj, b, p, tol=1e-10):
    """Evaluate the exact identities of the finished run.

    Returns (name, max relative defect, passed) rows for:

    * the squared-distance identity between the right-constant and linear
      reconstructions, |u_bar - u_hat|^2 = (h^2/3) |udot|^2 in L2(0,T;H);
    * the pointwise reconstruction identity h*udot = u_bar - u_under;
    * the per-step energy balance obtained by pairing the potential
      equation with the density increment;
    * the conservation of the mean of u + h*mu.
    """
    from .scheme import interpolants, time_l2_sq

    params = traj.params
    g = traj.grid
    h, eps, lam = params.h, params.eps, params.lam
    view = interpolants(traj)
    rows = []

    # squared-distance identity: segments of u_bar - u_hat are (u1-u0, 0)
    diff_segments = [(u1 - u0, Field(g, np.zeros(g.shape))) for (u0, u1) in view.hat_segments()]
    lhs = time_l2_sq(diff_segments, h)
    rhs = (h**2 / 3.0) * time_l2_sq([(d, d) for d in view.dot_fields()], h)
    defect = abs(lhs - rhs) / max(lhs, rhs, 1e-300)
    rows.append(("ubar_uhat_l2_identity", defect, defect <= tol))

    # pointwise reconstruction identity on each interval
    worst = 0.0
    for n in range(params.N):
        u0, u1 = traj.states[n].u, traj.states[n + 1].u
        lhs_f = h * ((u1 - u0) / h)
        rhs_f = u1 - u0
        scale = max(1.0, float(np.max(np.abs(rhs_f.values))))
        worst = max(worst, float(np.max(np.abs(lhs_f.values - rhs_f.values))) / scale)
    rows.append(("reconstruction_increment_identity", worst, worst <= tol))

    # per-step energy balance
    worst = 0.0
    for n in range(params.N):
        u0, u1 = traj.states[n].u, traj.states[n + 1].u
        mu1 = traj.states[n + 1].mu
        du = u1 - u0
        f1 = traj.sources[n] if traj.sources else Field(g, np.zeros(g.shape))
        lhs_e = inner_h(du, mu1)
        terms = [
            lam * h * norm_h(du / h) ** 2,
            0.5 * eps * (norm_v(u1) ** 2 - norm_v(u0) ** 2 + norm_v(du) ** 2),
            inner_h(Field(g, nl.beta_eval(b, u1.values)), du),
            inner_h(
                Field(g, nl.pi_eval(p, eps, u1.values)) - f1 - eps * u1,
                du,
            ),
        ]
        rhs_e = sum(terms)
        scale = max(abs(lhs_e), sum(abs(t) for t in terms), 1e-300)
        worst = max(worst, abs(lhs_e - rhs_e) / scale)
    rows.append(("per_step_energy_balance", worst, worst <= tol))

    # conservation of mean(u + h*mu)
    m_init = mean(traj.states[0].u)
    worst = 0.0
    for s in traj.states:
        m = mean(s.u + h * s.mu)
        worst = max(worst, abs(m - m_init) / max(1.0, abs(m_init)))
    rows.append(("mean_mass_invariant", worst, worst <= tol))
    return rows


# ---------------------------------------------------------------------------
# inequality probes


def smoothed_random_field(g, rng, opts=None, scale=1.0):
    """White nodal noise pushed twice through the shifted solve (a W-regular field)."""
    raw = Field(g, rng.standard_normal(g.shape))
    smooth = helmholtz_solve(g, helmholtz_solve(g, raw, opts), opts)
    return scale * smooth


@dataclass
class PTReport:
    taus: list
    trials: int
    min_pairing: float
    min_normalized: float
    per_tau: dict


def check_pt_inequality(g, b, taus, trials, seed=0, opts=None):
    """Sample the pairing (-Lap u, beta_tau(u))_H over random smooth fields.

    Summation by parts turns the pairing into a sum of products of face
    increments of u and of the monotone beta_tau(u), each nonnegative, so
    the minimum over trials should sit at roundoff level below zero at
    worst. The report records the raw minimum and the minimum after
    normalizing by |Lap u|_H * |beta_tau(u)|_H.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    per_tau = {}
    min_pairing = np.inf
    min_normalized = np.inf
    for tau in taus:
        worst = np.inf
        worst_norm = np.inf
        for _ in range(trials):
            u = smoothed_random_field(g, rng, opts)
            lap_u = laplacian_apply(g, u)
            bt = Field(g, nl.yosida(b, tau, u.values))
            pairing = inner_h(-1.0 * lap_u, bt)
            scale = max(norm_h(lap_u) * norm_h(bt), 1e-300)
            worst = min(worst, pairing)
            worst_norm = min(worst_norm, pairing / scale)
        per_tau[tau] = (worst, worst_norm)
        min_pairing = min(min_pairing, worst)
        min_normalized = min(min_normalized, worst_norm)
    return PTReport(list(taus), trials, min_pairing, min_normalized, per_tau)


def check_growth_bound(b, m0, tau, r_max=20.0, n_scan=20001):
    """Scan-certified constants (C1, C2) with beta_tau(r)(r - m0) >= C1|beta_tau(r)| - C2.

    The scan covers [-r_max, r_max] with extra resolution near m0. C1 is
    fixed at the heuristic ceiling 1 and C2 is the smallest value making
    the inequality hold at every scan point (plus a roundoff cushion);
    the certificate is re-verified before returning.
    """
    lo, hi = b.domain
    if not lo < m0 < hi:
        raise ValueError(f"m0={m0} is not strictly inside the graph domain")
    r = np.unique(
        np.concatenate(
            [np.linspace(-r_max, r_max, n_scan), np.linspace(m0 - 1.0, m0 + 1.0, n_scan // 4)]
        )
    )
    bt = nl.yosida(b, tau, r)
    c1 = 1.0
    need = c1 * np.abs(bt) - bt * (r - m0)
    c2 = max(float(np.max(need)), 0.0) + 1e-12
    if np.any(bt * (r - m0) < c1 * np.abs(bt) - c2):
        raise AssertionError("growth-bound certificate failed on its own scan")
    return c1, c2
