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
dropped mode 0 of the inverse Neumann Laplacian's symbol. Every other
norm is one of ``grid``'s batched cores, one value per level of a block.
"""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import nonlinearity as nl
from .elliptic import dual_coefficients, helmholtz_solve
from .grid import _laplacian, _pair, _quartic, _sq_semi, _sq_v, _sum, _total, inner_h, laplacian_apply, norm_h

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


# values per block of levels when a trajectory is walked in blocks: 32 steps
# per block in 1D at n=256, two in 2D at n=64. A block is a view of the
# trajectory's arrays, so the size bounds the reductions' temporaries. Peak
# RSS of the 1D n=256 study (VmHWM, one CLI process, 2-vCPU VM) was 33.90 MB
# at 2048 values, 34.43 at 8192 and 36.30 at 32768
_BLOCK_VALUES = 8192


def _blocks(count, node_count):
    """(start, stop) ranges that cover range(count) in blocks of about _BLOCK_VALUES values."""
    size = max(1, _BLOCK_VALUES // node_count)
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def _state_blocks(traj):
    """Yield (start, stop, u, mu) per block of steps: u and mu at levels start..stop, as views."""
    for start, stop in _blocks(traj.params.N, traj.grid.node_count):
        yield start, stop, traj.u[start : stop + 1], traj.mu[start : stop + 1]


def _level_sum(parts):
    """The sum of the per-level values of every block, added one level at a time in level order."""
    return float(np.cumsum(np.concatenate(parts))[-1])  # an accumulation is sequential, never pairwise


def build_ledger(traj, b):
    """Accumulate the twelve ledger quantities from a finished trajectory.

    The steps are taken in blocks of levels, slices of the trajectory's
    arrays, and each summed quantity adds its per-level values in level
    order. q1 and q9 are Parseval sums on the DCT-II modes; every other
    entry is a reduction over face differences, the stencil or the graph,
    which stay exact at any grid size.
    """
    params = traj.params
    g = traj.grid
    h, eps, lam = params.h, params.eps, params.lam
    led = DiagnosticsLedger(eps, lam, h, b.family, params.eta)

    def sq_dual(x, shift):  # the squared dual norm of each stacked field
        return _sum(g, np.square(dual_coefficients(g, x, shift)))

    summed = {name: [] for name in ("q1", "q2", "q4", "q7", "q8", "q9", "q10", "q11", "q12")}
    for _, _, u, mu in _state_blocks(traj):
        du = (u[1:] - u[:-1]) / h
        dmu = (mu[1:] - mu[:-1]) / h
        u1, m1 = u[1:], mu[1:]
        du_h = _pair(g, du, du)
        u1_v = _sq_v(g, u1)
        m1_semi = _sq_semi(g, m1)
        lap = _laplacian(u1, g.dx, g.d)
        bu = nl.beta_eval(b, u1)
        for name, value in {
            "q1": sq_dual(du + h * dmu, 0.0),
            "q2": du_h,
            "q4": _sq_semi(g, du) + du_h,
            "q7": _pair(g, dmu, dmu),
            "q8": m1_semi,
            "q9": sq_dual(du, 1.0),
            "q10": _pair(g, lap, lap) + u1_v,
            "q11": _pair(g, bu, bu),
            "q12": m1_semi + _pair(g, m1, m1),
        }.items():
            summed[name].append(h * value)

        led.q3 = max(led.q3, float(np.max(u1_v)))
        led.q5 = max(led.q5, float(np.max(_quartic(g, u1))))
        led.q6 = max(led.q6, float(np.max(_pair(g, m1, m1))))

    for name, parts in summed.items():
        setattr(led, name, _level_sum(parts))
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

    The energy row's defect is the part of |lhs - sum(terms)| above its
    evaluation floor, relative to max(|lhs|, sum|terms|): that scale falls
    like |du|^2 near a steady state, the roundoff of the terms only like |du|.

    The steps are taken in the ledger's blocks of levels. A trajectory
    without sources (one reloaded from CSV) is unforced.
    """
    params = traj.params
    g = traj.grid
    h, eps, lam = params.h, params.eps, params.lam
    spatial = tuple(range(-g.d, 0))
    m_init = _total(g, traj.u[0])
    dist_sq, dot_sq = [], []
    increment = energy = mass = 0.0
    # the energy row's floor per unit of the magnitudes it cancels: c roundings on
    # the longest path to a term, up to 3 forming a factor, 2 for the product and
    # the cell volume, at most log2(node_count) + 19 in NumPy's pairwise sum (8
    # accumulators of 16, a tree of depth 3, halving), 3 for the V norm, 5 adding
    floor = (math.log2(g.node_count) + 32) * np.finfo(float).eps
    for start, stop, u, mu in _state_blocks(traj):
        u0, u1, mu1 = u[:-1], u[1:], mu[1:]
        du = u1 - u0

        # on each interval u_bar - u_hat runs linearly from u1 - u0 to 0
        udot_h = _pair(g, du / h, du / h)
        dist_sq.append(_pair(g, du, du))
        dot_sq.append(udot_h)

        gap = np.max(np.abs(h * (du / h) - du), axis=spatial)
        increment = max(increment, float(np.max(gap / np.maximum(1.0, np.max(np.abs(du), axis=spatial)))))

        f1 = 0.0 if traj.f is None else traj.f[start:stop]
        bu = nl.beta_eval(b, u1)
        rest = nl.pi_eval(p, eps, u1) - f1 - eps * u1
        u1_v, u0_v, du_v = _sq_v(g, u1), _sq_v(g, u0), _sq_v(g, du)
        lhs = _pair(g, du, mu1)
        terms = [
            lam * h * udot_h,
            0.5 * eps * (u1_v - u0_v + du_v),
            _pair(g, bu, du),
            _pair(g, rest, du),
        ]
        scale = np.maximum(np.maximum(np.abs(lhs), sum(np.abs(t) for t in terms)), 1e-300)
        # the V norms of the eps term and, by Cauchy-Schwarz, the norm products of the pairings
        pairs = np.sqrt(dist_sq[-1]) * sum(np.sqrt(_pair(g, x, x)) for x in (mu1, bu, rest))
        cancelled = 0.5 * eps * (u1_v + u0_v + du_v) + np.abs(terms[0]) + pairs
        excess = np.maximum(np.abs(lhs - sum(terms)) - floor * cancelled, 0.0)
        energy = max(energy, float(np.max(excess / scale)))

        m = _total(g, u + h * mu)
        mass = max(mass, float(np.max(np.abs(m - m_init))) / max(1.0, abs(m_init)))

    lhs = h * _level_sum(dist_sq) / 3.0
    rhs = (h**2 / 3.0) * h * _level_sum(dot_sq)
    dist = abs(lhs - rhs) / max(lhs, rhs, 1e-300)
    return [
        ("ubar_uhat_l2_identity", dist, dist <= tol),
        ("reconstruction_increment_identity", increment, increment <= tol),
        ("per_step_energy_balance", energy, energy <= tol),
        ("mean_mass_invariant", mass, mass <= tol),
    ]


# ---------------------------------------------------------------------------
# inequality probes


def smoothed_random_field(g, rng):
    """White nodal noise pushed twice through the shifted solve (a W-regular field), an array."""
    return helmholtz_solve(g, helmholtz_solve(g, rng.standard_normal(g.shape)))


@dataclass
class PTReport:
    taus: list
    trials: int
    min_pairing: float
    min_normalized: float
    per_tau: dict


def check_pt_inequality(g, b, taus, trials, seed=0):
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
            u = smoothed_random_field(g, rng)
            lap_u = laplacian_apply(g, u)
            bt = nl.yosida(b, tau, u)
            pairing = inner_h(g, -lap_u, bt)
            scale = max(norm_h(g, lap_u) * norm_h(g, bt), 1e-300)
            worst = min(worst, pairing)
            worst_norm = min(worst_norm, pairing / scale)
        per_tau[tau] = (worst, worst_norm)
        min_pairing = min(min_pairing, worst)
        min_normalized = min(min_normalized, worst_norm)
    return PTReport(list(taus), trials, min_pairing, min_normalized, per_tau)


# the growth scan: _GROWTH_SCAN points on [-_GROWTH_R_MAX, _GROWTH_R_MAX], a quarter as many near m0
_GROWTH_R_MAX = 20.0
_GROWTH_SCAN = 20001


def check_growth_bound(b, m0, tau):
    """Scan-certified constants (C1, C2) with beta_tau(r)(r - m0) >= C1|beta_tau(r)| - C2.

    The scan covers [-20, 20] with extra resolution near m0. C1 is fixed at
    the heuristic ceiling 1 and C2 is the smallest value making the
    inequality hold at every scan point (plus a roundoff cushion); the
    certificate is re-verified before returning.
    """
    lo, hi = b.domain
    if not lo < m0 < hi:
        raise ValueError(f"m0={m0} is not strictly inside the graph domain")
    r = np.unique(
        np.concatenate(
            [np.linspace(-_GROWTH_R_MAX, _GROWTH_R_MAX, _GROWTH_SCAN), np.linspace(m0 - 1.0, m0 + 1.0, _GROWTH_SCAN // 4)]
        )
    )
    bt = nl.yosida(b, tau, r)
    c1 = 1.0
    need = c1 * np.abs(bt) - bt * (r - m0)
    c2 = max(float(np.max(need)), 0.0) + 1e-12
    if np.any(bt * (r - m0) < c1 * np.abs(bt) - c2):
        raise AssertionError("growth-bound certificate failed on its own scan")
    return c1, c2
