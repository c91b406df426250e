"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

import chemhill as ch
from chemhill.cli import main as cli_main
from chemhill.diagnostics import check_pt_inequality, identity_report
from chemhill.grid import inner_h, laplacian_apply, make_grid, norm_v
from chemhill.limits import study
from chemhill.nonlinearity import beta_eval, pi_eval, resolvent, yosida
from chemhill.scheme import Scenario, SimParams, run

import oracles

# the setting check-identities uses: the identities are exact, so each step's
# Newton iteration is polished to its residual floor, not stopped inside tol
TIGHT = ch.SolverOptions(newton_tol=1e-13, polish=True)


def report(k, label, ok, detail=""):
    print(f"criterion {k} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def cosine_field(g, amp=1.0):
    return amp * np.cos(np.pi * g.axis)


def test_criterion_1_exact_identity_suite():
    t0 = time.perf_counter()
    g = make_grid(1, 64)
    params = SimParams(eps=0.1, lam=0.05, N=32, T=0.5, eta=0.5, c3=0.0)
    sc = Scenario(
        grid=g,
        params=params,
        beta=ch.BetaSpec("power", m=3, c2=0.0),
        pi=ch.PiSpec("zero"),
        u0=cosine_field(g),
    )
    rows = identity_report(run(sc, TIGHT), sc.beta, sc.pi, tol=1e-10)
    elapsed = time.perf_counter() - t0
    worst = max(defect for _, defect, _ in rows)
    ok = all(passed for _, _, passed in rows) and elapsed < 10.0
    assert report(1, "exact identity suite", ok, f"worst defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_analytic_mode_decay():
    import oracles

    t0 = time.perf_counter()
    g = make_grid(1, 64)
    a = oracles.mode_eigenvalue(g.n, 1)
    phi = oracles.mode_values(g, 1)
    eps, lam, T = 0.1, 1e-3, 0.1
    errs = {}
    worst_step = 0.0
    for N in (64, 128):
        params = SimParams(eps=eps, lam=lam, N=N, T=T, eta=0.0, c3=0.0)
        sc = Scenario(
            grid=g,
            params=params,
            beta=ch.BetaSpec("linear"),
            pi=ch.PiSpec("zero"),
            u0=phi,
            smooth_u0=False,
        )
        traj = run(sc, TIGHT)
        alphas, _ = oracles.mode_recurrence(a, eps, lam, T / N, N, 1.0)
        for u, alpha in zip(traj.u, alphas):
            worst_step = max(worst_step, float(np.max(np.abs(u - alpha * phi))))
        errs[N] = abs(alphas[-1] - np.exp(-oracles.exact_decay_rate(eps, lam) * T))
    order = np.log2(errs[64] / errs[128])
    elapsed = time.perf_counter() - t0
    ok = worst_step <= 1e-9 and 0.8 <= order <= 1.2 and elapsed < 30.0
    assert report(2, "analytic mode decay", ok, f"step dev {worst_step:.2e}, order {order:.3f}, {elapsed:.2f}s")


def test_criterion_3_pt_inequality():
    t0 = time.perf_counter()
    g = make_grid(1, 64)
    worst = np.inf
    for family in ("power", "logit"):
        rep = check_pt_inequality(g, ch.BetaSpec(family), taus=[1e-1, 1e-3], trials=500, seed=3)
        worst = min(worst, rep.min_normalized)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-12 and elapsed < 10.0
    assert report(3, "positivity of the graph pairing", ok, f"min normalized {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_monotone_coercivity_probe():
    t0 = time.perf_counter()
    g = make_grid(1, 32)
    eps, lam, h, c3 = 0.1, 0.01, 0.02, 1.0
    p = ch.PiSpec("tanh_decay", c3=c3)
    const = min(lam - c3 * eps * h, eps * h)
    rng = np.random.default_rng(12)
    worst = np.inf
    for variant in ("exact", "regularized"):
        b = ch.BetaSpec("power", m=3)
        graph = (lambda x: beta_eval(b, x)) if variant == "exact" else (lambda x: yosida(b, 1e-3, x))
        for _ in range(1000):
            u = rng.standard_normal(g.shape)
            w = rng.standard_normal(g.shape)

            def apply_op(x):
                return (
                    lam * x
                    + ch.helmholtz_solve(g, x)
                    - eps * h * laplacian_apply(g, x)
                    + h * graph(x)
                    + h * pi_eval(p, eps, x)
                )

            gain = inner_h(g, apply_op(u) - apply_op(w), u - w) - const * norm_v(g, u - w) ** 2
            worst = min(worst, gain)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-10 and elapsed < 30.0
    assert report(4, "monotone coercivity probe", ok, f"min margin {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_ledger_h_uniformity():
    t0 = time.perf_counter()
    g = make_grid(1, 64)
    sc = Scenario(
        grid=g,
        params=SimParams(eps=0.1, lam=0.01, N=32, T=0.5, eta=0.5, c3=0.0),
        beta=ch.BetaSpec("power", m=3, c2=0.0),
        pi=ch.PiSpec("zero"),
        u0=cosine_field(g),
    )
    rep = study("h", sc, [32, 64, 128, 256])
    base = rep.ledgers[0].qvalues()
    worst = 0.0
    for led in rep.ledgers[1:]:
        for q, q0 in zip(led.qvalues(), base):
            worst = max(worst, q / max(q0, 1e-14))
    elapsed = time.perf_counter() - t0
    ok = rep.failed_level is None and worst <= 2.0 and elapsed < 120.0
    assert report(5, "h-uniform ledger bounds", ok, f"max ratio {worst:.3f}, {elapsed:.2f}s")


def test_criterion_6_lambda_cauchy_decrease():
    t0 = time.perf_counter()
    g = make_grid(1, 64)
    sc = Scenario(
        grid=g,
        params=SimParams(eps=0.1, lam=0.01, N=32, T=0.2, eta=0.5, c3=0.0),
        beta=ch.BetaSpec("power", m=3, c2=0.0),
        pi=ch.PiSpec("zero"),
        u0=cosine_field(g),
    )
    rep = study("lambda", sc, [1e-2, 5e-3, 2.5e-3])
    elapsed = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(rep.diffs_linf_h, rep.diffs_linf_h[1:]))
    ok = rep.failed_level is None and decreasing and elapsed < 120.0
    assert report(6, "lambda Cauchy decrease", ok, f"diffs {rep.diffs_linf_h}, {elapsed:.2f}s")


def test_criterion_7_epsilon_cauchy_with_weighted_bounds():
    t0 = time.perf_counter()
    g = make_grid(1, 64)
    sc = Scenario(
        grid=g,
        params=SimParams(eps=0.1, lam=0.01, N=32, T=0.25, eta=0.5, c3=0.0),
        beta=ch.BetaSpec("power", m=3, c2=0.0),
        pi=ch.PiSpec("zero"),
        u0=cosine_field(g),
    )
    rep = study("epsilon", sc, [0.1, 0.05, 0.025])
    elapsed = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(rep.diffs_l2_vstar, rep.diffs_l2_vstar[1:]))
    bounded = all(
        led.q3 <= 2.0 * rep.ledgers[0].q3 and led.q10 <= 2.0 * rep.ledgers[0].q10
        for led in rep.ledgers
    )
    ok = rep.failed_level is None and decreasing and bounded and elapsed < 180.0
    assert report(7, "epsilon Cauchy with weighted bounds", ok, f"diffs {rep.diffs_l2_vstar}, {elapsed:.2f}s")


def test_criterion_8_logarithmic_graph_lower_bound():
    # the cubic lower bound of the logarithmic graph; stated with absolute
    # values since both sides are odd (the signed form fails for r < 0,
    # e.g. r = -0.5)
    t0 = time.perf_counter()
    b = ch.BetaSpec("logit")
    r = np.linspace(-0.999, 0.999, 10000)
    slack = np.abs(beta_eval(b, r)) - (8.0 / 3.0) * np.abs(r) ** 3
    odd = float(np.max(np.abs(beta_eval(b, r) + beta_eval(b, -r))))
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(slack >= 0.0)) and odd <= 1e-12 and elapsed < 1.0
    assert report(8, "logarithmic graph lower bound", ok, f"min slack {slack.min():.2e}, {elapsed:.2f}s")


def test_criterion_9_resolvent_route_agreement():
    # the oracle returns the root rounded towards 0, so the gap is at most
    # an ulp or two of the root, relative to it, however small the root
    t0 = time.perf_counter()
    worst = worst_rel = 0.0
    for family in ("linear", "power", "logit", "abs_logit"):
        b = ch.BetaSpec(family)
        rng = np.random.default_rng(11)
        s = rng.uniform(-3, 3, 10000) if b.bounded else rng.uniform(-50, 50, 10000)
        for tau in (1e-3, 1.0):
            want = oracles.resolvent_bisect(b, tau, s)
            gap = np.abs(resolvent(b, tau, s) - want)
            worst = max(worst, float(np.max(gap)))
            worst_rel = max(worst_rel, float(np.max(gap / np.abs(want))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and worst_rel <= 4 * np.finfo(float).eps
    detail = f"max gap {worst:.2e}, relative {worst_rel:.2e}, {elapsed:.2f}s"
    assert report(9, "resolvent route agreement", ok, detail)


CONFIG_DETERMINISM = """
[grid]
d = 1
n = 48

[params]
eps = 0.1
lambda = 0.02
N = 12
T = 0.15
eta = 0.5
c3 = 0

[beta]
family = power
m = 3
c1 = 0.25
c2 = 0

[pi]
family = zero

[initial]
preset = cosine
k = 1
"""


def test_criterion_10_byte_identical_artifacts(tmp_path):
    conf = tmp_path / "scenario.ini"
    conf.write_text(CONFIG_DETERMINISM)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["simulate", "--config", str(conf), "--out", str(out1)])
    code2 = cli_main(["simulate", "--config", str(conf), "--out", str(out2)])
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("trajectory.csv", "ledger.csv", "metadata.txt")
    )
    ok = code1 == 0 and code2 == 0 and same
    assert report(10, "deterministic artifacts", ok)
