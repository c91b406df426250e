import numpy as np
import pytest

import chemhill.diagnostics
import chemhill.limits
from chemhill.elliptic import SolverFailure, SolverOptions
from chemhill.grid import make_grid, norm_h, norm_l4, norm_v
from chemhill.limits import _uhat_at, _uhat_diff_norms, estimate_order, save_study_csv, study, summarize
from chemhill.nonlinearity import BetaSpec, PiSpec
from chemhill.scheme import Scenario, SimParams, Trajectory, run

import oracles


def test_estimate_order_exact_halving():
    assert estimate_order([0.4, 0.2, 0.1]) == pytest.approx([1.0, 1.0])
    assert estimate_order([0.4, 0.1]) == pytest.approx([2.0])


def test_estimate_order_noise_floor():
    assert estimate_order([1e-13, 5e-14], floor=1e-10) == [None]
    assert estimate_order([1.0, 0.5, 1e-12], floor=1e-10) == [1.0, None]


def base_scenario(g, family="power", eta=0.0, N=32, T=0.2, eps=0.1, lam=0.01, **kw):
    return Scenario(
        grid=g,
        params=SimParams(eps=eps, lam=lam, N=N, T=T, eta=eta),
        beta=BetaSpec(family, **kw),
        pi=PiSpec("zero"),
        u0=np.cos(np.pi * g.axis),
        smooth_u0=False,
    )


def test_h_study_against_eigen_recurrence():
    # with the linear graph and no transport the whole run lives on one
    # eigenvector, so every level and every level difference has an exact
    # scalar description
    g = make_grid(1, 64)
    sc = base_scenario(g, family="linear", T=0.1, lam=1e-3)
    levels = [32, 64, 128, 256]
    rep = study("h", sc, levels, opts=SolverOptions(newton_tol=1e-13, lin_tol=1e-12))
    assert rep.failed_level is None
    assert rep.levels == [0.1 / n for n in levels]
    assert all(a > b for a, b in zip(rep.diffs_linf_h, rep.diffs_linf_h[1:]))
    for order in rep.orders_linf_h:
        assert 0.8 <= order <= 1.2

    a = oracles.mode_eigenvalue(g.n, 1)
    phi_h = norm_h(g, oracles.mode_values(g, 1))
    amps = {
        n: oracles.mode_recurrence(a, 0.1, 1e-3, 0.1 / n, n, 1.0)[0] for n in levels
    }

    def hat(alphas, n, t):
        h = 0.1 / n
        k = min(int(t / h), n - 1)
        s = (t - k * h) / h
        return (1 - s) * alphas[k] + s * alphas[k + 1]

    for (n0, n1), got in zip(zip(levels, levels[1:]), rep.diffs_linf_h):
        ts = np.arange(n1 + 1) * (0.1 / n1)
        want = max(abs(hat(amps[n0], n0, t) - hat(amps[n1], n1, t)) for t in ts) * phi_h
        assert got == pytest.approx(want, abs=1e-10)


def test_lambda_study_cauchy_decrease():
    g = make_grid(1, 48)
    sc = base_scenario(g, eta=0.5, N=16, T=0.1, c2=0.0)
    rep = study("lambda", sc, [1e-2, 5e-3, 2.5e-3])
    assert rep.failed_level is None
    assert all(a > b for a, b in zip(rep.diffs_linf_h, rep.diffs_linf_h[1:]))
    assert len(rep.ledgers) == 3


def test_epsilon_study_coscaling_and_weighted_bounds():
    g = make_grid(1, 48)
    sc = base_scenario(g, eta=0.5, N=16, T=0.1, c2=0.0)
    rep = study("epsilon", sc, [0.1, 0.05, 0.025])
    assert rep.failed_level is None
    assert all(a > b for a, b in zip(rep.diffs_l2_vstar, rep.diffs_l2_vstar[1:]))
    assert [led.lam for led in rep.ledgers] == pytest.approx([0.01, 0.005, 0.0025])
    for led in rep.ledgers:
        assert led.q3 <= 2.0 * rep.ledgers[0].q3
        assert led.q10 <= 2.0 * rep.ledgers[0].q10


def test_study_rejects_nondecreasing_levels():
    g = make_grid(1, 32)
    sc = base_scenario(g, c2=0.0)
    with pytest.raises(ValueError):
        study("lambda", sc, [1e-3, 1e-2])
    with pytest.raises(ValueError):
        study("nonsense", sc, [1, 2])


def test_study_marks_failed_level():
    g = make_grid(1, 32)
    sc = base_scenario(g, c2=0.0, N=8, T=0.1)
    # one Newton iteration per step cannot meet the tolerance
    rep = study("h", sc, [8, 16], opts=SolverOptions(max_newton=1))
    assert rep.failed_level is not None
    assert rep.diffs_linf_h == []
    assert "residual" in rep.failure_message or "stagnated" in rep.failure_message


def test_study_runs_levels_in_order_and_stops_at_the_first_failure(monkeypatch):
    # the levels run one after another in this process: a stand-in for run
    # sees every call, and no level after a failed one is started
    calls = []

    def fake_run(sc, opts):
        calls.append(sc.params.N)
        if sc.params.N == 16:
            raise SolverFailure("stand-in failure at N = 16")
        return run(sc, opts)

    monkeypatch.setattr(chemhill.limits, "run", fake_run)
    sc = base_scenario(make_grid(1, 16), eta=0.5, N=8, T=0.05, c2=0.0)
    rep = study("h", sc, [8, 16, 32])
    assert calls == [8, 16]
    assert rep.failed_level == rep.levels[1]
    assert rep.failure_message == "stand-in failure at N = 16"
    assert len(rep.ledgers) == 1
    assert rep.diffs_linf_h == [] and rep.diffs_l2_vstar == []


def test_study_h_reads_the_last_level_at_a_time_past_T():
    # N * (T/N) rounds one ulp above T = 0.1 at N = 11 and N = 22; the gather
    # clamps the step index, so that level time reads u_N
    assert 11 * (0.1 / 11) > 0.1 and 22 * (0.1 / 22) > 0.1
    sc = base_scenario(make_grid(1, 16), eta=0.5, N=11, T=0.1, lam=0.05, c2=0.0)
    rep = study("h", sc, [11, 22])
    assert rep.failed_level is None
    assert len(rep.diffs_linf_h) == len(rep.diffs_l2_vstar) == 1
    assert all(np.isfinite(d) and d > 0 for d in rep.diffs_linf_h + rep.diffs_l2_vstar)
    traj = run(sc)
    assert np.array_equal(_uhat_at(traj, traj.times)[-1], traj.u[-1])


def test_identical_runs_have_zero_difference():
    g = make_grid(1, 32)
    sc = base_scenario(g, eta=0.5, N=8, T=0.05, c2=0.0)
    opts = SolverOptions()
    linf, l2v = _uhat_diff_norms(run(sc, opts), run(sc, opts))
    assert linf == 0.0
    assert l2v == 0.0


def _random_trajectory(g, N, T, seed):
    rng = np.random.default_rng(seed)
    u = np.stack([rng.standard_normal(g.shape) for _ in range(N + 1)])
    return Trajectory(g, SimParams(eps=0.1, lam=0.01, N=N, T=T), u, u, u)


# blocks of 2048 values: 64 breakpoints in 1D at n=32 and 8 in 2D at n=16; the
# level pairs are not nested, so most breakpoints interpolate inside a step
@pytest.mark.parametrize("d,n,Na,Nb", [(1, 32, 1, 2), (1, 32, 45, 70), (2, 16, 1, 3), (2, 16, 5, 7)])
def test_blocked_uhat_diff_norms_match_solve_oracle(monkeypatch, d, n, Na, Nb):
    monkeypatch.setattr(chemhill.diagnostics, "_BLOCK_VALUES", 2048)
    g = make_grid(d, n)
    ta, tb = _random_trajectory(g, Na, 0.3, seed=Na), _random_trajectory(g, Nb, 0.3, seed=Nb)
    got = _uhat_diff_norms(ta, tb)
    want = oracles.solve_uhat_diff_norms(ta, tb)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d,n", [(1, 8), (2, 4)])
def test_uhat_gather_matches_pointwise_oracle(d, n):
    # at T = 0.3 the level times of N = 30 and N = 45 pair up within a few
    # ulps: 9 of the 69 union segments are about 1e-17 long, so each run is
    # also gathered a few ulps from its own levels. Every union breakpoint
    # and every segment midpoint is checked
    g = make_grid(d, n)
    ta, tb = _random_trajectory(g, 30, 0.3, seed=1), _random_trajectory(g, 45, 0.3, seed=2)
    breaks = np.union1d(ta.times, tb.times)
    assert np.sum(np.diff(breaks) < 1e-15) == 9
    ts = np.union1d(breaks, 0.5 * (breaks[1:] + breaks[:-1]))
    for traj in (ta, tb):
        rec = oracles.Reconstruction(traj)
        scale = np.max(np.abs(traj.u))
        levels = between = 0
        for t, got in zip(ts, _uhat_at(traj, ts)):
            want = rec.u_hat(t)
            if rec.locate(t)[1] == 0.0:
                levels += 1
                assert np.array_equal(got, want)
            else:
                between += 1
                assert np.max(np.abs(got - want)) <= 1e-15 * scale
        assert levels >= traj.params.N + 1 and between > 0


# ---------------------------------------------------------------------------
# reconstructions of a short run: the pointwise oracle and the study's gather


@pytest.fixture(scope="module")
def short_traj():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=8, T=0.2, eta=0.5)
    u0 = np.cos(np.pi * g.axis)
    sc = Scenario(grid=g, params=params, beta=BetaSpec("power", c2=0.0), pi=PiSpec("zero"), u0=u0)
    return run(sc, SolverOptions(newton_tol=1e-13, lin_tol=1e-12, polish=True))


def test_interpolant_evaluation_conventions(short_traj):
    rec = oracles.Reconstruction(short_traj)
    h = short_traj.params.h
    u = short_traj.u
    assert np.array_equal(rec.u_hat(0.0), u[0])
    assert np.array_equal(rec.u_hat(short_traj.params.T), u[-1])
    assert np.array_equal(rec.u_bar(0.0), u[1])
    assert np.array_equal(rec.u_bar(1.5 * h), u[2])
    assert np.array_equal(rec.u_under(1.5 * h), u[1])
    assert np.array_equal(rec.u_under(short_traj.params.T), u[-2])
    # at a shared breakpoint both one-sided reconstructions take that level
    assert np.array_equal(rec.u_bar(h), u[1])
    assert np.array_equal(rec.u_under(h), u[1])
    mid = rec.u_hat(0.5 * h)
    expect = 0.5 * (u[0] + u[1])
    assert np.max(np.abs(mid - expect)) <= 1e-15
    with pytest.raises(ValueError):
        rec.u_hat(-1e-9)
    with pytest.raises(ValueError):
        rec.u_bar(short_traj.params.T + 1e-9)


def test_interpolant_max_form_identities(short_traj):
    # the sup norms of the linear reconstruction over [0, T] reduce to the
    # max of the initial value and the right-constant reconstruction
    rec = oracles.Reconstruction(short_traj)
    g, u = short_traj.grid, short_traj.u
    for norm in (norm_v, norm_l4, norm_h):
        hat_sup = max(norm(g, rec.u_hat(t)) for t in rec.levels)
        bar_sup = max(norm(g, x) for x in u[1:])
        assert hat_sup == pytest.approx(max(norm(g, u[0]), bar_sup), abs=1e-14)
    mu_hat_sup = max(norm_h(g, rec.mu_hat(t)) for t in rec.levels)
    mu_bar_sup = max(norm_h(g, rec.mu_bar(t)) for t in rec.levels)
    assert mu_hat_sup == pytest.approx(mu_bar_sup, abs=1e-14)


def test_increment_identity_on_each_interval(short_traj):
    rec = oracles.Reconstruction(short_traj)
    h = short_traj.params.h
    u = short_traj.u
    for n in range(short_traj.params.N):
        dot = (u[n + 1] - u[n]) / h
        t = (n + 0.5) * h
        gap = h * dot - (rec.u_bar(t) - rec.u_under(t))
        assert np.max(np.abs(gap)) <= 1e-13

def test_study_csv_and_summary(tmp_path):
    g = make_grid(1, 32)
    sc = base_scenario(g, N=8, T=0.05, c2=0.0)
    rep = study("h", sc, [8, 16, 32])
    path = tmp_path / "study.csv"
    save_study_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("axis,level,diff_linf_h")
    text = summarize(rep)
    assert "h axis" in text
    assert text.count("level") == 3
