import numpy as np
import pytest

from chemhill.elliptic import SolverOptions, StepFailure, helmholtz_solve
from chemhill.grid import Field, make_grid, mean, norm_h, norm_l4, norm_v
from chemhill.nonlinearity import BetaSpec, PiSpec, beta_eval
from chemhill.scheme import (
    Scenario,
    SimParams,
    StepState,
    Trajectory,
    average_sources,
    interpolants,
    load_trajectory_csv,
    run,
    save_trajectory_csv,
    step,
)

import oracles

TIGHT = SolverOptions(newton_tol=1e-13, lin_tol=1e-12)


def cosine_scenario(g, params, family="power", amp=1.0, smooth=False, **beta_kw):
    u0 = Field(g, amp * np.cos(np.pi * g.axis))
    return Scenario(
        grid=g,
        params=params,
        beta=BetaSpec(family, **beta_kw),
        pi=PiSpec("zero"),
        u0=u0,
        smooth_u0=smooth,
    )


def test_sim_params_invariants():
    assert SimParams(eps=0.1, lam=0.01, N=64, T=0.5).violations() == []
    assert any("lambda" in v for v in SimParams(eps=0.1, lam=0.2, N=64, T=0.5).violations())
    assert any("stepsize" in v for v in SimParams(eps=0.5, lam=0.01, N=10, T=1.0, c3=1.0).violations())
    assert any("N" in v for v in SimParams(eps=0.1, lam=0.01, N=0, T=0.5).violations())
    # with no perturbation the unit-budget analog h < lam/(2 eps) applies
    p = SimParams(eps=0.1, lam=1e-3, N=64, T=0.1, c3=0.0)
    assert p.stepsize_bound == pytest.approx(5e-3)
    assert p.violations() == []


def test_average_sources_constant_and_linear_in_time():
    g = make_grid(1, 16)
    params = SimParams(eps=0.5, lam=0.4, N=4, T=1.0)
    phi = np.sin(2 * np.pi * g.axis)

    const = average_sources(lambda t, gr: Field(gr, phi), params, g)
    assert len(const) == 4
    for f in const:
        assert np.array_equal(f.values, phi)

    ramp = average_sources(lambda t, gr: Field(gr, t * phi), params, g)
    for k, f in enumerate(ramp, start=1):
        exact = (k - 0.5) / 4.0 * phi
        assert np.max(np.abs(f.values - exact)) <= 1e-15


def test_average_sources_rejects_invalid_params():
    g = make_grid(1, 16)
    params = SimParams(eps=0.5, lam=0.4, N=0, T=1.0)
    with pytest.raises(ValueError):
        average_sources(lambda t, gr: Field(gr, np.zeros(gr.shape)), params, g)


def test_uniform_steady_state_is_preserved():
    # the pair (m0, graph(m0)) is an equilibrium of the two step equations
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=10, T=0.1, eta=2.0)
    m0 = 0.7
    b = BetaSpec("linear")
    u = Field(g, np.full(g.shape, m0))
    mu = Field(g, np.full(g.shape, beta_eval(b, m0)))
    state = StepState(0, u, mu, helmholtz_solve(g, u))
    f0 = Field(g, np.zeros(g.shape))
    nxt = step(state, f0, params, b, PiSpec("zero"), TIGHT)
    assert np.max(np.abs(nxt.u.values - m0)) <= 1e-12
    assert np.max(np.abs(nxt.mu.values - beta_eval(b, m0))) <= 1e-12


def test_per_step_mass_conservation():
    g = make_grid(1, 64)
    params = SimParams(eps=0.1, lam=0.05, N=16, T=0.25, eta=0.5)
    traj = run(cosine_scenario(g, params, c2=0.0), TIGHT)
    h = params.h
    for prev, nxt in zip(traj.states, traj.states[1:]):
        before = mean(prev.u + h * prev.mu)
        after = mean(nxt.u + h * nxt.mu)
        assert abs(after - before) <= 1e-10


def test_linear_mode_matches_eigen_recurrence():
    g = make_grid(1, 64)
    params = SimParams(eps=0.1, lam=1e-3, N=50, T=0.05)
    traj = run(cosine_scenario(g, params, family="linear"), TIGHT)
    a = oracles.mode_eigenvalue(g.n, 1)
    alphas, _ = oracles.mode_recurrence(a, params.eps, params.lam, params.h, params.N, 1.0)
    phi = oracles.mode_values(g, 1)
    for s, alpha in zip(traj.states, alphas):
        assert np.max(np.abs(s.u.values - alpha * phi)) <= 1e-9


def test_run_single_step_equals_step_call():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=1, T=0.01)
    sc = cosine_scenario(g, params, c2=0.0)
    traj = run(sc, TIGHT)
    assert len(traj.states) == 2
    state0 = traj.states[0]
    redo = step(state0, Field(g, np.zeros(g.shape)), params, sc.beta, sc.pi, TIGHT)
    assert np.array_equal(redo.u.values, traj.states[1].u.values)


def test_zero_data_stays_zero():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=8, T=0.1)
    sc = Scenario(
        grid=g,
        params=params,
        beta=BetaSpec("power", c2=0.0),
        pi=PiSpec("zero"),
        u0=Field(g, np.zeros(g.shape)),
    )
    traj = run(sc, TIGHT)
    for s in traj.states:
        assert norm_h(s.u) <= 1e-12
        assert norm_h(s.mu) <= 1e-12


def test_smoke_run_power_graph_bounded_states():
    g = make_grid(1, 64)
    params = SimParams(eps=0.1, lam=0.05, N=32, T=0.5, eta=0.5)
    traj = run(cosine_scenario(g, params, c2=0.0, smooth=True))
    assert len(traj.states) == 33
    for s in traj.states:
        assert np.all(np.isfinite(s.u.values))
        assert norm_l4(s.u) < 10.0


def test_smoothing_preserves_mean_and_state_potentials_consistent():
    from dataclasses import replace

    g = make_grid(1, 64)
    params = SimParams(eps=0.1, lam=0.05, N=4, T=0.05)
    sc = cosine_scenario(g, params, c2=0.0, amp=0.8, smooth=True)
    sc = replace(sc, u0=sc.u0 + Field(g, np.full(g.shape, 0.2)))
    traj = run(sc, TIGHT)
    assert mean(traj.states[0].u) == pytest.approx(mean(sc.u0), abs=1e-13)
    for s in traj.states:
        back = helmholtz_solve(g, s.u, TIGHT)
        assert np.max(np.abs(back.values - s.v.values)) <= 1e-11


def test_run_failure_attaches_partial_trajectory():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=8, T=0.1, eta=0.5)
    bad = SolverOptions(newton_tol=1e-17, max_newton=30)
    with pytest.raises(StepFailure) as info:
        run(cosine_scenario(g, params, c2=0.0), bad)
    assert info.value.trajectory is not None
    assert info.value.step_index == len(info.value.trajectory.states) - 1


def test_run_rejects_failed_assumptions():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=4, T=0.05)
    sc = Scenario(
        grid=g,
        params=params,
        beta=BetaSpec("logit"),
        pi=PiSpec("zero"),
        u0=Field(g, np.full(g.shape, 1.5)),
    )
    with pytest.raises(ValueError, match="A5"):
        run(sc, TIGHT)


# ---------------------------------------------------------------------------
# interpolants


@pytest.fixture(scope="module")
def short_traj():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=8, T=0.2, eta=0.5)
    u0 = Field(g, np.cos(np.pi * g.axis))
    sc = Scenario(grid=g, params=params, beta=BetaSpec("power", c2=0.0), pi=PiSpec("zero"), u0=u0)
    return run(sc, TIGHT)


def test_interpolant_evaluation_conventions(short_traj):
    view = interpolants(short_traj)
    h = short_traj.params.h
    states = short_traj.states
    assert np.array_equal(view.u_hat(0.0).values, states[0].u.values)
    assert np.array_equal(view.u_hat(short_traj.params.T).values, states[-1].u.values)
    assert np.array_equal(view.u_bar(0.0).values, states[1].u.values)
    assert np.array_equal(view.u_bar(1.5 * h).values, states[2].u.values)
    assert np.array_equal(view.u_under(1.5 * h).values, states[1].u.values)
    assert np.array_equal(view.u_under(short_traj.params.T).values, states[-2].u.values)
    # at a shared breakpoint both one-sided reconstructions take that level
    assert np.array_equal(view.u_bar(h).values, states[1].u.values)
    assert np.array_equal(view.u_under(h).values, states[1].u.values)
    mid = view.u_hat(0.5 * h)
    expect = 0.5 * (states[0].u + states[1].u)
    assert np.max(np.abs(mid.values - expect.values)) <= 1e-15
    with pytest.raises(ValueError):
        view.u_hat(-1e-9)
    with pytest.raises(ValueError):
        view.u_bar(short_traj.params.T + 1e-9)


def test_interpolant_max_form_identities(short_traj):
    # the sup norms of the linear reconstruction over [0, T] reduce to the
    # max of the initial value and the right-constant reconstruction
    view = interpolants(short_traj)
    states = short_traj.states
    for norm in (norm_v, norm_l4, norm_h):
        hat_sup = max(norm(view.u_hat(t)) for t in view.times)
        bar_sup = max(norm(s.u) for s in states[1:])
        assert hat_sup == pytest.approx(max(norm(states[0].u), bar_sup), abs=1e-14)
    mu_hat_sup = max(norm_h(view.mu_hat(t)) for t in view.times)
    mu_bar_sup = max(norm_h(s.mu) for s in states[1:])
    assert mu_hat_sup == pytest.approx(mu_bar_sup, abs=1e-14)


def test_increment_identity_on_each_interval(short_traj):
    view = interpolants(short_traj)
    h = short_traj.params.h
    for n, dot in enumerate(view.dot_fields()):
        t = (n + 0.5) * h
        gap = h * dot - (view.u_bar(t) - view.u_under(t))
        assert np.max(np.abs(gap.values)) <= 1e-13


def test_subdifferential_inequality_along_run(short_traj):
    from chemhill.nonlinearity import beta_hat_eval

    b = BetaSpec("power", c2=0.0)
    g = short_traj.grid
    for prev, nxt in zip(short_traj.states, short_traj.states[1:]):
        du = nxt.u - prev.u
        lhs = np.vdot(beta_eval(b, nxt.u.values), du.values) * g.cell_volume
        gap = mean(Field(g, beta_hat_eval(b, nxt.u.values))) - mean(
            Field(g, beta_hat_eval(b, prev.u.values))
        )
        assert lhs >= gap - 1e-10


def test_trajectory_csv_round_trip(tmp_path, short_traj):
    path = tmp_path / "traj.csv"
    save_trajectory_csv(short_traj, path)
    back = load_trajectory_csv(path, short_traj.grid, short_traj.params)
    assert len(back.states) == len(short_traj.states)
    for a, b in zip(back.states, short_traj.states):
        assert np.array_equal(a.u.values, b.u.values)
        assert np.array_equal(a.mu.values, b.mu.values)
        assert np.array_equal(a.v.values, b.v.values)


def test_trajectory_csv_bytes_match_csv_writer_oracle(tmp_path):
    # stride 3 on N = 5 writes levels 0 and 3 plus the forced final level
    g = make_grid(2, 4)
    params = SimParams(eps=0.1, lam=0.05, N=5, T=0.05)
    rng = np.random.default_rng(11)
    states = []
    for n in range(params.N + 1):
        u, mu, v = rng.standard_normal((3, *g.shape)) * 10.0 ** rng.integers(-20, 20, (3, *g.shape))
        u[0, 0], mu[0, 1], v[1, 0] = -0.0, 1e-300, -1e-300
        states.append(StepState(n, Field(g, u), Field(g, mu), Field(g, v)))
    traj = Trajectory(states, params)
    for stride in (1, 3):
        path = tmp_path / f"traj{stride}.csv"
        save_trajectory_csv(traj, path, stride=stride)
        assert path.read_bytes() == oracles.trajectory_csv_bytes(traj, stride=stride)
    times = {line.split(",")[0] for line in (tmp_path / "traj3.csv").read_text().splitlines()[1:]}
    assert len(times) == 3


def test_two_dimensional_run_conserves_mass():
    g = make_grid(2, 12)
    params = SimParams(eps=0.2, lam=0.05, N=4, T=0.05, eta=0.3)
    xx, yy = g.coords()
    u0 = Field(g, 0.5 * np.cos(np.pi * xx) * np.cos(np.pi * yy))
    sc = Scenario(grid=g, params=params, beta=BetaSpec("power", c2=0.0), pi=PiSpec("zero"), u0=u0)
    traj = run(sc, TIGHT)
    h = params.h
    m0 = mean(traj.states[0].u)
    for s in traj.states:
        assert abs(mean(s.u + h * s.mu) - m0) <= 1e-10