import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import chemhill.elliptic
import chemhill.grid
import chemhill.scheme

from chemhill.elliptic import SolverFailure, SolverOptions, StepFailure, helmholtz_solve, step_solve
from chemhill.grid import laplacian_apply, make_grid, mean, norm_h, norm_l4
from chemhill.nonlinearity import BetaSpec, PiSpec, beta_eval, pi_eval
from chemhill.scheme import (
    Scenario,
    SimParams,
    Trajectory,
    average_sources,
    load_trajectory_csv,
    run,
    save_trajectory_csv,
    step,
)

import oracles

# the setting check-identities uses: the identities are exact, so each step's
# Newton iteration is polished to its residual floor, not stopped inside tol
TIGHT = SolverOptions(newton_tol=1e-13, lin_tol=1e-12, polish=True)


def cosine_scenario(g, params, family="power", amp=1.0, smooth=False, **beta_kw):
    u0 = amp * np.cos(np.pi * g.axis)
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

    const = average_sources(lambda t, gr: phi, params, g)
    assert len(const) == 4
    for f in const:
        assert np.array_equal(f, phi)

    ramp = average_sources(lambda t, gr: t * phi, params, g)
    for k, f in enumerate(ramp, start=1):
        exact = (k - 0.5) / 4.0 * phi
        assert np.max(np.abs(f - exact)) <= 1e-15


def test_average_sources_rejects_invalid_params():
    g = make_grid(1, 16)
    params = SimParams(eps=0.5, lam=0.4, N=0, T=1.0)
    with pytest.raises(ValueError):
        average_sources(lambda t, gr: np.zeros(gr.shape), params, g)


def test_uniform_steady_state_is_preserved():
    # the pair (m0, graph(m0)) is an equilibrium of the two step equations
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=10, T=0.1, eta=2.0)
    m0 = 0.7
    b = BetaSpec("linear")
    u = np.full(g.shape, m0)
    mu = np.full(g.shape, beta_eval(b, m0))
    u1, mu1, _, _ = step(g, u, mu, helmholtz_solve(g, u), np.zeros(g.shape), params, b, PiSpec("zero"), TIGHT)
    assert np.max(np.abs(u1 - m0)) <= 1e-12
    assert np.max(np.abs(mu1 - beta_eval(b, m0))) <= 1e-12


def test_per_step_mass_conservation():
    g = make_grid(1, 64)
    params = SimParams(eps=0.1, lam=0.05, N=16, T=0.25, eta=0.5)
    traj = run(cosine_scenario(g, params, c2=0.0), TIGHT)
    h = params.h
    for n in range(params.N):
        before = mean(g, traj.u[n] + h * traj.mu[n])
        after = mean(g, traj.u[n + 1] + h * traj.mu[n + 1])
        assert abs(after - before) <= 1e-10


def test_linear_mode_matches_eigen_recurrence():
    g = make_grid(1, 64)
    params = SimParams(eps=0.1, lam=1e-3, N=50, T=0.05)
    traj = run(cosine_scenario(g, params, family="linear"), TIGHT)
    a = oracles.mode_eigenvalue(g.n, 1)
    alphas, _ = oracles.mode_recurrence(a, params.eps, params.lam, params.h, params.N, 1.0)
    phi = oracles.mode_values(g, 1)
    for u, alpha in zip(traj.u, alphas):
        assert np.max(np.abs(u - alpha * phi)) <= 1e-9


def test_run_single_step_equals_step_call():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=1, T=0.01)
    sc = cosine_scenario(g, params, c2=0.0)
    traj = run(sc, TIGHT)
    assert len(traj.u) == 2
    redo = step(g, traj.u[0], traj.mu[0], traj.v[0], np.zeros(g.shape), params, sc.beta, sc.pi, TIGHT)
    assert np.array_equal(redo[0], traj.u[1])


def test_zero_data_stays_zero():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=8, T=0.1)
    sc = Scenario(
        grid=g,
        params=params,
        beta=BetaSpec("power", c2=0.0),
        pi=PiSpec("zero"),
        u0=np.zeros(g.shape),
    )
    traj = run(sc, TIGHT)
    for u, mu in zip(traj.u, traj.mu):
        assert norm_h(g, u) <= 1e-12
        assert norm_h(g, mu) <= 1e-12


def test_run_without_source_shares_one_zero_field(monkeypatch):
    # no forcing: the trajectory holds no source array, and every step is
    # handed one shared zero array
    g = make_grid(1, 16)
    params = SimParams(eps=0.1, lam=0.05, N=6, T=0.05)
    sources = []

    def recorded(g, u, mu, v, f_next, *args):
        sources.append(f_next)
        return step(g, u, mu, v, f_next, *args)

    monkeypatch.setattr(chemhill.scheme, "step", recorded)
    traj = run(cosine_scenario(g, params, c2=0.0), TIGHT)
    assert traj.f is None
    assert len(sources) == params.N and all(f is sources[0] for f in sources)
    assert not np.any(sources[0]) and not np.any(traj.mu[0])


def test_smoke_run_power_graph_bounded_states():
    g = make_grid(1, 64)
    params = SimParams(eps=0.1, lam=0.05, N=32, T=0.5, eta=0.5)
    traj = run(cosine_scenario(g, params, c2=0.0, smooth=True))
    assert len(traj.u) == 33
    for u in traj.u:
        assert np.all(np.isfinite(u))
        assert norm_l4(g, u) < 10.0


def test_smoothing_preserves_mean_and_state_potentials_consistent():
    g = make_grid(1, 64)
    params = SimParams(eps=0.1, lam=0.05, N=4, T=0.05)
    sc = cosine_scenario(g, params, c2=0.0, amp=0.8, smooth=True)
    sc = replace(sc, u0=sc.u0 + np.full(g.shape, 0.2))
    traj = run(sc, TIGHT)
    assert mean(g, traj.u[0]) == pytest.approx(mean(g, sc.u0), abs=1e-13)
    for u, v in zip(traj.u, traj.v):
        back = helmholtz_solve(g, u, TIGHT)
        assert np.max(np.abs(back - v)) <= 1e-11


def test_run_failure_attaches_partial_trajectory():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=8, T=0.1, eta=0.5)
    bad = SolverOptions(max_newton=1)  # one Newton iteration per step cannot meet the tolerance
    with pytest.raises(StepFailure) as info:
        run(cosine_scenario(g, params, c2=0.0), bad)
    assert info.value.trajectory is not None
    assert info.value.step_index == len(info.value.trajectory.u) - 1


@pytest.mark.parametrize("which", ["u", "v"])
def test_non_finite_step_fails_with_the_partial_trajectory(monkeypatch, which):
    # the density solve returns a NaN density (or K u) at step 2: a NaN u fails
    # the checked mu solve, a NaN K u the step's own finite check. Either way
    # run attaches step_index 2 and levels 0..2, none of them uninitialized
    g = make_grid(1, 16)
    params = SimParams(eps=0.1, lam=0.05, N=6, T=0.05)
    calls = []
    real = chemhill.scheme.step_solve

    def nan_at_step_two(*args, **kwargs):
        u, ku, local = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 3:
            u, ku = (np.full_like(x, np.nan) if name == which else x for name, x in (("u", u), ("v", ku)))
        return u, ku, local

    monkeypatch.setattr(chemhill.scheme, "step_solve", nan_at_step_two)
    with np.errstate(all="ignore"), pytest.raises(SolverFailure) as info:
        run(cosine_scenario(g, params, c2=0.0))
    assert info.value.step_index == 2
    traj = info.value.trajectory
    assert len(traj.u) == len(traj.mu) == len(traj.v) == 3
    assert all(np.isfinite(x).all() for x in (traj.u, traj.mu, traj.v))


def test_run_rejects_failed_assumptions():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=4, T=0.05)
    sc = Scenario(
        grid=g,
        params=params,
        beta=BetaSpec("logit"),
        pi=PiSpec("zero"),
        u0=np.full(g.shape, 1.5),
    )
    with pytest.raises(ValueError, match="A5"):
        run(sc, TIGHT)


# ---------------------------------------------------------------------------
# a short run


@pytest.fixture(scope="module")
def short_traj():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.05, N=8, T=0.2, eta=0.5)
    u0 = np.cos(np.pi * g.axis)
    sc = Scenario(grid=g, params=params, beta=BetaSpec("power", c2=0.0), pi=PiSpec("zero"), u0=u0)
    return run(sc, TIGHT)


def test_subdifferential_inequality_along_run(short_traj):
    from chemhill.nonlinearity import beta_hat_eval

    b = BetaSpec("power", c2=0.0)
    g = short_traj.grid
    for prev, nxt in zip(short_traj.u, short_traj.u[1:]):
        du = nxt - prev
        lhs = np.vdot(beta_eval(b, nxt), du) * g.cell_volume
        gap = mean(g, beta_hat_eval(b, nxt)) - mean(g, beta_hat_eval(b, prev))
        assert lhs >= gap - 1e-10


def test_trajectory_csv_round_trip(tmp_path, short_traj):
    path = tmp_path / "traj.csv"
    save_trajectory_csv(short_traj, path)
    back = load_trajectory_csv(path, short_traj.grid, short_traj.params)
    assert len(back.u) == len(short_traj.u)
    assert np.array_equal(back.u, short_traj.u)
    assert np.array_equal(back.mu, short_traj.mu)
    assert np.array_equal(back.v, short_traj.v)


def _random_trajectory(d, n, N):
    # values across the exponent range, with signed zeros and extremes
    g = make_grid(d, n)
    params = SimParams(eps=0.1, lam=0.05, N=N, T=0.05)
    rng = np.random.default_rng(11)
    levels = []
    for k in range(params.N + 1):
        u, mu, v = rng.standard_normal((3, *g.shape)) * 10.0 ** rng.integers(-20, 20, (3, *g.shape))
        u.flat[0], mu.flat[1], v.flat[2] = -0.0, 1e-300, -1e-300
        levels.append((u, mu, v))
    u, mu, v = (np.stack(x) for x in zip(*levels))
    return Trajectory(g, params, u, mu, v)


@pytest.mark.parametrize(
    "line, edit, T_scale, message",
    [
        # node 2 of the first snapshot written as a second node 1
        pytest.param(3, lambda f: [f[0], "1"] + f[2:], 1.0, "trajectory csv line 4: second row for t=0, node 1", id="repeated-node"),
        pytest.param(2, lambda f: [f[0], "99"] + f[2:], 1.0, "trajectory csv line 3: node 99 outside 0..7", id="node-out-of-range"),
        pytest.param(2, lambda f: f[:3] + f[4:], 1.0, "trajectory csv line 3: expected 5 values, found 4", id="short-row"),
        pytest.param(
            2, lambda f: f[:2] + ["abc"] + f[3:], 1.0, "trajectory csv line 3: could not convert string to float: 'abc'", id="bad-token"
        ),
        pytest.param(2, lambda f: f[:3] + ["nan"] + f[4:], 1.0, "trajectory csv line 3: non-finite entry", id="nan"),
        pytest.param(2, lambda f: f[:4] + ["inf\r\n"], 1.0, "trajectory csv line 3: non-finite entry", id="inf"),
        # written at T = 0.05, read under T = 0.025: every time but 0 is off n*h
        pytest.param(None, None, 0.5, "snapshot 1 at t=0.016666666666666666, expected n*h = ", id="rescaled-times"),
    ],
)
def test_trajectory_csv_load_rejects_what_it_would_reinterpret(tmp_path, line, edit, T_scale, message):
    traj = _random_trajectory(1, 8, 3)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    if line is not None:
        with open(path, newline="") as fh:
            lines = fh.readlines()
        lines[line] = ",".join(edit(lines[line].split(",")))
        with open(path, "w", newline="") as fh:
            fh.writelines(lines)
    params = replace(traj.params, T=traj.params.T * T_scale)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_trajectory_csv(path, traj.grid, params)


def _forced_fork(monkeypatch):
    # every writer call splits: three CPUs, and a threshold any chunk meets
    monkeypatch.setattr(chemhill.scheme, "_FORK_MIN_VALUES", 1)
    monkeypatch.setattr(chemhill.scheme.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)


def test_trajectory_csv_bytes_match_csv_writer_oracle(tmp_path, monkeypatch):
    # both writer paths, 1D and 2D. Stride 3 on N = 5 writes levels 0 and 3
    # plus the forced final level; forked, that is three one-snapshot chunks,
    # so the final level falls in the last child's chunk
    forks = _recording(monkeypatch, chemhill.scheme.os, "fork")
    for path_kind in ("serial", "forked"):
        if path_kind == "forked":
            _forced_fork(monkeypatch)
        for d, n in ((1, 16), (2, 4)):
            traj = _random_trajectory(d, n, 5)
            for stride in (1, 3):
                path = tmp_path / f"traj{path_kind}{d}{stride}.csv"
                save_trajectory_csv(traj, path, stride=stride)
                assert path.read_bytes() == oracles.trajectory_csv_bytes(traj, stride=stride)
            times = {line.split(",")[0] for line in path.read_text().splitlines()[1:]}
            assert len(times) == 3
        if path_kind == "serial":
            assert forks == []
    assert len(forks) == 8  # two children per write, four writes
    written = {f"traj{k}{d}{s}.csv" for k in ("serial", "forked") for d in (1, 2) for s in (1, 3)}
    assert set(os.listdir(tmp_path)) == written


def test_forked_trajectory_writer_failure_leaves_no_child_or_part(tmp_path, monkeypatch):
    # a child whose formatting raises: OSError here, every child reaped and
    # no part file left, only the partial trajectory.csv
    _forced_fork(monkeypatch)
    parent = os.getpid()
    real = chemhill.scheme._format_g17

    def failing_in_children(x):
        if os.getpid() != parent:
            raise RuntimeError("formatting failed")
        return real(x)

    monkeypatch.setattr(chemhill.scheme, "_format_g17", failing_in_children)
    with pytest.raises(OSError, match="exited with status"):
        save_trajectory_csv(_random_trajectory(2, 4, 5), tmp_path / "trajectory.csv")
    assert os.listdir(tmp_path) == ["trajectory.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _g17_texts(x):
    chars, keep = chemhill.scheme._format_g17(x)
    return [c[k].tobytes() for c, k in zip(chars, keep)]


def _percent_g17(x):
    return [("%.17g" % v).encode() for v in x.tolist()]


_POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-323, 309)])
_BIG = np.finfo(np.float64).max


@pytest.mark.parametrize(
    "values, certified",
    [
        pytest.param([0.0, -0.0], True, id="zeros-inline"),
        pytest.param([5e-324, -5e-324, 2.2250738585072014e-308], False, id="subnormal-and-tiny"),
        pytest.param([_BIG, -_BIG], False, id="largest-double"),
        pytest.param([1e-250, -1e-250, 1e250, -1e250], True, id="range-edges-inside"),
        pytest.param(
            [np.nextafter(1e-250, 0.0), -np.nextafter(1e-250, 0.0), np.nextafter(1e250, np.inf)], False, id="range-edges-outside"
        ),
        # doubles just below 10**k whose 17 digits round up to 10**17 and
        # carry, so they print as '1e-243'
        pytest.param([1e-243, 1e-176, 1e-79, 1e-14, 1e98, 1e220, -1e153], True, id="carry-to-1e17"),
        # 1 + 2**-17 = 1.00000762939453125: the 18th digit is an exact tie
        pytest.param([1 + 2**-17, 9 + 2**-17, 3 + 5 * 2**-17, -(0.5 + 2**-18)], False, id="exact-binary-ties"),
        pytest.param(
            np.concatenate([_POWERS_OF_TEN, np.nextafter(_POWERS_OF_TEN, 0.0), np.nextafter(_POWERS_OF_TEN, np.inf)]),
            None,
            id="powers-of-ten-and-neighbours",
        ),
        pytest.param(
            [1e16, 1e17, 99999999999999984.0, 12345678901234568.0, 0.0001, 0.00012345, 9.9999e-5], True, id="layout-switches"
        ),
        pytest.param([float(f"1e{k}") for k in range(23)], True, id="exact-powers-of-ten"),
    ],
)
def test_g17_formatter_edge_cases_match_percent_g(values, certified):
    # the bytes are '%.17g' whatever formats them; where the certificate
    # fails (out of [1e-250, 1e250], a tie) CPython's own formatting is used
    x = np.array(values, dtype=np.float64)
    assert _g17_texts(x) == _percent_g17(x)
    got = chemhill.scheme._g17_digits(x)[2]
    if certified is None:  # out of range falls back; inside, a neighbour may be a tie
        assert not got[(np.abs(x) < 1e-250) | (np.abs(x) > 1e250)].any()
    else:
        assert (got == certified).all()


@settings(max_examples=120)
@given(
    bits=hnp.arrays(np.uint64, st.integers(1, 400), elements=st.integers(0, 2**64 - 1)),
    floats=hnp.arrays(np.float64, st.integers(0, 100), elements=st.floats(allow_nan=False, allow_infinity=False)),
)
def test_g17_formatter_matches_percent_g_on_any_finite_double(bits, floats):
    x = np.concatenate([bits.view(np.float64), floats])
    x = x[np.isfinite(x)]
    assert _g17_texts(x) == _percent_g17(x)


def test_two_dimensional_run_conserves_mass():
    g = make_grid(2, 12)
    params = SimParams(eps=0.2, lam=0.05, N=4, T=0.05, eta=0.3)
    xx, yy = g.coords()
    u0 = 0.5 * np.cos(np.pi * xx) * np.cos(np.pi * yy)
    sc = Scenario(grid=g, params=params, beta=BetaSpec("power", c2=0.0), pi=PiSpec("zero"), u0=u0)
    traj = run(sc, TIGHT)
    h = params.h
    m0 = mean(g, traj.u[0])
    for u, mu in zip(traj.u, traj.mu):
        assert abs(mean(g, u + h * mu) - m0) <= 1e-10


def _step_inputs(d, n, family):
    # nonzero mu_n, a nonzero potential source and eta > 0, so every term of
    # the right-hand side is exercised
    g = make_grid(d, n)
    params = SimParams(eps=0.1, lam=0.01, N=16, T=0.01, eta=0.5)
    ax = np.cos(np.pi * g.axis)
    prof = ax if d == 1 else np.outer(ax, 0.5 + 0.5 * ax)
    u = 0.6 * prof
    mu = 0.3 * np.cos(2.0 * np.pi * g.axis) if d == 1 else 0.3 * np.outer(ax, ax)
    f_next = 0.2 * np.roll(prof, 1)
    return (g, u, mu, helmholtz_solve(g, u)), f_next, params, BetaSpec(family, c2=0.0), PiSpec("zero")


def _recording(monkeypatch, module, name):
    # replaces module.<name> by a wrapper; returns the list of its call arguments
    calls = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("start", ["logit", "logit-clipped", "power"])
def test_step_reuses_the_newton_transforms(monkeypatch, start):
    # two shifted solves, K(mu_n - adv_n) and mu_{n+1}. The Newton solve's
    # first residual takes K u_n from the stored v_n unless the bounded-graph
    # clip moved the start, and v_{n+1} is the K u of its accepted residual:
    # two transform applies fewer than three solves plus the Newton solve alone
    prev, f_next, params, b, p = _step_inputs(2, 8, start.split("-")[0])
    if start == "logit-clipped":
        g, u, mu, _ = prev
        u = u.copy()
        u[0, 0] = 1.0 - 1e-14
        prev = (g, u, mu, helmholtz_solve(g, u))
    solves = _recording(monkeypatch, chemhill.scheme, "helmholtz_solve")
    newton = _recording(monkeypatch, chemhill.scheme, "step_solve")
    applies = _recording(monkeypatch, chemhill.elliptic, "_dct_apply")
    step(*prev, f_next, params, b, p)
    in_step = len(applies)
    g, params, b, p, rhs, warm, opts = newton[0]
    applies.clear()
    step_solve(g, params, b, p, rhs, warm, opts)
    assert len(solves) == 2
    assert in_step == 3 + len(applies) - (1 if start == "logit-clipped" else 2)


@pytest.mark.parametrize("family", ["logit", "power"])
@pytest.mark.parametrize("d,n", [(1, 16), (2, 8)])
def test_step_with_the_carried_part_makes_one_stencil_fewer(monkeypatch, d, n, family):
    # the carried rhs-free part stands in for the first Newton residual's
    # stencil and graph evaluation; the level is bitwise the one without it,
    # and the part a step returns is bitwise the plain expression at its u
    (g, *level), f_next, params, b, p = _step_inputs(d, n, family)
    *level, local = step(g, *level, f_next, params, b, p)
    eps, lam, h = params.eps, params.lam, params.h
    u = level[0]
    fresh = lam * u - eps * h * laplacian_apply(g, u) + h * beta_eval(b, u) + h * pi_eval(p, eps, u)
    assert np.array_equal(local, fresh)
    stencils = _recording(monkeypatch, chemhill.elliptic, "_laplacian")
    without = step(g, *level, f_next, params, b, p)
    fresh_count = len(stencils)
    stencils.clear()
    carried = step(g, *level, f_next, params, b, p, None, local)
    assert len(stencils) == fresh_count - 1
    for x, y in zip(carried, without):
        assert np.array_equal(x, y)


def test_step_recomputes_the_carried_part_where_the_clip_moves_the_start(monkeypatch):
    # a logit start at 1 - 1e-14 is clipped to 1 - 1e-12: the carried part,
    # here all NaN so that a read of it would fail the step, is not used
    (g, u, mu, _), f_next, params, b, p = _step_inputs(2, 8, "logit")
    u = u.copy()
    u[0, 0] = 1.0 - 1e-14
    v = helmholtz_solve(g, u)
    stencils = _recording(monkeypatch, chemhill.elliptic, "_laplacian")
    got = step(g, u, mu, v, f_next, params, b, p, None, np.full(g.shape, np.nan))
    carried_count = len(stencils)
    stencils.clear()
    want = step(g, u, mu, v, f_next, params, b, p)
    assert carried_count == len(stencils)
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("family", ["logit", "power"])
def test_step_builds_only_the_new_states_fields(family):
    # a step works on arrays: its new level is three plain arrays on the grid
    prev, f_next, params, b, p = _step_inputs(2, 8, family)
    g = prev[0]
    *new, _ = step(*prev, f_next, params, b, p)
    assert [(type(x), x.shape) for x in new] == [(np.ndarray, g.shape)] * 3
    assert not hasattr(chemhill.grid, "Field")


@pytest.mark.parametrize("opts", [None, TIGHT], ids=["default", "polish"])
@pytest.mark.parametrize("family", ["logit", "power"])
@pytest.mark.parametrize("d,n", [(1, 48), (2, 12)])
def test_step_potential_is_bitwise_the_shifted_solve(d, n, family, opts):
    # the Trajectory invariant, over two steps: the second starts from a reused
    # v and the carried residual part
    (g, *level), f_next, params, b, p = _step_inputs(d, n, family)
    local = None
    for _ in range(2):
        *level, local = step(g, *level, f_next, params, b, p, opts, local)
        assert np.array_equal(level[2], helmholtz_solve(g, level[0]))


@pytest.mark.parametrize("family", ["logit", "power"])
@pytest.mark.parametrize("d,n", [(1, 48), (2, 12)])
def test_step_matches_four_solve_oracle(d, n, family):
    prev, f_next, params, b, p = _step_inputs(d, n, family)
    got = step(*prev, f_next, params, b, p, TIGHT)
    want = oracles.four_solve_step(*prev, f_next, params, b, p, TIGHT)
    for x, ref in zip(got, want):
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
