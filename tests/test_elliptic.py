import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemhill.diagnostics
import chemhill.elliptic as elliptic
import chemhill.limits
import chemhill.nonlinearity as nl

from chemhill.elliptic import (
    CompatibilityError,
    SolverFailure,
    SolverOptions,
    StepFailure,
    _dct_apply,
    _dct_matrix,
    _eigenvalues,
    helmholtz_solve,
    neumann_poisson_solve,
    step_solve,
    v0star_norm,
    vstar_norm,
)
from chemhill.grid import inner_h, laplacian_apply, make_grid, mean, norm_h, norm_v, seminorm_v
from chemhill.nonlinearity import BetaSpec, PiSpec, beta_eval, beta_prime, pi_eval, yosida
from chemhill.scheme import SimParams

import oracles


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(lin_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_newton=0)


@pytest.mark.parametrize(
    "bad",
    [
        {"lin_tol": np.nan},
        {"lin_tol": np.inf},
        {"lin_tol": -1e-11},
        {"newton_tol": np.nan},
        {"newton_tol": np.inf},
        {"newton_tol": 0.0},
        {"max_newton": 2.5},
        {"max_newton": "3"},
    ],
    ids=lambda bad: "-".join(f"{k}={v!r}" for k, v in bad.items()),
)
def test_solver_options_reject_unusable_values(bad):
    # a NaN tolerance would pass or fail every residual check whatever the residual
    with pytest.raises(ValueError):
        SolverOptions(**bad)
    SolverOptions(**{key: 1 if key == "max_newton" else 1e-3 for key in bad})


def test_helmholtz_constants_are_fixed_points():
    g = make_grid(1, 64)
    w = helmholtz_solve(g, np.full(g.shape, 2.5))
    assert np.max(np.abs(w - 2.5)) <= 1e-12


@pytest.mark.parametrize("d,k", [(1, 2), (2, 1)])
def test_helmholtz_mode_solution(d, k):
    g = make_grid(d, 128 if d == 1 else 32)
    vals = oracles.mode_values(g, k)
    a = d * oracles.mode_eigenvalue(g.n, k)
    w = helmholtz_solve(g, vals)
    assert np.max(np.abs(w - vals / (1.0 + a))) <= 1e-12
    if d == 1:
        analytic = vals / (1.0 + (k * np.pi) ** 2)
        assert np.max(np.abs(w - analytic)) <= 1e-4


def test_helmholtz_self_adjoint_and_contractive():
    g = make_grid(2, 16)
    rng = np.random.default_rng(0)
    for _ in range(20):
        r1 = rng.standard_normal(g.shape)
        r2 = rng.standard_normal(g.shape)
        k1, k2 = helmholtz_solve(g, r1), helmholtz_solve(g, r2)
        s1, s2 = inner_h(g, k1, r2), inner_h(g, r1, k2)
        assert abs(s1 - s2) <= 1e-11 * max(1.0, abs(s1))
        assert norm_h(g, k1) <= norm_h(g, r1) + 1e-12


def test_neumann_poisson_mode_and_edge_cases():
    g = make_grid(1, 128)
    vals = oracles.mode_values(g, 1)
    a = oracles.mode_eigenvalue(g.n, 1)
    w = neumann_poisson_solve(g, vals)
    assert abs(mean(g, w)) <= 1e-12
    assert np.max(np.abs(w - vals / a)) <= 1e-10
    assert np.max(np.abs(w - vals / np.pi**2)) <= 1e-4
    zero = neumann_poisson_solve(g, np.zeros(g.shape))
    assert np.max(np.abs(zero)) == 0.0
    with pytest.raises(CompatibilityError):
        neumann_poisson_solve(g, np.ones(g.shape))


def test_source_potential_weak_form():
    g = make_grid(1, 64)
    gv = np.pi**2 * oracles.mode_values(g, 1)
    f = neumann_poisson_solve(g, gv)
    assert np.max(np.abs(f - oracles.mode_values(g, 1))) <= 2e-3
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.standard_normal(g.shape)
        lhs = -inner_h(g, laplacian_apply(g, f), z)
        rhs = inner_h(g, gv, z)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_dual_norms():
    g = make_grid(1, 64)
    one = np.ones(g.shape)
    assert vstar_norm(g, one) == pytest.approx(1.0, abs=1e-12)
    assert vstar_norm(g, np.zeros(g.shape)) == 0.0
    vals = oracles.mode_values(g, 1)
    a = oracles.mode_eigenvalue(g.n, 1)
    got = vstar_norm(g, vals) ** 2
    assert got == pytest.approx(0.5 / (1.0 + a), abs=1e-12)
    assert got == pytest.approx(0.5 / (1.0 + np.pi**2), abs=1e-3)
    with pytest.raises(CompatibilityError):
        v0star_norm(g, one)


def _dual_norm_data(g, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.standard_normal(g.shape)
    return sum(rng.standard_normal() * oracles.mode_values(g, k) for k in range(4))


@pytest.mark.parametrize("kind", ["random", "smooth"])
@pytest.mark.parametrize("d,n", [(1, 4), (1, 48), (1, 127), (2, 4), (2, 24)])
def test_dct_coefficients_match_scipy(d, n, kind):
    g = make_grid(d, n)
    stack = np.stack([_dual_norm_data(g, kind, seed) for seed in range(3)])
    want = oracles.dct_coefficients(stack)
    got = elliptic._dct_coefficients(stack)
    assert got.shape == stack.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["random", "smooth"])
@pytest.mark.parametrize("d,n", [(1, 64), (2, 24)])
def test_dual_norms_match_solve_oracle(d, n, kind):
    g = make_grid(d, n)
    r = _dual_norm_data(g, kind, 7)
    r0 = r - r.mean()
    assert vstar_norm(g, r) == pytest.approx(oracles.solve_vstar_norm(g, r), rel=1e-13)
    assert v0star_norm(g, r0) == pytest.approx(oracles.solve_v0star_norm(g, r0), rel=1e-13)


def test_dual_norms_closed_form_on_a_fine_grid():
    # a cosine mode is an eigenvector of the solve operators' symbol ev, so
    # (r, K r)_h = |r|_h^2 / (1 - ev_k) and (r, (-Lap)^(-1) r)_h = |r|_h^2 / (-ev_k);
    # the spectral sums make no solve, so no residual check can fail on this grid
    g = make_grid(1, 2048)
    r = oracles.mode_values(g, 1)
    ev = _eigenvalues(1, g.n)[1]
    assert vstar_norm(g, r) ** 2 == pytest.approx(norm_h(g, r) ** 2 / (1.0 - ev), rel=1e-13)
    assert v0star_norm(g, r) ** 2 == pytest.approx(norm_h(g, r) ** 2 / -ev, rel=1e-13)


@pytest.mark.parametrize("solver", ["shifted", "poisson", "step", "direction"])
def test_repeat_solve_builds_no_new_symbol(solver):
    # the inverse symbols, the Newton symbol K - eps*h*Lap with its minimum
    # and the operator norms come from cached tables, not from each call
    g = make_grid(2, 10)
    rhs = 0.3 * oracles.mode_values(g, 1)
    solve = {
        "shifted": lambda: helmholtz_solve(g, rhs, alpha=0.3),
        "poisson": lambda: neumann_poisson_solve(g, rhs),
        "step": lambda: step_solve(g, _params(), BetaSpec("power"), PiSpec("zero"), rhs, rhs),
        "direction": lambda: elliptic._newton_direction(g, np.full(g.shape, 0.5), 1e-3, rhs, 1.0, [], 0.0),
    }[solver]
    solve()
    tables = (
        elliptic._inverse_symbol,
        elliptic._eigenvalues,
        elliptic._dct_matrix,
        elliptic._dct_transpose,
        elliptic._newton_symbol,
        elliptic._op_norm,
    )
    misses = [t.cache_info().misses for t in tables]
    newton_hits = elliptic._newton_symbol.cache_info().hits
    solve()
    assert [t.cache_info().misses for t in tables] == misses
    if solver in ("step", "direction"):  # the repeated directions read the cached symbol
        assert elliptic._newton_symbol.cache_info().hits > newton_hits


@pytest.mark.parametrize("module", [chemhill.diagnostics, chemhill.limits])
def test_post_processing_binds_no_transform_or_symbol(module):
    # the dual pairings come from elliptic.dual_coefficients alone
    spectral = (
        "_dct_apply",
        "_dct_coefficients",
        "_dct_matrix",
        "_dct_transpose",
        "_dct_phase",
        "_eigenvalues",
        "_inverse_symbol",
    )
    assert not set(spectral) & set(vars(module))
    spectral_objects = [getattr(elliptic, name) for name in spectral]
    assert not [v for v in vars(module).values() if any(v is f for f in spectral_objects)]


def test_dual_coefficients_pair_as_the_solve_oracle():
    # plain products of the weighted coefficients are the dual pairings
    g = make_grid(2, 12)
    a, b = (_dual_norm_data(g, "random", seed) for seed in (1, 2))
    w = elliptic.dual_coefficients(g, np.stack([a, b]), 1.0)
    want = inner_h(g, a, oracles.refined_shifted_solve(b))
    assert float(np.sum(w[0] * w[1])) == pytest.approx(want, rel=1e-13)
    with pytest.raises(ValueError, match="grid mismatch"):
        elliptic.dual_coefficients(make_grid(2, 8), np.stack([a]), 1.0)


def _params(eps=0.1, lam=0.01, N=50, T=1.0, eta=0.0, c3=0.0):
    return SimParams(eps=eps, lam=lam, N=N, T=T, eta=eta, c3=c3)


@pytest.mark.parametrize("family", ["linear", "power", "logit", "abs_logit"])
def test_step_solve_zero_rhs_gives_zero(family):
    g = make_grid(1, 32)
    params = _params()
    rhs = np.zeros(g.shape)
    warm = 0.3 * np.sin(2 * np.pi * g.axis)
    u, _, _ = step_solve(g, params, BetaSpec(family), PiSpec("zero"), rhs, warm)
    assert norm_h(g, u) <= 1e-10


def test_step_solve_matches_independent_linear_route():
    g = make_grid(1, 64)
    params = _params(N=100)
    rng = np.random.default_rng(3)
    rhs_vals = rng.standard_normal(g.shape)
    opts = SolverOptions(newton_tol=1e-13)
    u, _, _ = step_solve(g, params, BetaSpec("linear"), PiSpec("zero"), rhs_vals, np.zeros(g.shape), opts)
    want = oracles.linear_step_solution(g.n, params.lam, params.eps, params.h, rhs_vals)
    assert np.max(np.abs(u - want)) <= 1e-9


def test_step_solve_matches_dense_power_oracle_2d():
    # the matrix-free Newton direction against a dense Newton that shares no code with it
    g = make_grid(2, 8)
    params = _params(N=100)
    rng = np.random.default_rng(11)
    rhs_vals = rng.standard_normal(g.shape)
    opts = SolverOptions(newton_tol=1e-13)
    u, v, _ = step_solve(g, params, BetaSpec("power", m=3), PiSpec("zero"), rhs_vals, np.zeros(g.shape), opts)
    want = oracles.power_step_solution_2d(g.n, params.lam, params.eps, params.h, 3, rhs_vals)
    assert np.max(np.abs(u - want)) <= 1e-9
    # v = K u is the transform of the accepted residual, bitwise the shifted solve
    assert np.array_equal(v, helmholtz_solve(g, u, opts))


def test_step_solve_unconverged_direction_raises(monkeypatch):
    # a Newton direction that misses its CG tolerance is never used; with
    # both the relative stop and the tolerance floor at 0 it cannot be met
    monkeypatch.setattr(elliptic, "_PCG_RTOL", 0.0)
    monkeypatch.setattr(elliptic, "_NEWTON_FORCING", 0.0)
    g = make_grid(1, 16)
    rhs = np.cos(np.pi * g.axis)
    with pytest.raises(StepFailure, match="Newton direction CG") as info:
        step_solve(g, _params(), BetaSpec("power"), PiSpec("zero"), rhs, np.zeros(g.shape))
    assert info.value.residual is not None


@pytest.mark.parametrize(
    "rtol,floor,named",
    [(1e-30, 0.0, "relative residual 1e-30"), (0.0, 1e-300, "the tolerance floor 1.000e-300")],
    ids=["relative", "floor"],
)
def test_newton_direction_failure_names_the_stop_it_used(monkeypatch, rtol, floor, named):
    monkeypatch.setattr(elliptic, "_PCG_RTOL", rtol)
    g = make_grid(1, 16)
    rhs = np.cos(np.pi * g.axis)
    coef = 0.5 + 0.2 * rhs  # a constant coef is inverted exactly in one iteration
    with pytest.raises(StepFailure, match=f"Newton direction CG missed {named} in 16 iterations"):
        elliptic._newton_direction(g, coef, 1e-3, rhs, 1.0, [], floor)


def _floor_case(case):
    # a bounded-graph step whose solution reaches about 0.7, from 4-5 Newton
    # directions: (grid, params, graph, rhs)
    if case == "1d-abs_logit":
        g = make_grid(1, 64)
        rhs = 0.1 * np.cos(np.pi * g.axis) + 0.0125 * np.random.default_rng(21).standard_normal(g.shape)
        return g, _params(), BetaSpec("abs_logit"), rhs
    g = make_grid(2, 16)
    rhs = 0.1 * oracles.mode_values(g, 1) + 0.0125 * np.random.default_rng(22).standard_normal(g.shape)
    return g, _params(), BetaSpec("logit"), rhs


def _counted_step(monkeypatch, g, params, b, rhs, opts):
    # the step's solution with its _newton_direction and _dct_apply counts
    directions = _count_calls(monkeypatch, "_newton_direction")
    applies = _count_calls(monkeypatch, "_dct_apply")
    u, _, _ = step_solve(g, params, b, PiSpec("zero"), rhs, np.zeros(g.shape), opts)
    monkeypatch.undo()
    return u, len(directions), len(applies)


@pytest.mark.parametrize("case", ["1d-abs_logit", "2d-logit"])
def test_floored_directions_keep_the_newton_path(monkeypatch, case):
    # stopping each direction's CG at a thousandth of the Newton tolerance
    # takes the same Newton directions with fewer transforms, and the
    # accepted iterate still meets newton_tol on a recomputed true residual;
    # two iterates within tol of the one solution of an equation monotone
    # with constant lam lie within 2*tol/lam of each other
    g, params, b, rhs = _floor_case(case)
    opts = SolverOptions()
    u, directions, applies = _counted_step(monkeypatch, g, params, b, rhs, opts)
    monkeypatch.setattr(elliptic, "_NEWTON_FORCING", 0.0)
    u_full, directions_full, applies_full = _counted_step(monkeypatch, g, params, b, rhs, opts)
    assert directions == directions_full >= 3
    assert applies < applies_full
    h = params.h
    r = params.lam * u - params.eps * h * laplacian_apply(g, u) + h * beta_eval(b, u) + helmholtz_solve(g, u) - rhs
    tol = opts.newton_tol * max(1.0, norm_h(g, rhs))
    assert norm_h(g, r) <= tol
    assert norm_h(g, u - u_full) <= 2.0 * tol / params.lam


def test_polish_direction_keeps_full_accuracy(monkeypatch):
    # the Newton directions stop at the tolerance floor, the polish correction at 1e-13 relative
    g, params, b, rhs = _floor_case("2d-logit")
    floors = []
    real = elliptic._newton_direction

    def recorded(*args):
        floors.append(args[-1])
        return real(*args)

    monkeypatch.setattr(elliptic, "_newton_direction", recorded)
    step_solve(g, params, b, PiSpec("zero"), rhs, np.zeros(g.shape), SolverOptions(polish=True))
    tol = 1e-10 * max(1.0, norm_h(g, rhs))
    assert len(floors) >= 2
    assert floors[:-1] == [elliptic._NEWTON_FORCING * tol / np.sqrt(g.cell_volume)] * (len(floors) - 1)
    assert floors[-1] == 0.0


def test_step_solve_refuses_a_floor_that_overflows(monkeypatch):
    # the floor is forcing * tol / sqrt(h^d); a finite tol below the start
    # residual's H norm (at most about 1e154) keeps it finite at forcing 1e-3,
    # so the forcing is raised until forcing * tol is 1e307 and the grid's
    # factor sqrt(4096) = 64 overflows it. An infinite stop would accept the
    # first CG iterate
    g = make_grid(1, 4096)
    rhs = 3.0 * np.cos(np.pi * g.axis)
    opts = SolverOptions(newton_tol=0.5)
    tol = opts.newton_tol * norm_h(g, rhs)
    monkeypatch.setattr(elliptic, "_NEWTON_FORCING", 1e307 / tol)
    with np.errstate(all="ignore"), pytest.raises(StepFailure, match="CG stop overflows: its tolerance floor is inf"):
        step_solve(g, _params(), BetaSpec("power"), PiSpec("zero"), rhs, np.zeros(g.shape), opts)
    for floor in (np.inf, np.nan):
        with pytest.raises(StepFailure, match="CG stop overflows"):
            elliptic._newton_direction(g, np.ones(g.shape), 1e-3, rhs, 1.0, [], floor)


def test_boundary_theta_is_bitwise_the_two_sided_rule():
    # one quotient per entry, then abs, against the masked two-sided form:
    # (-1 - u)/du is bitwise (u + 1)/(-du), and the +-inf of a +-0 entry of du becomes +inf
    rng = np.random.default_rng(31)
    for draw in range(1000):
        shape = (int(rng.integers(1, 300)),) if draw % 2 else (int(rng.integers(1, 65)),) * 2
        u = rng.uniform(-1.0, 1.0, shape) * (1.0 - 10.0 ** -rng.uniform(0.0, 12.0))
        du = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12.0, 4.0, shape)
        zeros = rng.uniform(0.0, 1.0, shape) < 0.2
        du[zeros] = np.where(rng.uniform(0.0, 1.0, shape) < 0.5, 0.0, -0.0)[zeros]
        if draw % 7 == 0:
            du[...] = np.copysign(0.0, du)  # no bound at all: theta is 1
        assert elliptic._boundary_theta(u, du) == oracles.boundary_theta(u, du)


@pytest.mark.parametrize("family", ["power", "logit"])
def test_step_solve_warm_start_independence(family):
    g = make_grid(1, 32)
    params = _params()
    rng = np.random.default_rng(4)
    rhs = 0.5 * rng.standard_normal(g.shape)
    opts = SolverOptions(newton_tol=1e-12)
    u1, _, _ = step_solve(g, params, BetaSpec(family), PiSpec("zero"), rhs, np.zeros(g.shape), opts)
    u2, _, _ = step_solve(g, params, BetaSpec(family), PiSpec("zero"), rhs, 0.4 * np.cos(np.pi * g.axis), opts)
    assert norm_h(g, u1 - u2) <= 1e-9


@pytest.mark.parametrize("family", ["logit", "abs_logit"])
def test_step_solve_reversed_saturated_start(family):
    # damped Newton on the exact graph is globalized without a continuation
    # in the graph: from a start pushed against the opposite end of the
    # domain it reaches the solution at 1 - 1.6e-6
    g = make_grid(1, 32)
    params = _params()
    b = BetaSpec(family)
    rhs = 0.4 * np.cos(np.pi * g.axis)
    opts = SolverOptions(newton_tol=1e-12)
    u1, _, _ = step_solve(g, params, b, PiSpec("zero"), rhs, np.zeros(g.shape), opts)
    assert np.max(np.abs(u1)) > 0.99999
    u2, _, _ = step_solve(g, params, b, PiSpec("zero"), rhs, -0.99999 * np.sign(u1), opts)
    assert norm_h(g, u1 - u2) <= 1e-9


@pytest.mark.parametrize("shift", [1.0, 0.0], ids=["shifted", "poisson"])
def test_checked_solve_fails_on_a_non_finite_residual(shift):
    # NaN > limit is False, so a residual check written that way passes NaN
    g = make_grid(1, 16)
    b = np.cos(np.pi * g.axis)
    b[3] = np.inf
    with np.errstate(all="ignore"), pytest.raises(SolverFailure, match="residual nan exceeds"):
        elliptic._checked_solve(g, b, shift, 1.0, 1.0, "probe")


def test_step_solve_refuses_a_start_whose_norms_overflow():
    # the residual's H norm and the tolerance both overflow to inf, and
    # inf <= inf would accept the warm start unchanged
    g = make_grid(1, 16)
    rhs = 1e300 * np.cos(np.pi * g.axis)
    with np.errstate(all="ignore"), pytest.raises(StepFailure, match="Newton start overflows"):
        step_solve(g, _params(), BetaSpec("power", m=3), PiSpec("zero"), rhs, np.zeros(g.shape))


def test_checked_solve_refuses_a_tolerance_that_overflows():
    # |b| overflows, so lin_tol * max(1, |b|) is inf and would pass a wrong x of zeros
    g = make_grid(1, 16)
    b = 1e155 * np.cos(np.pi * g.axis)
    with np.errstate(all="ignore"), pytest.raises(SolverFailure, match="shifted Neumann solve residual check overflows"):
        elliptic._shifted_solve(g, b, 1.0, SolverOptions(), np.zeros(g.shape))
    with np.errstate(all="ignore"), pytest.raises(SolverFailure, match="overflows"):
        helmholtz_solve(g, b)
    # below the overflow the same check refuses the zeros
    with pytest.raises(SolverFailure, match="residual 2.828e\\+150 exceeds"):
        elliptic._shifted_solve(g, b / 1e5, 1.0, SolverOptions(), np.zeros(g.shape))


def test_newton_direction_refuses_a_right_hand_side_that_overflows():
    # an infinite CG stop would accept the first iterate
    g = make_grid(1, 16)
    with np.errstate(all="ignore"), pytest.raises(StepFailure, match="right-hand side overflows"):
        elliptic._newton_direction(g, np.ones(g.shape), 1e-3, np.full(g.shape, 1e160), 1.0, [], 0.0)


@settings(max_examples=40)
@given(exponent=st.integers(-300, 300), family=st.sampled_from(["linear", "power"]), seed=st.integers(0, 2**32 - 1))
def test_step_solve_meets_its_tolerance_or_raises(exponent, family, seed):
    # over right-hand sides from 1e-300 to 1e300 a returned u has a finite
    # recomputed residual within the finite tolerance; anything else raises
    g = make_grid(1, 16)
    params, b, p = _params(), BetaSpec(family, m=3), PiSpec("zero")
    rhs = 10.0**exponent * np.random.default_rng(seed).uniform(-1.0, 1.0, g.shape)
    opts = SolverOptions()
    with np.errstate(all="ignore"):
        try:
            u, _, _ = step_solve(g, params, b, p, rhs, np.zeros(g.shape), opts)
        except SolverFailure:
            return
        h = params.h
        r = params.lam * u - params.eps * h * laplacian_apply(g, u) + h * beta_eval(b, u) + helmholtz_solve(g, u) - rhs
        tol = opts.newton_tol * max(1.0, norm_h(g, rhs))
    assert np.isfinite(tol) and norm_h(g, r) <= tol


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_step_solve_stops_on_a_non_finite_start(monkeypatch, bad):
    # a non-finite right-hand side fails at once, before any Newton direction
    g = make_grid(1, 16)
    rhs = np.cos(np.pi * g.axis)
    rhs[5] = bad
    directions = _count_calls(monkeypatch, "_newton_direction")
    with np.errstate(all="ignore"), pytest.raises(StepFailure, match="non-finite residual"):
        step_solve(g, _params(), BetaSpec("power"), PiSpec("zero"), rhs, np.zeros(g.shape))
    assert directions == []


def test_solves_take_arrays_and_reject_other_shapes():
    # the solver layer works on arrays; a wrong shape is a grid mismatch
    g = make_grid(1, 16)
    rhs = np.cos(np.pi * g.axis)
    assert type(helmholtz_solve(g, rhs)) is np.ndarray
    assert not {"Field", "mean", "norm_h"} & set(vars(elliptic))
    for bad in (rhs[:8], np.outer(rhs, rhs), rhs[None]):
        for solve in (helmholtz_solve, neumann_poisson_solve, v0star_norm, vstar_norm):
            with pytest.raises(ValueError, match="grid mismatch"):
                solve(g, bad)
        with pytest.raises(ValueError, match="grid mismatch"):
            step_solve(g, _params(), BetaSpec("power"), PiSpec("zero"), bad, rhs)


def test_step_solve_rejects_stepsize_violation():
    g = make_grid(1, 32)
    params = SimParams(eps=0.5, lam=0.01, N=10, T=1.0, c3=1.0)
    rhs = np.zeros(g.shape)
    with pytest.raises(ValueError):
        step_solve(g, params, BetaSpec("power"), PiSpec("tanh_decay", c3=1.0), rhs, rhs)


def test_step_solve_failure_carries_history():
    g = make_grid(1, 32)
    params = _params()
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(g.shape)
    opts = SolverOptions(max_newton=1)  # one Newton iteration cannot meet the tolerance
    with pytest.raises(StepFailure, match="Newton used 1 iterations") as info:
        step_solve(g, params, BetaSpec("power"), PiSpec("zero"), rhs, np.zeros(g.shape), opts)
    assert info.value.residual is not None
    assert len(info.value.history) >= 1


def _count_graph_calls(monkeypatch, names):
    # calls of chemhill.nonlinearity.<name> for each name, in call order
    calls = []
    for name in names:
        real = getattr(nl, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(nl, name, counted)
    return calls


def test_zero_perturbation_is_never_evaluated(monkeypatch):
    # a zero perturbation adds nothing to the residual or the Newton
    # coefficient, so the step skips it and gives what a tanh perturbation
    # with budget 0 gives, whose terms are all +-0
    g, params, b, rhs = _floor_case("2d-logit")
    calls = _count_graph_calls(monkeypatch, ("pi_eval", "pi_prime"))
    want = step_solve(g, params, b, PiSpec("tanh_decay", c3=0.0), rhs, np.zeros(g.shape))
    assert {"pi_eval", "pi_prime"} <= set(calls)
    calls.clear()
    got = step_solve(g, params, b, PiSpec("zero"), rhs, np.zeros(g.shape))
    assert calls == []
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


def _newton_floor(g, params, b, u):
    # the residual's evaluation floor at u as the module docstring states it
    h = params.h
    coef = params.lam + h * beta_prime(b, u)
    lap_norm = -float(_eigenvalues(g.d, g.n).min())
    unit = (np.log2(g.node_count) + 16) * np.finfo(float).eps
    return unit * (norm_h(g, coef * u) + (1.0 + params.eps * h * lap_norm) * norm_h(g, u))


@pytest.mark.parametrize("family", ["logit", "power"])
def test_step_solve_accepts_at_the_evaluation_floor(family):
    # at 1D n=8192 evaluating the residual's eps*h*Lap u costs about
    # eps_mach * eps*h*|Lap|_2 * |u| = 2.4e-12, and Newton stagnated at
    # 4.9e-13 (logit) and 6.0e-13 (power) against newton_tol 1e-13; the step
    # is accepted below the floor instead
    g = make_grid(1, 8192)
    params = _params(N=16, T=0.01)
    b = BetaSpec(family)
    u0 = 0.9 * np.cos(np.pi * g.axis)
    rhs = params.lam * u0 + helmholtz_solve(g, u0) + 0.01 * np.cos(2 * np.pi * g.axis)
    u, _, _ = step_solve(g, params, b, PiSpec("zero"), rhs, u0, SolverOptions(newton_tol=1e-13))
    h = params.h
    r = params.lam * u - params.eps * h * laplacian_apply(g, u) + h * beta_eval(b, u) + helmholtz_solve(g, u) - rhs
    assert 1e-13 * max(1.0, norm_h(g, rhs)) < norm_h(g, r) <= _newton_floor(g, params, b, u)


def test_step_solve_accepts_a_saturated_step_at_its_floor():
    # the solution lies within 1.1e-8 of 1, where h*beta'(u) is about 2e6:
    # an ulp of u moves the residual by about 2e-10, and Newton stagnated at
    # 2.9e-11 against newton_tol 1e-12
    g = make_grid(1, 32)
    params, b = _params(), BetaSpec("logit")
    rhs = 0.5 * np.cos(np.pi * g.axis)
    u, _, _ = step_solve(g, params, b, PiSpec("zero"), rhs, np.zeros(g.shape), SolverOptions(newton_tol=1e-12))
    assert 1.0 - np.max(np.abs(u)) < 1e-7
    h = params.h
    r = params.lam * u - params.eps * h * laplacian_apply(g, u) + h * beta_eval(b, u) + helmholtz_solve(g, u) - rhs
    assert 1e-12 < norm_h(g, r) <= _newton_floor(g, params, b, u)


def test_newton_floor_reads_what_the_direction_forms(monkeypatch):
    # the floor takes its coefficient from the direction and makes no stencil,
    # transform or graph evaluation of its own: beta' once per direction, and
    # beta and one stencil per residual, plus the stencil of the final K check
    g, params, b, rhs = _floor_case("2d-logit")
    graph = _count_graph_calls(monkeypatch, ("beta_eval", "beta_prime"))
    stencils = _count_calls(monkeypatch, "_laplacian")
    directions = _count_calls(monkeypatch, "_newton_direction")
    step_solve(g, params, b, PiSpec("zero"), rhs, np.zeros(g.shape))
    assert len(directions) == graph.count("beta_prime") >= 3
    assert len(stencils) == graph.count("beta_eval") + 1


def test_step_operator_coercivity_probe():
    # the per-step operator gains min(lam - c3*eps*h, eps*h) in the V norm
    g = make_grid(1, 32)
    eps, lam, h, c3 = 0.1, 0.01, 0.02, 1.0
    b, p = BetaSpec("power", m=3), PiSpec("tanh_decay", c3=c3)
    const = min(lam - c3 * eps * h, eps * h)
    rng = np.random.default_rng(12)

    def apply_op(x):
        return (
            lam * x
            + helmholtz_solve(g, x)
            - eps * h * laplacian_apply(g, x)
            + h * beta_eval(b, x)
            + h * pi_eval(p, eps, x)
        )

    for _ in range(200):
        u = rng.standard_normal(g.shape)
        w = rng.standard_normal(g.shape)
        gain = inner_h(g, apply_op(u) - apply_op(w), u - w)
        assert gain >= const * norm_v(g, u - w) ** 2 - 1e-10


def test_pt_pairing_linear_graph_closed_form():
    g = make_grid(1, 64)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(g.shape)
    tau = 0.25
    bt = yosida(BetaSpec("linear"), tau, u)
    pairing = inner_h(g, -1.0 * laplacian_apply(g, u), bt)
    assert pairing == pytest.approx(seminorm_v(g, u) ** 2 / (1.0 + tau), rel=1e-12)
    assert pairing >= 0.0


_SPECTRAL_SIZES = [(1, 16), (1, 128), (1, 512), (1, 2048), (1, 8192), (2, 8), (2, 64), (2, 256)]


def _check_solution(g, b, w, shift, alpha, tol):
    # the documented residual check, |r| <= tol + 8 * eps_mach * |A|_2 * |w|,
    # and the forward error against scipy.fft's DCTs at the tolerance of
    # test_dct_apply_matches_scipy_oracle
    ev = _eigenvalues(g.d, g.n)
    eps = np.finfo(float).eps
    res = b - (shift * w - alpha * laplacian_apply(g, w))
    assert np.linalg.norm(res) <= tol + 8 * eps * (shift - alpha * ev.min()) * np.linalg.norm(w)
    den = shift - alpha * ev
    mult = np.divide(1.0, den, out=np.zeros_like(den), where=den != 0.0)
    growth = np.log2(2 * g.n) if g.d == 1 else g.n
    want = oracles.dct_diagonal_apply(b, mult)
    assert np.linalg.norm(w - want) <= 8 * eps * growth * np.max(np.abs(mult)) * np.linalg.norm(b)


def _solve_both_and_check(g, b, alpha):
    opts = SolverOptions()
    w = helmholtz_solve(g, b, opts, alpha=alpha)
    _check_solution(g, b, w, 1.0, alpha, opts.lin_tol * max(1.0, np.linalg.norm(b)))
    b0 = b - b.mean()
    f = neumann_poisson_solve(g, b0, opts)
    _check_solution(g, b0, f, 0.0, 1.0, opts.lin_tol * np.linalg.norm(b0))
    assert abs(mean(g, f)) <= 1e-14 * max(1.0, np.max(np.abs(f)))


@settings(max_examples=40)
@given(
    size=st.sampled_from(_SPECTRAL_SIZES),
    alpha=st.sampled_from([0.1, 1.0]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_solves_meet_stencil_residual_checks(size, alpha, scale, seed):
    d, n = size
    g = make_grid(d, n)
    _solve_both_and_check(g, scale * np.random.default_rng(seed).standard_normal(g.shape), alpha)


@pytest.mark.parametrize("n", [1024, 8192])
def test_residual_check_grants_the_evaluation_floor(n):
    # evaluating b - A x costs about 1e-16 * 4/dx^2 * |x| in roundoff, which
    # exceeds lin_tol * |b| for white noise on 1D n=1024 (seed 7, shifted:
    # 1.1e-9 against 3.0e-10); the check adds that floor, so both solves pass
    g = make_grid(1, n)
    _solve_both_and_check(g, np.random.default_rng(7).standard_normal(g.shape), 1.0)


def _multiplier(kind, d, n):
    ev = _eigenvalues(d, n)
    if kind == "shifted":
        return 1.0 / (1.0 - ev)
    if kind == "poisson":
        return np.divide(-1.0, ev, out=np.zeros_like(ev), where=ev != 0.0)
    return np.random.default_rng(n).standard_normal(ev.shape)


@pytest.mark.parametrize("kind", ["shifted", "poisson", "random"])
@pytest.mark.parametrize(
    "d,n", [(1, 4), (1, 5), (1, 7), (1, 64), (1, 255), (1, 256), (1, 1024), (2, 4), (2, 5), (2, 48), (2, 64), (2, 128)]
)
def test_dct_apply_matches_scipy_oracle(d, n, kind):
    mult = _multiplier(kind, d, n)
    x = np.random.default_rng(d * 10_000 + n).standard_normal((n,) * d)
    got = _dct_apply(x, mult)
    want = oracles.dct_diagonal_apply(x, mult)
    # both sides are orthogonal transforms, backward stable to a few ulps
    # times log2(2n) (FFT of length 2n) or n (dense products of length n)
    growth = np.log2(2 * n) if d == 1 else n
    tol = 8 * np.finfo(float).eps * growth * np.max(np.abs(mult)) * np.linalg.norm(x)
    assert got.shape == x.shape
    assert np.linalg.norm(got - want) <= tol


@pytest.mark.parametrize("n", [256, 2048, 8192])
def test_eigenvalues_keep_low_modes_accurate(n):
    # the lowest nonzero mode against -4 sin^2(pi/(2n)) n^2 in 40 digits;
    # 2cos(pi/n) - 2 cancels here (5.6e-10 relative at n=8192)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(-4 * mpmath.sin(mpmath.pi / (2 * n)) ** 2 * n**2)
    got = _eigenvalues(1, n)[1]
    assert abs(got - want) <= 4 * np.spacing(abs(want))


@pytest.mark.parametrize("n", [4, 5, 7, 48, 64, 128, 255])
def test_dct_matrix_is_orthonormal(n):
    c = _dct_matrix(n)
    assert not c.flags.writeable
    # the 2D apply's C^T is its own read-only, C-contiguous copy
    ct = elliptic._dct_transpose(n)
    assert not ct.flags.writeable and ct.flags.c_contiguous
    assert np.array_equal(ct, c.T)
    assert np.max(np.abs(c @ c.T - np.eye(n))) <= 1e-14
    assert np.max(np.abs(c.T @ c - np.eye(n))) <= 1e-14


def test_dct_apply_1d_result_owns_its_data():
    # a slice of the length-2n inverse-FFT buffer would make every stored
    # 1D field hold twice its memory
    g = make_grid(1, 64)
    x = np.random.default_rng(3).standard_normal(g.shape)
    out = _dct_apply(x, 1.0 / (1.0 - _eigenvalues(1, 64)))
    assert out.flags.owndata and out.base is None
    assert helmholtz_solve(g, x).flags.owndata


def _count_calls(monkeypatch, name, perturb_first=0.0):
    # counts elliptic.<name> calls; perturb_first scales the first result by
    # 1 + perturb_first, so a solve's residual misses its check
    calls = []
    real = getattr(elliptic, name)

    def counted(*args, **kwargs):
        calls.append(1)
        out = real(*args, **kwargs)
        return out * (1.0 + perturb_first) if len(calls) == 1 else out

    monkeypatch.setattr(elliptic, name, counted)
    return calls


@pytest.mark.parametrize("solver", ["shifted", "poisson"])
def test_spectral_solve_applies_once_and_checks_once(monkeypatch, solver):
    # one transform apply per solve, and a result off by 1e-6 relative is
    # refused, not refined
    g = make_grid(2, 16)
    b = np.random.default_rng(5).standard_normal(g.shape)
    b -= b.mean()
    solve = helmholtz_solve if solver == "shifted" else neumann_poisson_solve
    calls = _count_calls(monkeypatch, "_dct_apply")
    solve(g, b)
    assert len(calls) == 1
    monkeypatch.undo()
    calls = _count_calls(monkeypatch, "_dct_apply", perturb_first=1e-6)
    with pytest.raises(SolverFailure, match="solve residual"):
        solve(g, b)
    assert len(calls) == 1


def test_newton_direction_applies_no_stencil(monkeypatch):
    g = make_grid(2, 16)
    rng = np.random.default_rng(11)
    coef = 0.01 + rng.uniform(0.0, 50.0, g.shape)
    rhs = rng.standard_normal(g.shape)
    diffusion = 1e-3
    k_mult = 1.0 / (1.0 - _eigenvalues(2, 16))
    calls = _count_calls(monkeypatch, "_laplacian")
    x = elliptic._newton_direction(g, coef, diffusion, rhs, 1.0, [], 0.0)
    assert calls == []
    # the product without the stencil still solves the stencil system
    lap_x = laplacian_apply(g, x)
    a_x = coef * x - diffusion * lap_x + oracles.dct_diagonal_apply(x, k_mult)
    assert np.linalg.norm(a_x - rhs) <= 1e-12 * np.linalg.norm(rhs)


def _steep_coef(g):
    # coef from 0.01 to about 50: far outside the one-transform rule
    return 0.01 + np.random.default_rng(11).uniform(0.0, 50.0, g.shape)


def _direction_counts(monkeypatch, g, coef, rhs, diffusion=1e-3):
    # the direction, its _dct_apply count and its CG iterations; the loop takes
    # one residual norm (elliptic._norm) per iteration after the norm of rhs
    applies = _count_calls(monkeypatch, "_dct_apply")
    norms = _count_calls(monkeypatch, "_norm")
    x = elliptic._newton_direction(g, coef, diffusion, rhs, 1.0, [], 0.0)
    monkeypatch.undo()
    return x, len(applies), len(norms) - 1


def _rule_bound(g, c0, diffusion=1e-3):
    # min(c0 + sym): the largest coef - c0 the one-transform path accepts
    sym = 1.0 / (1.0 - _eigenvalues(g.d, g.n)) - diffusion * _eigenvalues(g.d, g.n)
    return c0 + float(sym.min())


@pytest.mark.parametrize("path", ["unscaled", "scaled"])
def test_newton_direction_zero_rhs_is_zero(monkeypatch, path):
    # the polish correction of a step that is already exact runs CG on a zero residual
    g = make_grid(2, 8)
    coef = np.full(g.shape, 0.5) if path == "unscaled" else _steep_coef(g)
    x, applies, _ = _direction_counts(monkeypatch, g, coef, np.zeros(g.shape))
    assert applies == 0
    assert np.array_equal(x, np.zeros(g.shape))


@pytest.mark.parametrize("path", ["unscaled", "scaled"])
def test_newton_direction_transforms_per_cg_iteration(monkeypatch, path):
    # a coef inside the rule makes one apply per CG iteration, the
    # preconditioner's (the start's and every iteration's but the last); a
    # steep one keeps the scaled loop, with a product apply per iteration too
    g = make_grid(2, 16)
    rng = np.random.default_rng(7)
    coef = 0.3 + 0.2 * rng.uniform(0.0, 1.0, g.shape) if path == "unscaled" else _steep_coef(g)
    x, applies, iterations = _direction_counts(monkeypatch, g, coef, rng.standard_normal(g.shape))
    assert iterations >= 3
    assert applies == (iterations if path == "unscaled" else 2 * iterations)


@pytest.mark.parametrize("side", ["inside", "outside"])
@pytest.mark.parametrize("d,n", [(1, 4096), (2, 128)])
def test_newton_direction_at_the_edge_of_the_rule(monkeypatch, d, n, side):
    # coef - c0 spans the whole rule bound, just inside or just outside it;
    # either path's direction solves the stencil system. diffusion is eps*h
    # at eps 0.1, h 1e-4: at 1e-3 the stencil residual of 1D n=4096 has an
    # evaluation floor eps_mach*|A|*|x| of 2.9e-12 relative, on either path
    g = make_grid(d, n)
    rng = np.random.default_rng(13)
    c0, diffusion = 0.01, 1e-5
    spread = (1.0 - 1e-9 if side == "inside" else 1.0 + 1e-9) * _rule_bound(g, c0, diffusion)
    coef = c0 + spread * rng.uniform(0.0, 1.0, g.shape)
    coef.flat[0], coef.flat[-1] = c0, c0 + spread
    rhs = rng.standard_normal(g.shape)
    x, applies, iterations = _direction_counts(monkeypatch, g, coef, rhs, diffusion)
    assert applies == (iterations if side == "inside" else 2 * iterations)
    lap_x = laplacian_apply(g, x)
    k_mult = 1.0 / (1.0 - _eigenvalues(d, n))
    a_x = coef * x - diffusion * lap_x + oracles.dct_diagonal_apply(x, k_mult)
    assert np.linalg.norm(a_x - rhs) <= 1e-12 * np.linalg.norm(rhs)
