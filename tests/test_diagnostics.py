from dataclasses import replace

import numpy as np
import pytest

from chemhill import diagnostics
from chemhill.cli import CosineSource
from chemhill.diagnostics import (
    DiagnosticsLedger,
    LEDGER_COLUMNS,
    _state_blocks,
    append_ledger_csv,
    build_ledger,
    check_growth_bound,
    check_pt_inequality,
    identity_report,
    smoothed_random_field,
)
from chemhill.elliptic import SolverOptions, helmholtz_solve
from chemhill.grid import make_grid
from chemhill.nonlinearity import BetaSpec, PiSpec, beta_eval, yosida
from chemhill.scheme import (
    Scenario,
    SimParams,
    Trajectory,
    load_trajectory_csv,
    run,
    save_trajectory_csv,
)

import oracles

# the setting check-identities uses: the identities are exact, so each step's
# Newton iteration is polished to its residual floor, not stopped inside tol
TIGHT = SolverOptions(newton_tol=1e-13, polish=True)

IDENTITY_ROWS = [
    "ubar_uhat_l2_identity",
    "reconstruction_increment_identity",
    "per_step_energy_balance",
    "mean_mass_invariant",
]


def manual_trajectory(g, params, u_levels, mu_levels):
    u = np.stack(u_levels)
    mu = np.stack(mu_levels)
    return Trajectory(g, params, u, mu, np.stack([helmholtz_solve(g, x) for x in u]))


def test_zero_trajectory_gives_zero_ledger():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.01, N=4, T=0.1)
    zero = np.zeros(g.shape)
    traj = manual_trajectory(g, params, [zero] * 5, [zero] * 5)
    led = build_ledger(traj, BetaSpec("power"))
    assert led.qvalues() == [0.0] * 12


def test_constant_trajectory_ledger_values():
    g = make_grid(1, 32)
    params = SimParams(eps=0.1, lam=0.01, N=4, T=0.1)
    m0 = 0.6
    b = BetaSpec("linear")
    u = np.full(g.shape, m0)
    mu = np.full(g.shape, beta_eval(b, m0))
    traj = manual_trajectory(g, params, [u] * 5, [mu] * 5)
    led = build_ledger(traj, b)
    for name in ("q1", "q2", "q4", "q7", "q8", "q9"):
        assert getattr(led, name) == 0.0
    assert led.q5 == pytest.approx(m0**4, rel=1e-12)


def test_ledger_reproducible_from_serialized_trajectory(tmp_path):
    g = make_grid(1, 48)
    params = SimParams(eps=0.1, lam=0.02, N=12, T=0.2, eta=0.5)
    u0 = np.cos(np.pi * g.axis)
    b = BetaSpec("power", c2=0.0)
    traj = run(Scenario(grid=g, params=params, beta=b, pi=PiSpec("zero"), u0=u0), TIGHT)
    led = build_ledger(traj, b)
    path = tmp_path / "t.csv"
    save_trajectory_csv(traj, path)
    led2 = build_ledger(load_trajectory_csv(path, g, params), b)
    for a, c in zip(led.qvalues(), led2.qvalues()):
        assert a == pytest.approx(c, rel=1e-12, abs=1e-300)


def test_ledger_h_uniformity_smoke():
    g = make_grid(1, 48)
    b = BetaSpec("power", c2=0.0)
    u0 = np.cos(np.pi * g.axis)
    leds = []
    for N in (32, 64):
        params = SimParams(eps=0.1, lam=0.01, N=N, T=0.4, eta=0.5)
        traj = run(Scenario(grid=g, params=params, beta=b, pi=PiSpec("zero"), u0=u0))
        leds.append(build_ledger(traj, b))
    for coarse, fine in zip(leds[0].qvalues(), leds[1].qvalues()):
        assert fine <= 2.0 * coarse + 1e-12


def _random_trajectory(d, n, N, family, seed):
    # independent random levels with nonzero mu: no smoothness or time
    # continuity for the blocked evaluation to lean on; logit states stay in (-1, 1)
    g = make_grid(d, n)
    rng = np.random.default_rng(seed)
    us, mus = [], []
    for _ in range(N + 1):
        raw = rng.standard_normal(g.shape)
        us.append(0.9 * np.tanh(raw) if family == "logit" else raw)
        mus.append(rng.standard_normal(g.shape))
    params = SimParams(eps=0.1, lam=0.02, N=N, T=0.05 * N, eta=0.5)
    return manual_trajectory(g, params, us, mus)


@pytest.fixture
def blocks_of_2048(monkeypatch):
    # blocks of 2048 values, so the short runs below span several blocks
    monkeypatch.setattr(diagnostics, "_BLOCK_VALUES", 2048)


# block sizes: 64 steps in 1D at n=32, 8 in 2D at n=16
@pytest.mark.usefixtures("blocks_of_2048")
@pytest.mark.parametrize("family", ["logit", "power"])
@pytest.mark.parametrize("d,n,N", [(1, 32, 1), (1, 32, 5), (1, 32, 70), (2, 16, 1), (2, 16, 5), (2, 16, 19)])
def test_blocked_ledger_matches_per_step_oracle(d, n, N, family):
    traj = _random_trajectory(d, n, N, family, seed=10 * N + d)
    b = BetaSpec(family, c2=0.0) if family == "power" else BetaSpec(family)
    got = build_ledger(traj, b)
    want = oracles.per_step_ledger(traj, b)
    assert got.row()[:5] == want.row()[:5]
    for name, a, c in zip(LEDGER_COLUMNS[5:], got.qvalues(), want.qvalues()):
        assert a == pytest.approx(c, rel=1e-12, abs=1e-300), name


def test_state_blocks_are_views_of_the_trajectory():
    # 1D n=32: blocks of _BLOCK_VALUES // 32 steps, so N = size + 6 walks two
    # blocks without copying a level
    size = diagnostics._BLOCK_VALUES // 32
    traj = _random_trajectory(1, 32, size + 6, "power", seed=3)
    blocks = list(_state_blocks(traj))
    assert [(start, stop) for start, stop, _, _ in blocks] == [(0, size), (size, size + 6)]
    for start, stop, u, mu in blocks:
        assert np.shares_memory(u, traj.u) and np.shares_memory(mu, traj.mu)
        assert np.array_equal(u, traj.u[start : stop + 1]) and np.array_equal(mu, traj.mu[start : stop + 1])


@pytest.mark.parametrize("d,n,N", [(1, 32, 70), (2, 16, 19)])
def test_ledger_does_not_depend_on_the_block_size(monkeypatch, d, n, N):
    # every sum adds one level at a time, in level order
    traj = _random_trajectory(d, n, N, "logit", seed=N)
    rows = []
    for values in (1, 2048, 1 << 20):  # one level per block, several, all in one
        monkeypatch.setattr(diagnostics, "_BLOCK_VALUES", values)
        rows.append(build_ledger(traj, BetaSpec("logit")).qvalues())
    assert rows[0] == rows[1] == rows[2]


def test_ledger_csv_append(tmp_path):
    path = tmp_path / "ledger.csv"
    led = DiagnosticsLedger(0.1, 0.01, 0.05, "power", 0.5, *range(1, 13))
    append_ledger_csv(path, led)
    append_ledger_csv(path, led)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(LEDGER_COLUMNS)
    assert len(lines) == 3
    assert lines[1] == lines[2]


def test_identity_rows_on_short_run():
    g = make_grid(1, 48)
    params = SimParams(eps=0.1, lam=0.02, N=8, T=0.1, eta=0.5)
    b = BetaSpec("power", c2=0.0)
    sc = Scenario(grid=g, params=params, beta=b, pi=PiSpec("zero"), u0=np.cos(np.pi * g.axis))
    rows = identity_report(run(sc, TIGHT), b, sc.pi, tol=1e-10)
    assert [name for name, _, _ in rows] == IDENTITY_ROWS
    assert all(passed for _, _, passed in rows)


@pytest.fixture(scope="module")
def block_runs(tmp_path_factory):
    # 1D n=48 walks 42 steps per block, so N=100 spans three blocks. One run
    # is forced by a density source; the other is unforced and reloaded from
    # CSV, which leaves its trajectory without sources
    g = make_grid(1, 48)
    params = SimParams(eps=0.1, lam=0.02, N=100, T=0.5, eta=0.5)
    u0 = 0.8 * np.cos(np.pi * g.axis)
    sc = Scenario(grid=g, params=params, beta=BetaSpec("logit"), pi=PiSpec("zero"), u0=u0)
    forced = run(replace(sc, source=CosineSource(k=2, ramp=1.0)), TIGHT)
    path = tmp_path_factory.mktemp("identities") / "t.csv"
    save_trajectory_csv(run(sc, TIGHT), path)
    reloaded = load_trajectory_csv(path, g, params)
    assert forced.f is not None and reloaded.f is None
    return {"forced": forced, "reloaded": reloaded}, sc


@pytest.mark.usefixtures("blocks_of_2048")
def test_identity_rows_of_a_reloaded_unforced_run(block_runs):
    runs, sc = block_runs
    assert [name for name, _, passed in identity_report(runs["reloaded"], sc.beta, sc.pi) if passed] == IDENTITY_ROWS
    assert all(passed for _, _, passed in identity_report(runs["forced"], sc.beta, sc.pi))


# step 0, the last step of the first block, the first of the second, step N-1
@pytest.mark.usefixtures("blocks_of_2048")
@pytest.mark.parametrize("k", [0, 41, 42, 99])
@pytest.mark.parametrize(
    "plant,failing,passing",
    [
        ("mu_bump", {"per_step_energy_balance"}, {*IDENTITY_ROWS[:2], "mean_mass_invariant"}),
        ("u_bump", {"per_step_energy_balance"}, {*IDENTITY_ROWS[:2], "mean_mass_invariant"}),
        ("mu_shift", {"mean_mass_invariant"}, set(IDENTITY_ROWS[:2])),
    ],
)
@pytest.mark.parametrize("which", ["forced", "reloaded"])
def test_identity_report_finds_planted_defect_in_each_block(block_runs, which, plant, failing, passing, k):
    # a mean-free bump in mu_{k+1} or u_k breaks the energy balance of step k
    # (and of step k-1 for u_k) but not the mean of u + h*mu, which a constant
    # shift of mu_{k+1} moves. The first two identities hold for any data
    runs, sc = block_runs
    traj = runs[which]
    g = traj.grid
    n, name = (k, "u") if plant == "u_bump" else (k + 1, "mu")
    delta = np.full(g.shape, 1e-4) if plant == "mu_shift" else 1e-4 * np.cos(np.pi * g.axis)
    planted = getattr(traj, name).copy()
    planted[n] += delta
    rows = identity_report(replace(traj, **{name: planted}), sc.beta, sc.pi)
    assert [row for row, _, _ in rows] == IDENTITY_ROWS
    failed = {row for row, _, passed in rows if not passed}
    assert failing <= failed and not passing & failed


def test_energy_balance_near_steady_state():
    # per_step_energy_balance divides by max(|lhs|, sum|terms|), about |du|^2,
    # while its roundoff is about eps_mach*|du|; as the bump datum settles
    # (|du| from 1e-6 to exactly 0) the defect read about 3e-3 before the row
    # granted its evaluation floor
    g = make_grid(2, 16)
    xx, yy = g.coords()
    u0 = 0.9 * np.exp(-((xx - 0.5) ** 2 + (yy - 0.5) ** 2) / 0.02)
    params = SimParams(eps=0.1, lam=0.05, N=64, T=2.0)
    sc = Scenario(grid=g, params=params, beta=BetaSpec("logit"), pi=PiSpec("zero"), u0=u0)
    traj = run(sc, SolverOptions(polish=True))
    rows = {name: passed for name, _, passed in identity_report(traj, sc.beta, sc.pi)}
    assert rows["per_step_energy_balance"]


def test_pt_pairing_zero_for_constants():
    g = make_grid(1, 32)
    b = BetaSpec("power")
    u = np.full(g.shape, 0.4)
    from chemhill.grid import inner_h, laplacian_apply

    pairing = inner_h(g, -1.0 * laplacian_apply(g, u), yosida(b, 0.1, u))
    assert pairing == 0.0


@pytest.mark.parametrize("family", ["power", "logit"])
def test_pt_inequality_random_fields(family):
    g = make_grid(1, 64)
    rep = check_pt_inequality(g, BetaSpec(family), taus=[1e-1, 1e-3], trials=100, seed=3)
    assert rep.min_normalized >= -1e-12
    assert set(rep.per_tau) == {1e-1, 1e-3}


def test_pt_inequality_rejects_no_trials():
    with pytest.raises(ValueError):
        check_pt_inequality(make_grid(1, 16), BetaSpec("power"), taus=[0.1], trials=0)


def test_growth_bound_linear_graph():
    c1, c2 = check_growth_bound(BetaSpec("linear"), 0.0, 1.0)
    assert c1 == 1.0
    assert 0.0 < c2 <= 1.0
    # the coarse certificate quoted for this case also holds
    r = np.linspace(-20, 20, 5001)
    bt = yosida(BetaSpec("linear"), 1.0, r)
    assert np.all(bt * r >= np.abs(bt) - 1.0)


def test_growth_bound_power_graph_certificate():
    b = BetaSpec("power", m=3)
    c1, c2 = check_growth_bound(b, 0.2, 1e-2)
    r = np.linspace(-30, 30, 20001)
    bt = yosida(b, 1e-2, r)
    assert np.all(bt * (r - 0.2) >= c1 * np.abs(bt) - c2 - 1e-9)


def test_growth_bound_rejects_exterior_mean():
    with pytest.raises(ValueError):
        check_growth_bound(BetaSpec("logit"), 1.5, 0.1)


def test_smoothed_random_field_is_finite_and_seeded():
    g = make_grid(2, 12)
    a = smoothed_random_field(g, np.random.default_rng(5))
    c = smoothed_random_field(g, np.random.default_rng(5))
    assert np.all(np.isfinite(a))
    assert np.array_equal(a, c)
