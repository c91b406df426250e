import numpy as np
import pytest

from chemhill.grid import Field, make_grid
from chemhill.nonlinearity import (
    BetaSpec,
    OutOfDomainError,
    PiSpec,
    beta_eval,
    beta_hat_eval,
    beta_prime,
    pi_eval,
    pi_prime,
    resolvent,
    validate_assumptions,
    yosida,
    yosida_prime,
)

import oracles

ALL_FAMILIES = ["linear", "power", "logit", "abs_logit"]


def test_closed_form_values():
    lin = BetaSpec("linear")
    assert beta_eval(lin, 2.0) == 2.0
    assert beta_hat_eval(lin, 2.0) == 2.0
    pow3 = BetaSpec("power", m=3)
    assert beta_eval(pow3, -2.0) == -8.0
    assert beta_hat_eval(pow3, -2.0) == pytest.approx(4.0, abs=1e-14)
    logit = BetaSpec("logit")
    assert beta_eval(logit, 0.5) == pytest.approx(np.log(3.0), abs=1e-14)
    assert beta_eval(logit, 0.5) >= (8.0 / 3.0) * 0.5**3


def test_bounded_domain_violation_raises():
    logit = BetaSpec("logit")
    with pytest.raises(OutOfDomainError):
        beta_eval(logit, 1.0)
    with pytest.raises(OutOfDomainError):
        beta_hat_eval(logit, np.array([0.2, -1.5]))


def test_power_family_requires_m_at_least_three():
    with pytest.raises(ValueError):
        BetaSpec("power", m=2)
    with pytest.raises(ValueError):
        BetaSpec("nonsense")


def test_abs_logit_primitive_matches_closed_form():
    b = BetaSpec("abs_logit")
    r = np.linspace(-0.9999, 0.9999, 201)
    got = beta_hat_eval(b, r)
    want = oracles.abs_logit_primitive_closed(r)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_abs_logit_primitive_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    b = BetaSpec("abs_logit")
    top = np.nextafter(1.0, 0.0)
    special = [0.0, 1e-8, -1e-8, 1e-3, 0.5, 0.9, 0.999, 1.0 - 1e-9, top, -top]
    r = np.concatenate([special, np.linspace(-top, top, 2001)])
    got = beta_hat_eval(b, r)
    with mpmath.workdps(40):
        for x, value in zip(r, got):
            a = abs(mpmath.mpf(float(x)))
            want = a + (a * a - 1) / 2 * mpmath.log((1 + a) / (1 - a))
            assert abs(value - want) <= 4e-16 * max(1.0, want), x


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_primitive_slope_reproduces_graph(family):
    b = BetaSpec(family)
    r = np.linspace(-0.9, 0.9, 37) if b.bounded else np.linspace(-3.0, 3.0, 37)
    step = 1e-6
    fd = (beta_hat_eval(b, r + step) - beta_hat_eval(b, r - step)) / (2 * step)
    assert np.max(np.abs(fd - beta_eval(b, r)) / np.maximum(1.0, np.abs(beta_eval(b, r)))) <= 1e-5


def test_resolvent_trivial_cases():
    assert resolvent(BetaSpec("linear"), 1.0, 1.0) == 0.5
    assert resolvent(BetaSpec("power", m=3), 1.0, 2.0) == pytest.approx(1.0, abs=1e-13)
    assert resolvent(BetaSpec("logit"), 0.5, 0.0) == 0.0


def test_yosida_trivial_cases():
    for family in ALL_FAMILIES:
        assert yosida(BetaSpec(family), 0.7, 0.0) == 0.0
    assert yosida(BetaSpec("linear"), 1.0, 3.0) == pytest.approx(1.5, abs=1e-14)


def test_yosida_close_to_graph_at_small_tau():
    b = BetaSpec("power", m=3)
    val = yosida(b, 0.01, 0.5)
    assert abs(val - 0.125) <= 0.01 * 0.125
    r = np.linspace(-2.0, 2.0, 401)
    prev = np.inf
    for tau in (1e-1, 1e-2, 1e-3):
        bt = yosida(b, tau, r)
        assert np.all(np.abs(bt) <= np.abs(beta_eval(b, r)) + 1e-12)
        gap = np.max(np.abs(bt - beta_eval(b, r)))
        assert gap < prev
        prev = gap


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_monotonicity_and_contraction(family):
    b = BetaSpec(family)
    rng = np.random.default_rng(7)
    lim = 0.999 if b.bounded else 5.0
    r = rng.uniform(-lim, lim, 10000)
    s = rng.uniform(-lim, lim, 10000)
    assert np.all((beta_eval(b, r) - beta_eval(b, s)) * (r - s) >= -1e-12)
    for tau in (0.3, 1e-2):
        bt_r = yosida(b, tau, r * 10)
        bt_s = yosida(b, tau, s * 10)
        assert np.all((bt_r - bt_s) * (r - s) * 10 >= -1e-10)
        j_r = resolvent(b, tau, r * 10)
        j_s = resolvent(b, tau, s * 10)
        assert np.all(np.abs(j_r - j_s) <= np.abs(r - s) * 10 + 1e-12)


def test_yosida_nondecreasing_and_prime_nonnegative():
    r = np.linspace(-3.0, 3.0, 2001)
    for family in ALL_FAMILIES:
        b = BetaSpec(family)
        bt = yosida(b, 0.05, r)
        assert np.all(np.diff(bt) >= -1e-12)
        assert np.all(yosida_prime(b, 0.05, r) >= 0.0)


def test_logit_lower_bound_odd_form():
    # |ln((1+r)/(1-r))| >= (8/3)|r|^3 on the whole interval; the signed
    # variant without absolute values only holds on the nonnegative half
    b = BetaSpec("logit")
    r = np.linspace(-0.999, 0.999, 10000)
    vals = beta_eval(b, r)
    assert np.all(np.abs(vals) - (8.0 / 3.0) * np.abs(r) ** 3 >= 0.0)
    assert np.max(np.abs(vals + beta_eval(b, -r))) <= 1e-12


def test_pi_families():
    z = PiSpec("zero")
    assert pi_eval(z, 0.3, 1.7) == 0.0
    t = PiSpec("tanh_decay", c3=1.0)
    assert pi_eval(t, 0.1, 0.0) == 0.0
    # budget used: |pi(0)| + sup|pi'| = c3*eps/2, margin two under the cap
    r = np.linspace(-10, 10, 2001)
    used = abs(pi_eval(t, 0.1, 0.0)) + np.max(np.abs(pi_prime(t, 0.1, r)))
    assert used == pytest.approx(0.05, abs=1e-12)
    assert used <= 1.0 * 0.1
    assert np.all(np.diff(pi_eval(t, 0.1, r)) <= 0.0)


def test_validate_assumptions_accepts_catalog():
    g = make_grid(1, 32)
    u0 = Field(g, 0.5 * np.cos(np.pi * g.axis))
    rep = validate_assumptions(BetaSpec("power", m=3, c1=0.25, c2=0.0), PiSpec("zero"), u0)
    assert rep.passed
    rep = validate_assumptions(BetaSpec("logit", c1=0.25, c2=1.0), PiSpec("tanh_decay", c3=2.0), u0)
    assert rep.passed
    assert "A2" not in rep.failed_names()


def test_validate_assumptions_flags_bad_growth_constants():
    g = make_grid(1, 32)
    u0 = Field(g, 0.5 * np.cos(np.pi * g.axis))
    rep = validate_assumptions(BetaSpec("power", m=3, c1=0.5, c2=0.1), PiSpec("zero"), u0)
    assert "A2" in rep.failed_names()


def test_validate_assumptions_flags_exterior_mean():
    g = make_grid(1, 32)
    u0 = Field(g, np.full(g.shape, 1.5))
    rep = validate_assumptions(BetaSpec("logit"), PiSpec("zero"), u0)
    assert "A5" in rep.failed_names()


def test_validate_assumptions_checks_source_means():
    g = make_grid(1, 32)
    u0 = Field(g, np.zeros(g.shape))
    good = [Field(g, np.cos(np.pi * g.axis))]
    bad = [Field(g, np.cos(np.pi * g.axis) + 0.1)]
    assert "A3" not in validate_assumptions(BetaSpec("power"), PiSpec("zero"), u0, good).failed_names()
    assert "A3" in validate_assumptions(BetaSpec("power"), PiSpec("zero"), u0, bad).failed_names()


def test_validation_report_renders_each_assumption():
    g = make_grid(1, 32)
    u0 = Field(g, np.zeros(g.shape))
    text = validate_assumptions(BetaSpec("power"), PiSpec("zero"), u0).render()
    for name in ("A1", "A2", "A3", "A4", "A5"):
        assert name in text
