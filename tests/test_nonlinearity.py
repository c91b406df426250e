import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemhill.nonlinearity as nl
from chemhill.grid import make_grid
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
    # both bounded primitives; the logit one is (1+r) ln(1+r) + (1-r) ln(1-r)
    mpmath = pytest.importorskip("mpmath")
    references = {
        "abs_logit": lambda x: abs(x) + (x * x - 1) / 2 * mpmath.log((1 + abs(x)) / (1 - abs(x))),
        "logit": lambda x: (1 + x) * mpmath.log(1 + x) + (1 - x) * mpmath.log(1 - x),
    }
    top = np.nextafter(1.0, 0.0)
    special = [0.0, 1e-8, -1e-8, 1e-3, 0.5, 0.9, 0.999, 1.0 - 1e-9, top, -top]
    r = np.concatenate([special, np.linspace(-top, top, 2001)])
    for family, reference in references.items():
        got = beta_hat_eval(BetaSpec(family), r)
        with mpmath.workdps(40):
            for x, value in zip(r, got):
                want = reference(mpmath.mpf(float(x)))
                assert abs(value - want) <= 4e-16 * max(1.0, want), (family, x)


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


def _mpmath_resolvent(mpmath, b, tau, s):
    """Root of r + tau*beta(r) = s from bisection in the working precision.

    The root is sought as t = r/|s| in [0, 1], where t + tau*beta(|s| t)/|s|
    - 1 is of order 1 near the root and has slope at least 1, so 180 halvings
    fix t to 1e-54 absolute, far inside a double's ulp for every t in the
    samples. A bounded graph's root lies below min(1, 1/|s|). The logit is
    written with log1p, which keeps its relative accuracy at tiny |s| t.
    """
    a = mpmath.mpf(abs(s))

    def f(t):
        r = a * t
        if b.family == "power":
            return t + tau * r**b.m / a - 1
        logit = mpmath.log1p(r) - mpmath.log1p(-r)
        return t + tau * (logit if b.family == "logit" else r * logit) / a - 1

    lo = mpmath.mpf(0)
    hi = 1 / a if b.bounded and a > 1 else mpmath.mpf(1)
    # tau*beta(r) <= a bounds the root by (a/tau)^(1/m) (power) or
    # sqrt(a/(2 tau)) (abs_logit), and the root is at least half that bound,
    # so the halvings keep their relative accuracy on roots far below |s|
    if b.family == "power":
        hi = min(hi, (a / tau) ** (1 / mpmath.mpf(b.m)) / a)
    elif b.family == "abs_logit":
        hi = min(hi, mpmath.sqrt(a / (2 * mpmath.mpf(tau))) / a)
    for _ in range(180):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) <= 0 else (lo, mid)
    return float(np.copysign(float(a * lo), s))


def _resolvent_samples(family, m):
    # s down to 1e-300 and tau up to 1e20; half the s above 1e-6, where
    # tau*beta(s) is not negligible against s for most tau
    rng = np.random.default_rng(17)
    s = np.concatenate([10.0 ** rng.uniform(-300, 3, 12), 10.0 ** rng.uniform(-6, 3, 12)])
    s *= rng.choice([-1.0, 1.0], s.size)
    tau = 10.0 ** rng.uniform(-8, 20, s.size)
    return [(family, m, float(t), float(x)) for t, x in zip(tau, s)]


@pytest.mark.parametrize(
    "family, m, tau, s",
    [
        # roots that stopping rules with absolute tolerances miss: a bracketed
        # Newton iteration with bisection returns 9.375e-15, 9.90e-303, 5.4e-16
        # and 0
        ("power", 3.0, 1.0, 1e-14),
        ("logit", 3.0, 100.0, 1e-300),
        ("power", 3.0, 1e100, 1.0),
        ("power", 3.0, 1.0, 5e-324),
        # roots whose start at |s| overflowed beta: 2.2e34, 4.6e66, 2.2e53,
        # 7.1e-151 and 2.2e-149
        ("power", 3.0, 1.0, 1e103),
        ("power", 3.0, 1.0, 1e200),
        ("power", 3.0, 1e-10, 1e150),
        ("abs_logit", 3.0, 1e300, 1.0),
        ("abs_logit", 3.0, 1e300, -1e3),
        *_resolvent_samples("power", 3.0),
        *_resolvent_samples("power", 5.5),
        *_resolvent_samples("logit", 3.0),
        *_resolvent_samples("abs_logit", 3.0),
    ],
)
def test_resolvent_matches_mpmath_to_a_few_ulps(family, m, tau, s):
    mpmath = pytest.importorskip("mpmath")
    b = BetaSpec(family, m=m)
    with mpmath.workdps(40):
        want = _mpmath_resolvent(mpmath, b, tau, s)
    got = resolvent(b, tau, s)
    assert abs(got - want) <= 4 * np.finfo(float).eps * abs(want), (got, want)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_resolvent_is_bitwise_odd(family):
    b = BetaSpec(family, m=5.5 if family == "power" else 3.0)
    rng = np.random.default_rng(23)
    s = np.concatenate([[0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e3], 10.0 ** rng.uniform(-300, 3, 500)])
    for tau in (1e-8, 1e-3, 1.0, 1e3, 1e20):
        pos, neg = resolvent(b, tau, s), resolvent(b, tau, -s)
        assert np.array_equal(neg.view(np.int64), (-pos).view(np.int64)), tau


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_resolvent_rejects_non_finite_argument(family, bad):
    with pytest.raises(ValueError, match="must be finite"):
        resolvent(BetaSpec(family), 1.0, np.array([0.5, bad]))


@pytest.mark.parametrize(
    "family, tau, s, what",
    [
        # 1 + tau*beta'(r) is inf at the root (about 1, 0.71, 0.9999 and 5e-309)
        ("power", 1e308, 1e308, "overflows"),
        ("abs_logit", 1e308, 1e308, "overflows"),
        ("abs_logit", 1e307, -1e308, "overflows"),
        ("logit", 1e308, 1.0, "overflows"),
        # beta(r) at the root (r near 4.6e-134 and 7.1e-251) is below the
        # smallest double, and an unchecked iteration returns 1.3e-108 and 1e-200
        ("power", 1e300, 1e-100, "underflows"),
        ("abs_logit", 1e300, -1e-200, "underflows"),
        # an iterate whose beta flushed to 0 sits below the root with a slope
        # of 2e11 against a g that moves at slope 1: unchecked, Newton crawls
        # back up by 8e-71 a step
        ("power5.5", 2.4347146025691444e275, -3.0316185382116314e-59, "underflows"),
    ],
)
def test_resolvent_names_an_overflow_or_underflow(family, tau, s, what):
    b = BetaSpec("power", m=5.5) if family == "power5.5" else BetaSpec(family)
    with pytest.raises(RuntimeError, match=f"resolvent {what} at s="):
        resolvent(b, tau, s)


@pytest.mark.parametrize("family", ["logit", "abs_logit"])
def test_resolvent_roots_within_ulps_of_one(family):
    # r + tau*beta(r) rounded to s moves the root by far less than an ulp,
    # so each s has r for its root to within an ulp of 1
    b = BetaSpec(family)
    r = np.concatenate([1.0 - np.arange(1, 65) * 2.0**-53, 1.0 - 2.0 ** -np.arange(30.0, 53.0)])
    for tau in (1e-8, 1e-3, 1.0, 1e3):
        s = r + tau * beta_eval(b, r)
        got = resolvent(b, tau, np.concatenate([s, -s]))
        assert np.all(np.abs(got) < 1.0)
        assert np.max(np.abs(got - np.concatenate([r, -r]))) <= 2.0**-53, tau


def test_logit_within_an_ulp_of_mpmath():
    # ln((1+r)/(1-r)) as 2*atanh(r), against 40 digits, near +-1 and on tiny
    # arguments down to the smallest subnormal; log1p(r) - log1p(-r) strays
    # to 1.16 ulps on these samples
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    r = np.concatenate(
        [
            1.0 - 2.0 ** -np.arange(1.0, 54.0),
            1.0 - rng.uniform(0.0, 1e-3, 300),
            10.0 ** -rng.uniform(0.0, 300.0, 300),
            [5e-324, 1e-310, 2.0**-1022],
            rng.uniform(-1.0, 1.0, 400),
        ]
    )
    r = np.concatenate([r, -r])
    got = nl._logit(r)
    with mpmath.workdps(40):
        for x, value in zip(r, got):
            want = mpmath.log1p(mpmath.mpf(float(x))) - mpmath.log1p(-mpmath.mpf(float(x)))
            assert abs(value - want) <= np.spacing(abs(float(want))), x


@pytest.mark.parametrize("family", ["logit", "abs_logit"])
def test_domain_check_passes_nan_and_empty_and_refuses_the_ends(family):
    # a NaN is no evidence of leaving the domain; the residual check that
    # reads the NaN refuses it
    b = BetaSpec(family)
    assert np.isnan(beta_eval(b, np.array([0.5, np.nan]))[1])
    assert np.isnan(beta_prime(b, np.nan))
    assert beta_eval(b, np.empty(0)).shape == (0,)
    assert beta_eval(b, np.empty((0, 3))).shape == (0, 3)
    for bad in (1.0, -1.0, np.array([0.0, np.nan, -1.0]), np.array([[0.5, 1.0]])):
        for evaluate in (beta_eval, beta_prime, beta_hat_eval):
            with pytest.raises(OutOfDomainError):
                evaluate(b, bad)
    # the unbounded graphs check nothing
    assert beta_eval(BetaSpec("power"), 2.0) == 8.0


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
    u0 = 0.5 * np.cos(np.pi * g.axis)
    rep = validate_assumptions(g, BetaSpec("power", m=3, c1=0.25, c2=0.0), PiSpec("zero"), u0)
    assert rep.passed
    rep = validate_assumptions(g, BetaSpec("logit", c1=0.25, c2=1.0), PiSpec("tanh_decay", c3=2.0), u0)
    assert rep.passed
    assert "A2" not in rep.failed_names()


def test_validate_assumptions_flags_bad_growth_constants():
    g = make_grid(1, 32)
    u0 = 0.5 * np.cos(np.pi * g.axis)
    rep = validate_assumptions(g, BetaSpec("power", m=3, c1=0.5, c2=0.1), PiSpec("zero"), u0)
    assert "A2" in rep.failed_names()


def test_validate_assumptions_flags_exterior_mean():
    g = make_grid(1, 32)
    u0 = np.full(g.shape, 1.5)
    rep = validate_assumptions(g, BetaSpec("logit"), PiSpec("zero"), u0)
    assert "A5" in rep.failed_names()


def test_validate_assumptions_checks_source_means():
    g = make_grid(1, 32)
    u0 = np.zeros(g.shape)
    good = [np.cos(np.pi * g.axis)]
    bad = [np.cos(np.pi * g.axis) + 0.1]
    assert "A3" not in validate_assumptions(g, BetaSpec("power"), PiSpec("zero"), u0, good).failed_names()
    assert "A3" in validate_assumptions(g, BetaSpec("power"), PiSpec("zero"), u0, bad).failed_names()


def test_validation_report_renders_each_assumption():
    g = make_grid(1, 32)
    u0 = np.zeros(g.shape)
    text = validate_assumptions(g, BetaSpec("power"), PiSpec("zero"), u0).render()
    for name in ("A1", "A2", "A3", "A4", "A5"):
        assert name in text


@settings(max_examples=200)
@given(
    spec=st.sampled_from([("linear", 3.0), ("power", 3.0), ("power", 5.5), ("logit", 3.0), ("abs_logit", 3.0)]),
    tau=st.floats(1e-8, 1e2),
    s=st.floats(-1e3, 1e3),
)
def test_resolvent_inverts_shifted_graph(spec, tau, s):
    b = BetaSpec(spec[0], m=spec[1])
    r = resolvent(b, tau, s)
    if b.bounded:
        assert -1.0 < r < 1.0

    def g(x):
        if b.bounded and abs(x) >= 1.0:
            return np.copysign(np.inf, x)
        return x + tau * beta_eval(b, x) - s

    # a check that needs no reference root: the residual meets
    # 1e-13*max(1, |s|) or, on a graph too steep for that, the root lies
    # within 4*eps*max(1, |r|) of r (for bounded graphs possibly between r
    # and the endpoint)
    tol = 1e-13 * max(1.0, abs(s))
    width = 4.0 * np.finfo(float).eps * max(1.0, abs(r))
    bracketed = g(r - width) <= tol and g(r + width) >= -tol
    assert abs(g(r)) <= tol or bracketed
