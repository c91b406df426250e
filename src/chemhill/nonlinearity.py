"""Monotone scalar nonlinearities, their convex primitives, and resolvents.

Four graph families are supported, all nondecreasing with value 0 at 0:

    linear      beta(r) = r                     on all of R
    power       beta(r) = r |r|^(m-1), m >= 3   on all of R
    logit       beta(r) = ln((1+r)/(1-r))       on (-1, 1)
    abs_logit   beta(r) = |r| ln((1+r)/(1-r))   on (-1, 1)

Each has a closed-form convex primitive with beta = primitive',
primitive(0) = 0:

    linear      r^2 / 2
    power       |r|^(m+1) / (m+1)
    logit       (1+r) ln(1+r) + (1-r) ln(1-r)
    abs_logit   |r| - (1 - r^2)/2 * ln((1+|r|)/(1-|r|))

The resolvent r + tau*beta(r) = s and the induced Lipschitz regularization
(r - resolvent(r))/tau are defined on all of R even when the graph domain
is bounded, which is what lets the step solver iterate freely before the
final polish with the exact graph.

The perturbation family pi is anti-monotone and Lipschitz with the budget
|pi(0)| + sup|pi'| <= c3*eps.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .grid import mean

__all__ = [
    "BetaSpec",
    "PiSpec",
    "OutOfDomainError",
    "BETA_FAMILIES",
    "PI_FAMILIES",
    "beta_eval",
    "beta_prime",
    "beta_hat_eval",
    "resolvent",
    "yosida",
    "yosida_prime",
    "pi_eval",
    "pi_prime",
    "validate_assumptions",
    "AssumptionCheck",
    "ValidationReport",
]

BETA_FAMILIES = ("linear", "power", "logit", "abs_logit")
PI_FAMILIES = ("zero", "tanh_decay")

_BOUNDED = ("logit", "abs_logit")
# strict interior of (-1, 1) representable in float64
_LO = np.nextafter(-1.0, 0.0)
_HI = np.nextafter(1.0, 0.0)


class OutOfDomainError(ValueError):
    """Argument left the effective domain of the graph."""


@dataclass(frozen=True)
class BetaSpec:
    """A monotone graph family plus the growth constants of its quartic lower bound.

    c1, c2 describe the claimed bound primitive(r) >= c1*r^4 - c2; they are
    inputs to validation, not to the evaluations themselves. Left unset they
    default per family to constants that certify on the validation window
    (|r| <= 4 for the unbounded families, the whole open interval for the
    bounded ones; the linear graph only carries a quartic bound on a window).
    """

    family: str
    m: float = 3.0
    c1: float = None
    c2: float = None

    def __post_init__(self):
        if self.family not in BETA_FAMILIES:
            raise ValueError(f"unknown beta family {self.family!r}")
        if self.family == "power" and self.m < 3:
            raise ValueError(f"power family needs m >= 3, got m={self.m}")
        if self.c1 is None:
            defaults = {
                "linear": 1.0 / 32.0,
                "power": 1.0 / (self.m + 1.0),
                "logit": 0.25,
                "abs_logit": 0.25,
            }
            object.__setattr__(self, "c1", defaults[self.family])
        if self.c2 is None:
            object.__setattr__(self, "c2", 8.0 if self.family == "linear" else 1.0)
        if self.c1 <= 0 or self.c2 < 0:
            raise ValueError("growth constants need c1 > 0 and c2 >= 0")

    @property
    def bounded(self):
        return self.family in _BOUNDED

    @property
    def domain(self):
        return (-1.0, 1.0) if self.bounded else (-np.inf, np.inf)


@dataclass(frozen=True)
class PiSpec:
    """Anti-monotone Lipschitz perturbation with budget |pi(0)| + sup|pi'| <= c3*eps."""

    family: str = "zero"
    c3: float = 0.0

    def __post_init__(self):
        if self.family not in PI_FAMILIES:
            raise ValueError(f"unknown pi family {self.family!r}")
        if self.c3 < 0:
            raise ValueError("c3 must be nonnegative")


def _as_array(r):
    arr = np.asarray(r, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def _check_domain(b, arr, *, what="beta"):
    if b.bounded and np.any(np.abs(arr) >= 1.0):
        flat = np.asarray(arr).reshape(-1)
        bad = float(flat[np.argmax(np.abs(flat))])
        raise OutOfDomainError(f"{what} argument {bad} outside the open interval (-1, 1)")


def _logit(arr):
    return np.log1p(arr) - np.log1p(-arr)


def beta_eval(b, r):
    """Evaluate the graph at r (strictly inside the domain for bounded families)."""
    arr, scalar = _as_array(r)
    _check_domain(b, arr)
    if b.family == "linear":
        out = arr.copy()
    elif b.family == "power":
        out = np.sign(arr) * np.abs(arr) ** b.m
    elif b.family == "logit":
        out = _logit(arr)
    else:
        out = np.abs(arr) * _logit(arr)
    return _ret(out, scalar)


def beta_prime(b, r):
    """Derivative of the graph on the open domain (0 at r=0 for abs_logit)."""
    arr, scalar = _as_array(r)
    _check_domain(b, arr)
    if b.family == "linear":
        out = np.ones_like(arr)
    elif b.family == "power":
        out = b.m * np.abs(arr) ** (b.m - 1.0)
    elif b.family == "logit":
        out = 2.0 / (1.0 - arr * arr)
    else:
        out = np.sign(arr) * _logit(arr) + np.abs(arr) * 2.0 / (1.0 - arr * arr)
    return _ret(out, scalar)


def beta_hat_eval(b, r):
    """Convex primitive of the graph, normalized to 0 at 0."""
    arr, scalar = _as_array(r)
    _check_domain(b, arr, what="primitive")
    if b.family == "linear":
        out = 0.5 * arr * arr
    elif b.family == "power":
        out = np.abs(arr) ** (b.m + 1.0) / (b.m + 1.0)
    elif b.family == "logit":
        out = xlogy(1.0 + arr, 1.0 + arr) + xlogy(1.0 - arr, 1.0 - arr)
    else:
        # r + (r^2 - 1)/2 * ln((1+r)/(1-r)) on |r|; the factored 1 - r^2 keeps
        # full precision at the endpoints, where (1-a)*log1p(-a) tends to 0
        a = np.abs(arr)
        out = a - 0.5 * (1.0 - a) * (1.0 + a) * _logit(a)
    return _ret(out, scalar)


def _brackets(b, tau, s):
    # the root of r + tau*beta(r) = s has the sign of s and |root| <= |s|
    lo = np.minimum(0.0, s)
    hi = np.maximum(0.0, s)
    if b.bounded:
        lo = np.maximum(lo, _LO)
        hi = np.minimum(hi, _HI)
    return lo, hi


def resolvent(b, tau, s, method="newton"):
    """Solve r + tau*beta(r) = s for the unique root in the graph domain.

    Parameters
    ----------
    b : BetaSpec
    tau : float
        Positive regularization parameter.
    s : float or ndarray
    method : {"newton", "bisect"}
        "newton" is a safeguarded Newton iteration with a bisection
        fallback; "bisect" is plain bisection, kept as an independent
        cross-check of the fast path.

    The residual is driven below 1e-13 * max(1, |s|). For bounded families
    the iterate is clamped to the largest representable open interval; for
    |s| so large that the true root is closer to an endpoint than one ulp,
    the clamped endpoint is returned.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    arr, scalar = _as_array(s)
    if b.family == "linear":
        return _ret(arr / (1.0 + tau), scalar)
    work = np.atleast_1d(arr).astype(float)
    lo, hi = _brackets(b, tau, work)
    tol = 1e-13 * np.maximum(1.0, np.abs(work))

    def g(x):
        return x + tau * beta_eval(b, x) - work

    # roots beyond the clamped bracket of a bounded graph (no sign change
    # inside it) saturate at the nearer endpoint; pin them up front so both
    # iteration flavors return the same value
    if b.bounded:
        force_lo = g(lo) > 0
        force_hi = g(hi) < 0
    else:
        force_lo = force_hi = np.zeros(work.shape, dtype=bool)
    lo_init, hi_init = np.array(lo, copy=True), np.array(hi, copy=True)

    eps_m = np.finfo(float).eps

    def width_ok(lo_, hi_, x_):
        return (hi_ - lo_) <= 4.0 * eps_m * np.maximum(1.0, np.abs(x_))

    if method == "bisect":
        glo = g(lo)
        x = 0.5 * (lo + hi)
        for _ in range(200):
            gx = g(x)
            take_lo = (gx > 0) != (glo > 0)
            hi = np.where(take_lo, x, hi)
            lo = np.where(take_lo, lo, x)
            glo = np.where(take_lo, glo, gx)
            x = 0.5 * (lo + hi)
            if np.all(width_ok(lo, hi, x)):
                break
    elif method == "newton":
        x = np.clip(work / (1.0 + tau), lo, hi)
        tol_strict = 1e-15 * np.maximum(1.0, np.abs(work))
        for _ in range(200):
            gx = g(x)
            # run to the quadratic floor: near a steep graph the residual
            # cannot reach any tolerance even at a one-ulp-correct root, so
            # bracket collapse and step stalls also terminate
            done = (np.abs(gx) <= tol_strict) | width_ok(lo, hi, x)
            if np.all(done):
                break
            lo = np.where(gx < 0, x, lo)
            hi = np.where(gx > 0, x, hi)
            gp = 1.0 + tau * beta_prime(b, x)
            xn = x - gx / gp
            bad = ~np.isfinite(xn) | (xn <= lo) | (xn >= hi)
            xn = np.where(bad, 0.5 * (lo + hi), xn)
            done |= np.abs(xn - x) <= eps_m * np.maximum(1.0, np.abs(x))
            x = np.where(done, x, xn)
    else:
        raise ValueError(f"unknown method {method!r}")

    x = np.where(force_lo, lo_init, np.where(force_hi, hi_init, x))
    res = g(x)
    loose = np.maximum(tol, 1e-10 * np.maximum(1.0, np.abs(work)))
    # steep graphs amplify the residual at a one-ulp-correct root, so accept
    # on the first-order x-error estimate |g|/g' as well
    xerr = np.abs(res) / (1.0 + tau * beta_prime(b, x))
    converged = (
        (np.abs(res) <= loose)
        | (xerr <= 4.0 * eps_m * np.maximum(1.0, np.abs(x)))
        | width_ok(lo, hi, x)
        | force_lo
        | force_hi
    )
    if b.bounded:
        x = np.clip(x, _LO, _HI)
    if not np.all(converged):
        raise RuntimeError("resolvent iteration failed to converge")
    return _ret(x.reshape(arr.shape) if not scalar else x[0], scalar)


def yosida(b, tau, r, method="newton"):
    """Lipschitz regularization (r - resolvent(r)) / tau, defined on all of R."""
    arr, scalar = _as_array(r)
    j = resolvent(b, tau, arr, method=method)
    return _ret((arr - j) / tau, scalar)


def yosida_prime(b, tau, r):
    """Derivative of the regularized graph: beta'(J r) / (1 + tau * beta'(J r))."""
    arr, scalar = _as_array(r)
    j = resolvent(b, tau, arr)
    bp = beta_prime(b, np.clip(j, _LO, _HI) if b.bounded else j)
    return _ret(bp / (1.0 + tau * bp), scalar)


def pi_eval(p, eps, r):
    """Perturbation value; the tanh family uses half the allowed budget."""
    arr, scalar = _as_array(r)
    if p.family == "zero":
        return _ret(np.zeros_like(arr), scalar)
    return _ret(-(p.c3 * eps / 2.0) * np.tanh(arr), scalar)


def pi_prime(p, eps, r):
    arr, scalar = _as_array(r)
    if p.family == "zero":
        return _ret(np.zeros_like(arr), scalar)
    t = np.tanh(arr)
    return _ret(-(p.c3 * eps / 2.0) * (1.0 - t * t), scalar)


# ---------------------------------------------------------------------------
# assumption validation


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    margin: float
    witness: float
    detail: str

    def render(self):
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}: {status}  margin={self.margin:.3e}  witness={self.witness:.6g}  ({self.detail})"


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failed_names(self):
        return [c.name for c in self.checks if not c.passed]

    def render(self):
        lines = [c.render() for c in self.checks]
        lines.append("all checks passed" if self.passed else "FAILED: " + ", ".join(self.failed_names()))
        return "\n".join(lines)


def _scan_points(b, n_scan, rng, r_max=4.0):
    # bounded graphs scan their whole open interval; unbounded ones the
    # working window |r| <= r_max on which the growth constants are claimed
    if b.bounded:
        base = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, n_scan)
        extra = rng.uniform(-1.0 + 1e-9, 1.0 - 1e-9, size=n_scan // 10)
    else:
        base = np.linspace(-r_max, r_max, n_scan)
        extra = rng.uniform(-r_max, r_max, size=n_scan // 10)
    return np.sort(np.concatenate([base, extra]))


def validate_assumptions(b, p, u0, g_probes=(), n_scan=10000, seed=0):
    """Machine checks of the standing structural assumptions.

    Returns a report with one entry per assumption; failures are entries,
    never exceptions.

    A1  graph monotone with value 0 at 0; primitive convex, nonnegative,
        zero at 0, and its difference quotients reproduce the graph.
    A2  primitive(r) >= c1*r^4 - c2 on a dense scan of the domain.
    A3  each probe of the mass source has zero average (to 1e-12).
    A4  |pi(0)| + sup|pi'| <= c3*eps on a sample of eps in (0, 1].
    A5  the average of u0 lies strictly inside the graph domain and the
        primitive is finite at every node of u0.
    """
    rng = np.random.default_rng(seed)
    checks = []
    r = _scan_points(b, n_scan, rng)
    br = beta_eval(b, r)
    bh = beta_hat_eval(b, r)

    # A1: monotone graph, convex primitive, primitive' = graph
    scale = max(1.0, float(np.max(np.abs(br))))
    mono = float(np.min(np.diff(br)))
    # convexity through divided differences (the scan grid is non-uniform)
    keep = np.diff(r) > 1e-12
    slopes = np.diff(bh)[keep] / np.diff(r)[keep]
    conv = float(np.min(np.diff(slopes)))
    zero_at_zero = abs(beta_eval(b, 0.0)) + abs(beta_hat_eval(b, 0.0))
    interior = np.abs(r) <= (0.99 if b.bounded else 5.0)
    step = 1e-6
    rs = r[interior][:: max(1, interior.sum() // 200)]
    fd = (beta_hat_eval(b, rs + step) - beta_hat_eval(b, rs - step)) / (2 * step)
    fd_err = float(np.max(np.abs(fd - beta_eval(b, rs)) / np.maximum(1.0, np.abs(beta_eval(b, rs)))))
    a1_ok = (
        mono >= -1e-12 * scale
        and conv >= -1e-8 * scale
        and zero_at_zero <= 1e-12
        and float(np.min(bh)) >= -1e-14
        and fd_err <= 1e-4
    )
    checks.append(
        AssumptionCheck(
            "A1",
            a1_ok,
            min(mono, conv),
            fd_err,
            "graph monotone, primitive convex with matching slope",
        )
    )

    # A2: quartic lower bound of the primitive
    slack = bh - (b.c1 * r**4 - b.c2)
    i = int(np.argmin(slack))
    checks.append(
        AssumptionCheck(
            "A2",
            float(slack[i]) >= -1e-12 * max(1.0, abs(float(bh[i]))),
            float(slack[i]),
            float(r[i]),
            f"primitive >= {b.c1}*r^4 - {b.c2} on the scan",
        )
    )

    # A3: mass-free source probes
    if g_probes:
        means = [abs(mean(gk)) for gk in g_probes]
        worst = max(means)
        k = means.index(worst)
        checks.append(
            AssumptionCheck("A3", worst <= 1e-12, 1e-12 - worst, float(k), "source probes have zero average")
        )
    else:
        checks.append(AssumptionCheck("A3", True, np.inf, 0.0, "no source probes supplied"))

    # A4: perturbation budget across eps
    rp = np.linspace(-20.0, 20.0, 2001)
    worst_margin = np.inf
    worst_eps = 1.0
    for eps in (1.0, 0.5, 0.1, 0.01):
        used = abs(pi_eval(p, eps, 0.0)) + float(np.max(np.abs(pi_prime(p, eps, rp))))
        m = p.c3 * eps - used
        if m < worst_margin:
            worst_margin, worst_eps = m, eps
    checks.append(
        AssumptionCheck("A4", worst_margin >= -1e-15, worst_margin, worst_eps, "|pi(0)| + sup|pi'| <= c3*eps")
    )

    # A5: admissible initial datum
    m0 = mean(u0)
    lo, hi = b.domain
    interior_ok = lo < m0 < hi
    try:
        beta_hat_eval(b, u0.values)
        finite_ok = True
        witness = m0
    except OutOfDomainError:
        finite_ok = False
        witness = float(u0.values.ravel()[np.argmax(np.abs(u0.values))])
    margin = min(m0 - lo, hi - m0) if b.bounded else np.inf
    checks.append(
        AssumptionCheck(
            "A5",
            interior_ok and finite_ok,
            margin if finite_ok else -np.inf,
            witness,
            "mean of u0 strictly interior, primitive finite nodewise",
        )
    )
    return ValidationReport(checks)
