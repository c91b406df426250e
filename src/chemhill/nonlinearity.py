"""Monotone scalar nonlinearities, their convex primitives, and resolvents.

Four graph families are supported, all nondecreasing with value 0 at 0:

    linear      beta(r) = r                     on all of R
    power       beta(r) = r |r|^(m-1), m >= 3   on all of R
    logit       beta(r) = ln((1+r)/(1-r))       on (-1, 1)
    abs_logit   beta(r) = |r| ln((1+r)/(1-r))   on (-1, 1)

ln((1+r)/(1-r)) is evaluated as 2*atanh(r): one call, within half an ulp
of the exact value against 40-digit mpmath (3,312 samples from the
smallest subnormal to 1 - 2**-53, both signs), where log1p(r) - log1p(-r)
strays to 1.16 ulps; on 4,096 values it takes 11.2 us against 18.7 us.
It serves logit, abs_logit and the abs_logit primitive.

Each has a closed-form convex primitive with beta = primitive',
primitive(0) = 0:

    linear      r^2 / 2
    power       |r|^(m+1) / (m+1)
    logit       (1+r) ln(1+r) + (1-r) ln(1-r)
    abs_logit   |r| - (1 - r^2)/2 * ln((1+|r|)/(1-|r|))

The resolvent r + tau*beta(r) = s and the induced Lipschitz regularization
(r - resolvent(r))/tau are defined on all of R even when the graph domain
is bounded, which is what lets ``diagnostics`` probe the graph/Laplacian
pairing and certify growth constants on fields and scans that leave the
domain. The step solver uses the exact graph alone. Every family is odd and
convex on r >= 0, so the resolvent is one monotone Newton iteration on |s|,
accurate to about an ulp of the root relative to it.

The perturbation family pi is anti-monotone and Lipschitz with the budget
|pi(0)| + sup|pi'| <= c3*eps.
"""

from dataclasses import dataclass, field

import numpy as np

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
    "pi_eval",
    "pi_prime",
    "validate_assumptions",
    "AssumptionCheck",
    "ValidationReport",
]

BETA_FAMILIES = ("linear", "power", "logit", "abs_logit")
PI_FAMILIES = ("zero", "tanh_decay")

_BOUNDED = ("logit", "abs_logit")
_HI = np.nextafter(1.0, 0.0)
_EPS = 2.0**-52
_TINY = 2.0**-1022  # smallest normal double


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
    # a max and a min reduction clear an array inside (-1, 1); only one they
    # do not clear (an entry at or past +-1, or a NaN, which fails both
    # comparisons) takes the full test, which a NaN passes. An empty array passes
    if not b.bounded or arr.size == 0 or (arr.max() < 1.0 and arr.min() > -1.0):
        return
    if np.any(np.abs(arr) >= 1.0):
        flat = arr.reshape(-1)
        bad = float(flat[np.argmax(np.abs(flat))])
        raise OutOfDomainError(f"{what} argument {bad} outside the open interval (-1, 1)")


def _logit(arr):
    # ln((1+r)/(1-r)) as one call; the module docstring has its accuracy
    return 2.0 * np.arctanh(arr)


def beta_eval(b, r):
    """Evaluate the graph at r (strictly inside the domain for bounded families)."""
    arr, scalar = _as_array(r)
    _check_domain(b, arr)
    if b.family == "linear":
        out = arr.copy()
    elif b.family == "power":
        out = arr * np.abs(arr) ** (b.m - 1.0)  # r*|r|**(m-1): at m=3 a square, where sign(r)*|r|**m takes libm pow
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
        # log1p keeps the relative accuracy of ln(1 +- r) near r = 0; the
        # domain check has already excluded the endpoints, where 0*ln(0) appears
        out = (1.0 + arr) * np.log1p(arr) + (1.0 - arr) * np.log1p(-arr)
    else:
        # r + (r^2 - 1)/2 * ln((1+r)/(1-r)) on |r|; the factored 1 - r^2 keeps
        # full precision at the endpoints, where (1-a)*log1p(-a) tends to 0
        a = np.abs(arr)
        out = a - 0.5 * (1.0 - a) * (1.0 + a) * _logit(a)
    return _ret(out, scalar)


def _underflowed(b, tau, x, a):
    # True where beta(x) < 2**-1022 lost more than tau*beta(x) can afford against
    # a: it lies under the convexity bound beta(r) >= r/2 * beta'(r/2), which holds
    # with a margin of 2 or more, or is subnormal, good to about 2**-1073, an error
    # worth more than an ulp of r once divided by the slope 1 + tau*beta'(r)
    bx = beta_eval(b, x)
    slope = 1.0 + tau * beta_prime(b, x)
    return (bx < _TINY) & (
        (0.5 * x * (tau * beta_prime(b, 0.5 * x)) > tau * bx + _EPS * a)
        | ((bx > 0) & (tau * 2.0**-1073 > slope * np.spacing(x)))
    )


def _root_bound(b, tau, a):
    # a second upper bound on the root of r + tau*beta(r) = a, where g is finite:
    # beta(r) >= r^m (power) and beta(r) >= 2 r^2 (abs_logit, as ln((1+r)/(1-r))
    # >= 2r) give tau*beta(root) <= a, so the root is at most (a/tau)^(1/m) or
    # sqrt(a/(2 tau)). Each root is taken on its own and the quotient after, so
    # a/tau neither overflows nor underflows. x**(1/m) is off by up to
    # |ln x| * eps/(2m) relative (the rounding of 1/m), below 2**-43 for the
    # two powers together, so the factor 1 + 2**-40 lifts the bound above the root.
    # The other start, a/(1 + tau*beta'(0)), is a itself for these graphs, and
    # from |s| = 1e103 on beta(a) is inf for power m=3
    if b.family == "power":
        return a ** (1.0 / b.m) / tau ** (1.0 / b.m) * (1.0 + 2.0**-40)
    if b.family == "abs_logit":
        return np.sqrt(a) / (np.sqrt(2.0) * np.sqrt(tau)) * (1.0 + 2.0**-40)
    return np.inf


def resolvent(b, tau, s):
    """Solve r + tau*beta(r) = s for the unique root in the graph domain.

    Parameters
    ----------
    b : BetaSpec
    tau : float
        Positive regularization parameter.
    s : float or ndarray
        Finite values; a nan or infinite entry raises ``ValueError``.

    The linear graph has the closed form s/(1 + tau). The other families are
    odd, so the root is solved for a = |s| and takes the sign of s, bitwise.
    On [0, a] the map g(r) = r + tau*beta(r) - a is increasing and convex,
    so Newton's method from a start at or above the root decreases
    monotonically to it (Ortega and Rheinboldt 1970, ch. 13). The start is
    the least of a/(1 + tau*beta'(0)), a bound from tau*beta(r) <= a
    ((a/tau)^(1/m) for power, sqrt(a/(2 tau)) for abs_logit) and, on a
    bounded graph, the largest double below 1; the second keeps g finite
    at the start wherever it is finite at the root. An entry takes each
    step that lowers |g| and ends within
    about an ulp of the root, relative to it, for roots down to the smallest
    normal double. An entry with g <= 0 at its start stands: an exact root,
    or a bounded graph's root past the largest double below 1.

    ``RuntimeError`` names an overflow (g or tau*beta' not finite at the
    result) and an underflow of beta that would move the root (possible,
    and checked, only where tau exceeds 2**970 |s|).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    arr, scalar = _as_array(s)
    if not np.all(np.isfinite(arr)):
        raise ValueError("resolvent argument must be finite")
    if b.family == "linear":
        return _ret(arr / (1.0 + tau), scalar)
    flat = arr.reshape(-1)
    a = np.abs(flat)
    # only where tau*2**-1022 exceeds the rounding of |s| > 0 can an underflowed
    # beta move the root; there every point the iteration reaches is checked
    risky = (tau * _TINY > _EPS * a) & (a > 0)
    any_risky = risky.any()
    # overflow and underflow are reported below, by name, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # beta >= beta'(0) r on r >= 0, so a/(1 + tau*beta'(0)) is at or above the root
        x = np.minimum(a / (1.0 + tau * beta_prime(b, 0.0)), _root_bound(b, tau, a))
        x = np.minimum(x, _HI if b.bounded else np.inf)
        gx = x + tau * beta_eval(b, x) - a
        dg = 1.0 + tau * beta_prime(b, x)
        lost = np.zeros_like(risky)
        if any_risky:
            lost[risky] = _underflowed(b, tau, x[risky], a[risky])
        # trial points only for entries that still move: a step from a
        # saturated entry points past 1, out of a bounded graph's domain
        live = np.flatnonzero((gx > 0) & ~lost)
        while live.size:
            xn = x[live] - gx[live] / dg[live]
            gn = xn + tau * beta_eval(b, xn) - a[live]
            lower = np.abs(gn) < np.abs(gx[live])
            if any_risky:  # an underflowed trial point ends its entry, to be reported
                bad = risky[live]
                bad[bad] = _underflowed(b, tau, xn[bad], a[live[bad]])
                lost[live[bad]] = True
                lower |= bad
            live = live[lower]
            x[live], gx[live] = xn[lower], gn[lower]
            dg[live] = 1.0 + tau * beta_prime(b, x[live])
            live = live[~lost[live]]
    over = np.flatnonzero(~(np.isfinite(gx) & np.isfinite(dg)))
    for bad, what in ((over, "overflows"), (np.flatnonzero(lost), "underflows")):
        if bad.size:
            i = bad[0]
            raise RuntimeError(
                f"resolvent {what} at s={float(flat[i])!r}, tau={float(tau)!r}: at r={float(x[i])!r}, "
                f"r + tau*beta(r) - |s| = {float(gx[i])!r} and 1 + tau*beta'(r) = {float(dg[i])!r}"
            )
    return _ret(np.copysign(x, flat).reshape(arr.shape), scalar)


def yosida(b, tau, r):
    """Lipschitz regularization (r - resolvent(r)) / tau, defined on all of R."""
    arr, scalar = _as_array(r)
    j = resolvent(b, tau, arr)
    return _ret((arr - j) / tau, scalar)


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


# the validation scan: _SCAN_POINTS uniform points and a tenth as many
# golden-ratio (Kronecker) points, off the uniform grid without an RNG, on a
# bounded graph's open interval, else on |r| <= 4, where c1 and c2 are claimed
_SCAN_POINTS = 10000


def _scan_points(b):
    lo, hi = (-1.0 + 1e-9, 1.0 - 1e-9) if b.bounded else (-4.0, 4.0)
    extra = lo + (hi - lo) * ((0.6180339887498949 * np.arange(1, _SCAN_POINTS // 10 + 1)) % 1.0)
    return np.sort(np.concatenate([np.linspace(lo, hi, _SCAN_POINTS), extra]))


def validate_assumptions(g, b, p, u0, g_probes=()):
    """Machine checks of the standing structural assumptions.

    ``u0`` and each probe are arrays on the grid ``g``, which checks A3 and
    A5 average over. Returns a report with one entry per assumption; failures are entries,
    never exceptions. The scan is fixed: a uniform grid of 10,000 points
    plus 1,000 golden-ratio points on the same interval, so the report is
    deterministic and draws no random numbers.

    A1  graph monotone with value 0 at 0; primitive convex, nonnegative,
        zero at 0, and its difference quotients reproduce the graph.
    A2  primitive(r) >= c1*r^4 - c2 on a dense scan of the domain.
    A3  each probe of the mass source has zero average (to 1e-12).
    A4  |pi(0)| + sup|pi'| <= c3*eps on a sample of eps in (0, 1].
    A5  the average of u0 lies strictly inside the graph domain and the
        primitive is finite at every node of u0.
    """
    checks = []
    r = _scan_points(b)
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
    slack = bh - (b.c1 * np.square(np.square(r)) - b.c2)  # not r**4, which takes libm pow for r < 0
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
        means = [abs(mean(g, gk)) for gk in g_probes]
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
    m0 = mean(g, u0)
    lo, hi = b.domain
    interior_ok = lo < m0 < hi
    try:
        beta_hat_eval(b, u0)
        finite_ok = True
        witness = m0
    except OutOfDomainError:
        finite_ok = False
        witness = float(np.ravel(u0)[np.argmax(np.abs(u0))])
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
