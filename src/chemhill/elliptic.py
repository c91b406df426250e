"""Neumann linear solvers, dual norms, and the per-step nonlinear solve.

Every public function takes and returns ndarrays of shape ``g.shape`` (a
wrong shape is a grid mismatch), and so do ``scheme``'s steps. A
non-finite value fails the residual check of the first solve it reaches.

The cell-centred mirror-ghost Laplacian is diagonal in the orthonormal
DCT-II basis, with eigenvalue sum_axes -4 sin^2(pi*k/(2n))/dx^2 on mode k
(Strang, SIAM Review 41, 1999). So the shifted solve (I - alpha*Lap)^(-1)
and the inverse Neumann Laplacian on mean-zero data are each a forward
transform, a division by the symbol and an inverse transform, applied
with NumPy alone (``_dct_apply``). In 1D that operator is a circular
convolution of the mirror extension: one real FFT pair of length 2n,
O(n log n). In 2D it is C^T ((C X C^T) * mult) C with the dense
orthonormal DCT-II matrix C: four n x n matrix products, O(n^3) per apply.
C^T is a cached C-contiguous copy, not the view C.T, for which OpenBLAS
takes a slower path: 40.5 against 46.1 us per apply at 64x64, 21.1 against
23.6 us at 48x48, and never slower from n=17 to 256 (NumPy 2.4.6, 2-vCPU
VM). The results are bitwise those of the view at n = 4, 48, 64, 128, 129
and 256, and differ by roundoff at some other n (17, 33 and 100 among
those tried). The 2D form trades large grids for small ones. Per apply,
against scipy.fft's DCTs, it took 0.06 ms instead of 0.09 ms at n=64, but
0.41 ms instead of 0.33 ms at n=128 and 2.7 ms instead of 1.4 ms at
n=256, where a time step (power graph) took about 9% longer.
Each public solve makes one transform apply and checks the true stencil
residual once, against |r| <= tol + 8 * eps_mach * |A|_2 * |x| with the
caller's ``lin_tol`` term as tol: evaluating b - A x costs about
eps_mach * |A|_2 * |x| whatever x is, and |A|_2, exact from the symbol
table, grows as 4*d/dx^2 (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, sections 7.1-7.2).

Every linear operator of the scheme is a member shift*I - alpha*Lap of
one family, and ``_inverse_symbol`` is the one table of their inverse
symbols: each solve, the Newton residual's K and the dual pairings read
their multiplier from it. A checked solve names its operator by
(shift, alpha), so its multiplier and its stencil residual describe the
same operator.

The dual pairings (a, (I - Lap)^(-1) b)_h and (a, (-Lap)^(-1) b)_h need no
solve: with c = C x the orthonormal DCT-II coefficients, each is the exact
Parseval sum h^d * sum_k sym_k * c_k(a) * c_k(b) over the inverse symbol.
``dual_coefficients`` returns sqrt(h^d * sym) * C x for a stack of fields
at once (the mirror rfft in 1D, C X C^T in 2D), so a pairing is a plain sum
of products and raises no SolverFailure; ``diagnostics`` and ``limits``
evaluate a whole trajectory in blocks that way.

The nonlinear per-step equation

    (lam + (I - Lap)^(-1)) u - eps*h*Lap u + h*beta(u) + h*pi(u) = rhs

is strongly monotone whenever h < lam / (2*c3*eps), so it has exactly one
solution. It is solved by damped Newton in u alone on the exact graph,
started from the previous time level. The start's residual needs no work
the previous step did not already do: its K u is the stored potential and
its rhs-free part lam*u - eps*h*Lap u + h*beta(u) + h*pi(u) is carried
from the previous step solve, which returns it for its accepted iterate;
both are recomputed where the clip of a bounded graph moves the start. A
zero perturbation pi is never evaluated. Residual backtracking, plus a
fraction-to-the-boundary rule on bounded graphs, globalizes the iteration
for this monotone equation; a step that still fails raises StepFailure.

An iterate is accepted once its residual is below newton_tol * max(1,
|rhs|_H) or below the residual's evaluation floor at the iterate the last
direction started from, whichever is larger:

    (log2(node_count) + 16) * eps_mach * (|coef*u|_H + (1 + eps*h*|Lap|_2) * |u|_H)

with coef = lam + h*beta'(u) + h*pi'(u), the diagonal that direction
already formed. The first term is what an ulp of u moves the local part of
the residual by, large near a bounded graph's ends; the second bounds the
roundings of the stencil term, which grow as n^2, and of K u. The constant
counts roundings on the longest path to a term, as the ledger's energy row
does (_FLOOR_ROUNDINGS). On the benchmark workloads the floor stays below
3e-4 times the tolerance, so the tolerance decides; at 1D n=8192 and
newton_tol 1e-13, Newton stagnated at 2.3e-13 before the floor was granted.
The Newton operator lam + D - eps*h*Lap + (I - Lap)^(-1), D diagonal, is
symmetric positive definite under the same condition, so each direction
comes from matrix-free conjugate gradients. CG stops at a residual of
max(1e-13 * |rhs|, 1e-3 * tol / sqrt(h^d)), the second term a thousandth of
the Newton tolerance in the Euclidean norm CG takes: an inexact direction
(Dembo, Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982) that
leaves the Newton path and its acceptance, on the true residual alone, as
they are. The polish correction keeps the relative stop alone. The
preconditioner is the same operator T with lam + D replaced by its
minimum c0, which the DCT inverts exactly. The CG loop has two paths,
which differ only in how the operator product is formed:

* unscaled, when max(D) - min(D) <= min(c0 + symbol), so the preconditioned
  condition number is at most 2 (every direction of the benchmark
  workloads): with E = lam + D - c0, the preconditioned residual z = T^(-1) r
  has A z = E z + r, so the product follows the search direction's
  recurrence and an iteration makes one transform apply (Eisenstat, SIAM
  J. Sci. Stat. Comput. 2, 1981);
* scaled, for a steep graph: the preconditioner is scaled on both sides by
  a diagonal that restores the operator's diagonal where D is large, and
  the product applies D as a vector and the rest as one multiplier on the
  DCT modes, a second apply per iteration.

The Newton residual, the CG recurrences and the checked solves update
their vectors in place, in the operation order of the plain expressions,
and take norms as sqrt(x . x), which is bitwise ``np.linalg.norm``; the
Newton symbol K - eps*h*Lap, its minimum and each operator's 2-norm come
from cached tables, like the inverse symbols.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import nonlinearity as nl
from .grid import _laplacian, _on_grid, _pair, _total

__all__ = [
    "SolverOptions",
    "SolverFailure",
    "StepFailure",
    "CompatibilityError",
    "helmholtz_solve",
    "neumann_poisson_solve",
    "dual_coefficients",
    "vstar_norm",
    "v0star_norm",
    "step_solve",
]


def __getattr__(name):
    # the solver uses no sparse linear algebra; ``elliptic.sla`` stays readable
    # for perfbench/tracing.py, which patches it, and loads scipy.sparse only then
    if name == "sla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_EPS_MACH = float(np.finfo(float).eps)


class SolverFailure(RuntimeError):
    """A linear or nonlinear solve missed its tolerance.

    When the failure happens inside a time step, the marching loop attaches
    ``step_index`` and the partial trajectory; both stay None for a failure
    in set-up (datum smoothing, source potentials) or outside a run.
    """

    step_index = None
    trajectory = None

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = list(history) if history else []


class StepFailure(SolverFailure):
    """Per-step nonlinear solve failed; carries the residual history."""


class CompatibilityError(ValueError):
    """Right-hand side is not in the range of the singular Neumann operator."""


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances for the linear and per-step nonlinear solvers.

    ``polish=True`` adds one Newton correction after the iteration has met
    ``newton_tol`` (kept only if it lowers the true residual), which takes
    the residual from just inside the tolerance to its evaluation floor.
    The scheme's energy identity pairs that residual with the increment
    u_{n+1} - u_n, so identity checks ask for it.
    """

    lin_tol: float = 1e-11
    newton_tol: float = 1e-10
    max_newton: int = 50
    polish: bool = False

    def __post_init__(self):
        if not (0 < self.lin_tol < np.inf and 0 < self.newton_tol < np.inf):
            raise ValueError("tolerances must be positive and finite")
        if not (isinstance(self.max_newton, (int, np.integer)) and self.max_newton >= 1):
            raise ValueError(f"max_newton must be an integer of at least 1, got {self.max_newton!r}")


@functools.lru_cache(maxsize=16)
def _eigenvalues(d, n):
    """Stencil symbol on the DCT-II modes, shape (n,)*d; read-only, cached per (d, n).

    Formed as -4 sin^2(pi*k/(2n)) / dx^2, which keeps full relative accuracy
    on low modes; the equal 2cos(pi*k/n) - 2 cancels there (mode 1 was off
    by 5.6e-10 relative at n=8192).
    """
    dx = 1.0 / n
    ev = -4.0 * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2 / dx**2
    if d == 2:
        ev = ev[:, None] + ev[None, :]
    ev.setflags(write=False)
    return ev


@functools.lru_cache(maxsize=16)
def _op_norm(d, n, shift, alpha):
    """|shift*I - alpha*Lap|_2 = shift - alpha * min(symbol), exact from the symbol table; cached."""
    return shift - alpha * float(_eigenvalues(d, n).min())


def _norm(x):
    # the Euclidean norm of a C-ordered array as np.linalg.norm forms it,
    # sqrt(x . x) with one BLAS dot, so bitwise equal, without its dispatch
    return math.sqrt(np.vdot(x, x))


@functools.lru_cache(maxsize=16)
def _dct_matrix(n):
    """Orthonormal DCT-II matrix, C[k, j] = s_k cos(pi*k*(2j+1)/(2n)); read-only, cached per n."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    # exact integer argument reduction: cos has period 4n in k*(2j+1)
    c = np.cos((np.pi / (2 * n)) * ((k * (2 * j + 1)) % (4 * n)))
    c[0] *= np.sqrt(1.0 / n)
    c[1:] *= np.sqrt(2.0 / n)
    c.setflags(write=False)
    return c


@functools.lru_cache(maxsize=16)
def _dct_transpose(n):
    """C^T of ``_dct_matrix(n)`` as its own C-contiguous array; read-only, cached per n.

    OpenBLAS takes a slower path for the transposed view ``c.T``: a 64x64
    apply took 46.1 us with the view and 40.5 us with this copy.
    """
    ct = np.ascontiguousarray(_dct_matrix(n).T)
    ct.setflags(write=False)
    return ct


def _dct_apply(values, mult):
    """Apply the operator that is multiplication by ``mult`` on the DCT-II modes.

    1D: the operator is a circular convolution of the even (mirror)
    extension, so one real FFT pair of length 2n applies it in O(n log n);
    coefficient n of the extension is zero for every input and stays zero.
    2D: C^T ((C X C^T) * mult) C with the cached orthonormal DCT-II matrix C
    and its cached contiguous transpose, O(n^3) per apply in four BLAS
    products: faster than FFT-based DCTs up to n=64, slower from n=128 on
    (the module docstring has the figures, and those of the transpose).
    """
    if values.ndim == 1:
        n = values.size
        coef = np.fft.rfft(np.concatenate((values, values[::-1])))
        coef[:n] *= mult
        coef[n] = 0.0
        # copy: a slice would keep the whole length-2n buffer alive
        return np.fft.irfft(coef, 2 * n)[:n].copy()
    n = values.shape[0]
    c, ct = _dct_matrix(n), _dct_transpose(n)
    coef = c @ values @ ct
    coef *= mult
    return ct @ coef @ c


@functools.lru_cache(maxsize=16)
def _dct_phase(n):
    """s_k/2 * exp(-i*pi*k/(2n)): turns mode k of the mirror rfft into orthonormal DCT-II; read-only."""
    k = np.arange(n)
    phase = np.exp(-0.5j * np.pi * k / n) * np.sqrt(0.5 / n)
    phase[0] = 0.5 / np.sqrt(n)
    phase.setflags(write=False)
    return phase


def _dct_coefficients(stack):
    """Orthonormal DCT-II coefficients of each field of ``stack``, batched over its leading axis.

    1D: mode k of the rfft of the mirror extension is
    2*exp(i*pi*k/(2n)) times the unnormalized DCT-II coefficient, so the
    same length-2n FFT as ``_dct_apply`` gives it after a phase factor.
    2D: C X C^T with the cached DCT-II matrix C and its cached contiguous
    transpose, broadcast over the batch.
    """
    n = stack.shape[-1]
    if stack.ndim == 2:
        coef = np.fft.rfft(np.concatenate((stack, stack[:, ::-1]), axis=1), axis=1)
        return (coef[:, :n] * _dct_phase(n)).real
    return _dct_matrix(n) @ stack @ _dct_transpose(n)


@functools.lru_cache(maxsize=16)
def _inverse_symbol(d, n, shift, alpha):
    """Symbol of (shift*I - alpha*Lap)^(-1) on the DCT-II modes; 0 where the denominator is 0. Read-only.

    shift=1 gives the shifted operators (alpha=1: K = (I - Lap)^(-1));
    shift=0, alpha=1 the inverse Neumann Laplacian on mean-zero data, whose
    dropped mode 0 is the projection onto mean zero.
    """
    den = shift - alpha * _eigenvalues(d, n)
    sym = np.divide(1.0, den, out=np.zeros_like(den), where=den != 0.0)
    sym.setflags(write=False)
    return sym


def _checked_solve(g, b, shift, alpha, tol, what, x=None):
    # spectral solve of (shift*I - alpha*Lap) x = b and one stencil residual
    # check, which grants the residual's evaluation floor eps_mach*|A|_2*|x| on
    # top of the caller's tol (normwise backward error, Higham 2002, 7.1-7.2).
    # An x already applied from the same table is checked, not applied again.
    # Written as ``not rnorm <= limit`` so that a NaN residual fails; so does
    # a limit whose squares overflowed, which any residual would meet.
    # The residual b - (shift*x - alpha*Lap x) is formed in place, in that order.
    # A factor of exactly 1 is skipped, which leaves the bits as they are.
    if x is None:
        x = _dct_apply(b, _inverse_symbol(g.d, g.n, shift, alpha))
    lap = _laplacian(x, g.dx)
    if alpha != 1.0:
        lap *= alpha
    if shift == 1.0:
        res = x - lap
    else:
        res = shift * x
        res -= lap
    np.subtract(b, res, out=res)
    rnorm = _norm(res)
    limit = tol + 8.0 * _EPS_MACH * _op_norm(g.d, g.n, shift, alpha) * _norm(x)
    if not rnorm <= limit:
        raise SolverFailure(f"{what} solve residual {rnorm:.3e} exceeds tolerance", residual=rnorm)
    if limit == np.inf:
        raise SolverFailure(f"{what} solve residual check overflows: its tolerance is inf", residual=rnorm)
    return x


def _shifted_solve(g, b, alpha, opts, x=None):
    # (I - alpha*Lap)^(-1) b, checked against lin_tol * max(1, |b|)
    tol = opts.lin_tol * max(1.0, _norm(b))
    return _checked_solve(g, b, 1.0, alpha, tol, "shifted Neumann", x)


def _mean_free(g, a, what):
    _on_grid(g, a)
    m = _total(g, a)
    if abs(m) > 1e-10:
        raise CompatibilityError(f"{what} must have zero average, got {m:.3e}")


def helmholtz_solve(g, rhs, opts=None, alpha=1.0):
    """Solve (I - alpha*Lap) w = rhs on arrays; alpha=1 is the chemotaxis potential operator.

    Spectral solve; every call checks the stencil residual r once, against
    |r| <= lin_tol * max(1, |rhs|) + 8 * eps_mach * |I - alpha*Lap|_2 * |w|.
    """
    _on_grid(g, rhs)
    return _shifted_solve(g, rhs, alpha, opts or SolverOptions())


def neumann_poisson_solve(g, rhs, opts=None):
    """Solve -Lap w = rhs for the unique mean-zero array w (rhs must be mean-free).

    Spectral solve with the constant mode zeroed; every call checks the
    stencil residual r once, against
    |r| <= lin_tol * |rhs| + 8 * eps_mach * |Lap|_2 * |w|.
    """
    opts = opts or SolverOptions()
    _mean_free(g, rhs, "right-hand side")
    b = rhs - rhs.mean()
    tol = opts.lin_tol * _norm(b)
    return _checked_solve(g, b, 0.0, 1.0, tol, "mean-zero Poisson")


def dual_coefficients(g, stack, shift):
    """Weighted DCT-II coefficients sqrt(h^d * sym) * C x of each field of ``stack`` (leading batch axis).

    sym is the symbol of (shift*I - Lap)^(-1), so the plain sum of products
    of the coefficients of a and b is the dual pairing (a, (shift*I - Lap)^(-1) b)_h:
    shift=1 pairs in V*, shift=0 pairs mean-zero data with the inverse
    Neumann Laplacian (mode 0, the mean, is dropped).
    """
    if stack.shape[1:] != g.shape:
        raise ValueError(f"grid mismatch: {g} vs fields of shape {stack.shape[1:]}")
    weight = np.sqrt(g.cell_volume * _inverse_symbol(g.d, g.n, shift, 1.0))
    return weight * _dct_coefficients(stack)


def vstar_norm(g, r):
    """Dual H1 norm sqrt((r, (I - Lap)^(-1) r)_h) of an array, as a Parseval sum on the DCT-II modes."""
    return float(np.linalg.norm(dual_coefficients(g, np.asarray(r)[None], 1.0)))


def v0star_norm(g, r):
    """Dual norm sqrt((r, (-Lap)^(-1) r)_h) of a mean-zero array, as a Parseval sum on the DCT-II modes."""
    _mean_free(g, r, "argument")
    return float(np.linalg.norm(dual_coefficients(g, r[None], 0.0)))


def step_solve(g, params, b, p, rhs, warm, opts=None, k_warm=None, local_warm=None):
    """Solve the per-step monotone equation for the new density.

    Parameters
    ----------
    g : Grid
    params : SimParams
        Supplies eps, lam, h, and the stepsize bound making the operator
        strongly monotone.
    b, p : BetaSpec, PiSpec
    rhs : ndarray
        Assembled right-hand side of the decoupled step equation, shape ``g.shape``.
    warm : ndarray
        Warm start, normally the previous time level.
    opts : SolverOptions, optional
    k_warm : ndarray, optional
        K warm with K = (I - Lap)^(-1), bitwise ``helmholtz_solve(g, warm)``
        (a step passes the stored potential). It serves the first Newton
        residual in place of a transform apply, unless the bounded-graph
        clip moved the start.
    local_warm : ndarray, optional
        The rhs-free part lam*w - eps*h*Lap w + h*beta(w) + h*pi(w) of the
        residual at w = warm, as the previous step solve with the same
        params and graphs returned it (``run`` carries it from step to
        step). It serves the first Newton residual in place of a stencil
        and a graph evaluation, unless the clip moved the start, where it
        is recomputed.

    Returns
    -------
    (ndarray, ndarray, ndarray)
        The unique solution u, with final residual below
        ``newton_tol * max(1, |rhs|_H)`` or, where that is larger, below the
        residual's evaluation floor (module docstring); v = K u; and the rhs-free part
        of the residual at u, bitwise what a fresh evaluation at u gives,
        for the next step's ``local_warm``. v is the K u that the accepted
        iterate's residual formed from the same symbol table as
        ``helmholtz_solve``, so bitwise that solve's result, and it gets
        the solve's stencil residual check.

    Raises
    ------
    ValueError
        If the stepsize condition fails (precondition).
    StepFailure
        On a start whose residual is not finite, on a tolerance or a
        residual norm that overflows, on stagnation at the damping floor,
        on the iteration cap, or on a Newton direction whose CG misses its
        stop or whose stop overflows; carries the residual history.
    SolverFailure
        If v misses the shifted solve's residual check.

    Notes
    -----
    Newton runs on the exact graph from the warm start; bounded graphs use
    a fraction-to-the-boundary rule so iterates stay strictly inside the
    domain. Each direction solves (lam + D - eps*h*Lap + K) du = -r by the
    preconditioned CG of the module docstring until its residual is below
    the larger of 1e-13 relative and a thousandth of the Newton tolerance
    (in the H norm; the polish correction keeps the relative stop alone),
    within node_count iterations; a direction that misses its stop raises
    StepFailure and is never used, and a zero right-hand side gives a zero
    direction. CG applies no stencil; the Newton residual keeps it, so
    acceptance, on the true residual alone, measures the true equation,
    whose evaluation floor is at roundoff rather than at cond(Lap)*eps.
    With ``polish`` set, an iteration that took a step ends with one more
    Newton correction.
    """
    opts = opts or SolverOptions()
    eps, lam, h = params.eps, params.lam, params.h
    if not h < params.stepsize_bound:
        raise ValueError(f"stepsize condition violated: h={h:.6g} must be below {params.stepsize_bound:.6g}")
    _on_grid(g, rhs, warm)
    k_mult = _inverse_symbol(g.d, g.n, 1.0, 1.0)
    diffusion = eps * h
    tol = opts.newton_tol * max(1.0, np.sqrt(_pair(g, rhs, rhs)))
    # the zero perturbation adds nothing to the residual or the Newton coefficient
    perturbed = p.family != "zero"
    # the residual's evaluation floor per unit of |coef*u|_H + (1 + eps*h*|Lap|_2)*|u|_H
    floor_unit = (math.log2(g.node_count) + _FLOOR_ROUNDINGS) * _EPS_MACH
    lap_share = 1.0 + diffusion * _op_norm(g.d, g.n, 0.0, 1.0)
    history = []

    def residual(uu, ku=None, local=None):
        # the equation's residual at uu, the K uu in it and its rhs-free part
        # local = lam*uu - eps*h*Lap uu + h*beta(uu) + h*pi(uu), each summed in
        # place in that order; the graph is evaluated before the apply, so a
        # trial outside its domain makes none
        if local is None:
            lap = _laplacian(uu, g.dx)
            lap *= diffusion
            local = lam * uu
            local -= lap
            graph = nl.beta_eval(b, uu)
            graph *= h
            local += graph
            if perturbed:
                graph = nl.pi_eval(p, eps, uu)
                graph *= h
                local += graph
        if ku is None:
            ku = _dct_apply(uu, k_mult)
        res = local + ku
        res -= rhs
        return res, ku, local

    def newton_coef(at):
        # lam + h*beta'(at) + h*pi'(at), the diagonal of the Newton operator
        coef = nl.beta_prime(b, at)
        if perturbed:
            coef += nl.pi_prime(p, eps, at)
        coef *= h
        coef += lam
        return coef

    def accept_limit(at, coef):
        # tol, or the evaluation floor of the residual at ``at`` where that is
        # larger (module docstring): a Newton iterate is a double, so the
        # residual cannot resolve a move below an ulp of it. A floor that
        # overflows grants nothing, so no acceptance reads inf <= inf
        spread = coef * at
        floor = floor_unit * (math.sqrt(_pair(g, spread, spread)) + lap_share * math.sqrt(_pair(g, at, at)))
        return max(tol, floor) if floor < np.inf else tol

    u = warm.copy()
    # a start that a max and a min place inside the clip needs none
    if b.bounded and not (u.max() < 1.0 - 1e-12 and u.min() > -1.0 + 1e-12):
        u = np.clip(u, -1.0 + 1e-12, 1.0 - 1e-12)
        if not np.array_equal(u, warm):
            k_warm = local_warm = None
    r1, ku, local = residual(u, k_warm, local_warm)
    rn = np.sqrt(_pair(g, r1, r1))
    # a finite norm of squares has no inf or NaN among them, so only a norm
    # that is not finite needs the entrywise test
    if not rn < np.inf and not np.all(np.isfinite(r1)):
        raise StepFailure("Newton start has a non-finite residual", residual=rn)
    # each acceptance below compares a norm with these limits; inf <= inf would pass
    if not (rn < np.inf and tol < np.inf):
        raise StepFailure(f"Newton start overflows: residual H norm {rn:.3e}, tolerance {tol:.3e}", residual=rn)
    # a direction's CG may stop at this share of tol, in the Euclidean norm it
    # takes (|x|_H = sqrt(h^d) * |x|); acceptance stays on the true residual
    cg_floor = _NEWTON_FORCING * tol / math.sqrt(g.cell_volume)
    # the acceptance limit: tol until a direction's coefficient gives the floor
    # at the iterate it starts from, which then serves until the next direction
    limit = tol
    for _ in range(opts.max_newton):
        if rn <= limit:
            break
        coef = newton_coef(u)
        limit = accept_limit(u, coef)
        if rn <= limit:
            break
        du = _newton_direction(g, coef, diffusion, -r1, rn, history, cg_floor)
        theta = _boundary_theta(u, du) if b.bounded else 1.0
        accepted = False
        while theta > 2.0**-40:
            ut = u + theta * du
            try:
                r1t, kut, localt = residual(ut)
            except nl.OutOfDomainError:
                theta *= 0.5
                continue
            rt = np.sqrt(_pair(g, r1t, r1t))
            if rt <= (1.0 - 0.25 * theta) * rn or rt <= limit:
                u, r1, rn, ku, local = ut, r1t, rt, kut, localt
                history.append(rn)
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            raise StepFailure(
                f"Newton stagnated at residual {rn:.3e} (damping floor reached)",
                residual=rn,
                history=history,
            )
    if not rn <= limit:
        raise StepFailure(
            f"Newton used {opts.max_newton} iterations, residual {rn:.3e} above {limit:.3e}",
            residual=rn,
            history=history,
        )
    if opts.polish and history:
        # one more full Newton step (quadratic convergence) from just inside
        # the limit; a start that already met it is returned as it is
        try:
            ut = u + _newton_direction(g, newton_coef(u), diffusion, -r1, rn, history, 0.0)
            r1t, kut, localt = residual(ut)
            rt = np.sqrt(_pair(g, r1t, r1t))
        except (StepFailure, nl.OutOfDomainError):
            rt = np.inf
        if rt < rn:
            u, ku, local = ut, kut, localt
    return u, _shifted_solve(g, u, 1.0, opts, ku), local


# roundings, beyond log2(node_count), on the longest path to a term of the
# Newton residual (see accept_limit in step_solve): 7 forming the stencil term
# (four sums, the 4*v product, the division, the factor eps*h), up to 4 for the
# graph's (its ulps, a power and h), 5 summing the six terms and 1 rounding the
# iterate itself; log2(node_count) covers the sums inside the transform of K u
_FLOOR_ROUNDINGS = 16
# relative residual at which a Newton direction counts as solved
_PCG_RTOL = 1e-13
# share of the Newton tolerance at which a direction's CG may stop before it
# reaches _PCG_RTOL (an inexact Newton direction: Dembo, Eisenstat and
# Steihaug, SINUM 19, 1982). Against perfbench's reference, 1e-2 moved the
# snapshots workload's ledger by 7.2e-9 relative and 1e-3 by 3.8e-11
_NEWTON_FORCING = 1e-3


def _boundary_theta(u, du):
    # fraction to the boundary: 0.95 of the largest step along du that keeps
    # u + theta*du inside (-1, 1), capped at 1. (-1 - u)/du is bitwise
    # (u + 1)/(-du), since rounding is sign-symmetric, and the abs turns the
    # +-inf of a +-0 entry of du into +inf, which never binds (room is never 0
    # there: u lies strictly inside)
    room = np.copysign(1.0, du)  # 1 - u where du > 0, -1 - u where du < 0
    room -= u
    with np.errstate(divide="ignore"):
        room /= du
    np.abs(room, out=room)
    return min(1.0, 0.95 * float(room.min()))


@functools.lru_cache(maxsize=16)
def _newton_symbol(d, n, diffusion):
    """Symbol of K - diffusion*Lap on the DCT-II modes (read-only) and its minimum, cached per (d, n, diffusion)."""
    sym = _inverse_symbol(d, n, 1.0, 1.0) - diffusion * _eigenvalues(d, n)
    sym.setflags(write=False)
    return sym, float(sym.min())


def _newton_direction(g, coef, diffusion, rhs, rn, history, floor):
    # PCG on (coef - diffusion*Lap + K) x = rhs with coef = lam + D > 0, stopped
    # at max(_PCG_RTOL * |rhs|, floor) in the Euclidean norm. sym is
    # the DCT symbol of -diffusion*Lap + K, so the operator is A = E + T with
    # E = coef - c0 >= 0 diagonal, c0 = min(coef), and T = c0 + sym inverted
    # exactly on the DCT modes. T is the preconditioner.
    # - Unscaled (max E <= min(c0 + sym), so cond(T^(-1) A) <= 2): z = T^(-1) r
    #   gives A z = E z + r, so A s follows s's own recurrence and an iteration
    #   makes one transform apply, the preconditioner's (Eisenstat, SISC 2, 1981).
    # - Scaled (a steep graph): S T S with S >= 1 diagonal, which gives the
    #   preconditioner the operator's diagonal where coef is large, and the
    #   product A s = coef*s + sym(s) is a second apply. Without S, coef from
    #   0.05 to 1e4 in 1D n=32 gave a preconditioned condition number of 6e4
    #   and CG stalled; with S, 16. The recurrence alone stalled there too, at
    #   a CG residual of 2.9e-12 against a stop of 3e-14.
    # The vector updates run in place, in the operation order of the plain
    # expressions in the comments beside them, so the iterates keep their bits.
    x = np.zeros_like(rhs)
    rhs_norm = _norm(rhs)
    if rhs_norm == 0.0:
        return x
    # an infinite stop would accept any CG residual
    if not rhs_norm < np.inf:
        raise StepFailure("Newton direction right-hand side overflows: its norm is not finite", residual=rn, history=history)
    if not floor < np.inf:
        raise StepFailure(f"Newton direction CG stop overflows: its tolerance floor is {floor:.3e}", residual=rn, history=history)
    relative = _PCG_RTOL * rhs_norm
    stop = max(relative, floor)
    sym, sym_min = _newton_symbol(g.d, g.n, diffusion)
    c0 = float(coef.min())
    inv_sym = 1.0 / (c0 + sym)
    excess = coef - c0
    unscaled = float(excess.max()) <= c0 + sym_min
    if unscaled:

        def precond(vec):
            return _dct_apply(vec, inv_sym)

    else:
        diag_mean = float(sym.mean())  # mean diagonal (trace / node count) of the constant part
        inv_s = np.sqrt((c0 + diag_mean) / (coef + diag_mean))

        def precond(vec):
            out = _dct_apply(inv_s * vec, inv_sym)
            out *= inv_s
            return out

    r = rhs.copy()
    z = precond(r)
    s = z
    a_s = np.zeros_like(rhs)  # A s of the previous iteration; beta is 0 on the first
    tmp = np.empty_like(rhs)
    rz = float(np.vdot(r, z))
    beta = 0.0
    cg_history = []
    for _ in range(g.node_count):
        if unscaled:  # a_s = excess * z + r + beta * a_s
            np.multiply(excess, z, out=tmp)
            tmp += r
            a_s *= beta
            a_s += tmp
        else:  # a_s = coef * s + _dct_apply(s, sym)
            a_s = _dct_apply(s, sym)
            np.multiply(coef, s, out=tmp)
            a_s += tmp
        step = rz / float(np.vdot(s, a_s))
        np.multiply(s, step, out=tmp)  # x += step * s
        x += tmp
        np.multiply(a_s, step, out=tmp)  # r -= step * a_s
        r -= tmp
        cg_history.append(_norm(r))
        if cg_history[-1] <= stop:
            return x
        z = precond(r)
        rz_new = float(np.vdot(r, z))
        beta = rz_new / rz
        s *= beta  # s = z + beta * s; the first s is the first z, which no one reads again
        s += z
        rz = rz_new
    missed = f"relative residual {_PCG_RTOL:.0e}" if relative >= floor else f"the tolerance floor {floor:.3e}"
    raise StepFailure(
        f"Newton direction CG missed {missed} in {g.node_count} "
        f"iterations (CG residuals {cg_history[0]:.3e} -> {cg_history[-1]:.3e})",
        residual=rn,
        history=history,
    )
