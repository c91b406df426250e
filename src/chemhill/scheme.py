"""Implicit time marching of the regularized chemotaxis system.

One step advances (u_n, mu_n) to (u_{n+1}, mu_{n+1}) through the decoupled
form of the scheme: the new density solves the monotone equation

    (lam + K) u - eps*h*Lap u + h*beta(u) + h*pi(u)
        = h*f_{n+1} + lam*u_n + K u_n + h*K(mu_n - adv_n),

with K = (I - Lap)^(-1) and adv_n = eta * div(u_n grad v_n) the explicitly
lagged transport term; K u_n is the stored v_n, so the right-hand side
costs one shifted solve. The chemical potential then updates by its own
checked shifted solve,

    mu_{n+1} = K(mu_n - (u_{n+1} - u_n)/h - adv_n),

and the chemotaxis potential by v_{n+1} = K u_{n+1}. That is the K u the
Newton residual of the accepted iterate already formed from the same
table, which ``elliptic.step_solve`` returns with the density, so bitwise
the shifted solve's result, and it gets the solve's stencil residual
check: two shifted solves per step. The first Newton residual takes
K u_n from v_n as well, and its rhs-free part
lam*u_n - eps*h*Lap u_n + h*beta(u_n) + h*pi(u_n) from the previous step,
which returns that part of its accepted iterate beside the level; both
are recomputed where a bounded graph's start was clipped. So a step makes
one stencil and one graph evaluation fewer than its residuals, with the
same bits. mu_{n+1} is not recovered from (v_{n+1} - v_n)/h, which would divide the
solves' forward error by h and skip a residual check. The initial
potential is identically zero and the initial density is the smoothed
datum.

A trajectory is three arrays u, mu and v of shape (N+1,) + grid.shape,
level n at row n, which ``run`` fills row by row. The datum and the
sources are arrays of shape grid.shape too, which ``run`` checks once for
shape and finiteness. A step takes and returns arrays, as ``elliptic``'s
solvers do, and checks once that its new arrays are finite.

Besides the marching loop this module holds the trajectory CSV format and
the vectorized '%.17g' formatter that writes it.
"""

import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .elliptic import SolverFailure, SolverOptions, helmholtz_solve, neumann_poisson_solve, step_solve
from .grid import _read_node_csv, advective_divergence
from .nonlinearity import validate_assumptions

__all__ = [
    "SimParams",
    "Trajectory",
    "Scenario",
    "average_sources",
    "step",
    "run",
    "save_trajectory_csv",
    "load_trajectory_csv",
]


@dataclass(frozen=True)
class SimParams:
    """Run parameters: regularization eps, damping lam, N steps to time T.

    Invariants: 0 < lam < eps <= 1, N >= 1, T > 0, and the stepsize
    condition h < lam / (2*c3*eps) that makes every per-step operator
    strongly monotone. With a vanishing perturbation (c3 = 0) the unit
    budget c3 = 1 is imposed as the analog, i.e. h < lam / (2*eps).
    """

    eps: float
    lam: float
    N: int
    T: float
    eta: float = 0.0
    c3: float = 0.0

    @property
    def h(self):
        return self.T / self.N

    @property
    def stepsize_bound(self):
        c3_eff = self.c3 if self.c3 > 0 else 1.0
        return self.lam / (2.0 * c3_eff * self.eps)

    def violations(self):
        bad = []
        if not 0 < self.eps <= 1:
            bad.append(f"eps must lie in (0, 1], got {self.eps}")
        if not 0 < self.lam < self.eps:
            bad.append(f"lambda must lie in (0, eps), got lambda={self.lam}, eps={self.eps}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            bad.append(f"N must be a positive integer, got {self.N}")
        if not self.T > 0:
            bad.append(f"T must be positive, got {self.T}")
        if self.c3 < 0:
            bad.append(f"c3 must be nonnegative, got {self.c3}")
        if not bad and not self.h < self.stepsize_bound:
            bad.append(
                f"stepsize condition h < lambda/(2*c3*eps) violated: "
                f"h={self.h:.6g}, bound={self.stepsize_bound:.6g}"
            )
        return bad

    def validate(self):
        bad = self.violations()
        if bad:
            raise ValueError("; ".join(bad))


@dataclass
class Trajectory:
    """The levels of a run: density u, potential mu, chemotaxis potential v.

    ``u``, ``mu`` and ``v`` have shape (K+1,) + grid.shape, level n at row
    n (K = N for a finished run, fewer for the partial trajectory of a
    failed one). Invariant: v[n] = K u[n] with K = (I - Lap)^(-1), i.e.
    ``helmholtz_solve(grid, u[n])``; ``run`` builds every level that way
    and ``step`` relies on it. ``f`` is the (N,) + grid.shape array of the
    step sources, or None for an unforced run (or one reloaded from CSV).
    """

    grid: object
    params: SimParams
    u: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    f: np.ndarray = None

    @property
    def times(self):
        return np.arange(len(self.u)) * self.params.h


@dataclass
class Scenario:
    """Everything a run needs: grid, parameters, graphs, datum, source.

    ``u0`` is an array of shape ``grid.shape``; ``source`` is None (no
    forcing) or has a ``kind`` in {"f", "g"} and is callable as
    source(t, grid) -> such an array. Kind "g" is a mass-free density
    source whose potential is solved for, kind "f" a ready-made forcing.
    """

    grid: object
    params: SimParams
    beta: object
    pi: object
    u0: np.ndarray
    source: object = None
    smooth_u0: bool = True

    def with_params(self, **kw):
        return replace(self, params=replace(self.params, **kw))


def average_sources(provider, params, grid):
    """Interval averages of a time-dependent field by midpoint sampling, one array per step.

    Midpoint sampling integrates exactly anything linear in t per interval
    (and any provider that is constant on the step intervals), which is one
    order better than the scheme itself.
    """
    params.validate()
    h = params.h
    return [provider((k + 0.5) * h, grid) for k in range(params.N)]


def step(g, u, mu, v, f_next, params, b, p, opts=None, local=None):
    """Advance the level (u, mu, v) one step; return the next one's arrays and its carried residual part.

    ``v`` serves as K u_n on the right-hand side and in the first Newton
    residual, so it must be ``helmholtz_solve(g, u)`` (the Trajectory
    invariant); the shifted solves are deterministic, so this equals
    recomputing it bit for bit. The new level keeps the invariant: its v is
    the K u of the accepted Newton residual, bitwise the solve. ``local``,
    when given, is the rhs-free part lam*u - eps*h*Lap u + h*beta(u) +
    h*pi(u) of the Newton residual at u that the previous step returned
    with the same params and graphs; it spares the first Newton residual a
    stencil and a graph evaluation, and is bitwise what they give. Returns
    (u_next, mu_next, v_next, local_next). Raises SolverFailure when a
    solve fails or a new array is not finite.
    """
    opts = opts or SolverOptions()
    h, lam = params.h, params.lam
    # each sum below is formed in place in the order of the scheme's formula
    adv = advective_divergence(g, u, v)
    adv *= params.eta
    rhs = h * f_next  # h*f_next + lam*u + v + h*K(mu - adv)
    rhs += lam * u
    rhs += v
    k_mu = helmholtz_solve(g, mu - adv)
    k_mu *= h
    rhs += k_mu
    u_next, v_next, local_next = step_solve(g, params, b, p, rhs, u, opts, k_warm=v, local_warm=local)
    mu_arg = u_next - u  # mu - (u_next - u)/h - adv
    mu_arg /= h
    np.subtract(mu, mu_arg, out=mu_arg)
    mu_arg -= adv
    mu_next = helmholtz_solve(g, mu_arg)
    if not all(np.isfinite(x).all() for x in (u_next, mu_next, v_next)):
        raise SolverFailure("the new level holds non-finite entries")
    return u_next, mu_next, v_next, local_next


def run(scenario, opts=None):
    """March the full scheme and return the trajectory.

    The datum and every source average must be finite arrays of shape
    ``grid.shape`` (a flat one is not reshaped), else ValueError names it.
    The structural assumptions are re-validated next and a failure there
    raises before any stepping. A step failure mid-run re-raises with its
    ``step_index`` k and the partial trajectory of levels 0..k attached to
    the exception. Every step calls the module's ``step``.
    """
    opts = opts or SolverOptions()
    g = scenario.grid
    params = scenario.params
    params.validate()
    sources = [] if scenario.source is None else average_sources(scenario.source, params, g)
    named = [("initial datum u0", scenario.u0)] + [(f"source average of step {k}", x) for k, x in enumerate(sources)]
    for what, x in named:
        if np.shape(x) != g.shape:
            raise ValueError(f"{what} has shape {np.shape(x)}, expected the grid's {g.shape}")
        if not np.isfinite(x).all():
            raise ValueError(f"{what} holds non-finite entries")

    f, probes = None, []
    if sources:
        if scenario.source.kind == "g":
            probes = sources
            f = np.stack([neumann_poisson_solve(g, gk) for gk in probes])
        else:
            f = np.stack(sources)

    report = validate_assumptions(g, scenario.beta, scenario.pi, scenario.u0, probes)
    if not report.passed:
        raise ValueError("assumption validation failed: " + ", ".join(report.failed_names()))

    shape = (params.N + 1,) + g.shape
    u, mu, v = np.empty(shape), np.empty(shape), np.empty(shape)
    u[0] = scenario.u0
    if scenario.smooth_u0:
        u[0] = helmholtz_solve(g, u[0], alpha=params.eps)
    mu[0] = 0.0
    v[0] = helmholtz_solve(g, u[0])
    zero = np.zeros(g.shape)  # every step's source in an unforced run
    local = None  # the Newton residual's rhs-free part at u[k], carried from step k - 1
    for k in range(params.N):
        try:
            u[k + 1], mu[k + 1], v[k + 1], local = step(
                g, u[k], mu[k], v[k], zero if f is None else f[k], params, scenario.beta, scenario.pi, opts, local
            )
        except SolverFailure as exc:
            exc.step_index = k
            exc.trajectory = Trajectory(g, params, u[: k + 1], mu[: k + 1], v[: k + 1], f)
            raise
    return Trajectory(g, params, u, mu, v, f)


# ---------------------------------------------------------------------------
# serialization


# Least number of values (snapshots x nodes x 3) that each chunk of a forked
# trajectory CSV must hold. Sweep on a 2-vCPU VM (NumPy 2.4.6), two chunks,
# the vectorized writer timed in a process holding the 2D n=48 trajectory of
# 49 levels, 9 alternating runs, serial vs fork medians, by the smaller
# chunk: 6,912 values 9.9 vs 16.0 ms, 13,824 14.6 vs 17.7 (fork slower 9/9),
# 20,736 20.4 vs 20.7 (faster 5/9), 27,648 28.5 vs 23.6 (6/9), 41,472 40.9
# vs 31.0 (8/9). So a chunk below about 2e4 values saves less than its fork
# costs, and the threshold stays the next power of two past that.
_FORK_MIN_VALUES = 1 << 15

# Values formatted per block of the CSV writer, so a block's temporaries
# stay around 2 MB. Serial writes of the 2D n=48 CSV (2-vCPU VM, medians of
# 6): 1,536 values per block 108 ms, 3,072 97, 4,096 91, 6,912 88, 9,216 93.
_CSV_BLOCK_VALUES = 4096


def save_trajectory_csv(traj, path, stride=1):
    """Write snapshots as rows time,node,u,mu,v (flat node index).

    Every stride-th level and the final one are written; values are
    ``.17g`` (exact float64 round trip) and lines end in CRLF, as a
    ``csv.writer`` in its default dialect writes them.

    The values are formatted in blocks by ``_format_g17``, the bytes of
    ``'%.17g'`` vectorized: a serial write of the 9.7 MB 2D n=48 CSV of
    49 levels took 134 ms against 306 ms with one CPython ``'%.17g'`` per
    value (medians of 16, 2-vCPU VM, NumPy 2.4.6). A large trajectory is
    also written on every CPU the process may run on: the kept snapshots
    split into contiguous chunks, at most one per CPU, each of at least
    ``_FORK_MIN_VALUES`` values. The first chunk is written here; each
    other one by a forked child into a file that was unlinked before the
    fork, appended in order once every child has exited. The bytes are
    those of the serial write. Without ``os.fork`` or
    ``os.sched_getaffinity``, with one CPU, or below the threshold the
    write stays serial. A child that fails raises OSError here, after
    every child is reaped.
    """
    N = traj.params.N
    kept = [n for n in range(N + 1) if n % stride == 0 or n == N]
    nodes = _node_column(traj.grid.node_count)
    bounds = _chunk_bounds(len(kept), 3 * traj.grid.node_count)
    chunks = [kept[a:z] for a, z in zip(bounds, bounds[1:])]
    with open(path, "wb") as fh:
        fh.write(b"time,node,u,mu,v\r\n")
        parts = []  # (pid, fd) of each child, in chunk order
        try:
            try:
                for i, chunk in enumerate(chunks[1:], start=1):
                    parts.append(_fork_writer(f"{path}.{os.getpid()}.part{i}", traj, chunk, nodes))
                _write_snapshots(fh, traj, chunks[0], nodes)
            finally:
                codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in parts]
            if any(codes):
                raise OSError(f"trajectory CSV writer children exited with status {codes}")
            for _, fd in parts:
                os.lseek(fd, 0, os.SEEK_SET)
                while block := os.read(fd, 1 << 20):
                    fh.write(block)
        finally:
            for _, fd in parts:
                os.close(fd)


def _chunk_bounds(snapshots, values_each):
    # bounds of contiguous chunks, at most one per usable CPU; every chunk
    # holds at least _FORK_MIN_VALUES values, so it is one chunk below that
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return [0, snapshots]
    least = -(-_FORK_MIN_VALUES // values_each)  # snapshots per chunk
    parts = max(1, min(len(os.sched_getaffinity(0)), snapshots // least))
    return [snapshots * i // parts for i in range(parts + 1)]


def _node_column(count):
    # "j," for every node j, as NUL-padded byte rows and the mask of their bytes
    chars = np.array([b"%d," % j for j in range(count)]).view(np.uint8).reshape(count, -1)
    return chars, chars != 0


def _write_snapshots(fh, traj, levels, nodes):
    # a block of rows is one byte matrix: the time, the node column, then the
    # u, mu and v slots of _format_g17 with the separators in their spare
    # columns; its kept bytes, in row order, are the block's CSV lines
    node_chars, node_keep = nodes
    rows = _CSV_BLOCK_VALUES // 3
    for n in levels:
        time = np.frombuffer(f"{n * traj.params.h:.17g},".encode(), np.uint8)
        values = np.stack([traj.u[n].ravel(), traj.mu[n].ravel(), traj.v[n].ravel()], axis=1)
        for a in range(0, len(values), rows):
            chars, keep = _format_g17(values[a : a + rows])
            chars[..., -1] = ord(",")
            chars[:, 2, -2] = ord("\r")
            chars[:, 2, -1] = ord("\n")
            keep[..., -1] = True
            keep[:, 2, -2] = True
            n = len(chars)
            lead = np.broadcast_to(time, (n, time.size))
            line = np.concatenate([lead, node_chars[a : a + n], chars.reshape(n, -1)], 1)
            mask = np.concatenate([np.ones(lead.shape, bool), node_keep[a : a + n], keep.reshape(n, -1)], 1)
            fh.write(line[mask])


def _fork_writer(name, traj, levels, nodes):
    # opens and unlinks ``name`` (so no part file outlives the process), then
    # forks a child that writes the levels into it; returns (pid, fd). The
    # child only formats and writes, and ends in os._exit on every path, so it
    # never returns into the caller or flushes the parent's buffers
    fd = os.open(name, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        os.unlink(name)
        pid = os.fork()
    except BaseException:
        os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            with open(fd, "wb", closefd=False) as part:
                _write_snapshots(part, traj, levels, nodes)
            status = 0
        except BaseException:
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(status)
    return pid, fd


# The '%.17g' formatter. The 17 significant digits of a double a are the
# integer nearest a * 10**s with s = 16 - floor(log10 a). Dekker's
# error-free product (Numer. Math. 18, 1971) of a with the double-double
# 10**s gives that product to about 2**-104 relative error, a few 1e-15
# in units of the last digit, so the rounding is certain unless the
# fraction lies within 1e-6 of one half. An entry that has no such
# certificate is formatted by CPython (dtoa, correctly rounded), so every
# byte is exactly '%.17g'.

_G17_POW10 = {}  # s -> (hi, hi's upper and lower halves, lo) with hi + lo = 10**s
_G17_TABLES = {}  # byte tables of the layout, built on the first format
_G17_SLOT = 32  # bytes per formatted value; the last three are never kept


def _g17_pow10(s):
    # int / int true division and int -> float are correctly rounded, so hi
    # is 10**s rounded and lo the rounded remainder, exact to ~2**-106
    entry = _G17_POW10.get(s)
    if entry is None:
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi = num / den
        p, q = hi.as_integer_ratio()
        c = 134217729.0 * hi  # Veltkamp split at 2**27 + 1
        upper = c - (c - hi)
        entry = _G17_POW10[s] = (hi, upper, hi - upper, (num * q - p * den) / (den * q))
    return entry


def _g17_scaled(a, s):
    # a * 10**s as the unevaluated sum y + ylo, with |ylo| <= ulp(y) / 2
    first = int(s.min())
    table = np.array([_g17_pow10(k) for k in range(first, int(s.max()) + 1)]).T.copy()
    i = s - first
    hi, upper, lower, lo = (row.take(i) for row in table)
    c = 134217729.0 * a
    a_upper = c - (c - a)
    a_lower = a - a_upper
    p = a * hi
    t = (((a_upper * upper - p) + a_upper * lower + a_lower * upper) + a_lower * lower) + a * lo
    y = p + t
    return y, t - (y - p)


def _g17_digits(x):
    """The correctly rounded 17 significant digits of every entry of ``x``.

    Returns ``(d, e, certified)``: the digits as an int64 in [1e16, 1e17),
    the decimal exponent e with |x| ~ d * 10**(e - 16), and the entries
    whose digits are certain. Zeros are certified with d = 0
    and e = 0. Not certified: |x| outside [1e-250, 1e250] (and non-finite
    entries), a product a * 10**s still outside [1e16, 1e17) after one
    correction of s, and a fraction within 1e-6 of one half.
    """
    a = np.abs(x)
    certified = (a >= 1e-250) & (a <= 1e250)
    a = np.where(certified, a, 1.0)
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    y, ylo = _g17_scaled(a, s)
    # floor(log10 a) may be one off near a power of ten. A product within
    # 1e-6 of [1e16, 1e17) rounds to the edge under either s (1e17 carries
    # to 1e16 one exponent up), so only one farther out is scaled again;
    # y is an integer and |ylo| <= ulp(y) / 2, so these signs are exact
    low = (y - 1e16) + ylo < -1e-6
    high = (y - 1e17) + ylo >= 1e-6
    fix = np.flatnonzero(low | high)
    if fix.size:
        s[fix] += np.where(low[fix], 1, -1)
        yf, lf = _g17_scaled(a[fix], s[fix])
        y[fix], ylo[fix] = yf, lf
        certified[fix] &= ((yf - 1e16) + lf >= -1e-6) & ((yf - 1e17) + lf < 1e-6)
    whole = np.floor(ylo)
    frac = ylo - whole
    certified &= np.abs(frac - 0.5) > 1e-6
    d = y.astype(np.int64) + (whole + (frac > 0.5)).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    e = 16 - s + carry
    zero = x == 0
    d[zero] = 0
    e[zero] = 0
    return d, e, certified | zero


def _g17_tables():
    if not _G17_TABLES:
        t = _G17_TABLES
        q = np.arange(10000)
        quads = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1).astype(np.uint8) + ord("0")
        t["quads"] = quads.view(np.uint32).ravel()  # the four digits of q as one word
        zeros = np.full(10000, 4, np.int8)  # trailing zeros of q as four digits
        for k in (3, 2, 1, 0):
            zeros[(q % 10**k == 0) & (q % 10 ** (k + 1) != 0)] = k
        t["zeros"] = zeros
        # layout class of the exponent e: e for 0 <= e <= 16, 16 - e for
        # -4 <= e <= -1 (17..20), else exponent notation with two (21) or three
        # (22) exponent digits; the class and the digit count pick the layout
        e = np.arange(-400, 401)
        cls = np.where(e >= 0, e, 16 - e)
        t["class"] = np.where((e >= -4) & (e <= 16), cls, np.where(np.abs(e) < 100, 21, 22))
        cls, digits = np.divmod(np.arange(23 * 17), 17)
        cls, digits = cls[:, None], digits[:, None] + 1
        # the slot: '-', "0.000", the 18-column digit area, 'e', sign, exponent
        point = np.where(cls <= 16, cls + 1, np.where(cls <= 20, digits, 1))  # '.' column in the area
        last = np.where(digits > point, digits, point - 1)  # last kept area column
        lead = np.where((cls >= 17) & (cls <= 20), cls - 15, 0)  # kept chars of "0.000"
        col = np.arange(_G17_SLOT)
        area = col - 6
        inside = (area >= 0) & (area < 18)
        base = np.frombuffer(b"-0.000" + b"\0" * 18 + b"e" + b"\0" * 7, np.uint8)
        t["base"] = np.where(inside & (area == point), np.uint8(ord(".")), base)
        t["left"] = (inside & (area < point)).astype(np.uint8)
        t["right"] = (inside & (area > point)).astype(np.uint8)
        keep = ((col >= 1) & (col <= lead)) | ((area >= 0) & (area <= last))
        keep |= (cls >= 21) & (col >= 24) & (col <= 28) & ((col != 26) | (cls == 22))
        t["keep"] = np.concatenate([keep, keep | (col == 0)])  # unsigned, then signed
    return _G17_TABLES


def _format_g17(x):
    """The bytes of ``'%.17g' % v`` for every entry v of the float64 array ``x``.

    Returns ``(chars, keep)`` of shape ``x.shape + (_G17_SLOT,)``: the
    kept bytes of an entry's slot, in order, are its text. The last three
    columns of a slot are never kept, so a caller may write separators
    there. Certified entries (``_g17_digits``) are laid out from byte
    tables, the rest formatted by CPython.
    """
    t = _g17_tables()
    shape = x.shape
    x = x.ravel()
    d, e, certified = _g17_digits(x)
    # d as 1 + 4 x 4 digits, the digit words at byte 7 (d0) to 23 of a slot
    q = d // 100_000_000
    r = d - q * 100_000_000
    q4 = q // 10_000
    groups = np.zeros((x.size, 8), np.intp)
    g = groups[:, 1:6]
    g[:, 0] = q4 // 10_000
    g[:, 1] = q4 - g[:, 0] * 10_000
    g[:, 2] = q - q4 * 10_000
    g[:, 3] = r // 10_000
    g[:, 4] = r - g[:, 3] * 10_000
    right = t["quads"].take(groups).view(np.uint8)  # digit j at slot column 7 + j
    words = right.view(np.uint64).ravel()
    left = words >> np.uint64(8)  # digit j at column 6 + j; a row's last byte is never used
    left[:-1] |= words[1:] << np.uint64(56)
    left = left.view(np.uint8).reshape(right.shape)
    zeros = t["zeros"]
    z4, z3, z2 = g[:, 4] == 0, g[:, 3] == 0, g[:, 2] == 0
    trailing = zeros.take(g[:, 4]) + z4 * (zeros.take(g[:, 3]) + z3 * (zeros.take(g[:, 2]) + z2 * zeros.take(g[:, 1])))
    layout = t["class"].take(e + 400) * 17 + (16 - trailing)
    chars = t["base"].take(layout, axis=0)
    chars += left * t["left"].take(layout, axis=0)
    chars += right * t["right"].take(layout, axis=0)
    keep = t["keep"].take(layout + np.signbit(x) * (23 * 17), axis=0)
    sci = np.flatnonzero((e < -4) | (e > 16))
    if sci.size:
        es = e[sci]
        chars[sci, 25] = np.where(es < 0, ord("-"), ord("+"))
        for col, digit in ((26, np.abs(es) // 100), (27, np.abs(es) // 10 % 10), (28, np.abs(es) % 10)):
            chars[sci, col] = ord("0") + digit
    fallback = np.flatnonzero(~certified)
    if fallback.size:
        texts = np.array([b"%.17g" % v for v in x[fallback].tolist()], dtype=f"S{_G17_SLOT}")  # NUL-padded
        chars[fallback] = texts.view(np.uint8).reshape(fallback.size, _G17_SLOT)
        keep[fallback] = chars[fallback] != 0
    return chars.reshape(shape + (_G17_SLOT,)), keep.reshape(shape + (_G17_SLOT,))


def load_trajectory_csv(path, grid, params):
    """Rebuild a trajectory saved with stride 1 (all N+1 levels present).

    ``grid._read_node_csv`` rejects a malformed row with its line number;
    snapshot n must lie at exactly n*h and hold every node.
    """
    count = grid.node_count
    rows = _read_node_csv(path, "trajectory csv", ["time", "node", "u", "mu", "v"], count)
    times = sorted(rows)
    if len(times) != params.N + 1:
        raise ValueError(f"expected {params.N + 1} snapshots, found {len(times)}")
    data = np.empty((3, params.N + 1, count))
    for n, t in enumerate(times):
        if t != n * params.h:  # the writer's .17g times round-trip exactly
            raise ValueError(f"snapshot {n} at t={t!r}, expected n*h = {n * params.h!r}")
        if len(rows[t]) != count:
            raise ValueError(f"snapshot at t={t} has {len(rows[t])} nodes, expected {count}")
        data[:, n] = np.array([rows[t][j] for j in range(count)]).T
    u, mu, v = data.reshape((3, params.N + 1) + grid.shape)
    return Trajectory(grid, params, u, mu, v)
