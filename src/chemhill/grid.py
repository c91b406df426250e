"""Cell-centered uniform grids on the unit box with homogeneous-Neumann operators.

The domain is the unit box (0,1)^d with d in {1, 2}. Nodes sit at cell
centers x_i = (i + 1/2)*dx, so the mirror-ghost closure of the Laplacian is
second order, exactly symmetric, and summation by parts holds at machine
precision: (-lap u, w)_h equals the face-difference inner product. That
exactness is what makes the scheme's energy telescoping and mass bookkeeping
identities hold discretely instead of merely up to truncation error.

The stencil lives in one private function on plain arrays, which
:func:`laplacian_apply` wraps and the solvers in ``elliptic`` use for their
residual checks; the face differences behind :func:`seminorm_v` live in
another. Both accept leading batch axes, so ``diagnostics`` applies them to
blocks of levels. The stencil's eigenvectors are the cosines
cos(pi*k*(i + 1/2)/n) of the DCT-II basis, which is how ``elliptic``
inverts it.

``Field``, which rejects non-finite entries, is the user-facing grid
function: a datum, a source, the argument of the norms. The transport term
:func:`advective_divergence` takes and returns arrays, as ``elliptic`` does.
"""

import csv
import math
import warnings

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "laplacian_apply",
    "advective_divergence",
    "inner_h",
    "norm_h",
    "norm_l4",
    "seminorm_v",
    "norm_v",
    "mean",
    "save_field_csv",
    "load_field_csv",
]


class Grid:
    """Uniform tensor grid of n cells per axis on (0,1)^d, nodes at cell centers."""

    def __init__(self, d, n):
        if d not in (1, 2):
            raise ValueError(f"unsupported dimension d={d}; expected 1 or 2")
        if n < 4:
            raise ValueError(f"n={n} too coarse; need n >= 4 for second-order stencils")
        self.d = int(d)
        self.n = int(n)
        self.dx = 1.0 / n
        self.shape = (self.n,) * self.d
        self.node_count = self.n**self.d
        self.cell_volume = self.dx**self.d
        self.axis = (np.arange(self.n) + 0.5) * self.dx
        self.axis.setflags(write=False)

    def coords(self):
        """Cell-center coordinate arrays, one per axis, each of shape ``self.shape``."""
        return np.meshgrid(*([self.axis] * self.d), indexing="ij")

    def matches(self, other):
        return self.d == other.d and self.n == other.n

    def __repr__(self):
        return f"Grid(d={self.d}, n={self.n})"


def make_grid(d, n):
    """Build a grid, rejecting d outside {1, 2} and n < 4."""
    return Grid(d, n)


class Field:
    """Real-valued grid function; ``values`` has shape ``grid.shape``.

    Treated as immutable: every operation returns a new Field. The
    constructor rejects non-finite entries so NaNs cannot propagate
    silently through a run.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            if values.size == grid.node_count:
                values = values.reshape(grid.shape)
            else:
                raise ValueError(
                    f"field size {values.size} does not match grid with {grid.node_count} nodes"
                )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite entries")
        self.grid = grid
        self.values = values

    def _check(self, other):
        if not self.grid.matches(other.grid):
            raise ValueError(f"grid mismatch: {self.grid} vs {other.grid}")

    def __add__(self, other):
        self._check(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return Field(self.grid, self.values - other.values)

    def __neg__(self):
        return Field(self.grid, -self.values)

    def __mul__(self, a):
        return Field(self.grid, self.values * float(a))

    __rmul__ = __mul__

    def __truediv__(self, a):
        return Field(self.grid, self.values / float(a))

    def __repr__(self):
        return f"Field({self.grid}, min={self.values.min():.3g}, max={self.values.max():.3g})"


def _on_grid(g, *arrays):
    if any(np.shape(a) != g.shape for a in arrays):
        raise ValueError(f"grid mismatch: {g} vs arrays of shape {[np.shape(a) for a in arrays]}")


def _laplacian(v, dx, d=None):
    # the one stencil implementation, on arrays whose trailing d axes are the
    # grid (default: all of them) and whose leading axes are a batch; the
    # ghost layer is filled by hand because np.pad costs more than the stencil
    d = d or v.ndim
    p = np.empty(v.shape[:-d] + tuple(k + 2 for k in v.shape[-d:]))
    p[(Ellipsis,) + (slice(1, -1),) * d] = v
    if d == 1:
        p[..., 0], p[..., -1] = v[..., 0], v[..., -1]
        lap = p[..., :-2] + p[..., 2:] - 2.0 * v
    else:
        p[..., 0, 1:-1], p[..., -1, 1:-1] = v[..., 0, :], v[..., -1, :]
        p[..., 1:-1, 0], p[..., 1:-1, -1] = v[..., :, 0], v[..., :, -1]
        lap = p[..., :-2, 1:-1] + p[..., 2:, 1:-1] + p[..., 1:-1, :-2] + p[..., 1:-1, 2:] - 4.0 * v
    return lap / dx**2


def laplacian_apply(g, u):
    """Second-order Laplacian with mirror ghosts (zero-flux closure).

    Constants are in the kernel and the discrete mean of the output is a
    telescoping sum, hence zero up to accumulation roundoff.
    """
    _on_grid(g, u.values)
    return Field(g, _laplacian(u.values, g.dx))


def _head(a, axis):
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(None, -1)
    return a[tuple(sl)]


def _tail(a, axis):
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(1, None)
    return a[tuple(sl)]


def advective_divergence(g, u, v):
    """Discrete divergence of the face fluxes u_face * dv_face, for arrays u, v of shape ``g.shape``.

    Face values of u are arithmetic means of the two adjacent nodes, the
    gradient of v is the face-centered difference, and the normal flux
    vanishes on the boundary, so the output telescopes to exact zero mean.
    """
    _on_grid(g, u, v)
    out = np.zeros(g.shape)
    for axis in range(g.d):
        dv = np.diff(v, axis=axis) / g.dx
        flux = 0.5 * (_tail(u, axis) + _head(u, axis)) * dv
        _head(out, axis)[...] += flux
        _tail(out, axis)[...] -= flux
    return out / g.dx


def inner_h(u, w):
    """L2 inner product: cell volume times the nodal dot product."""
    u._check(w)
    return u.grid.cell_volume * float(np.dot(u.values.ravel(), w.values.ravel()))


def norm_h(u):
    return np.sqrt(u.grid.cell_volume * float(np.dot(u.values.ravel(), u.values.ravel())))


def norm_l4(u):
    # squared twice, not u**4: a power of a negative base goes through libm pow
    return (u.grid.cell_volume * float(np.sum(np.square(np.square(u.values))))) ** 0.25


def mean(u):
    """Average over the unit box (|domain| = 1)."""
    return u.grid.cell_volume * float(np.sum(u.values))


def _face_diff_sq(v, dx, d=None):
    # sum of squared face-centred differences over the trailing d axes (default:
    # all of them), one value per entry of the leading batch axes
    d = d or v.ndim
    spatial = tuple(range(-d, 0))
    total = 0.0
    for axis in spatial:
        diff = np.diff(v, axis=axis) / dx
        total = total + np.sum(diff * diff, axis=spatial)
    return total


def seminorm_v(u):
    """H1 seminorm from face-centered differences over interior faces."""
    g = u.grid
    return np.sqrt(g.cell_volume * float(_face_diff_sq(u.values, g.dx)))


def norm_v(u):
    return np.sqrt(seminorm_v(u) ** 2 + norm_h(u) ** 2)


def save_field_csv(u, path):
    """Write one node per row: coordinates then value."""
    g = u.grid
    coords = g.coords()
    header = ["x", "value"] if g.d == 1 else ["x", "y", "value"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        flat = [c.ravel() for c in coords] + [u.values.ravel()]
        for row in zip(*flat):
            writer.writerow([f"{x:.17g}" for x in row])


def _first_bad_line(fh, width):
    # numpy's row numbers count body rows, and count them differently for a
    # bad token and a width change, so a failed read is scanned again to name
    # the file line; None if the scan finds no fault
    for lineno, row in enumerate(csv.reader(fh), start=1):
        if lineno == 1 or not row:
            continue
        if len(row) != width:
            return f"line {lineno}: expected {width} values, found {len(row)}"
        for token in row:
            try:
                float(token)
            except ValueError:
                return f"line {lineno}: {token!r} is not a number"
    return None


def _read_node_csv(path, label, header, node_count):
    """The rows ``t,node,values...`` (C-order flat node index) of a CSV, as {t: {node: [values]}}.

    The first line must be ``header``; blank lines are skipped. A row of the wrong width, a token
    that is no number, a non-finite entry, a node outside [0, node_count) (never wrapped) and a
    second row for one (t, node) are rejected with their file line.
    """
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = [x.strip() for x in next(reader, [])]
        if first != header:
            raise ValueError(f"{label} must have header {','.join(header)}, got {first}")
        for row in reader:
            if not "".join(row).strip():
                continue
            where = f"{label} line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {len(header)} values, found {len(row)}")
            try:
                t, node, values = float(row[0]), int(row[1]), [float(x) for x in row[2:]]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not all(map(math.isfinite, [t, *values])):
                raise ValueError(f"{where}: non-finite entry in {','.join(row)}")
            if not 0 <= node < node_count:
                raise ValueError(f"{where}: node {node} outside 0..{node_count - 1}")
            block = rows.setdefault(t, {})
            if node in block:
                raise ValueError(f"{where}: second row for t={row[0]}, node {node}")
            block[node] = values
    return rows


def load_field_csv(g, path):
    """Read a field written by :func:`save_field_csv` onto grid ``g``."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        if len(header) != g.d + 1:
            raise ValueError(f"expected {g.d + 1} columns, found {len(header)}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: the count check says so
                data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
        except ValueError as exc:
            fh.seek(0)
            raise ValueError(_first_bad_line(fh, g.d + 1) or str(exc)) from exc
    if len(data) != g.node_count:
        raise ValueError(f"expected {g.node_count} rows, found {len(data)}")
    if data.shape[1] != g.d + 1:
        raise ValueError(f"every row must hold {g.d + 1} values")
    coords = [c.ravel() for c in g.coords()]
    for axis in range(g.d):
        if not np.all(np.abs(data[:, axis] - coords[axis]) <= 1e-12):
            raise ValueError("node coordinates in file do not match the grid")
    return Field(g, data[:, -1])
