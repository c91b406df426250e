"""Cell-centered uniform grids on the unit box with homogeneous-Neumann operators.

The domain is the unit box (0,1)^d with d in {1, 2}. Nodes sit at cell
centers x_i = (i + 1/2)*dx, so the mirror-ghost closure of the Laplacian is
second order, exactly symmetric, and summation by parts holds at machine
precision: (-lap u, w)_h equals the face-difference inner product. That
exactness is what makes the scheme's energy telescoping and mass bookkeeping
identities hold discretely instead of merely up to truncation error.

A grid function is a float ndarray whose trailing d axes are the grid;
leading axes, where a function allows them, are a batch of such fields.
The stencil lives in one private function on plain arrays, which
:func:`laplacian_apply` wraps and the solvers in ``elliptic`` use for their
residual checks. The stencil's eigenvectors are the cosines
cos(pi*k*(i + 1/2)/n) of the DCT-II basis, which is how ``elliptic``
inverts it.

The norms are private cores (``_pair``, ``_total``, ``_sq_semi``, ``_sq_v``,
``_quartic``) that return a float for one field and one value per field
for a batch. The solver, the ledger and the study call them; the public
norms wrap them with a check of the trailing shape.
"""

import csv
import math
import warnings

import numpy as np

__all__ = [
    "Grid",
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

    def __repr__(self):
        return f"Grid(d={self.d}, n={self.n})"


def make_grid(d, n):
    """Build a grid, rejecting d outside {1, 2} and n < 4."""
    return Grid(d, n)


def _on_grid(g, *arrays, batch=False):
    # every array has shape g.shape or, with batch set, ends in it
    for a in arrays:
        shape = np.shape(a)
        if (shape[max(len(shape) - g.d, 0) :] if batch else shape) != g.shape:
            raise ValueError(f"grid mismatch: {g} vs arrays of shape {[np.shape(x) for x in arrays]}")


def _laplacian(v, dx, d=None):
    # the one stencil implementation, on arrays whose trailing d axes are the
    # grid (default: all of them) and whose leading axes are a batch; the
    # ghost layer is filled by hand because np.pad costs more than the stencil.
    # In 2D the ghost-padded rows (width w = n1 + 2) are read as one flat
    # array, where the four neighbours of a node are the offsets -w, +w, -1
    # and +1, so every term is a contiguous slice. The slices also run over
    # the ghost columns between rows; those lanes are dropped by the returned
    # view, a strided (n0, n1) window of the (n0, w) result. The sum is
    # up + down + left + right - 4v, then / dx^2, as in the padded-slice form,
    # so the bits are the same; it costs about 30% less at 48x48 and 64x64.
    d = d or v.ndim
    if d == 1:
        p = np.empty(v.shape[:-1] + (v.shape[-1] + 2,))
        p[..., 1:-1] = v
        p[..., 0], p[..., -1] = v[..., 0], v[..., -1]
        lap = p[..., :-2] + p[..., 2:]
        lap -= 2.0 * v
        lap /= dx**2
        return lap
    *lead, n0, n1 = v.shape
    w = n1 + 2
    p = np.empty((*lead, n0 + 2, w))
    p[..., 1:-1, 1:-1] = v
    p[..., 1:-1, 0], p[..., 1:-1, -1] = v[..., 0], v[..., -1]
    p[..., 0, :], p[..., -1, :] = p[..., 1, :], p[..., -2, :]  # with the corners, which only dropped lanes read
    q = p.reshape(*lead, -1)
    m = n0 * w - 2  # from node (0, 0) to node (n0 - 1, n1 - 1)
    out = np.empty((*lead, n0 * w))
    lap = out[..., :m]
    np.add(q[..., 1 : 1 + m], q[..., 2 * w + 1 : 2 * w + 1 + m], out=lap)
    lap += q[..., w : w + m]
    lap += q[..., w + 2 : w + 2 + m]
    lap -= 4.0 * q[..., w + 1 : w + 1 + m]
    lap /= dx**2
    return out.reshape(*lead, n0, w)[..., :n1]


def laplacian_apply(g, u):
    """Second-order Laplacian with mirror ghosts (zero-flux closure).

    Constants are in the kernel and the discrete mean of the output is a
    telescoping sum, hence zero up to accumulation roundoff. In 2D the
    result is a strided view of shape ``g.shape``.
    """
    _on_grid(g, u)
    return _laplacian(u, g.dx)


def advective_divergence(g, u, v):
    """Discrete divergence of the face fluxes u_face * dv_face, for arrays u, v of shape ``g.shape``.

    Face values of u are arithmetic means of the two adjacent nodes, the
    gradient of v is the face-centered difference, and the normal flux
    vanishes on the boundary, so the output telescopes to exact zero mean.

    The arrays are read flat, as ``_laplacian`` reads them: the two nodes of
    a face along the axis of stride s are the flat offsets k and k + s, so
    every term is a contiguous slice. Along the last axis of a 2D grid the
    pairs that straddle two rows get zero flux, and adding or subtracting
    that +0 leaves every entry as it was (none is -0), so the result is
    bitwise the per-axis form, and costs about a third less at 64x64.
    """
    _on_grid(g, u, v)
    uf, vf = u.reshape(-1), v.reshape(-1)
    out = np.zeros(g.node_count)
    for stride in (g.n, 1) if g.d == 2 else (1,):
        flux = uf[stride:] + uf[:-stride]  # 0.5 * (u[k+s] + u[k]) * ((v[k+s] - v[k]) / dx), in place
        flux *= 0.5
        dv = vf[stride:] - vf[:-stride]
        dv /= g.dx
        flux *= dv
        if stride == 1 and g.d == 2:
            flux[g.n - 1 :: g.n] = 0.0  # pairs that straddle two rows
        out[:-stride] += flux
        out[stride:] -= flux
    out /= g.dx
    return out.reshape(g.shape)


def _sum(g, x):
    # the sum over the grid axes: a float for one field, one per field for a batch
    if np.ndim(x) == g.d:
        return float(np.sum(x))
    return np.sum(x, axis=tuple(range(-g.d, 0)))


def _total(g, x):
    return g.cell_volume * _sum(g, x)


def _pair(g, a, b):
    # (a, b)_h. One field reduces by np.vdot's BLAS dot, 1.4-2.3 us at 48x48
    # and 64x64 against 6.4-10 us for an axis sum, on the Newton path that
    # takes it 3-4 times a step; a batch by an axis sum, as the ledger always
    # has. The two round differently, so each caller keeps its bits.
    if np.ndim(a) == g.d and np.ndim(b) == g.d:
        return g.cell_volume * float(np.vdot(a, b))
    return _total(g, a * b)


def _sq_semi(g, x):
    # squared V seminorm, from the face-centred differences over interior faces
    faces = 0.0
    for axis in range(-g.d, 0):
        diff = np.diff(x, axis=axis) / g.dx
        faces = faces + _sum(g, diff * diff)
    return g.cell_volume * faces


def _sq_v(g, x):
    return _sq_semi(g, x) + _pair(g, x, x)


def _quartic(g, x):
    # |x|_L4^4, squared twice, not x**4: a power of a negative base goes through libm pow
    return _total(g, np.square(np.square(x)))


def inner_h(g, a, b):
    """L2 inner product (a, b)_h: cell volume times the nodal dot product, per field of a batch."""
    _on_grid(g, a, b, batch=True)
    return _pair(g, a, b)


def norm_h(g, x):
    return np.sqrt(inner_h(g, x, x))


def norm_l4(g, x):
    _on_grid(g, x, batch=True)
    return _quartic(g, x) ** 0.25


def mean(g, x):
    """Average over the unit box (|domain| = 1)."""
    _on_grid(g, x, batch=True)
    return _total(g, x)


def seminorm_v(g, x):
    """H1 seminorm from face-centered differences over interior faces."""
    _on_grid(g, x, batch=True)
    return np.sqrt(_sq_semi(g, x))


def norm_v(g, x):
    _on_grid(g, x, batch=True)
    return np.sqrt(_sq_v(g, x))


def save_field_csv(g, u, path):
    """Write the array ``u`` of shape ``g.shape``, one node per row: coordinates then value."""
    _on_grid(g, u)
    header = ["x", "value"] if g.d == 1 else ["x", "y", "value"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        flat = [c.ravel() for c in g.coords()] + [np.ravel(u)]
        for row in zip(*flat):
            writer.writerow([f"{x:.17g}" for x in row])


def _first_bad_line(fh, width):
    # numpy's row numbers count body rows, and count them differently for a
    # bad token and a width change, so a failed or non-finite read is scanned
    # again to name the file line; None if the scan finds no fault
    for lineno, row in enumerate(csv.reader(fh), start=1):
        if lineno == 1 or not row:
            continue
        if len(row) != width:
            return f"line {lineno}: expected {width} values, found {len(row)}"
        for token in row:
            try:
                value = float(token)
            except ValueError:
                return f"line {lineno}: {token!r} is not a number"
            if not math.isfinite(value):
                return f"line {lineno}: non-finite entry {token.strip()!r}"
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
    """Read a field written by :func:`save_field_csv` onto grid ``g``, as an array of shape ``g.shape``.

    A malformed row and a non-finite entry are rejected with their file line.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        if len(header) != g.d + 1:
            raise ValueError(f"expected {g.d + 1} columns, found {len(header)}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: the count check says so
                data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
            fault = None if np.isfinite(data).all() else "field contains non-finite entries"
        except ValueError as exc:
            fault = str(exc)
        if fault is not None:
            fh.seek(0)
            raise ValueError(_first_bad_line(fh, g.d + 1) or fault)
    if len(data) != g.node_count:
        raise ValueError(f"expected {g.node_count} rows, found {len(data)}")
    if data.shape[1] != g.d + 1:
        raise ValueError(f"every row must hold {g.d + 1} values")
    coords = [c.ravel() for c in g.coords()]
    for axis in range(g.d):
        if not np.all(np.abs(data[:, axis] - coords[axis]) <= 1e-12):
            raise ValueError("node coordinates in file do not match the grid")
    return data[:, -1].reshape(g.shape)
