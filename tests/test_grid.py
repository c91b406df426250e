from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemhill.cli import CosineSource
from chemhill.grid import (
    _laplacian,
    advective_divergence,
    inner_h,
    laplacian_apply,
    load_field_csv,
    make_grid,
    mean,
    norm_h,
    norm_l4,
    norm_v,
    save_field_csv,
    seminorm_v,
)
from chemhill.nonlinearity import BetaSpec, PiSpec
from chemhill.scheme import Scenario, SimParams, run

import oracles


def test_make_grid_basics():
    g = make_grid(1, 64)
    assert g.dx == 1.0 / 64
    assert g.node_count == 64
    assert g.dx * g.n == 1.0
    g2 = make_grid(2, 32)
    assert g2.node_count == 1024
    assert g2.shape == (32, 32)


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(3, 64)
    with pytest.raises(ValueError):
        make_grid(1, 3)
    with pytest.raises(ValueError):
        make_grid(0, 16)


def test_nodes_are_cell_centers():
    g = make_grid(1, 8)
    assert np.allclose(g.axis, (np.arange(8) + 0.5) / 8)


def test_field_rejects_nonfinite_and_mismatch(tmp_path):
    # run checks the datum and every source once, the datum reader its file,
    # and the norms the trailing shape of their arguments
    g = make_grid(1, 8)
    params = SimParams(eps=0.1, lam=0.01, N=2, T=0.01)
    sc = Scenario(grid=g, params=params, beta=BetaSpec("power"), pi=PiSpec("zero"), u0=np.full(8, np.nan))
    with pytest.raises(ValueError, match="initial datum u0 holds non-finite entries"):
        run(sc)
    with pytest.raises(ValueError, match=r"initial datum u0 has shape \(9,\)"):
        run(replace(sc, u0=np.zeros(9)))
    with pytest.raises(ValueError, match=r"initial datum u0 has shape \(16,\)"):  # a flat datum is not reshaped
        run(replace(sc, grid=make_grid(2, 4), u0=np.zeros(16)))
    nan_source = CosineSource(amplitude=np.nan)
    with pytest.raises(ValueError, match="source average of step 0 holds non-finite entries"):
        run(replace(sc, u0=np.zeros(8), source=nan_source))
    path = tmp_path / "field.csv"
    save_field_csv(g, np.full(8, np.inf), path)
    with pytest.raises(ValueError, match="line 2: non-finite entry 'inf'"):
        load_field_csv(g, path)
    u, w = np.zeros(8), np.zeros(16)
    for call in (lambda: inner_h(g, u, w), lambda: norm_h(g, w), lambda: mean(g, np.zeros((3, 9)))):
        with pytest.raises(ValueError, match="grid mismatch"):
            call()


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
def test_laplacian_annihilates_constants(d, n):
    g = make_grid(d, n)
    u = np.full(g.shape, 5.0)
    assert np.max(np.abs(laplacian_apply(g, u))) == 0.0


@pytest.mark.parametrize(
    "shape, d",
    [
        ((7,), 1),
        ((8,), 1),
        ((3, 9), 1),
        ((7, 7), 2),
        ((8, 8), 2),
        ((5, 8), 2),
        ((4, 9, 9), 2),
        ((2, 3, 6, 6), 2),
    ],
)
def test_laplacian_is_bitwise_the_padded_slice_form(shape, d):
    # the contiguous-slice stencil adds the same terms in the same order as
    # the padded-slice sum, on single fields and on batches, at odd and even n
    v = np.random.default_rng(sum(shape)).standard_normal(shape)
    v.flat[::5] = 0.0
    v.flat[1::7] *= -0.0
    dx = 1.0 / shape[-1]
    got = _laplacian(v, dx, d)
    want = oracles.padded_slice_laplacian(v, dx, d)
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    if v.ndim == d and len(set(shape)) == 1:  # a field on a grid: the public wrapper too
        assert np.array_equal(laplacian_apply(make_grid(d, shape[-1]), v), want)

@pytest.mark.parametrize("d", [1, 2])
def test_laplacian_output_has_zero_mean(d):
    g = make_grid(d, 32)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(g.shape)
        assert abs(mean(g, laplacian_apply(g, u))) <= 1e-13


def test_laplacian_mode_convergence_second_order():
    errs = {}
    for n in (64, 128):
        g = make_grid(1, n)
        u = np.cos(np.pi * g.axis)
        lap = laplacian_apply(g, u)
        errs[n] = np.max(np.abs(lap + np.pi**2 * u))
    ratio = errs[64] / errs[128]
    assert 3.5 <= ratio <= 4.5
    assert errs[128] <= 1e-2


@pytest.mark.parametrize("d,k", [(1, 1), (1, 3), (2, 2)])
def test_laplacian_discrete_eigenvalue_exact(d, k):
    g = make_grid(d, 64)
    vals = oracles.mode_values(g, k)
    a = oracles.mode_eigenvalue(g.n, k) * d
    lap = laplacian_apply(g, vals)
    assert np.max(np.abs(lap + a * vals)) <= 1e-9 * a


def test_inner_products_and_norms_on_unit_constant():
    g = make_grid(2, 16)
    one = np.ones(g.shape)
    assert norm_h(g, one) == pytest.approx(1.0, abs=1e-14)
    assert mean(g, one) == pytest.approx(1.0, abs=1e-14)
    assert norm_l4(g, one) == pytest.approx(1.0, abs=1e-14)
    assert seminorm_v(g, one) == 0.0
    assert norm_v(g, one) == pytest.approx(1.0, abs=1e-14)


def test_cosine_mode_h_norm_is_exactly_half():
    # full-period cosine sums vanish on cell centers, so the discrete
    # quadrature of cos^2 is exact
    g = make_grid(1, 128)
    u = np.cos(np.pi * g.axis)
    assert abs(norm_h(g, u) ** 2 - 0.5) <= 1e-14


@pytest.mark.parametrize("d", [1, 2])
def test_laplacian_symmetry_and_negative_semidefiniteness(d):
    g = make_grid(d, 16)
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = rng.standard_normal(g.shape)
        w = rng.standard_normal(g.shape)
        lu, lw = laplacian_apply(g, u), laplacian_apply(g, w)
        s1, s2 = inner_h(g, lu, w), inner_h(g, u, lw)
        assert abs(s1 - s2) <= 1e-12 * max(1.0, abs(s1))
        quad = inner_h(g, lu, u)
        assert abs(quad + seminorm_v(g, u) ** 2) <= 1e-12 * max(1.0, abs(quad))


def test_norm_l4_squares_twice_on_negative_entries():
    # u**4 takes libm pow for a negative base; squaring twice does not
    g = make_grid(2, 16)
    u = np.random.default_rng(3).standard_normal(g.shape)
    assert np.any(u < 0)
    assert norm_l4(g, u) == (g.cell_volume * float(np.sum(np.square(np.square(u))))) ** 0.25


@pytest.mark.parametrize("d", [1, 2])
def test_advective_divergence_rejects_a_wrong_shape(d):
    g = make_grid(d, 8)
    with pytest.raises(ValueError, match="grid mismatch"):
        advective_divergence(g, np.zeros(g.shape), np.zeros(g.node_count + 1))


@pytest.mark.parametrize("d", [1, 2])
def test_advective_divergence_zero_for_constant_potential(d):
    g = make_grid(d, 16)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(g.shape)
    v = np.full(g.shape, 3.0)
    assert np.max(np.abs(advective_divergence(g, u, v))) == 0.0


@pytest.mark.parametrize("d", [1, 2])
def test_advective_divergence_exact_zero_mean(d):
    g = make_grid(d, 32)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.standard_normal(g.shape)
        v = rng.standard_normal(g.shape)
        assert abs(mean(g, advective_divergence(g, u, v))) <= 1e-13


def test_advective_divergence_second_order():
    # d/dx(cos(pi x) * d/dx cos(pi x)) = -pi^2 cos(2 pi x)
    errs = {}
    for n in (64, 128):
        g = make_grid(1, n)
        u = np.cos(np.pi * g.axis)
        out = advective_divergence(g, u, u)
        exact = -np.pi**2 * np.cos(2 * np.pi * g.axis)
        errs[n] = np.max(np.abs(out - exact))
    ratio = errs[64] / errs[128]
    assert 3.0 <= ratio <= 5.0


@pytest.mark.parametrize("d", [1, 2])
def test_field_csv_round_trip(tmp_path, d):
    g = make_grid(d, 8)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(g.shape)
    path = tmp_path / "field.csv"
    save_field_csv(g, u, path)
    back = load_field_csv(g, path)
    assert np.array_equal(back, u)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(None, None, id="wrong-grid"),
        # a bad row names its file line, header included: numpy's own message
        # counted body rows, from 0 for a bad token and from 1 for a width change
        pytest.param(lambda ls: ls[:3] + [ls[3] + ",0"] + ls[4:], "line 4: expected 2 values, found 3", id="ragged-row"),
        pytest.param(lambda ls: ls[:3] + [ls[3].split(",")[0]] + ls[4:], "line 4: expected 2 values, found 1", id="short-row"),
        pytest.param(
            lambda ls: ls[:3] + [ls[3].split(",")[0] + ",abc"] + ls[4:], "line 4: 'abc' is not a number", id="non-numeric"
        ),
        pytest.param(lambda ls: ls[:3] + [ls[3].split(",")[0] + ",nan"] + ls[4:], "line 4: non-finite entry 'nan'", id="nan"),
        pytest.param(lambda ls: ls[:5] + [ls[5].split(",")[0] + ",-inf"] + ls[6:], "line 6: non-finite entry '-inf'", id="inf"),
        pytest.param(lambda ls: ls[:-1], None, id="row-missing"),
        pytest.param(lambda ls: ["x,y,value"] + ls[1:], None, id="header-width"),
        pytest.param(lambda ls: ls[:3] + ["nan," + ls[3].split(",")[1]] + ls[4:], "line 4: non-finite entry 'nan'", id="nan-coordinate"),
        pytest.param(lambda ls: [], None, id="empty-file"),
    ],
)
def test_field_csv_rejects_malformed_file(tmp_path, edit, message):
    g = make_grid(1, 8)
    path = tmp_path / "field.csv"
    save_field_csv(g, np.zeros(8), path)
    if edit is None:
        g = make_grid(1, 16)
    else:
        path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
    with pytest.raises(ValueError) as info:
        load_field_csv(g, path)
    assert message is None or str(info.value) == message


_EPS = np.finfo(float).eps
_PROPERTY_GRIDS = st.sampled_from([(1, 4), (1, 5), (1, 33), (1, 256), (2, 4), (2, 7), (2, 32), (2, 64)])
_SCALES = st.sampled_from([1e-6, 1.0, 1e6])


@settings(max_examples=60)
@given(size=_PROPERTY_GRIDS, su=_SCALES, sw=_SCALES, seed=st.integers(0, 2**32 - 1))
def test_summation_by_parts(size, su, sw, seed):
    # (-Lap u, w)_h equals the inner product of face differences over the
    # interior faces: the mirror ghosts contribute no boundary term
    d, n = size
    g = make_grid(d, n)
    rng = np.random.default_rng(seed)
    u = su * rng.standard_normal(g.shape)
    w = sw * rng.standard_normal(g.shape)
    lhs = -inner_h(g, laplacian_apply(g, u), w)
    faces = sum(float(np.sum(np.diff(u, axis=a) * np.diff(w, axis=a))) for a in range(d))
    rhs = g.cell_volume * faces / g.dx**2
    # every term is at most 4d*max|u|*max|w|/dx^2 and the terms weigh
    # cell_volume each; forming the stencil and summing costs (2d + log2 N) ulps
    scale = 4 * d * np.max(np.abs(u)) * np.max(np.abs(w)) / g.dx**2
    assert abs(lhs - rhs) <= 8 * (2 * d + np.log2(g.node_count)) * _EPS * scale


@settings(max_examples=60)
@given(size=_PROPERTY_GRIDS, su=_SCALES, sv=_SCALES, seed=st.integers(0, 2**32 - 1))
def test_advective_divergence_mean_zero_property(size, su, sv, seed):
    d, n = size
    g = make_grid(d, n)
    rng = np.random.default_rng(seed)
    u = su * rng.standard_normal(g.shape)
    v = sv * rng.standard_normal(g.shape)
    out = advective_divergence(g, u, v)
    # each face flux is added to one cell and subtracted from its neighbour
    # unchanged, so only accumulating up to 2d fluxes per cell and the sum round
    dv_max = max(float(np.max(np.abs(np.diff(v, axis=a)))) for a in range(d))
    scale = 2 * d * np.max(np.abs(u)) * dv_max / g.dx**2
    assert abs(mean(g, out)) <= 8 * (2 * d + np.log2(g.node_count)) * _EPS * scale


@pytest.mark.parametrize("d,n", [(1, 33), (2, 12)])
def test_norms_match_fsum_oracle_single_and_batched(d, n):
    # one field reduces by a BLAS dot or a plain sum, a batch by an axis sum
    # per field; both are within a few ulps of the exactly rounded sums
    g = make_grid(d, n)
    rng = np.random.default_rng(d)
    batch = rng.standard_normal((4,) + g.shape)
    other = rng.standard_normal((4,) + g.shape)
    norms = {"norm_h": norm_h, "norm_l4": norm_l4, "seminorm_v": seminorm_v, "norm_v": norm_v, "mean": mean}
    for name, norm in norms.items():
        got = norm(g, batch)
        assert got.shape == (4,)
        for k, x in enumerate(batch):
            want = oracles.fsum_norms(g, x)[name]
            single = norm(g, x)
            assert isinstance(single, float)
            assert single == pytest.approx(want, rel=1e-13, abs=1e-15), name
            assert got[k] == pytest.approx(want, rel=1e-13, abs=1e-15), name
    pairs = inner_h(g, batch, other)
    for k, (x, y) in enumerate(zip(batch, other)):
        want = oracles.fsum_pair(g, x, y)
        assert inner_h(g, x, y) == pytest.approx(want, rel=1e-13, abs=1e-15)
        assert pairs[k] == pytest.approx(want, rel=1e-13, abs=1e-15)
