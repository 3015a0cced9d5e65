import numpy as np
import pytest

from rotstar import AxiField, AxiGrid, clustered_nodes
from rotstar.grids import (
    _hermite_cubic,
    apply_stencil,
    cubic_spline,
    SplineSampler,
    cumulative_trapezoid,
    derivative_stencil,
    interp_matrix,
    legendre_table,
    locate,
    panel_gauss,
    pchip,
    running_sums,
)
from rotstar.errors import DomainError
from rotstar.perturb import ModeGrid

from oracles import (
    axigrid_kernels_loop, cubic_spline_slopes_banded, kernel_blocks, radial_kernel, weighted_sums,
)


def test_zeta_nodes_symmetric_with_paired_weights():
    grid = AxiGrid.build(2.0, n_r=32, n_zeta=20, l_max=8)
    assert np.allclose(grid.zeta, -grid.zeta[::-1], atol=1e-15)
    assert np.allclose(grid.zeta_w, grid.zeta_w[::-1], rtol=1e-15)


@pytest.mark.parametrize("n_zeta", [12, 13, 32])
def test_half_range_rules(n_zeta):
    # both zeta rules keep their nodes zeta >= 0 with the weights of the
    # others folded onto them: the fine rule's 2 n_zeta nodes leave n_zeta
    # positive ones, and an odd rule keeps zeta = 0 once, with its own weight
    grid = AxiGrid.build(2.0, n_r=16, n_zeta=n_zeta, l_max=8)
    fine, fine_w = np.polynomial.legendre.leggauss(2 * n_zeta)
    assert len(grid.zeta_f) == n_zeta and np.all(grid.zeta_f > 0)
    assert np.array_equal(grid.zeta_h, grid.zeta[n_zeta // 2 :])
    assert (grid.zeta_h[0] == 0.0) == (n_zeta % 2 == 1)
    assert grid.zeta_hw[0] == (1 + (n_zeta % 2 == 0)) * grid.zeta_w[n_zeta // 2]
    even = lambda z: np.cos(3.0 * z) + z ** 6
    for nodes, weights, full, full_w in (
        (grid.zeta_h, grid.zeta_hw, grid.zeta, grid.zeta_w),
        (grid.zeta_f, grid.zeta_fw, fine, fine_w),
    ):
        assert abs(weights.sum() - 2.0) <= 1e-15
        assert abs(weights @ even(nodes) - full_w @ even(full)) <= 1e-14
    # the recurrence's rounding: the whole rules miss the identity by as much
    for proj, leg in ((grid.proj, grid.leg), (grid.proj_f, grid.leg_f)):
        assert np.max(np.abs(proj @ leg.T - np.eye(grid.n_l))) <= 5e-14
    # values on the whole rule are the mirror of those at zeta >= 0
    modes = np.random.default_rng(3).standard_normal((grid.n_l, grid.n_r))
    values = grid.synthesize(modes)
    assert values.shape == (grid.n_r, n_zeta) and np.array_equal(values, values[:, ::-1])
    assert np.array_equal(grid.full_range(grid.half_range(values)), values)
    assert np.max(np.abs(grid.project(values) - modes)) <= 1e-13


def test_quadrature_exactness_requirement():
    with pytest.raises(DomainError):
        AxiGrid.build(2.0, n_r=32, n_zeta=8, l_max=8)
    with pytest.raises(DomainError):
        AxiGrid.build(2.0, n_r=32, n_zeta=16, l_max=7)


def test_clustered_nodes_shape():
    nodes = clustered_nodes(5.0, 100, focus=3.3)
    assert nodes[0] == 0.0 and nodes[-1] == 5.0
    assert np.all(np.diff(nodes) > 0)
    spacing = np.diff(nodes)
    near_focus = spacing[np.searchsorted(nodes, 3.3) - 1]
    assert near_focus < 0.4 * np.max(spacing)


def test_field_symmetry_enforced():
    grid = AxiGrid.build(1.0, n_r=24, n_zeta=12, l_max=4)
    f = AxiField.from_function(grid, lambda r, z: r * z ** 2 + 1.0)
    f.validate()
    assert np.array_equal(f.values, f.values[:, ::-1])
    assert np.all(f.values[0] == f.values[0, 0])
    bad = AxiField(grid, np.random.default_rng(0).standard_normal((24, 12)))
    with pytest.raises(DomainError):
        bad.validate()


@pytest.mark.parametrize("n_zeta", [8, 9])
def test_from_function_mirrors_odd_and_even_zeta_grids(n_zeta):
    # an odd n_zeta has a node at zeta = 0, which the mirror must not copy
    grid = AxiGrid.build(2.0, n_r=32, n_zeta=n_zeta, l_max=4)

    def fn(r, z):
        return np.cos(r) + r * z ** 2

    f = AxiField.from_function(grid, fn)
    assert np.array_equal(f.values, f.values[:, ::-1])
    want = fn(grid.r[:, None], grid.zeta[None, :])
    assert np.max(np.abs(f.values - want)) <= 1e-15


def test_mode_roundtrip():
    grid = AxiGrid.build(1.5, n_r=40, n_zeta=16, l_max=8)
    rng = np.random.default_rng(5)
    modes = rng.standard_normal((grid.n_l, grid.n_r))
    modes[1:, 0] = 0.0
    f = AxiField.from_modes(grid, modes)
    back = grid.project(f.values)
    assert np.allclose(back, modes, atol=1e-12)


def test_odd_coefficients_vanish():
    from scipy.special import eval_legendre

    grid = AxiGrid.build(1.0, n_r=16, n_zeta=16, l_max=4)
    f = AxiField.from_function(grid, lambda r, z: np.exp(-r) * (1 + z ** 4))
    vals = f.values
    for l in (1, 3, 5):
        coef = (2 * l + 1) / 2 * (grid.zeta_w * eval_legendre(l, grid.zeta)) @ vals.T
        assert np.max(np.abs(coef)) < 1e-14


def test_interpolation_and_derivative_accuracy():
    grid = AxiGrid.build(2.0, n_r=80, n_zeta=12, l_max=4)
    vals = np.sin(1.7 * grid.r)
    at_gauss = interp_matrix(grid.r, grid.gauss_x) @ vals
    assert np.max(np.abs(at_gauss - np.sin(1.7 * grid.gauss_x))) < 2e-6
    dv = apply_stencil(*derivative_stencil(grid.r), vals)
    assert np.max(np.abs(dv - 1.7 * np.cos(1.7 * grid.r))) < 2e-4


def _interp_matrix_loop(nodes, points, width):
    """Per-point reference: Lagrange weights on each point's stencil."""
    n = len(nodes)
    mat = np.zeros((len(points), n))
    idx = np.clip(np.searchsorted(nodes, points) - 1, 0, n - 2)
    for p, x in enumerate(points):
        s0 = min(max(idx[p] - (width // 2 - 1), 0), n - width)
        stencil = nodes[s0 : s0 + width]
        for s in range(width):
            num = 1.0
            den = 1.0
            for m in range(width):
                if m != s:
                    num *= x - stencil[m]
                    den *= stencil[s] - stencil[m]
            mat[p, s0 + s] = num / den
    return mat


@pytest.mark.parametrize("width", [4, 6])
def test_interp_matrix_matches_per_point_loop(width):
    grid = AxiGrid.build(3.0, n_r=40, n_zeta=12, l_max=4, focus=2.0)
    rng = np.random.default_rng(3)
    # points below 0, on every node, inside panels and beyond r_inf
    points = np.concatenate(
        [[-0.5, -1e-3], grid.r, rng.uniform(-0.2, 3.4, 300), [3.0 + 1e-9, 4.5]]
    )
    assert np.array_equal(
        interp_matrix(grid.r, points, width), _interp_matrix_loop(grid.r, points, width)
    )


# the last shape lies past the range of powers scaled by r_inf alone,
# (l + 1) log10(r_inf / x_min) > 308, so its kernel runs in several chunks;
# an overflow would be a RuntimeWarning, which the suite makes an error
_KERNEL_SHAPES = [(256, 32, 8), (96, 18, 16), (48, 122, 120)]


def _worst_per_degree(got, want):
    """Largest difference of each degree (axis 0) relative to that degree's
    largest value, over all degrees."""
    diff = np.abs(got - want).reshape(len(want), -1).max(axis=1)
    return float(np.max(diff / np.abs(want).reshape(len(want), -1).max(axis=1)))


def test_radial_kernel_oracle_matches_the_loop():
    grid = AxiGrid.build(12.0, 96, 18, 16, focus=3.6)
    loop = axigrid_kernels_loop(grid)
    for k, l in enumerate(grid.lvals):
        ker = radial_kernel(grid.r, grid.gauss_x, grid.gauss_w, l)
        assert np.max(np.abs(ker - loop[k])) <= 1e-15 * np.max(np.abs(loop[k]))
    # the center row needs no special case: 0^0 = 1 and 0^l = 0
    ker = radial_kernel(grid.r, grid.gauss_x, grid.gauss_w, 0)
    assert np.array_equal(ker[0], grid.gauss_w * grid.gauss_x)
    assert not np.any(radial_kernel(grid.r, grid.gauss_x, grid.gauss_w, 2)[0])


@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_separable_kernel_applies_the_dense_tensor(shape):
    grid = AxiGrid.build(12.0, *shape, focus=3.6)
    assert not hasattr(grid, "kernels")
    if shape[2] == 120:
        assert len(grid.kernel.starts) > 1  # more than one chunk
    samples = np.random.default_rng(4).standard_normal((grid.n_l, grid.n_gauss))
    want = np.einsum("kip,kp->ki", axigrid_kernels_loop(grid), samples)
    assert _worst_per_degree(grid.potential_modes_from_gauss(samples), want) <= 1e-13


@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
def test_separable_kernel_applies_the_dense_transpose(shape):
    grid = AxiGrid.build(12.0, *shape, focus=3.6)
    values = np.random.default_rng(5).standard_normal((grid.n_l, grid.n_r))
    want = np.einsum("kip,ki->kp", axigrid_kernels_loop(grid), values)
    assert _worst_per_degree(grid.kernel.apply_transpose(values), want) <= 1e-13


def _running_sums_loop(v, starts, carry, reverse):
    """running_sums by a double loop: entry j enters the sum at i (j <= i,
    or j >= i with ``reverse``) times the carries of the chunk boundaries
    between them."""
    chunk = np.searchsorted(starts, np.arange(v.shape[-1]), side="right") - 1
    out = np.zeros(v.shape)
    for i in range(v.shape[-1]):
        for j in (range(i, v.shape[-1]) if reverse else range(i + 1)):
            lo, hi = sorted((chunk[i], chunk[j]))
            out[..., i] += v[..., j] * np.prod(carry[..., lo:hi], axis=-1)
    return out


@pytest.mark.parametrize("starts", [[0], [0, 3], [0, 1, 5, 6]])
@pytest.mark.parametrize("reverse", [False, True])
def test_running_sums_match_a_direct_loop(starts, reverse):
    rng = np.random.default_rng(len(starts))
    starts = np.array(starts)
    v = rng.standard_normal((3, 9))
    carry = rng.uniform(0.1, 1.0, (3, len(starts) - 1))
    got = running_sums(v, starts, carry, reverse)
    assert np.allclose(got, _running_sums_loop(v, starts, carry, reverse), rtol=1e-14, atol=1e-14)


def test_reverse_running_sums_are_contiguous():
    # on the grid whose kernel runs in 3 chunks, a sum from the last entry
    # down is a C-contiguous array with the bits of the sum from the first
    # entry up of the reversed entries, reversed
    kernel = AxiGrid.build(12.0, 48, 122, 120, focus=3.6).kernel
    assert len(kernel.starts) == 3
    v = np.random.default_rng(7).standard_normal((len(kernel.lvals), kernel.n_r - 1))
    n = v.shape[-1]
    flipped = n - np.append(kernel.starts[1:], n)[::-1]
    for carry in (kernel.carry_in, kernel.carry_out):
        got = running_sums(v, kernel.starts, carry, reverse=True)
        want = running_sums(v[:, ::-1], flipped, carry[:, ::-1])[:, ::-1]
        assert got.flags.c_contiguous and np.array_equal(got, want)


@pytest.mark.parametrize("shape", _KERNEL_SHAPES)
@pytest.mark.parametrize("n_cols", [1, "n_l"])
def test_kernel_blocks_match_dense_products(shape, n_cols):
    grid = AxiGrid.build(12.0, *shape, focus=3.6)
    kernels = axigrid_kernels_loop(grid)
    interp = interp_matrix(grid.r, grid.gauss_x)
    rng = np.random.default_rng(6)
    n_j = grid.n_l if n_cols == "n_l" else n_cols
    got, want = [], []
    for k in range(grid.n_l):
        coef = rng.standard_normal((grid.n_gauss, n_j))
        blk = kernel_blocks(grid.kernel, k, coef)
        assert blk.shape == (n_j, grid.n_r, grid.n_r)
        got.append(blk.transpose(0, 2, 1))
        want.append(np.stack([(kernels[k] * coef[:, j]) @ interp for j in range(n_j)]))
    assert _worst_per_degree(np.array(got), np.array(want)) <= 1e-13


def _array_attributes(obj):
    """The numpy arrays an object holds, through the rotstar objects it holds."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif type(value).__module__.startswith("rotstar."):
            yield from _array_attributes(value)


def test_axigrid_holds_no_kernel_tensor():
    # the dense kernel tensor was 75 MB at this size
    grid = AxiGrid.build(8.0, 512, 48, 16)
    arrays = list(_array_attributes(grid))
    assert sum(a.nbytes for a in arrays) < 1e6
    assert max(a.size for a in arrays) < grid.n_r * grid.n_gauss


def test_at_gauss_matches_interp_matrix():
    grid = AxiGrid.build(3.0, n_r=64, n_zeta=12, l_max=6, focus=2.0)
    rng = np.random.default_rng(8)
    dense = interp_matrix(grid.r, grid.gauss_x)
    modes = rng.standard_normal((grid.n_l, grid.n_r))
    field = rng.standard_normal((grid.n_r, grid.n_zeta))
    for got, want in (
        (grid.at_gauss(modes), modes @ dense.T),
        (grid.at_gauss(field, axis=0), dense @ field),
    ):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_derivative_stencil_exact_on_cubics():
    # exactness on cubics fixes the 4 weights; the stencil of node i starts at
    # node i - 1, shifted inward at both ends
    nodes = clustered_nodes(3.0, 40, focus=2.0)
    cols, weights = derivative_stencil(nodes)
    n = len(nodes)
    assert np.array_equal(cols[:, 0], np.clip(np.arange(n) - 1, 0, n - 4))
    rng = np.random.default_rng(2)
    c = rng.standard_normal((4, 5))
    vals = sum(c[m] * nodes[:, None] ** m for m in range(4))
    want = sum(m * c[m] * nodes[:, None] ** (m - 1) for m in range(1, 4))
    got = apply_stencil(cols, weights, vals, axis=0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# the in-house 1-D routines against scipy, which stays the oracle here


def _scipy_interpolate():
    return pytest.importorskip("scipy.interpolate")


def test_cubic_spline_matches_scipy_on_grid_nodes():
    si = _scipy_interpolate()
    grid = AxiGrid.build(5.5, n_r=256, n_zeta=32, l_max=8, focus=3.65)
    rng = np.random.default_rng(11)
    y = np.sin(grid.r)[:, None] * rng.standard_normal((1, 7)) + np.cos(2 * grid.r)[:, None]
    t = np.concatenate([grid.r, rng.uniform(-0.3, 5.8, 2000)])
    want = si.CubicSpline(grid.r, y, axis=0)
    got = cubic_spline(grid.r, y)
    scale = np.max(np.abs(want.c), axis=(0, 1))
    assert got.c.shape == want.c.shape
    assert np.max(np.abs(got.c - want.c) / scale) <= 1e-13
    assert np.max(np.abs(got(t) - want(t))) <= 1e-13 * np.max(np.abs(want(t)))
    d_want = want.derivative()(t)
    assert np.max(np.abs(got.derivative()(t) - d_want)) <= 1e-13 * np.max(np.abs(d_want))
    # 1-D data and scalar points keep scipy's shapes
    assert cubic_spline(grid.r, y[:, 0])(2.0).shape == ()
    assert cubic_spline(grid.r, y[:, 0])(t[:2000].reshape(40, 50)).shape == (40, 50)


def _spline_cases(profile, eos):
    rng = np.random.default_rng(29)
    nodes = clustered_nodes(5.5, 256, focus=3.65)
    yield nodes, np.cos(np.outer(nodes, np.linspace(0.0, 2.0, 32)))
    yield nodes, np.sin(nodes)
    mode_nodes = ModeGrid.build(profile, eos, 1.0, 700).r
    yield mode_nodes, profile.theta_at(mode_nodes)
    yield mode_nodes, np.exp(-mode_nodes)[:, None, None] * rng.standard_normal((1, 2, 3))
    for n in range(4, 10):
        for _ in range(20):
            x = np.cumsum(rng.uniform(0.01, 1.0, n))
            yield x, rng.standard_normal(n)
            yield x, rng.standard_normal((n, 3, 2))


def test_cubic_spline_matches_the_banded_solve(profile15, eos15):
    # the Thomas elimination against LAPACK's banded solve of the same
    # not-a-knot system: the node slopes and the spline between the nodes
    for x, y in _spline_cases(profile15, eos15):
        got = cubic_spline(x, y)
        slopes = cubic_spline_slopes_banded(x, y)
        assert np.max(np.abs(got.c[2] - slopes[:-1])) <= 1e-13 * np.max(np.abs(slopes))
        t = np.concatenate([x, 0.5 * (x[1:] + x[:-1])])
        want = _hermite_cubic(x, y, slopes)(t)
        assert np.max(np.abs(got(t) - want)) <= 1e-13 * np.max(np.abs(want))


def test_spline_sampler_is_the_spline_and_its_transpose_the_adjoint():
    # samples through the slope map are the spline's, at points inside,
    # on and beyond the nodes, and <S y, v> = <y, S^T v>
    rng = np.random.default_rng(31)
    x = clustered_nodes(5.5, 96, focus=3.65)
    t = np.concatenate([x, rng.uniform(-0.3, 5.8, 500)])
    sampler, panels = SplineSampler(x), locate(x, t)
    for _ in range(3):
        y, v = rng.standard_normal(len(x)), rng.standard_normal(len(t))
        got, want = sampler.sample(y, *panels), cubic_spline(x, y)(t)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        back = sampler.sample_transpose(v, *panels)
        assert abs(got @ v - y @ back) <= 1e-14 * np.linalg.norm(got) * np.linalg.norm(v)


def test_pchip_matches_scipy():
    si = _scipy_interpolate()
    rng = np.random.default_rng(12)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, 39))])
    datasets = [
        rng.standard_normal(40),                     # sign changes, extrema
        np.cumsum(rng.uniform(0.0, 1.0, 40)),        # monotone
        0.01 * x ** 2 / x[-1],                       # a j(m) table
        np.r_[np.zeros(5), np.linspace(0.0, 1.0, 35)],  # flat piece
    ]
    # points on both sides of the table: the end pieces continue outside
    t = np.concatenate([x, rng.uniform(x[0] - 1.0, x[-1] + 1.0, 3000)])
    for y in datasets:
        want = si.PchipInterpolator(x, y)
        got = pchip(x, y)
        for g, w in ((got(t), want(t)), (got.derivative()(t), want.derivative()(t))):
            assert np.max(np.abs(g - w)) <= 1e-13 * max(1.0, np.max(np.abs(w)))


def test_legendre_table_matches_eval_legendre():
    special = pytest.importorskip("scipy.special")
    degrees = np.arange(0, 25, 2)
    for x in (
        np.polynomial.legendre.leggauss(33)[0],
        np.polynomial.legendre.leggauss(64)[0],
        np.linspace(-1.0, 1.0, 1001),
    ):
        want = np.array([special.eval_legendre(l, x) for l in degrees])
        assert np.max(np.abs(legendre_table(degrees, x) - want)) <= 1e-14
    assert legendre_table([3], 0.5)[0] == pytest.approx(-0.4375, abs=1e-16)


def test_cumulative_trapezoid_matches_scipy():
    integrate = pytest.importorskip("scipy.integrate")
    t = np.linspace(0.0, 1.0, 2049) ** 1.5
    y = np.exp(-t ** 2)
    want = integrate.cumulative_trapezoid(y, t, initial=0.0)
    assert np.max(np.abs(cumulative_trapezoid(y, t) - want)) <= 1e-15


def test_weighted_sums_match_pointwise_evaluation():
    # the dense B oracle's binned weighted sums of a spline basis
    grid = AxiGrid.build(5.5, n_r=64, n_zeta=12, l_max=4, focus=3.65)
    basis = cubic_spline(grid.r, np.eye(grid.n_r))
    t = np.clip(grid.r[:, None] * np.sqrt(1.0 - grid.zeta_f[None, :] ** 2), 0, grid.r_inf)
    want = np.einsum("la,iab->lib", grid.proj_f, basis(t))
    got = weighted_sums(basis, t, grid.proj_f)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _monomial_integrals(lo, hi, degree):
    return (hi ** (degree + 1) - lo ** (degree + 1)) / (degree + 1)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (0.3, 1.7),
        (np.array([[0.0], [0.5], [1.0]]), np.array([[2.0, 2.5, 3.0, 4.0]])),
    ],
)
def test_panel_gauss_is_exact_through_degree_7(lo, hi):
    x, w = panel_gauss(lo, hi)
    shape = np.broadcast(np.asarray(lo), np.asarray(hi)).shape + (4,)
    assert x.shape == w.shape == shape
    for degree in range(8):
        want = _monomial_integrals(lo, hi, degree)
        got = np.sum(w * x ** degree, axis=-1)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_cumulative_integrates_polynomials_from_the_axis():
    grid = AxiGrid.build(3.0, n_r=40, n_zeta=8, l_max=4, focus=1.7)
    rng = np.random.default_rng(3)
    # columns: degrees 0, 3 and 7; the third column has a trailing axis of 2
    coef = [rng.standard_normal(d + 1) for d in (0, 3, 7)]

    def poly(c, r):
        return sum(ck * r ** k for k, ck in enumerate(c))

    def antiderivative(c, r):
        return sum(ck * r ** (k + 1) / (k + 1) for k, ck in enumerate(c))

    vals = np.stack([poly(c, grid.gauss_x) for c in coef], axis=1)
    want = np.stack([antiderivative(c, grid.r) for c in coef], axis=1)
    got = grid.cumulative(vals)
    assert got.shape == (grid.n_r, 3)
    assert got[0].tolist() == [0.0, 0.0, 0.0]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    got_1d = grid.cumulative(vals[:, 2])
    assert np.max(np.abs(got_1d - want[:, 2])) <= 1e-13 * np.max(np.abs(want[:, 2]))
    got_3d = grid.cumulative(np.stack([vals, 2.0 * vals], axis=2))
    assert got_3d.shape == (grid.n_r, 3, 2)
    assert np.array_equal(got_3d[:, :, 0], got)


def test_grid_gauss_rule_equals_the_inline_panel_formula():
    grid = AxiGrid.build(5.5, n_r=64, n_zeta=12, l_max=4, focus=3.65)
    g4x, g4w = np.polynomial.legendre.leggauss(4)
    a, b = grid.r[:-1], grid.r[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    assert np.array_equal(grid.gauss_x, (mid[:, None] + half[:, None] * g4x[None, :]).ravel())
    assert np.array_equal(grid.gauss_w, (half[:, None] * g4w[None, :]).ravel())
