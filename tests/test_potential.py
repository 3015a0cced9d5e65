import math
import warnings

import numpy as np
import pytest

from rotstar import (
    AxiField,
    AxiGrid,
    grad_at_origin,
    potential_direct,
    potential_modes_from_samples,
    potential_multipole,
    scaled_density,
    uniform_ball_potential,
)
from rotstar.errors import DomainError
from rotstar.grids import interp_matrix
from rotstar.potential import _kernel_elliptic, _kernel_parts
from oracles import kernel_eval, modes_at_radii_per_point, potential_direct_recursive, trapezoid


def test_kernel_center_value():
    # from the center the azimuthal integrand is constant 1/r'
    assert kernel_eval(0.0, 0.3, 1.0, 0.5) == pytest.approx(2 * math.pi, rel=1e-12)
    assert kernel_eval(0.0, -0.9, 2.0, 0.1) == pytest.approx(math.pi, rel=1e-12)


def test_kernel_opposite_poles():
    # points on the axis at distance 2
    assert kernel_eval(1.0, 1.0, 1.0, -1.0) == pytest.approx(math.pi, rel=1e-12)


def test_kernel_symmetry_and_elliptic_agreement():
    rng = np.random.default_rng(1)
    for _ in range(25):
        r, rp = rng.uniform(0.1, 2.0, 2)
        z, zp = rng.uniform(-0.99, 0.99, 2)
        a = kernel_eval(r, z, rp, zp)
        b = kernel_eval(rp, zp, r, z)
        c = kernel_eval(r, z, rp, zp, method="elliptic")
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-11)


def test_kernel_elliptic_keeps_full_accuracy_as_m_tends_to_one():
    # Gauss's form against scipy's K(1 - m1) for m1 = (a - b)/(a + b) = 1 - m
    # down to 1e-12; forming m = 2b/(a + b) first lost up to 3.4e-6 here
    from scipy.special import ellipkm1

    m1 = np.logspace(-12.0, 0.0, 241)
    for s in (1e-6, 1.0, 3.7, 1e4):
        a, b = 0.5 * s * (1.0 + m1), 0.5 * s * (1.0 - m1)
        want = 4.0 * ellipkm1((a - b) / (a + b)) / np.sqrt(a + b)
        assert np.max(np.abs(_kernel_elliptic(a, b) / want - 1.0)) < 1e-14


def test_kernel_elliptic_value_does_not_depend_on_the_batch():
    rng = np.random.default_rng(7)
    r, rp = rng.uniform(0.0, 2.0, (2, 40000))
    z, zp = rng.uniform(-1.0, 1.0, (2, 40000))
    batch = _kernel_elliptic(*_kernel_parts(r, z, rp, zp))
    for i in (0, 1, 16383, 16384, 39999):
        alone = kernel_eval(float(r[i]), float(z[i]), float(rp[i]), float(zp[i]), "elliptic")
        assert alone == batch[i]
    # into a row of a larger buffer, as a far-field kernel row is filled
    buf = np.full((3, 40000), np.nan)
    row = buf[1]
    assert _kernel_elliptic(*_kernel_parts(r, z, rp, zp), out=row) is row
    assert np.array_equal(row, batch)
    assert np.isnan(buf[[0, 2]]).all()


def test_kernel_elliptic_is_infinite_where_a_minus_b_vanishes():
    # a = b (coincident rings), a - b < 0 by rounding, and a = b = 0: +inf
    # as K(1), with no warning, while a finite neighbour stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernel_elliptic(
            np.array([1.0, 2.0, 0.0, 1.0]), np.array([1.0, np.nextafter(2.0, 3.0), 0.0, 0.5])
        )
        alone = _kernel_elliptic(3.0, 3.0)
    assert np.array_equal(got[:3], [np.inf] * 3) and alone == np.inf
    assert np.isfinite(got[3])


def test_legendre_coeffs_examples():
    grid = AxiGrid.build(2.0, n_r=32, n_zeta=16, l_max=8)
    ones = AxiField.from_function(grid, lambda r, z: np.ones_like(r * z))
    m = ones.modes()
    assert np.allclose(m[0], 1.0, atol=1e-14)
    assert np.max(np.abs(m[1:])) < 1e-14

    # pure P2 content (the center row is pinned to a constant, so the
    # assertion applies away from r = 0 where the field is in the space)
    p2 = AxiField.from_function(grid, lambda r, z: 0.5 * (3 * z ** 2 - 1) + 0 * r)
    m = p2.modes()
    assert np.allclose(m[1][1:], 1.0, atol=1e-13)
    assert np.max(np.abs(m[[2, 3, 4]])) < 1e-13

    # the rigid centrifugal source r^2 (1 - zeta^2)/4 splits into r^2/6 - r^2/6 P2
    g1 = AxiField.from_function(grid, lambda r, z: 0.25 * r ** 2 * (1 - z ** 2))
    m = g1.modes()
    assert np.allclose(m[0], grid.r ** 2 / 6, atol=1e-13)
    assert np.allclose(m[1], -grid.r ** 2 / 6, atol=1e-13)
    assert np.max(np.abs(m[2:])) < 1e-13


def test_uniform_ball_multipole_exact_sources():
    grid = AxiGrid.build(2.0, n_r=96, n_zeta=16, l_max=8)
    R = grid.r[70]
    samples = np.zeros((grid.n_l, grid.n_gauss))
    samples[0] = (grid.gauss_x <= R).astype(float)
    out = potential_modes_from_samples(grid, samples)
    assert np.max(np.abs(out[0] - uniform_ball_potential(R, grid.r))) < 1e-13
    assert np.max(np.abs(out[1:])) < 1e-15


def test_uniform_ball_multipole_smooth_nodal_field():
    # a mollified ball through the nodal interface stays accurate
    grid = AxiGrid.build(2.0, n_r=200, n_zeta=16, l_max=8)
    R, w = 1.2, 0.08
    prof = lambda r: 0.5 * (1 - np.tanh((r - R) / w))
    f = AxiField.from_function(grid, lambda r, z: prof(r) + 0 * z)
    out = potential_multipole(f).modes()
    s = np.linspace(0, grid.r_inf, 200001)[1:]
    exact = np.array(
        [trapezoid(prof(s) * s ** 2 / np.maximum(s, ri), s) for ri in grid.r]
    )
    assert np.max(np.abs(out[0] - exact)) < 1e-6


def test_degree_two_content_example():
    # f with only degree-2 content f2(s) = s^2 on [0, 1]: potential mode at
    # r = 1 equals (1/5) * integral s^6 ds = 1/35
    grid = AxiGrid.build(1.0, n_r=128, n_zeta=16, l_max=4)
    modes = np.zeros((grid.n_l, grid.n_r))
    modes[1] = grid.r ** 2
    out = potential_multipole(AxiField.from_modes(grid, modes)).modes()
    assert out[1, -1] == pytest.approx(1 / 35, rel=1e-12)


def test_zero_field_maps_to_zero():
    grid = AxiGrid.build(1.0, n_r=24, n_zeta=12, l_max=4)
    z = AxiField.zeros(grid)
    assert potential_multipole(z).sup_norm() == 0.0
    assert potential_direct(z, refine_depth=2, window=1, zeta_cells=12).sup_norm() < 1e-15


def test_operator_symmetry_weighted_inner_product():
    # <g, Kf> = <f, Kg> under 2 pi r^2 dr dzeta; exact for gauss-sampled
    # sources, to interpolation accuracy for nodal fields
    grid = AxiGrid.build(2.0, n_r=64, n_zeta=16, l_max=8)
    rng = np.random.default_rng(4)
    f = AxiField.from_modes(grid, _smooth_modes(grid, rng))
    g = AxiField.from_modes(grid, _smooth_modes(grid, rng))
    kf = potential_multipole(f)
    kg = potential_multipole(g)

    interp = interp_matrix(grid.r, grid.gauss_x)

    def inner(a, b):
        fa = interp @ a.values
        fb = interp @ b.values
        wr = grid.gauss_w * grid.gauss_x ** 2
        return 2 * math.pi * float(np.einsum("pj,pj,p,j->", fa, fb, wr, grid.zeta_w))

    lhs = inner(g, kf)
    rhs = inner(f, kg)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def _smooth_modes(grid, rng):
    modes = np.zeros((grid.n_l, grid.n_r))
    for k, l in enumerate(grid.lvals):
        amp = rng.standard_normal() * 0.5 ** k
        radial = np.exp(-((grid.r - rng.uniform(0, grid.r_inf)) ** 2))
        modes[k] = amp * radial * (grid.r ** 2 if l else 1.0)
    modes[1:, 0] = 0.0
    return modes


def test_positivity():
    grid = AxiGrid.build(2.0, n_r=64, n_zeta=16, l_max=4)
    rng = np.random.default_rng(9)
    for _ in range(5):
        vals = rng.uniform(0.0, 1.0, (grid.n_r, grid.n_zeta))
        vals = 0.5 * (vals + vals[:, ::-1])
        vals[0, :] = vals[0, 0]
        smooth = AxiField(grid, vals)
        modes = smooth.modes()
        gauss = np.maximum(grid.at_gauss(modes), 0.0)
        out = potential_modes_from_samples(grid, gauss)
        assert np.min(grid.synthesize(out)) >= 0.0


def test_laplacian_consistency_order():
    # -laplacian(Kf) = f measured per even mode with radial finite differences
    orders = []
    errs = []
    for n in (40, 80, 160):
        grid = AxiGrid(np.linspace(0, 2.0, n), 16, 4)
        modes = np.zeros((grid.n_l, grid.n_r))
        modes[0] = np.exp(-(grid.r ** 2))
        modes[1] = grid.r ** 2 * np.exp(-(grid.r ** 2))
        f = AxiField.from_modes(grid, modes)
        km = potential_multipole(f).modes()
        h = grid.r[1] - grid.r[0]
        resid = []
        for k, l in enumerate(grid.lvals[:2]):
            y = km[k]
            i = np.arange(2, n - 2)
            lap = (y[i + 1] - 2 * y[i] + y[i - 1]) / h ** 2 + (
                y[i + 1] - y[i - 1]
            ) / (h * grid.r[i]) - l * (l + 1) / grid.r[i] ** 2 * y[i]
            resid.append(np.max(np.abs(-lap - modes[k][i])))
        errs.append(max(resid))
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
    assert min(orders) >= 1.8


def test_multipole_vs_direct_small_grid():
    grid = AxiGrid.build(2.0, n_r=40, n_zeta=16, l_max=6)
    rng = np.random.default_rng(3)
    f = AxiField.from_modes(grid, _smooth_modes(grid, rng))
    km = potential_multipole(f)
    kd = potential_direct(f, refine_depth=4, window=2)
    assert (km - kd).sup_norm() < 1e-5


def test_direct_ball_center_exact_sources():
    f, ball = _ball_case()
    R = f.grid.r[22]
    kd = potential_direct(f, refine_depth=3, window=1, source_fn=ball)
    assert abs(kd.values[0, 0] - uniform_ball_potential(R, 0.0)) < 1e-4


def _ball_case():
    grid = AxiGrid.build(2.0, n_r=32, n_zeta=12, l_max=4)
    R = grid.r[22]
    ball = lambda r, z: 1.0 * (r <= R) + 0.0 * z
    return AxiField.from_function(grid, ball), ball


def _direct_case(case):
    """The field and exact source (or None) of a named direct-quadrature case."""
    if case == "ball":
        return _ball_case()
    if case == "tilted":
        grid = AxiGrid.build(2.0, n_r=14, n_zeta=8, l_max=6)
        source_fn = lambda r, z: np.exp(-(r ** 2)) * (1.0 + 0.5 * z)
        return AxiField(grid, source_fn(grid.r[:, None], grid.zeta[None, :])), source_fn
    n_zeta = 8 if case == "smooth" else 7
    grid = AxiGrid.build(2.0, n_r=14, n_zeta=n_zeta, l_max=6)
    return AxiField.from_modes(grid, _smooth_modes(grid, np.random.default_rng(5))), None


DIRECT_CASES = pytest.mark.parametrize(
    "case, refine_depth, window",
    [("smooth", 4, 2), ("ball", 3, 1), ("odd", 0, 2), ("odd", 3, 2), ("tilted", 2, 1)],
)


@DIRECT_CASES
def test_direct_matches_recursive_oracle(case, refine_depth, window):
    # the level-by-level quadrature against the per-leaf recursion; with odd
    # n_zeta the target zeta = 0 sits on a zeta edge as well as an r edge, so
    # it goes into several cells at every level; the tilted source is not
    # equatorially symmetric, though the far field mirrors kernel rows
    f, source_fn = _direct_case(case)
    kw = dict(refine_depth=refine_depth, window=window, source_fn=source_fn)
    got = potential_direct(f, **kw).values
    want = potential_direct_recursive(f, **kw).values
    assert np.max(np.abs(got - want)) < 1e-13


@DIRECT_CASES
def test_direct_values_do_not_depend_on_the_blocks(case, refine_depth, window, monkeypatch):
    # far-field zeta rows per kernel call and near-field leaves per block: one
    # at a time, a size that divides neither the rows nor any level, and one
    # that takes every row and every level's leaves at once
    from rotstar import potential

    f, source_fn = _direct_case(case)
    kw = dict(refine_depth=refine_depth, window=window, source_fn=source_fn)
    want = potential_direct(f, **kw).values
    for rows, leaves in ((1, 1), (3, 7), (10 ** 6, 10 ** 6)):
        monkeypatch.setattr(potential, "_DIRECT_ROWS", rows)
        monkeypatch.setattr(potential, "_DIRECT_LEAVES", leaves)
        assert np.array_equal(potential_direct(f, **kw).values, want), (rows, leaves)


def test_direct_working_set_is_bounded():
    # the kernel-check field: the far field's kernel row and its argument
    # buffers are allocated once, and the near field runs in blocks (a full
    # kernel row with fresh argument temporaries, and every leaf of a level
    # at once, took 8.6 MB here)
    import tracemalloc

    grid = AxiGrid.build(2.0, n_r=32, n_zeta=12, l_max=4)
    modes = np.zeros((grid.n_l, grid.n_r))
    modes[0] = np.exp(-grid.r ** 2)
    for k in range(1, grid.n_l):
        modes[k] = 0.4 ** k * grid.r ** 2 * np.exp(-grid.r ** 2)
    f = AxiField.from_modes(grid, modes)
    f.modes()
    tracemalloc.start()
    try:
        potential_direct(f, refine_depth=4, window=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7e6


def test_direct_interpolates_each_distinct_radius_once(monkeypatch):
    # a level of the near field repeats each Gauss radius of its cells over
    # every target and zeta cell; interpolating each distinct radius once
    # gives bitwise the values of the per-point form
    from rotstar import grids

    grid = AxiGrid.build(2.0, n_r=32, n_zeta=12, l_max=4)
    f = AxiField.from_modes(grid, _smooth_modes(grid, np.random.default_rng(5)))
    interpolated, stencil = [], grids.interp_stencil

    def counting(nodes, points, *args):
        interpolated.append(len(points))
        return stencil(nodes, points, *args)

    # the per-point form takes its stencils from the counted grids.interp_stencil
    monkeypatch.setattr(grids, "interp_stencil", counting)
    got = potential_direct(f, refine_depth=4, window=2).values
    distinct, interpolated[:] = sum(interpolated), []
    monkeypatch.setattr(AxiGrid, "eval_modes_at", modes_at_radii_per_point)
    want = potential_direct(f, refine_depth=4, window=2).values
    assert np.array_equal(got, want)
    assert 20 * distinct < sum(interpolated)


@pytest.mark.parametrize(
    "kw", [{"refine_depth": -1}, {"window": -1}, {"zeta_cells": 0}, {"zeta_cells": -4}]
)
def test_direct_rejects_invalid_arguments(kw):
    grid = AxiGrid.build(2.0, n_r=16, n_zeta=6, l_max=2)
    f = AxiField.from_modes(grid, _smooth_modes(grid, np.random.default_rng(1)))
    with pytest.raises(DomainError):
        potential_direct(f, **kw)


def test_grad_at_origin_vanishes(grid15, theta15, eos15):
    # potential of the spherical density profile
    dens = AxiField(grid15, scaled_density(theta15.values, eos15, 1.0))
    k = potential_multipole(dens)
    assert grad_at_origin(k) < 1e-6
    # ball case
    grid = AxiGrid.build(2.0, n_r=96, n_zeta=12, l_max=4)
    samples = np.zeros((grid.n_l, grid.n_gauss))
    samples[0] = (grid.gauss_x <= grid.r[70]).astype(float)
    ball = AxiField.from_modes(grid, potential_modes_from_samples(grid, samples))
    assert grad_at_origin(ball) < 1e-6


def test_gradient_linear_bound_near_origin():
    # |d(Kf)/dr| <= C r near the center for symmetric sources, over many
    # random fields and small radii (the origin-regularity property)
    rng = np.random.default_rng(12)
    grid = AxiGrid.build(2.0, n_r=64, n_zeta=12, l_max=4)
    n_fields, n_radii = 50, 200
    for _ in range(n_fields):
        f = AxiField.from_modes(grid, _smooth_modes(grid, rng))
        k = potential_multipole(f)
        assert grad_at_origin(k) < 2e-4 * max(1.0, k.sup_norm())
        modes = k.modes()
        r_small = np.linspace(grid.r[1], 0.2, n_radii)
        eps = 1e-6
        dk = (grid.eval_modes_at(modes, r_small + eps) - grid.eval_modes_at(modes, r_small - eps)) / (2 * eps)
        slope = np.abs(dk[0]) / r_small
        assert np.all(np.isfinite(slope))
        assert np.max(slope) < 10.0 * max(1.0, k.sup_norm())


def test_potential_of_linear_density_profile():
    # for the nu = 1 profile the potential of the density reproduces the
    # profile up to the harmonic tail: -laplacian(K f) = f checked directly
    import rotstar as rs

    eos = rs.EquationOfState.polytrope(2.0)
    prof = rs.solve_lane_emden(eos, 1.0)
    grid = AxiGrid.build(prof.r_inf, n_r=128, n_zeta=12, l_max=4, focus=prof.xi1)
    theta = rs.initial_field_from_profile(grid, prof)
    dens = AxiField(grid, scaled_density(theta.values, eos, 1.0))
    k = potential_multipole(dens).modes()[0]
    # K(dens) = theta + mu1/xi1 (the constant making them agree at infinity);
    # the density has a derivative kink at the surface, so the quadrature is
    # second-order limited there
    assert np.max(np.abs(k - (theta.modes()[0] + prof.mu1 / prof.xi1))) < 1e-5
