import numpy as np
import pytest

from rotstar import AxiField, AxiGrid, clustered_nodes
from rotstar.grids import interp_matrix
from rotstar.errors import DomainError


def test_zeta_nodes_symmetric_with_paired_weights():
    grid = AxiGrid.build(2.0, n_r=32, n_zeta=20, l_max=8)
    assert np.allclose(grid.zeta, -grid.zeta[::-1], atol=1e-15)
    assert np.allclose(grid.zeta_w, grid.zeta_w[::-1], rtol=1e-15)


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
    at_gauss = grid.interp @ vals
    assert np.max(np.abs(at_gauss - np.sin(1.7 * grid.gauss_x))) < 2e-6
    dv = grid.deriv @ vals
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
