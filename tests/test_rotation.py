import math

import numpy as np
import pytest

from rotstar import (
    AngularMomentumLaw,
    AxiField,
    AxiGrid,
    ConstantRotation,
    DifferentialRotation,
    beta_from_omega,
    centrifugal_deriv_apply,
    centrifugal_from_momentum,
    centrifugal_from_omega,
    initial_field_from_profile,
    mass_within_cylinder,
    total_mass_dimensionless,
)
from rotstar.errors import DivergentAxisIntegral, DomainError
from rotstar import rotation
from rotstar.grids import interp_matrix
from oracles import cumulative_map_dense
from rotstar.rotation import (
    CylinderRule,
    LinearizedCentrifugal,
    _field_from_b,
    rigid_rotation,
)


def test_zero_rotation(scale15, grid15):
    cf = centrifugal_from_omega(ConstantRotation(0.0), scale15, grid15)
    assert np.max(np.abs(cf.b)) == 0.0
    assert cf.g.sup_norm() == 0.0


def test_constant_rotation_closed_form(scale15, grid15, eos15):
    omega = 0.05
    cf = centrifugal_from_omega(ConstantRotation(omega), scale15, grid15)
    beta = beta_from_omega(omega, scale15, eos15)
    assert cf.beta == pytest.approx(beta, rel=1e-13)
    assert np.allclose(cf.b, 0.25 * beta * grid15.r ** 2, rtol=1e-13)
    assert np.allclose(cf.db, 0.5 * beta * grid15.r, rtol=1e-13)
    # field is b(r sqrt(1-zeta^2))
    expect = 0.25 * beta * grid15.r[:, None] ** 2 * (1 - grid15.zeta[None, :] ** 2)
    assert np.max(np.abs(cf.g.values - expect)) < 1e-13 * beta


def test_rigid_rotation_modes_are_exact(scale15, grid15):
    # the closed-form modes agree with projecting b(varpi) on the fine rule,
    # and constant omega goes through the same constructor
    beta = 3e-3
    cf = rigid_rotation(grid15, beta)
    projected = _field_from_b(grid15, lambda v: 0.25 * beta * v ** 2).modes()
    assert np.max(np.abs(cf.g.modes() - projected)) <= 1e-13 * beta
    assert np.all(cf.g.modes()[2:] == 0.0)
    omega = 0.05
    via_law = centrifugal_from_omega(ConstantRotation(omega), scale15, grid15)
    direct = rigid_rotation(grid15, via_law.beta)
    assert np.array_equal(via_law.g.modes(), direct.g.modes())
    assert np.array_equal(via_law.b, direct.b)


def test_differential_rotation_against_antiderivative(scale15, grid15):
    # Omega(varpi) = W0 / (1 + varpi^2): B = W0^2/2 * (1 - 1/(1+varpi^2))
    w0 = 0.1
    a = scale15.length_scale
    phys = np.linspace(0.0, a * grid15.r_inf, 4001)
    law = DifferentialRotation(phys, w0 / (1 + phys ** 2))
    cf = centrifugal_from_omega(law, scale15, grid15)
    v = grid15.r
    exact = (w0 ** 2 / 2) * (1 - 1 / (1 + (a * v) ** 2)) / scale15.u_center
    assert np.max(np.abs(cf.b - exact)) < 1e-10


def test_centrifugal_membership_invariants(scale15, grid15):
    phys = np.linspace(0.0, scale15.length_scale * grid15.r_inf, 101)
    law = DifferentialRotation(phys, 0.2 * np.exp(-phys))
    cf = centrifugal_from_omega(law, scale15, grid15)
    assert cf.db[0] == 0.0
    assert np.all(np.diff(cf.b) >= -1e-15)


def test_norm_bound(scale15, grid15, eos15):
    # |b|_sup + |db|_sup <= (1/4 pi G)(A g/(g-1))^{1/(g-1)} u^{-1/(g-1)}
    #                       (r_inf^2/2 + r_inf) |Omega|_sup^2
    w0 = 0.12
    phys = np.linspace(0.0, scale15.length_scale * grid15.r_inf, 101)
    law = DifferentialRotation(phys, w0 * (1 - 0.5 * phys / phys[-1]))
    cf = centrifugal_from_omega(law, scale15, grid15)
    g = eos15.gamma
    bound = (
        1.0
        / (4 * math.pi * scale15.grav_const)
        * (eos15.pressure_const * g / (g - 1)) ** (1 / (g - 1))
        * scale15.u_center ** (-1 / (g - 1))
        * (grid15.r_inf ** 2 / 2 + grid15.r_inf)
        * w0 ** 2
    )
    assert cf.sup_norm() <= bound * (1 + 1e-12)


def test_gradient_difference_bound(scale15, grid15, eos15):
    # |grad(g - gbar)| <= u^-1 a^2 |Omega^2 - Omegabar^2|_sup * r for pairs of
    # constant laws, by finite differences of the induced fields
    o1, o2 = 0.05, 0.06
    cf1 = centrifugal_from_omega(ConstantRotation(o1), scale15, grid15)
    cf2 = centrifugal_from_omega(ConstantRotation(o2), scale15, grid15)
    r = grid15.r[1:]
    db = np.abs((cf1.db - cf2.db)[1:])
    coef = scale15.length_scale ** 2 / scale15.u_center * abs(o1 ** 2 - o2 ** 2)
    assert np.all(db <= coef * r * (1 + 1e-12))
    # and a constant vs differential pair
    phys = np.linspace(0.0, scale15.length_scale * grid15.r_inf, 201)
    law = DifferentialRotation(phys, o2 / (1.0 + phys))
    cf3 = centrifugal_from_omega(law, scale15, grid15)
    sup = np.max(np.abs(np.asarray(law.omega_at(phys)) ** 2 - o1 ** 2))
    coef2 = scale15.length_scale ** 2 / scale15.u_center * sup
    assert np.all(np.abs((cf1.db - cf3.db)[1:]) <= coef2 * r * (1 + 1e-12))


def test_mass_within_cylinder_zero_and_monotone(theta15, eos15, scale15):
    vac = AxiField(theta15.grid, np.full_like(theta15.values, -1.0))
    cyl0 = mass_within_cylinder(vac, eos15, scale15)
    assert cyl0.total == 0.0
    cyl = mass_within_cylinder(theta15, eos15, scale15)
    assert np.all(np.diff(cyl.mass) >= 0)


def test_cylinder_mass_matches_total(theta15, eos15, scale15, profile15):
    cyl = mass_within_cylinder(theta15, eos15, scale15)
    m1 = total_mass_dimensionless(theta15, eos15, 1.0)
    rho_scale = scale15.rho_center
    assert cyl.total == pytest.approx(
        rho_scale * scale15.length_scale ** 3 * m1, rel=1e-8
    )
    # beyond the star the curve saturates at the spherical mass
    assert cyl.at_scaled(profile15.xi1 * 1.2) == pytest.approx(cyl.total, rel=1e-10)


def test_cylinder_mass_on_an_odd_zeta_rule(eos15, scale15, profile15):
    # the cylinder rule's rays are the nodes zeta >= 0; on an odd rule the
    # ray zeta = 0 counts once, and the largest cylinder holds the mass of
    # the fine rule, whose nodes are all off the equator
    grid = AxiGrid.build(profile15.r_inf, n_r=128, n_zeta=13, l_max=4, focus=profile15.xi1)
    u = initial_field_from_profile(grid, profile15)
    cyl = mass_within_cylinder(u, eos15, scale15)
    m1 = total_mass_dimensionless(u, eos15, 1.0)
    assert cyl.total == pytest.approx(scale15.rho_center * scale15.length_scale ** 3 * m1, rel=1e-8)


def test_centrifugal_product_samples_the_fine_rule_once(theta15, eos15, scale15, monkeypatch):
    # one B product samples b's spline at the cylinder radii of every node
    # on the n_zeta fine nodes zeta > 0, not on all 2 n_zeta, and its
    # transpose scatters from as many
    grid = theta15.grid
    cyl = mass_within_cylinder(theta15, eos15, scale15)
    ms = np.linspace(0, 1.3 * cyl.total, 60)
    lin = LinearizedCentrifugal(AngularMomentumLaw(ms, 0.01 * ms ** 2 / cyl.total), theta15,
                                eos15, scale15, cyl)
    points = []
    sample, sample_t = rotation.SplineSampler.sample, rotation.SplineSampler.sample_transpose

    def counting(self, y, k, s):
        points.append(len(k))
        return sample(self, y, k, s)

    def counting_t(self, v, k, s):
        points.append(len(k))
        return sample_t(self, v, k, s)

    monkeypatch.setattr(rotation.SplineSampler, "sample", counting)
    monkeypatch.setattr(rotation.SplineSampler, "sample_transpose", counting_t)
    lin.apply_half(grid.half_range(theta15.values))
    assert sorted(points) == [grid.n_gauss, grid.n_r * grid.n_zeta]
    points.clear()
    lin.apply_transpose(theta15.modes())
    assert sorted(points) == [grid.n_gauss, grid.n_r * grid.n_zeta]


def _rigid_law_from_state(u, eos, scale, omega, r_cap):
    cyl = mass_within_cylinder(u, eos, scale)
    mask = cyl.varpi <= r_cap
    vp, ms = cyl.varpi[mask], cyl.mass[mask]
    keep = np.concatenate(([True], np.diff(ms) > 0))
    return AngularMomentumLaw(ms[keep], omega * (scale.length_scale * vp[keep]) ** 2), cyl


def test_momentum_law_rigid_round_trip(theta15, eos15, scale15, profile15):
    omega = 0.02
    grid = theta15.grid
    law, cyl = _rigid_law_from_state(theta15, eos15, scale15, omega, profile15.xi1)
    cf_j = centrifugal_from_momentum(law, theta15, eos15, scale15, cyl=cyl)
    cf_c = centrifugal_from_omega(ConstantRotation(omega), scale15, grid)
    sel = grid.r <= profile15.xi1
    assert np.max(np.abs(cf_j.b[sel] - cf_c.b[sel])) < 1e-6


def test_momentum_law_scaling(theta15, eos15, scale15, profile15):
    law, cyl = _rigid_law_from_state(theta15, eos15, scale15, 0.02, profile15.xi1)
    law2 = AngularMomentumLaw(law.m, 2.0 * law.j)
    grid = theta15.grid
    b1 = centrifugal_from_momentum(law, theta15, eos15, scale15, cyl=cyl)
    b2 = centrifugal_from_momentum(law2, theta15, eos15, scale15, cyl=cyl)
    assert np.allclose(b2.b, 4.0 * b1.b, rtol=1e-12, atol=1e-18)


def test_momentum_law_zero(theta15, eos15, scale15):
    grid = theta15.grid
    law = AngularMomentumLaw(np.array([0.0, 1.0, 2.0]), np.zeros(3))
    cf = centrifugal_from_momentum(law, theta15, eos15, scale15)
    assert np.max(np.abs(cf.b)) == 0.0


def test_momentum_law_divergent_axis(theta15, eos15, scale15):
    # j(m) ~ sqrt(m) near 0 gives j(m(varpi))^2/varpi^3 ~ 1/varpi: divergent.
    # The steep region must be resolved by the samples to be detectable.
    grid = theta15.grid
    ms = np.concatenate(([0.0], np.logspace(-14, 0.3, 300)))
    law = AngularMomentumLaw(ms, 0.1 * np.sqrt(ms))
    with pytest.raises(DivergentAxisIntegral):
        centrifugal_from_momentum(law, theta15, eos15, scale15)


def test_momentum_deriv_zero_cases(theta15, eos15, scale15):
    grid = theta15.grid
    ms = np.linspace(0.0, 3.0, 50)
    law = AngularMomentumLaw(ms, 0.01 * ms ** 2)
    zero = AxiField.zeros(grid)
    out = centrifugal_deriv_apply(law, theta15, zero, eos15, scale15)
    assert out.sup_norm() == 0.0
    law0 = AngularMomentumLaw(ms, np.zeros_like(ms))
    h = AxiField.from_function(grid, lambda r, z: np.exp(-r) + 0 * z)
    out0 = centrifugal_deriv_apply(law0, theta15, h, eos15, scale15)
    assert out0.sup_norm() == 0.0


def test_momentum_deriv_finite_difference_order(theta15, eos15, scale15):
    grid = theta15.grid
    cyl = mass_within_cylinder(theta15, eos15, scale15)
    ms = np.linspace(0, 1.3 * cyl.total, 60)
    law = AngularMomentumLaw(ms, 0.01 * ms ** 2 / cyl.total)
    h = AxiField.from_function(
        grid, lambda r, z: np.exp(-(r ** 2) / 4) * (1 + 0.3 * (3 * z ** 2 - 1) / 2) - 0.2
    )
    db = centrifugal_deriv_apply(law, theta15, h, eos15, scale15)
    b0 = centrifugal_from_momentum(law, theta15, eos15, scale15)
    eps_list = [1e-2, 3e-3, 1e-3]
    errs = []
    for eps in eps_list:
        up = AxiField(grid, theta15.values + eps * h.values)
        b1 = centrifugal_from_momentum(law, up, eos15, scale15)
        errs.append(np.max(np.abs((b1.g.values - b0.g.values) / eps - db.values)))
    order = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert order >= 1.0 - 0.05


@pytest.mark.parametrize("n_r", [64, 300])
def test_linearization_cum_matches_the_whole_basis(n_r, profile15, eos15, scale15):
    # the linearization's dm -> b product, a spline sampled through its
    # slope map, weighted and integrated from the axis, is column by column
    # the dense cumulative map of scipy's spline basis
    grid = AxiGrid.build(profile15.r_inf, n_r=n_r, n_zeta=8, l_max=2, focus=profile15.xi1)
    u = initial_field_from_profile(grid, profile15)
    cyl = mass_within_cylinder(u, eos15, scale15)
    ms = np.linspace(0, 1.3 * cyl.total, 60)
    law = AngularMomentumLaw(ms, 0.01 * ms ** 2 / cyl.total)
    lin = LinearizedCentrifugal(law, u, eos15, scale15, cyl)
    want = cumulative_map_dense(grid, law, cyl, scale15)
    got = np.column_stack([lin.b_from_dm(e) for e in np.eye(n_r)])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _arrays_reachable(obj, seen=None):
    """Every numpy array reachable from obj through attributes and
    containers, the grid's own tables left out."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, AxiGrid):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays_reachable(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays_reachable(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays_reachable(vars(obj), seen)


def test_linearization_holds_no_table_beyond_n_r_squared(profile15, eos15, scale15):
    # the grid tables and a linearization, its transposed factors built,
    # hold nothing of n_l n_r^2 or 4 n_r^2: on a grid where the cylinder
    # rule's n_r x n_zeta tables stay below n_r^2, no array holds more
    grid = AxiGrid.build(profile15.r_inf, n_r=128, n_zeta=6, l_max=4, focus=profile15.xi1)
    u = initial_field_from_profile(grid, profile15)
    cyl = mass_within_cylinder(u, eos15, scale15)
    ms = np.linspace(0, 1.3 * cyl.total, 60)
    lin = LinearizedCentrifugal(AngularMomentumLaw(ms, 0.01 * ms ** 2 / cyl.total), u, eos15,
                                scale15, cyl)
    lin.apply_transpose(np.ones((grid.n_l, grid.n_r)))
    sizes = [a.size for a in _arrays_reachable((rotation._grid_tables(grid), lin))]
    assert max(sizes) <= grid.n_r ** 2


def _partial_panels_loop(grid, kcut):
    """Per-point reference for the rule's partial panels at the grid radii,
    on the rays of the nodes zeta >= 0; the stencils as flat indices in
    (n_r, rays), node 0 on uncut rays."""
    g4x, g4w = np.polynomial.legendre.leggauss(4)
    nq, nj = grid.n_r, len(grid.zeta_h)
    sin = np.sqrt(1.0 - grid.zeta_h ** 2)
    rcut = np.minimum(grid.r[:, None] / sin[None, :], grid.r_inf)
    part_x = np.zeros((nq, nj, 4))
    part_w = np.zeros((nq, nj, 4))
    part_index = np.zeros((nq, nj, 4), dtype=int) + np.arange(nj)[:, None]
    part_coef = np.zeros((nq, nj, 4, 4))
    r = grid.r
    for q in range(nq):
        for j in range(nj):
            k = kcut[q, j]
            if k >= grid.n_r - 1:
                continue
            lo, hi = r[k], rcut[q, j]
            if hi <= lo:
                continue
            half = 0.5 * (hi - lo)
            x = 0.5 * (hi + lo) + half * g4x
            part_x[q, j] = x
            part_w[q, j] = half * g4w * x ** 2
            s0 = min(max(k - 1, 0), grid.n_r - 4)
            part_index[q, j] = np.arange(s0, s0 + 4) * nj + j
            part_coef[q, j] = interp_matrix(r[s0 : s0 + 4], x)
    return part_x, part_w, part_index, part_coef


def test_cylinder_rule_matches_per_point_loop(theta15):
    grid = theta15.grid
    rule = CylinderRule(grid)
    assert np.any(rule.kcut == grid.n_r - 1)  # includes cuts that leave the domain
    ref = _partial_panels_loop(grid, rule.kcut)
    for name, want in zip(("part_x", "part_w", "part_index", "part_coef"), ref):
        got = getattr(rule, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_cylinder_rule_batches_interpolation(theta15, monkeypatch):
    grid = theta15.grid
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return interp_matrix(*args, **kwargs)

    monkeypatch.setattr(rotation, "interp_matrix", counting)
    CylinderRule(grid)
    assert 0 < len(calls) <= grid.n_zeta


def test_law_validation():
    with pytest.raises(DomainError):
        ConstantRotation(-1.0)
    with pytest.raises(DomainError):
        AngularMomentumLaw(np.array([0.0, 1.0]), np.array([0.5, 1.0]))  # j(0) != 0
    with pytest.raises(DomainError):
        AngularMomentumLaw(np.array([0.5, 1.0]), np.array([0.0, 1.0]))  # m[0] != 0


# tables of unequal length, or of fewer than 2 samples, raised IndexError
# from the interpolant, or (a longer value table) built a law without a word
@pytest.mark.parametrize("law", [DifferentialRotation, AngularMomentumLaw])
@pytest.mark.parametrize(
    "x, y", [([0.0, 1.0, 2.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 1.0, 2.0]), ([0.0], [0.0]),
             ([], [])],
    ids=["short-values", "long-values", "one-sample", "empty"],
)
def test_law_tables_must_line_up(law, x, y):
    with pytest.raises(DomainError, match="same number of samples"):
        law(np.array(x), np.array(y))
