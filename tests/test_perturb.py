import tracemalloc

import numpy as np
import pytest

from rotstar import (
    AxiGrid,
    ConstantRotationFamily,
    EquationOfState,
    SolverOptions,
    compute_h_field,
    mode_shooting,
    oblateness,
    solve_lane_emden,
    solve_mode,
)
from rotstar import perturb
from rotstar.errors import DomainError, NoConvergence
from rotstar.grids import RadialKernel, interp_matrix
from rotstar.perturb import ModeGrid, _ModeOperator

from oracles import (
    gravity_jacobian_packed,
    mode_operator_dense,
    mode_shooting_scipy,
    radial_kernel,
    solve_mode_dense,
)


@pytest.fixture(scope="module")
def hfield15(profile15_mod):
    return compute_h_field(profile15_mod)


@pytest.fixture(scope="module")
def eos15_mod():
    return EquationOfState.from_index(1.5)


@pytest.fixture(scope="module")
def profile15_mod(eos15_mod):
    return solve_lane_emden(eos15_mod, 1.0)


def test_vacuum_kernel_reduces_to_power(profile15_mod):
    # q = 0: the degree-2 representation returns A r^2 / 5 = r^2/5 for A = 1
    sol = solve_mode(profile15_mod, 2, far_coefficient=1.0)
    assert np.all(np.isfinite(sol.values))
    assert sol.residual <= 1e-12
    # the gamma-law coupling does not depend on the central enthalpy, so zero
    # the coupling explicitly through the kernel helper
    mg = ModeGrid.build(profile15_mod, 300)
    y = np.zeros_like(mg.r)
    ker = radial_kernel(mg.r, mg.gauss_x, mg.gauss_w, 2)  # the 1/5 included
    mapped = 1.0 * mg.r ** 2 / 5.0 + ker @ (0.0 * (interp_matrix(mg.r, mg.gauss_x) @ y))
    assert np.allclose(mapped, mg.r ** 2 / 5.0, atol=1e-15)


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_homogeneous_modes_vanish(profile15_mod, degree):
    sol = solve_mode(
        profile15_mod, degree, far_coefficient=0.0,
        initial=lambda r: profile15_mod.psi_at(r) * np.cos(r),
    )
    assert np.max(np.abs(sol.values)) <= 1e-8
    assert sol.iterations > 3  # it genuinely contracted from a nonzero start


# the two rotational mode problems: degree -> (source, far coefficient,
# inhomogeneous term source + far r^degree / (2 degree + 1))
_ROTATION_MODES = {
    0: (lambda r: r ** 2 / 6.0, 0.0, lambda r: r ** 2 / 6.0),
    2: (None, -5.0 / 6.0, lambda r: -(r ** 2) / 6.0),
}


@pytest.mark.parametrize("nu", [1.0, 1.5, 3.0])
@pytest.mark.parametrize("degree", [0, 2])
def test_direct_solve_matches_contraction(nu, degree):
    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    source, far, inhom = _ROTATION_MODES[degree]
    direct = solve_mode(prof, degree, source=source, far_coefficient=far)
    assert direct.iterations <= 30  # Krylov iterations of GMRES and its refinement
    assert direct.residual <= 1e-12
    contracted = solve_mode(
        prof, degree, source=source, far_coefficient=far, initial=inhom
    )
    assert contracted.iterations > 3
    assert np.max(np.abs(contracted.values - direct.values)) <= 1e-12


@pytest.mark.parametrize("degree", [1, 3, -2])
def test_solve_mode_rejects_bad_degree(profile15_mod, degree):
    with pytest.raises(DomainError):
        solve_mode(profile15_mod, degree)


def test_stalled_contraction_raises_with_history(profile15_mod, monkeypatch):
    monkeypatch.setattr(perturb, "_MAX_ITER", 2)
    with pytest.raises(NoConvergence) as info:
        solve_mode(
            profile15_mod, 4,
            initial=lambda r: profile15_mod.psi_at(r) * np.cos(r),
        )
    history = info.value.residual_history
    assert len(history) == 2
    assert all(step > 0 for step in history)


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_weighted_contraction_constant(profile15_mod, degree):
    # measured Lipschitz constant of the homogeneous iteration map in the
    # y/psi weighted sup norm stays below 3/(2 degree + 1) + 0.05
    mg = ModeGrid.build(profile15_mod, 500)
    psi = profile15_mod.psi_at(mg.r)
    rng = np.random.default_rng(degree)
    op = _ModeOperator(mg, degree)
    worst = 0.0
    for k in range(13):
        H = np.ones(mg.r.size) if k == 0 else rng.standard_normal(mg.r.size)
        y = H * psi
        out = op @ y
        worst = max(worst, np.max(np.abs(out / psi)) / np.max(np.abs(H)))
    assert worst <= 3.0 / (2 * degree + 1) + 0.05


@pytest.mark.parametrize("nu", [1.5, 3.0, 1.0])
def test_mode_operator_matches_dense_formula(nu):
    # the multipole kernel of each degree (less its first row at degree 0)
    # is the mode problem's own kernel, ratios rewritten
    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    mg = ModeGrid.build(prof, 700)
    for degree in (0, 2, 4, 8):
        want = mode_operator_dense(mg, degree)
        op = _ModeOperator(mg, degree)
        # the matrix-free products on every identity column
        got = np.column_stack([op @ e for e in np.eye(mg.r.size)])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("nu", [1.0, 1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("degree", [0, 2])
def test_solve_mode_matches_dense_solve(nu, degree):
    # GMRES on the matrix-free operator, refined once, against the direct
    # solve with the dense matrix, at the benchmark pool's indices
    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    source, far, _ = _ROTATION_MODES[degree]
    sol = solve_mode(prof, degree, source=source, far_coefficient=far)
    want = solve_mode_dense(prof, degree, source=source, far_coefficient=far)
    assert np.max(np.abs(sol.values - want)) <= 1e-12 * np.max(np.abs(want))
    assert sol.residual <= 1e-12


@pytest.mark.parametrize("degree", [0, 2])
def test_solve_mode_holds_no_dense_operator(profile15_mod, degree):
    # one 700 x 700 matrix is 3.9 MB; the dense solve peaked at 7.6 MB
    source, far, _ = _ROTATION_MODES[degree]
    tracemalloc.start()
    try:
        solve_mode(profile15_mod, degree, source=source, far_coefficient=far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


def test_mode_grid_holds_no_dense_interpolation(profile15_mod):
    # the dense interpolation was 2,796 x 700 doubles (15.6 MB) at this size
    mg = ModeGrid.build(profile15_mod, 700)
    arrays = [a for a in vars(mg).values() if isinstance(a, np.ndarray)]
    assert max(a.size for a in arrays) < mg.gauss_x.size * mg.r.size


def test_h2_negative_and_consistent(hfield15):
    assert np.all(hfield15.h2[hfield15.r > 0] < 0)
    assert hfield15.consistency_sup < 1e-4


def test_h2_against_shooting(profile15_mod, hfield15):
    y = mode_shooting(profile15_mod, 2, -5.0 / 6.0, hfield15.r)
    assert np.max(np.abs(y - hfield15.h2)) < 1e-5


@pytest.mark.parametrize("nu, degree", [(1.0, 2), (3.0, 2), (1.5, 4), (1.5, 6)])
def test_shooting_matches_scipy_dop853(nu, degree):
    # the package's Dormand-Prince shooting against scipy's DOP853 path it
    # replaced, at the mode grid's nodes and below the start radius
    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    r = np.concatenate(([0.0, 1e-9], ModeGrid.build(prof, 700).r))
    y = mode_shooting(prof, degree, -5.0 / 6.0, r)
    ref = mode_shooting_scipy(prof, degree, -5.0 / 6.0, r)
    assert np.max(np.abs(y - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("nu", [1.2, 1.9, 2.5, 3.0])
def test_h2_negative_across_indices(nu):
    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    hf = compute_h_field(prof)
    assert np.all(hf.h2[hf.r > 0] < 0)
    assert hf.consistency_sup < 1e-4


def test_h_field_takes_the_central_enthalpy_of_its_profile():
    # a white dwarf's density response depends on the central enthalpy: at
    # u_center = 2 a default u_center of 1 gave h2(xi1) = -0.66066, and the
    # resolvent cross-check, run at the same default, did not see it
    prof = solve_lane_emden(EquationOfState.white_dwarf(1.0, 2.0, 0.3), 2.0)
    hf = compute_h_field(prof)
    assert abs(hf.h2_at_xi1 - (-0.6836894774805999)) <= 1e-10
    assert hf.consistency_sup < 1e-4


def test_H_negative_with_steeper_axis_coefficient(profile15_mod, hfield15):
    # H = h2/psi < 0 on (0, xi1]; near the axis H/r tends to a constant that
    # the coupling makes strictly steeper than the vacuum value -1/2
    psi = profile15_mod.psi_at(hfield15.r)
    H = hfield15.h2 / psi
    assert np.all(H < 0)
    ratio = H[hfield15.r < 0.1] / (-0.5 * hfield15.r[hfield15.r < 0.1])
    assert np.all(ratio >= 1.0)
    spread = np.ptp(ratio)
    assert spread < 0.05 * np.max(np.abs(ratio))  # the limit exists


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated near-axis normalization h2 = -r^2/6 (1 + O(r^2)) is "
        "inconsistent with the degree-2 integral representation itself: the "
        "outer integral contributes an O(1) multiple of r^2, so the measured "
        "ratio is ~3.59 for nu = 1.5 (see notes/decisions.md); four "
        "independent computations agree on the value"
    ),
)
def test_h2_near_axis_unit_normalization(hfield15):
    r = 0.05
    ratio = float(hfield15.h2_at(r)) / (-(r ** 2) / 6.0)
    assert 0.98 <= ratio <= 1.02


def test_modes_beyond_two_vanish_in_resolvent(hfield15):
    res = hfield15.resolvent_modes
    assert np.max(np.abs(res[2:])) < 1e-6


@pytest.mark.parametrize("nu", [1.5, 3.0])
def test_resolvent_blocks_match_the_dense_solve(nu, monkeypatch):
    # at the spherical state the degree-0 and degree-2 block solves are the
    # dense solve with the full linearization
    from rotstar.equilibrium import newton_matrix, pack_modes, unpack_modes
    from rotstar.rotation import rigid_rotation

    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    grid = AxiGrid.build(prof.r_inf, n_r=256, n_zeta=16, l_max=4, focus=prof.xi1,
                         focus_weight=12.0, focus_width=0.015)
    modes0 = np.zeros((grid.n_l, grid.n_r))
    modes0[0] = prof.theta_at(grid.r)
    mat = newton_matrix(gravity_jacobian_packed(grid, eos, 1.0, modes0))
    g1 = pack_modes(grid, rigid_rotation(grid, 1.0).g.modes())
    want = unpack_modes(grid, np.linalg.solve(mat, g1))
    built = []
    generators = RadialKernel.generators

    def counting(self, k, coef):
        built.append(k)
        return generators(self, k, coef)

    monkeypatch.setattr(RadialKernel, "generators", counting)
    got = perturb._resolvent_h(prof, grid)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.all(got[2:] == 0.0)
    # only the two blocks it solves with are built, not the degree-4 one
    assert built == [0, 1]


def test_oblateness_report(profile15_mod, hfield15):
    rep0 = oblateness(hfield15, 0.0)
    assert rep0.sigma == 0.0
    assert np.allclose(rep0.Xi1_of_zeta, profile15_mod.xi1)
    rep = oblateness(hfield15, 1e-3)
    assert rep.sigma > 0
    assert rep.sigma_linear == pytest.approx(
        -1.5 * profile15_mod.xi1 / profile15_mod.mu1 * hfield15.h2_at_xi1, rel=1e-13
    )
    # equator minus pole equals the P2 gap of the boundary curve
    eq = rep.Xi1_of_zeta[np.argmin(np.abs(rep.zeta))]
    pole = rep.Xi1_of_zeta[-1]
    assert (eq - pole) / profile15_mod.xi1 == pytest.approx(rep.sigma, rel=1e-10)


def test_sigma_against_full_solver(profile15_mod, hfield15):
    grid = AxiGrid.build(
        profile15_mod.r_inf, n_r=192, n_zeta=16, l_max=4, focus=profile15_mod.xi1
    )
    fam = ConstantRotationFamily(
        profile15_mod, grid=grid, opts=SolverOptions(tol=1e-12, certify=False)
    )
    beta = 1e-3
    rep = oblateness(hfield15, beta, solution=fam.solve_at(beta))
    assert rep.sigma_measured is not None
    assert rep.sigma_measured == pytest.approx(rep.sigma, rel=0.05)


def test_expansion_error_exponent(profile15_mod, hfield15):
    grid = hfield15.resolvent_grid
    fam = ConstantRotationFamily(
        profile15_mod, grid=grid, opts=SolverOptions(tol=1e-13, certify=False)
    )
    base = fam.solve_at(0.0).u
    hmodes = np.zeros((grid.n_l, grid.n_r))
    hmodes[0] = hfield15.resolvent_modes[0]
    hmodes[1] = hfield15.resolvent_modes[1]
    hv = grid.synthesize(hmodes)
    betas = [1e-4, 3e-4, 1e-3]
    errs = [
        np.max(np.abs(fam.solve_at(b).u.values - base.values - b * hv)) for b in betas
    ]
    slope = np.polyfit(np.log(betas), np.log(errs), 1)[0]
    assert slope >= min(1.5, 2.0) - 0.15
