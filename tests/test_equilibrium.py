import logging
import warnings

import numpy as np
import pytest

from rotstar import (
    AngularMomentumLaw,
    AxiField,
    AxiGrid,
    ConstantRotationFamily,
    EquationOfState,
    SolverOptions,
    check_admissibility,
    free_boundary,
    gravity_map,
    gravity_map_deriv,
    hl_certificate,
    hl_certificate_blocks,
    initial_field_from_profile,
    mass_within_cylinder,
    scaled_density,
    solve_equilibrium,
    solve_lane_emden,
    total_mass_dimensionless,
)
from rotstar.errors import (
    DomainError,
    NoConvergence,
    NoSignChange,
    SingularLinearization,
)
from rotstar.rotation import CentrifugalField, centrifugal_from_omega, ConstantRotation, rigid_rotation
from rotstar.eos import scaled_density_deriv
from rotstar.grids import apply_stencil, derivative_stencil, interp_matrix
from rotstar import equilibrium
from rotstar.equilibrium import (
    centrifugal_deriv_matrix,
    newton_matrix,
    pack_modes,
    packed_size,
    unpack_modes,
)
from rotstar.rotation import LinearizedCentrifugal
from oracles import (
    axigrid_kernels_loop,
    block_sigma_min_dense,
    block_solve_lu,
    centrifugal_deriv_dense,
    dense_newton_step,
    free_boundary_per_ray,
    gravity_jacobian_dense,
    gravity_jacobian_packed,
    newton_matrix_dense,
    packed_block,
    sigma_min_dense,
    sigma_min_lu,
)


def test_gravity_map_on_vacuum(grid15, eos15):
    vac = AxiField(grid15, np.full((grid15.n_r, grid15.n_zeta), -2.0))
    out = gravity_map(vac, eos15, 1.0)
    assert np.max(np.abs(out.values - 1.0)) < 1e-15


def test_gravity_map_center_normalization(grid15, theta15, eos15):
    out = gravity_map(theta15, eos15, 1.0)
    assert np.all(out.values[0, :] == 1.0)


def test_gravity_map_fixes_spherical_profile(theta15, eos15):
    out = gravity_map(theta15, eos15, 1.0)
    assert (out - theta15).sup_norm() < 1e-5


def test_gravity_deriv_zero_cases(grid15, theta15, eos15):
    zero = AxiField.zeros(grid15)
    assert gravity_map_deriv(theta15, zero, eos15, 1.0).sup_norm() == 0.0
    vac = AxiField(grid15, np.full((grid15.n_r, grid15.n_zeta), -1.0))
    h = AxiField.from_function(grid15, lambda r, z: np.cos(r) + 0 * z)
    assert gravity_map_deriv(vac, h, eos15, 1.0).sup_norm() == 0.0


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_gravity_deriv_epsilon_sweep(nu):
    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    grid = AxiGrid.build(prof.r_inf, n_r=160, n_zeta=16, l_max=4, focus=prof.xi1)
    u = initial_field_from_profile(grid, prof)
    h = AxiField.from_function(
        grid, lambda r, z: np.exp(-((r - prof.xi1) ** 2)) * (1 + 0.5 * (3 * z ** 2 - 1) / 2)
    )
    base = gravity_map(u, eos, 1.0)
    dg = gravity_map_deriv(u, h, eos, 1.0)
    eps_list = np.logspace(-1, -3, 7)
    rems = []
    for eps in eps_list:
        pert = gravity_map(AxiField(grid, u.values + eps * h.values), eos, 1.0)
        rems.append((pert - base - eps * dg).sup_norm())
    slope = np.polyfit(np.log(eps_list), np.log(rems), 1)[0]
    assert slope >= min(nu, 2.0) - 0.1


def test_solve_reproduces_radial_profile(profile15, eos15):
    grid = AxiGrid.build(profile15.r_inf, n_r=256, n_zeta=32, l_max=8, focus=profile15.xi1)
    init = initial_field_from_profile(grid, profile15)
    sol = solve_equilibrium(None, eos15, 1.0, init, SolverOptions(tol=1e-11))
    exact = profile15.theta_at(grid.r)
    assert np.max(np.abs(sol.u.values - exact[:, None])) < 1e-5
    assert np.max(np.abs(sol.R_of_zeta - profile15.xi1)) < 1e-5
    assert sol.residual_history[-1] <= 1e-11
    assert sol.admissibility.a1 and sol.admissibility.a2 and sol.admissibility.monotone


def test_solve_returns_from_perturbed_start(profile15, eos15, grid15):
    # local uniqueness: a noisy start inside the basin returns to the profile
    init = initial_field_from_profile(grid15, profile15)
    rng = np.random.default_rng(8)
    noise = np.zeros((grid15.n_l, grid15.n_r))
    noise[0] = 1e-3 * np.sin(3 * grid15.r)
    noise[1] = 1e-3 * np.exp(-grid15.r)
    noise[1:, 0] = 0.0
    start = AxiField.from_modes(grid15, init.modes() + noise)
    sol = solve_equilibrium(None, eos15, 1.0, start, SolverOptions(tol=1e-12, certify=False))
    assert (sol.u - init).sup_norm() < 1e-6


def test_verbose_solve_logs_each_iteration(profile15, eos15, grid15, caplog, capsys):
    init = initial_field_from_profile(grid15, profile15)
    noise = np.zeros((grid15.n_l, grid15.n_r))
    noise[0] = 1e-3 * np.sin(3 * grid15.r)
    start = AxiField.from_modes(grid15, init.modes() + noise)
    caplog.set_level(logging.DEBUG, logger="rotstar.equilibrium")
    sol = solve_equilibrium(None, eos15, 1.0, start, SolverOptions(tol=1e-12, certify=False))
    records = [r for r in caplog.records if r.name == "rotstar.equilibrium"]
    assert len(sol.residual_history) > 1
    assert len(records) == len(sol.residual_history)
    assert all("residual" in r.getMessage() for r in records)
    assert capsys.readouterr().out == ""


def test_newton_lines_name_gmres_and_preconditioner(eos15, profile15, caplog):
    # each Newton line gives the GMRES iterations and linear residual and says
    # whether the preconditioner was built, on what support, or carried;
    # meta["newton"] counts both.  A lone solve builds it at its first step;
    # a family builds it once, at its spherical start, and carries it into
    # every solve.
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    opts = SolverOptions(certify=False)
    fam = ConstantRotationFamily(profile15, grid=grid, opts=opts)
    init = initial_field_from_profile(grid, profile15)
    # the nodes up to the last one whose column of a block is not zero: the
    # star's support at the spherical start, where both builds take place
    blocks = equilibrium.gravity_jacobian_packed(grid, eos15, 1.0, init.modes())
    nodes = max(
        np.flatnonzero(np.any(b.dense(), axis=0))[-1] + 1 + (k > 0) for k, b in enumerate(blocks)
    )
    assert grid.r[nodes - 1] > profile15.xi1 and nodes < grid.n_r
    support = f"support {nodes} of {grid.n_r} nodes"
    caplog.set_level(logging.DEBUG, logger="rotstar.equilibrium")
    solves = [
        ("lone", lambda: solve_equilibrium(rigid_rotation(grid, 1e-3), eos15, 1.0, init, opts)),
        ("first", lambda: fam.solve_at(1e-3)),
        ("second", lambda: fam.solve_at(1.1e-3)),
    ]
    for kind, solve in solves:
        caplog.clear()
        sol = solve()
        lines = [r.getMessage() for r in caplog.records]
        steps = [m for m in lines if "Newton step" in m]
        assert len(steps) == sol.iterations - 1 == len(sol.meta["newton"]["gmres_iterations"])
        for line, inner in zip(steps, sol.meta["newton"]["gmres_iterations"]):
            assert f"GMRES {inner} iterations to " in line
            assert float(line.rsplit(" ", 1)[1]) <= 1e-12
        built = [m for m in lines if "preconditioner built" in m]
        assert len(built) == sol.meta["newton"]["preconditioner_builds"]
        if kind == "lone":
            assert f"preconditioner built ({support})" in steps[0]
            assert all("preconditioner of iteration 0" in m for m in steps[1:])
        else:
            assert all("preconditioner carried from the family" in m for m in steps)
        if kind == "first":
            assert built == [f"preconditioner built at the spherical start ({support})"]


def test_free_boundary_examples(grid15, theta15, profile15):
    R = free_boundary(theta15, 0.2)
    assert np.max(np.abs(R - profile15.xi1)) < 1e-9
    lin = AxiField.from_function(grid15, lambda r, z: 1.0 - r + 0 * z)
    R1 = free_boundary(lin, 0.1)
    assert np.max(np.abs(R1 - 1.0)) < 1e-12
    wig = AxiField.from_function(
        grid15, lambda r, z: np.cos(2.2 * r) + 0 * z
    )
    with pytest.raises(NoSignChange):
        free_boundary(wig, 0.1)


def test_check_admissibility_flags(grid15, theta15, eos15, profile15):
    rep = check_admissibility(theta15)
    assert rep.a1 and rep.a2 and rep.monotone
    assert rep.one_over_C > 0
    # near the axis -du/dr / r approaches f(1)/3
    du = apply_stencil(*derivative_stencil(grid15.r), theta15.values, axis=0)
    f1 = scaled_density(1.0, eos15, 1.0)
    near = -du[1, 0] / grid15.r[1]
    assert near == pytest.approx(f1 / 3, rel=2e-2)
    # constant field fails a1, flags still reported
    const = AxiField(grid15, np.ones((grid15.n_r, grid15.n_zeta)))
    rep2 = check_admissibility(const, r0=0.2)
    assert not rep2.a1 and not rep2.a2


def test_hl_certificate_blocks_positive(theta15, eos15, profile3, eos3):
    blocks = hl_certificate_blocks(theta15, eos15, 1.0)
    assert set(blocks) == {0, 2, 4, 6, 8}
    assert all(v > 1e-3 for v in blocks.values())
    grid3 = AxiGrid.build(profile3.r_inf, n_r=160, n_zeta=16, l_max=8, focus=profile3.xi1)
    blocks3 = hl_certificate_blocks(initial_field_from_profile(grid3, profile3), eos3, 1.0)
    assert all(v > 1e-3 for v in blocks3.values())


def test_hl_certificate_vacuum_identity(grid15, eos15):
    vac = AxiField(grid15, np.full((grid15.n_r, grid15.n_zeta), -1.0))
    assert hl_certificate(vac, eos15, 1.0)[0] == pytest.approx(1.0, abs=1e-12)


def test_hl_weighted_degree4_block(profile15, eos15):
    # the degree-4 block, restricted to the interior of the star and weighted
    # by psi, contracts by 3/(2j+1); its smallest singular value stays above
    # 1 - 3/9 - 0.05
    from rotstar.eos import scaled_density_deriv
    from scipy.linalg import svdvals

    grid = AxiGrid.build(profile15.r_inf, n_r=160, n_zeta=16, l_max=8, focus=profile15.xi1)
    u = initial_field_from_profile(grid, profile15)
    interp = interp_matrix(grid.r, grid.gauss_x)
    q = scaled_density_deriv(interp @ u.modes()[0], eos15, 1.0)
    k = list(grid.lvals).index(4)
    blk = (axigrid_kernels_loop(grid)[k] * q[None, :]) @ interp
    inside = (grid.r > 0) & (grid.r <= profile15.xi1)
    psi = profile15.psi_at(grid.r[inside])
    sub = blk[np.ix_(inside, inside)]
    weighted = sub / psi[:, None] * psi[None, :]
    n = weighted.shape[0]
    sigma = svdvals(np.eye(n) - weighted)[-1]
    assert sigma >= 1 - 3.0 / 9.0 - 0.05
    # the weighted row sums realize the contraction bound directly
    assert np.max(np.abs(weighted).sum(axis=1)) <= 3.0 / 9.0 + 0.05


def test_continuation_schedule(eos15, profile15):
    # a family solved along an increasing schedule, each solve warm-started
    # from the nearest cached state
    grid = AxiGrid.build(profile15.r_inf, n_r=160, n_zeta=16, l_max=8, focus=profile15.xi1)
    fam = ConstantRotationFamily(
        profile15, grid=grid, opts=SolverOptions(tol=1e-11, certify=False)
    )
    sols = [fam.solve_at(beta) for beta in (0.0, 1e-4, 1e-3)]
    eq = [s.boundary_at([0.0])[0] for s in sols]
    pole = [s.boundary_at([1.0])[0] for s in sols]
    assert eq[0] < eq[1] < eq[2]
    assert pole[0] > pole[1] > pole[2]
    # the zero-rotation state is the extended spherical profile itself
    sup0 = np.max(np.abs(sols[0].u.values - profile15.theta_at(grid.r)[:, None]))
    assert sup0 < 1e-5


def test_continuation_failure_carries_partial(eos15, profile15):
    # far beyond break-up no equilibrium of this family exists: the solve
    # fails, and the family keeps only the states that converged
    grid = AxiGrid.build(profile15.r_inf, n_r=96, n_zeta=16, l_max=4, focus=profile15.xi1)
    fam = ConstantRotationFamily(
        profile15, grid=grid, opts=SolverOptions(tol=1e-10, max_iter=12, certify=False)
    )
    fam.solve_at(0.0)
    with pytest.raises(NoConvergence):
        fam.solve_at(1.0)
    assert list(fam._cache) == [0.0]


def test_solution_map_continuity(eos15, profile15):
    grid = AxiGrid.build(profile15.r_inf, n_r=160, n_zeta=16, l_max=8, focus=profile15.xi1)
    fam = ConstantRotationFamily(profile15, grid=grid, opts=SolverOptions(tol=1e-12, certify=False))
    b0 = 5e-4
    db = 1e-5
    u1 = fam.solve_at(b0).u
    u2 = fam.solve_at(b0 + db).u
    K = (u2 - u1).sup_norm() / db
    assert np.isfinite(K) and 0 < K < 100


def test_physical_vacuum_boundary(eos15, profile15):
    grid = AxiGrid.build(profile15.r_inf, n_r=160, n_zeta=16, l_max=8, focus=profile15.xi1)
    fam = ConstantRotationFamily(profile15, grid=grid, opts=SolverOptions(tol=1e-11, certify=False))
    sol = fam.solve_at(1e-3)
    modes = sol.u.modes()
    eps = 1e-6
    for j, z in enumerate(grid.zeta):
        R = sol.R_of_zeta[j]
        du = (grid.eval_modes_at(modes, np.array([R + eps])) -
              grid.eval_modes_at(modes, np.array([R - eps]))) / (2 * eps)
        slope = float(du[:, 0] @ _legendre_at(grid, z))
        assert slope < -0.5 * profile15.mu1 / profile15.xi1 ** 2


def _legendre_at(grid, z):
    from scipy.special import eval_legendre

    return np.array([eval_legendre(l, z) for l in grid.lvals])


@pytest.mark.parametrize("nu,order_floor", [(1.5, 1.4), (2.5, 1.8)])
def test_newton_convergence_order(nu, order_floor):
    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    grid = AxiGrid.build(prof.r_inf, n_r=192, n_zeta=16, l_max=4, focus=prof.xi1)
    init = initial_field_from_profile(grid, prof)
    pert = np.zeros((grid.n_l, grid.n_r))
    pert[0] = 3e-2 * np.exp(-(((grid.r - prof.xi1 / 2) / 1.0) ** 2))
    pert[1] = 2e-2 * np.exp(-(((grid.r - prof.xi1 / 2) / 1.0) ** 2))
    pert[1:, 0] = 0.0
    start = AxiField.from_modes(grid, init.modes() + pert)
    sol = solve_equilibrium(
        None, eos, 1.0, start,
        SolverOptions(tol=1e-14, certify=False, max_iter=30),
    )
    res = np.array(sol.residual_history)
    idx = np.nonzero((res > 2e-14) & (res < 1e-2))[0]
    orders = [
        np.log(res[c] / res[b]) / np.log(res[b] / res[a])
        for a, b, c in zip(idx, idx[1:], idx[2:])
        if b == a + 1 and c == a + 2
    ]
    assert orders, "no measurable window"
    assert max(orders) >= order_floor


def test_momentum_law_solve(eos15, profile15, scale15):
    grid = AxiGrid.build(profile15.r_inf, n_r=128, n_zeta=16, l_max=6, focus=profile15.xi1)
    u0 = initial_field_from_profile(grid, profile15)
    cyl = mass_within_cylinder(u0, eos15, scale15)
    ms = np.linspace(0, 1.3 * cyl.total, 60)
    law = AngularMomentumLaw(ms, 0.01 * ms ** 2 / cyl.total)
    sol = solve_equilibrium(
        None, eos15, 1.0, u0, SolverOptions(tol=1e-10), law=law, scale=scale15
    )
    rep = sol.admissibility
    assert rep.a1 and rep.a2 and rep.monotone
    assert sol.hl_sigma_min > 1e-3
    assert sol.residual_history[-1] <= 1e-10


def test_centrifugal_deriv_matrix_matches_column_probing(eos15, profile15, scale15):
    # the certificate's B, probed column by column through its products with
    # packed unit vectors, is the dense oracle's B, and its transposed
    # products are B^T
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    p2 = (3 * grid.zeta[None, :] ** 2 - 1) / 2
    u0 = initial_field_from_profile(grid, profile15)
    u = AxiField(grid, u0.values - 0.03 * grid.r[:, None] ** 2 * p2)
    law = _momentum_law(u, eos15, scale15)
    lin = centrifugal_deriv_matrix(law, u, eos15, scale15)
    want = centrifugal_deriv_dense(LinearizedCentrifugal(law, u, eos15, scale15))
    n = packed_size(grid)
    probe, probe_t = np.empty((n, n)), np.empty((n, n))
    for k, e in enumerate(np.eye(n)):
        modes = unpack_modes(grid, e)
        probe[:, k] = pack_modes(grid, lin.apply_half(grid.synthesize_half(modes)))
        probe_t[:, k] = pack_modes(grid, lin.apply_transpose(modes))
    assert np.max(np.abs(probe - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(probe_t - want.T)) <= 1e-12 * np.max(np.abs(want))
    assert np.linalg.matrix_rank(probe) <= grid.n_r


def test_max_iter_caps_the_solve(eos15, profile15):
    # one Newton step cannot reach the tolerance: max_iter = 1 ends in
    # NoConvergence after the starting residual and the one step's, which
    # are those of the uncapped solve
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    init = initial_field_from_profile(grid, profile15)
    cf = rigid_rotation(grid, 1e-3)
    full = solve_equilibrium(cf, eos15, 1.0, init, SolverOptions(certify=False))
    with pytest.raises(NoConvergence) as info:
        solve_equilibrium(cf, eos15, 1.0, init, SolverOptions(max_iter=1, certify=False))
    assert str(info.value).startswith("no convergence after 1 iterations")
    assert info.value.residual_history == full.residual_history[:2]


def test_law_requires_scale(eos15, theta15):
    law = AngularMomentumLaw(np.array([0.0, 1.0]), np.array([0.0, 0.1]))
    with pytest.raises(DomainError):
        solve_equilibrium(None, eos15, 1.0, theta15, law=law)


def test_solution_serialization(eos15, profile15):
    grid = AxiGrid.build(profile15.r_inf, n_r=96, n_zeta=16, l_max=4, focus=profile15.xi1)
    init = initial_field_from_profile(grid, profile15)
    cf = centrifugal_from_omega(ConstantRotation(0.01),
                                __import__('rotstar').ScaleSet.from_central_enthalpy(eos15, 1.0), grid)
    sol = solve_equilibrium(cf, eos15, 1.0, init, SolverOptions(tol=1e-10))
    doc = sol.to_dict()
    assert doc["flags"]["a1"] is True
    assert len(doc["boundary"]) == grid.n_zeta
    assert doc["hl_sigma_min"] > 0
    import json

    json.dumps(doc)  # must be JSON-serializable


def test_differential_law_solve(eos15, profile15, scale15):
    # a gently decreasing angular-velocity profile solved end to end
    grid = AxiGrid.build(profile15.r_inf, n_r=128, n_zeta=16, l_max=6, focus=profile15.xi1)
    phys = np.linspace(0.0, scale15.length_scale * grid.r_inf, 201)
    law = __import__("rotstar").DifferentialRotation(
        phys, 0.02 / (1.0 + (phys / phys[-1]) ** 2)
    )
    cf = centrifugal_from_omega(law, scale15, grid)
    init = initial_field_from_profile(grid, profile15)
    sol = solve_equilibrium(cf, eos15, 1.0, init, SolverOptions(tol=1e-10))
    rep = sol.admissibility
    assert rep.a1 and rep.a2 and rep.monotone
    assert sol.boundary_at([0.0])[0] > sol.boundary_at([1.0])[0]


def test_family_solves_at_the_central_enthalpy_of_its_profile():
    # a white dwarf's density depends on the central enthalpy: a family given
    # the u_center = 2 profile beside a default u_center of 1 put the
    # equator at 2.45780 (xi1 = 1.93014); the family now reads the profile's
    prof = solve_lane_emden(EquationOfState.white_dwarf(1.0, 2.0, 0.3), 2.0)
    fam = ConstantRotationFamily(prof)
    assert (fam.eos, fam.u_center) == (prof.eos, 2.0)
    sol = fam.solve_at(1e-3)
    equator = sol.R_of_zeta[np.argmin(np.abs(sol.u.grid.zeta))]
    assert abs(equator - 1.9333726675477259) <= 1e-10


def test_solve_refuses_a_field_from_another_grid(eos15, profile15):
    # g on an unfocused grid of the same shape as init's focused one: its
    # modes were read on init's grid, and the solve returned R = 3.84996 at
    # the node nearest the equator, where 3.79967 is right
    focused = AxiGrid.build(profile15.r_inf, 128, 16, 4, focus=profile15.xi1)
    unfocused = AxiGrid.build(profile15.r_inf, 128, 16, 4)
    init = initial_field_from_profile(focused, profile15)
    with pytest.raises(DomainError, match="another grid"):
        solve_equilibrium(rigid_rotation(unfocused, 1e-2), eos15, 1.0, init)
    sol = solve_equilibrium(rigid_rotation(focused, 1e-2), eos15, 1.0, init)
    equator = sol.R_of_zeta[np.argmin(np.abs(focused.zeta))]
    assert abs(equator - 3.79967) <= 1e-5


def test_large_rotation_reports_flags(eos15, profile15):
    # far beyond the slow-rotation regime the fixed point loses admissibility;
    # the family refuses that state, its error reports the flags, and it is
    # not cached
    grid = AxiGrid.build(profile15.r_inf, n_r=96, n_zeta=16, l_max=4, focus=profile15.xi1)
    fam = ConstantRotationFamily(
        profile15, grid=grid, opts=SolverOptions(tol=1e-9, certify=False)
    )
    fam.solve_at(0.0)
    with pytest.raises(NoSignChange) as exc:
        fam.solve_at(0.1)
    assert "a1=False" in str(exc.value) and "a2=False" in str(exc.value)
    assert list(fam._cache) == [0.0]


def test_family_stays_on_its_grid(eos15, profile15):
    # a family whose grid is focused away from the boundary must give the
    # same states as a well-focused one, on the grid it was built with
    def family(focus):
        grid = AxiGrid.build(profile15.r_inf, focus=focus)
        return ConstantRotationFamily(
            profile15, grid=grid, opts=SolverOptions(tol=1e-12, certify=False)
        )

    off, ref = family(0.8 * profile15.xi1), family(profile15.xi1)
    for beta in (1e-3, 2e-3):
        sol, sol_ref = off.solve_at(beta), ref.solve_at(beta)
        assert sol.u.grid is off.grid
        R, R_ref = sol.boundary_at([0.0])[0], sol_ref.boundary_at([0.0])[0]
        assert abs(R - R_ref) <= 1e-6
        m1 = total_mass_dimensionless(sol, eos15, 1.0)
        m1_ref = total_mass_dimensionless(sol_ref, eos15, 1.0)
        assert abs(m1 - m1_ref) <= 1e-6 * m1_ref


def test_rigid_rotation_matches_hand_built_field(eos15, profile15):
    grid = AxiGrid.build(profile15.r_inf, n_r=128, n_zeta=16, l_max=4, focus=profile15.xi1)
    beta = 2e-3
    gm = np.zeros((grid.n_l, grid.n_r))
    gm[0] = beta * grid.r ** 2 / 6.0
    gm[1] = -beta * grid.r ** 2 / 6.0
    by_hand = CentrifugalField(
        0.25 * beta * grid.r ** 2, 0.5 * beta * grid.r, AxiField.from_modes(grid, gm), beta
    )
    init = initial_field_from_profile(grid, profile15)
    opts = SolverOptions(tol=1e-12)
    sol = solve_equilibrium(rigid_rotation(grid, beta), eos15, 1.0, init, opts)
    sol_hand = solve_equilibrium(by_hand, eos15, 1.0, init, opts)
    assert sol.beta == beta
    assert np.max(np.abs(sol.u.values - sol_hand.u.values)) <= 1e-14
    assert np.max(np.abs(sol.R_of_zeta - sol_hand.R_of_zeta)) <= 1e-14
    assert sol.hl_sigma_min == pytest.approx(sol_hand.hl_sigma_min, rel=1e-12)


def _oblate_state(profile, shape=(64, 12, 4)):
    grid = AxiGrid.build(profile.r_inf, *shape, focus=profile.xi1)
    p2 = (3 * grid.zeta[None, :] ** 2 - 1) / 2
    u0 = initial_field_from_profile(grid, profile)
    return AxiField(grid, u0.values - 0.03 * grid.r[:, None] ** 2 * p2)


def test_gravity_jacobian_matches_dense_products(eos15, profile15):
    # 64 radial nodes: the clipped end stencils touch a large share of the columns
    u = _oblate_state(profile15)
    grid = u.grid
    jac = gravity_jacobian_packed(grid, eos15, 1.0, u.modes())
    fp = scaled_density_deriv(grid.fine_field_at_gauss(u.modes()), eos15, 1.0)
    dense = gravity_jacobian_dense(grid, fp)
    assert jac.flags.f_contiguous
    assert np.max(np.abs(jac - dense)) <= 1e-14 * np.max(np.abs(dense))


@pytest.mark.parametrize("shape", [(256, 32, 8), (96, 18, 16), (48, 122, 120)])
def test_gravity_jacobian_matches_dense_products_per_degree(eos15, profile15, shape):
    # the last grid runs its radial kernel in several chunks
    u = _oblate_state(profile15, shape)
    grid = u.grid
    jac = gravity_jacobian_packed(grid, eos15, 1.0, u.modes())
    fp = scaled_density_deriv(grid.fine_field_at_gauss(u.modes()), eos15, 1.0)
    dense = gravity_jacobian_dense(grid, fp)
    for li in range(grid.n_l):
        rows = slice(0, grid.n_r) if li == 0 else slice(
            grid.n_r + (li - 1) * (grid.n_r - 1), grid.n_r + li * (grid.n_r - 1)
        )
        want = dense[rows]
        assert np.max(np.abs(jac[rows] - want)) <= 1e-13 * np.max(np.abs(want))


def test_gravity_jacobian_applies_the_derivative(eos15, profile15):
    u = _oblate_state(profile15)
    grid = u.grid
    jac = gravity_jacobian_packed(grid, eos15, 1.0, u.modes())
    rng = np.random.default_rng(5)
    for _ in range(3):
        h = AxiField.from_modes(grid, unpack_modes(grid, rng.standard_normal(packed_size(grid))))
        want = pack_modes(grid, gravity_map_deriv(u, h, eos15, 1.0).modes())
        got = jac @ pack_modes(grid, h.modes())
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_hl_certificate_blocks_match_dense_products(eos15, theta15):
    grid = theta15.grid
    q = scaled_density_deriv(interp_matrix(grid.r, grid.gauss_x) @ theta15.modes()[0], eos15, 1.0)
    want = block_sigma_min_dense(grid, q)
    got = hl_certificate_blocks(theta15, eos15, 1.0)
    assert set(got) == set(want)
    for l, sigma in want.items():
        assert got[l] == pytest.approx(sigma, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("nu", [1.5, 3.0])
def test_hl_certificate_blocks_match_scipy_svdvals(nu):
    # numpy's SVD of the per-degree blocks against scipy's, block by block
    from scipy.linalg import svdvals

    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    grid = AxiGrid.build(prof.r_inf, n_r=160, n_zeta=16, l_max=8, focus=prof.xi1)
    u = initial_field_from_profile(grid, prof)
    blocks = equilibrium.gravity_jacobian_packed(grid, eos, 1.0, u.modes())
    want = {
        int(l): float(svdvals(newton_matrix(b.dense()))[-1]) for l, b in zip(grid.lvals, blocks)
    }
    got = hl_certificate_blocks(u, eos, 1.0)
    assert set(got) == set(want)
    for l, sigma in want.items():
        assert abs(got[l] - sigma) <= 1e-15 * sigma


def _momentum_law(u0, eos, scale):
    cyl = mass_within_cylinder(u0, eos, scale)
    ms = np.linspace(0, 1.3 * cyl.total, 60)
    return AngularMomentumLaw(ms, 0.01 * ms ** 2 / cyl.total)


def _widest_square(factors):
    """The second longest axis of any array in ``factors``: n for an n x n
    array, the chunk size for a stack of chunks."""
    return max(sorted(a.shape)[-2] if a.ndim > 1 else 0 for a in factors)


def test_certificate_builds_no_n_by_n_matrix(monkeypatch):
    # the certificate at a rotating state holds nothing n x n: lu_factor
    # factors each of the n_l per-degree blocks from its generators, and no
    # array it returns is as wide as the star's support in two axes; a
    # momentum law's B is built once, as the matrix-free LinearizedCentrifugal
    u, eos, law, scale = _converged_state("momentum", 1.5, (64, 12, 4))
    grid = u.grid
    factored, builds = [], []

    def recorded_factor(block, chunks):
        out = factor_orig(block, chunks)
        factored.append((block, out))
        return out

    def recorded_build(*args, **kwargs):
        out = build_orig(*args, **kwargs)
        builds.append(type(out))
        return out

    factor_orig, build_orig = equilibrium.lu_factor, equilibrium.centrifugal_deriv_matrix
    monkeypatch.setattr(equilibrium, "lu_factor", recorded_factor)
    monkeypatch.setattr(equilibrium, "centrifugal_deriv_matrix", recorded_build)
    hl_certificate(u, eos, 1.0)
    hl_certificate(u, eos, 1.0, law=law, scale=scale)
    assert len(factored) == 2 * grid.n_l
    for block, out in factored:
        assert isinstance(block, equilibrium.DegreeBlock) and block.band.shape == (5, grid.n_r)
        assert _widest_square(out) < block.support < grid.n_r
    assert builds == [LinearizedCentrifugal]


def test_certificate_memory_stays_below_one_n_by_n_matrix():
    # with no n x n matrix the certificate's traced peak, the momentum law's
    # B and the block inverses included, is below n^2 doubles
    import tracemalloc

    u, eos, law, scale = _converged_state("momentum", 1.5, (256, 32, 8))
    n = packed_size(u.grid)
    tracemalloc.start()
    try:
        hl_certificate(u, eos, 1.0, law=law, scale=scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


def test_jacobian_adds_into_out(eos15, profile15, scale15):
    u = _oblate_state(profile15)
    grid, modes = u.grid, u.modes()
    n = packed_size(grid)
    base = np.asfortranarray(np.random.default_rng(3).standard_normal((n, n)))
    jac = gravity_jacobian_packed(grid, eos15, 1.0, modes)
    got = gravity_jacobian_packed(grid, eos15, 1.0, modes, out=base.copy(order="F"))
    assert np.array_equal(got, base + jac)
    with pytest.raises(ValueError):
        gravity_jacobian_packed(grid, eos15, 1.0, modes, out=np.ascontiguousarray(base))


def test_uncertified_solve_builds_no_dense_newton_matrix(eos15, profile15, scale15, monkeypatch):
    # Newton products are matrix-free and only the per-degree diagonal blocks
    # of the Jacobian are formed, as generators, n_l of them per
    # preconditioner build, each factored by one lu_factor call with no
    # array as wide as the star's support in two axes; no block is made
    # dense, nothing else is factored without the certificate, and neither
    # the certificate's B nor a transposed product of the Newton solve's B
    # is built
    def forbidden(*args, **kwargs):
        raise AssertionError("certificate work on the solve path")

    factored = []
    lu_factor_orig = equilibrium.lu_factor

    def recording_lu_factor(block, chunks):
        out = lu_factor_orig(block, chunks)
        factored.append((block, out))
        return out

    monkeypatch.setattr(equilibrium, "centrifugal_deriv_matrix", forbidden)
    monkeypatch.setattr(equilibrium, "hl_certificate", forbidden)
    monkeypatch.setattr(LinearizedCentrifugal, "apply_transpose", forbidden)
    monkeypatch.setattr(equilibrium, "newton_matrix", forbidden)
    monkeypatch.setattr(equilibrium.DegreeBlock, "dense", forbidden)
    monkeypatch.setattr(equilibrium, "lu_factor", recording_lu_factor)
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    u0 = initial_field_from_profile(grid, profile15)
    opts = SolverOptions(certify=False)
    rigid = solve_equilibrium(rigid_rotation(grid, 1e-3), eos15, 1.0, u0, opts)
    law = _momentum_law(u0, eos15, scale15)
    momentum = solve_equilibrium(None, eos15, 1.0, u0, opts, law=law, scale=scale15)
    builds = sum(s.meta["newton"]["preconditioner_builds"] for s in (rigid, momentum))
    assert builds >= 2
    assert len(factored) == builds * grid.n_l
    assert all(_widest_square(out) < block.support for block, out in factored)


def test_newton_step_drops_its_density_derivative(eos15, profile15, monkeypatch):
    # rho'(u) of a Newton step (1.5 MB at 512x48xl16) and the products closed
    # over it are freed before the next residual evaluation: at each entry to
    # gravity_modes no array that _density_deriv_fine returned is alive
    import weakref

    returned, alive = [], []
    deriv, gravity = equilibrium._density_deriv_fine, equilibrium.gravity_modes

    def recording_deriv(*args, **kwargs):
        out = deriv(*args, **kwargs)
        returned.append(weakref.ref(out))
        return out

    def checking_gravity(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in returned))
        return gravity(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "_density_deriv_fine", recording_deriv)
    monkeypatch.setattr(equilibrium, "gravity_modes", checking_gravity)
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    u0 = initial_field_from_profile(grid, profile15)
    sol = solve_equilibrium(rigid_rotation(grid, 1e-3), eos15, 1.0, u0, SolverOptions(certify=False))
    assert len(sol.meta["newton"]["gmres_iterations"]) >= 2
    assert len(returned) > len(sol.meta["newton"]["gmres_iterations"])
    assert alive == [0] * len(alive)


def test_free_boundary_runs_once_per_solve(eos15, profile15, monkeypatch):
    # the admissibility check finds the boundary from the center and sets r0
    # from it; the solve reuses that boundary
    from rotstar import equilibrium

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return free_boundary(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "free_boundary", counting)
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    init = initial_field_from_profile(grid, profile15)
    sol = solve_equilibrium(rigid_rotation(grid, 1e-3), eos15, 1.0, init,
                            SolverOptions(certify=False))
    assert len(calls) == 1
    report = sol.admissibility
    assert np.array_equal(sol.R_of_zeta, report.boundary)
    # the boundary is the one a search beyond r0 finds
    assert report.r0 == 0.05 * np.min(report.boundary)
    assert np.array_equal(report.boundary, free_boundary(sol.u, report.r0))
    # a field without a boundary: a2 fails, r0 falls back to 0.05 r_inf
    calls.clear()
    const = AxiField(grid, np.ones((grid.n_r, grid.n_zeta)))
    rep = check_admissibility(const)
    assert len(calls) == 1
    assert not rep.a2 and rep.boundary is None
    assert rep.r0 == 0.05 * grid.r_inf


def test_free_boundary_matches_per_ray_splines(eos15, profile15):
    grid = AxiGrid.build(profile15.r_inf, n_r=128, n_zeta=16, l_max=4, focus=profile15.xi1)
    init = initial_field_from_profile(grid, profile15)
    sol = solve_equilibrium(rigid_rotation(grid, 0.02), eos15, 1.0, init,
                            SolverOptions(certify=False))
    for field in (sol.u, init):
        R = free_boundary(field, 0.2)
        want = free_boundary_per_ray(field.grid, field.values, 0.2)
        assert np.max(np.abs(R - want)) <= 1e-12


def test_divergence_past_mass_shedding_is_one_newton_error(eos3, profile3):
    # past mass shedding Newton diverges (the iterate overflows): one
    # NoConvergence names the non-finite iteration, and its history is
    # Newton's alone, finite up to that last residual
    grid = AxiGrid.build(profile3.r_inf, n_r=96, n_zeta=16, l_max=6, focus=profile3.xi1)
    init = initial_field_from_profile(grid, profile3)
    cf = rigid_rotation(grid, 3e-2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence) as info:
            solve_equilibrium(cf, eos3, 1.0, init, SolverOptions(certify=False))
    history = info.value.residual_history
    assert str(info.value).startswith(
        f"residual is not finite at iteration {len(history) - 1}: the iterate is not finite"
    )
    assert 2 <= len(history) <= SolverOptions().max_iter + 1
    assert not np.isfinite(history[-1])
    assert all(np.isfinite(history[:-1]))


def test_singular_rebuild_after_a_capped_step_is_a_divergence(eos3, profile3, monkeypatch, caplog):
    # past mass shedding GMRES stops at its cap, and a block that is singular
    # at the rebuild after it is a diverging iterate, not a singular
    # linearization: the step is not finite, and Newton fails on the residual
    grid = AxiGrid.build(profile3.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile3.xi1)
    init = initial_field_from_profile(grid, profile3)
    factor, builds = equilibrium._factor_blocks, []

    def singular_rebuild(*args):
        builds.append(1)
        if len(builds) > 1:
            raise SingularLinearization(0.0, args[-1])
        return factor(*args)

    monkeypatch.setattr(equilibrium, "_factor_blocks", singular_rebuild)
    caplog.set_level(logging.DEBUG, logger="rotstar.equilibrium")
    with pytest.raises(NoConvergence) as info:
        solve_equilibrium(rigid_rotation(grid, 6e-2), eos3, 1.0, init,
                          SolverOptions(certify=False))
    assert str(info.value).startswith("residual is not finite at iteration")
    assert "the iterate is not finite" in str(info.value)
    lines = [r.getMessage() for r in caplog.records if "Newton step" in r.getMessage()]
    assert "(iteration cap)" in lines[-2] and lines[-1].endswith("singular at this iterate")
    assert len(builds) == 2


def test_divergence_error_names_the_overflow(eos3, profile3, caplog):
    # past mass shedding GMRES stops at its cap, and the iteration line says
    # so; three capped steps in a row grow the residual, and the error names
    # that rule, the iteration and the residuals it grew through
    from rotstar import equilibrium
    from rotstar.errors import NoConvergence

    grid = AxiGrid.build(profile3.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile3.xi1)
    init = initial_field_from_profile(grid, profile3)
    caplog.set_level(logging.DEBUG, logger="rotstar.equilibrium")
    with pytest.raises(NoConvergence) as info:
        solve_equilibrium(rigid_rotation(grid, 6e-2), eos3, 1.0, init,
                          SolverOptions(certify=False))
    history = info.value.residual_history
    assert np.isfinite(history).all()
    it = len(history) - 1
    assert str(info.value) == (
        f"diverging at iteration {it}: 3 capped Newton steps in a row grew the residual "
        f"({history[-4]:.3e}, {history[-3]:.3e}, {history[-2]:.3e}, {history[-1]:.3e})"
    )
    capped = [r.getMessage() for r in caplog.records if "(iteration cap)" in r.getMessage()]
    assert capped
    assert all(f"GMRES {equilibrium._GMRES_MAX_ITER} iterations" in m for m in capped)


def test_jacobian_build_reuses_the_iterate_cylinder_mass(eos15, profile15, scale15, monkeypatch):
    # one cylinder-mass evaluation per iterate: the Newton build takes the one
    # the centrifugal term was computed from
    from rotstar import equilibrium, rotation

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return mass_within_cylinder(*args, **kwargs)

    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    u0 = initial_field_from_profile(grid, profile15)
    cyl = mass_within_cylinder(u0, eos15, scale15)
    ms = np.linspace(0, 1.3 * cyl.total, 60)
    law = AngularMomentumLaw(ms, 0.01 * ms ** 2 / cyl.total)
    builds = []
    lin_orig = equilibrium.LinearizedCentrifugal

    def lin_counting(*args, **kwargs):
        builds.append(1)
        return lin_orig(*args, **kwargs)

    monkeypatch.setattr(rotation, "mass_within_cylinder", counting)
    monkeypatch.setattr(equilibrium, "mass_within_cylinder", counting, raising=False)
    monkeypatch.setattr(equilibrium, "LinearizedCentrifugal", lin_counting)
    sol = solve_equilibrium(
        None, eos15, 1.0, u0, SolverOptions(certify=False), law=law, scale=scale15
    )
    assert len(builds) == 1
    assert len(calls) == len(sol.residual_history)


def test_certified_momentum_solve_builds_one_cylinder_rule(eos15, profile15, scale15, monkeypatch):
    # the law's cylinder mass, that of every residual, the Newton step's B
    # and the certificate's B all read one cylinder rule and one spline slope
    # map, built once for the grid
    from rotstar import rotation

    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    rules, bases = [], []
    rule_init, spline_init = rotation.CylinderRule.__init__, rotation.SplineSampler.__init__

    def counting_rule(self, *args, **kwargs):
        rules.append(1)
        rule_init(self, *args, **kwargs)

    def counting_spline(self, *args, **kwargs):
        bases.append(1)
        spline_init(self, *args, **kwargs)

    monkeypatch.setattr(rotation.CylinderRule, "__init__", counting_rule)
    monkeypatch.setattr(rotation.SplineSampler, "__init__", counting_spline)
    u0 = initial_field_from_profile(grid, profile15)
    law = _momentum_law(u0, eos15, scale15)
    sol = solve_equilibrium(None, eos15, 1.0, u0, SolverOptions(), law=law, scale=scale15)
    assert sol.hl_sigma_min > 1e-3 and len(sol.residual_history) > 2
    assert len(rules) == 1 and len(bases) == 1


def test_certificate_reuses_the_converged_cylinder_mass(eos15, profile15, scale15, monkeypatch):
    # a certified momentum solve evaluates the cylinder mass once per
    # residual, and the certificate's B once more, at the converged state:
    # the same bits as the solve's last one
    from rotstar import rotation

    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    u0 = initial_field_from_profile(grid, profile15)
    law = _momentum_law(u0, eos15, scale15)
    masses, in_certificate = [], []
    certificate = equilibrium.hl_certificate

    def counting(*args, **kwargs):
        out = mass_within_cylinder(*args, **kwargs)
        masses.append((bool(in_certificate), out.mass))
        return out

    def certifying(*args, **kwargs):
        in_certificate.append(1)
        try:
            return certificate(*args, **kwargs)
        finally:
            in_certificate.pop()

    monkeypatch.setattr(rotation, "mass_within_cylinder", counting)
    monkeypatch.setattr(equilibrium, "mass_within_cylinder", counting)
    monkeypatch.setattr(equilibrium, "hl_certificate", certifying)
    sol = solve_equilibrium(None, eos15, 1.0, u0, SolverOptions(), law=law, scale=scale15)
    assert sol.hl_sigma_min > 1e-3
    assert [c for c, _ in masses] == [False] * len(sol.residual_history) + [True]
    assert np.array_equal(masses[-1][1], masses[-2][1])
    monkeypatch.undo()
    # the certificate of the solution alone gives the same sigma
    alone = certificate(sol.u, eos15, 1.0, law=law, scale=scale15)[0]
    assert abs(alone - sol.hl_sigma_min) <= 1e-13 * sol.hl_sigma_min


# ---------------------------------------------------------------------------
# the certificate from one LU, and one Newton LU per warm-started family


def _converged_state(kind, nu, size):
    """A converged rigid, differential or momentum-law state; returns
    (state, eos, law, scale) with law None unless it is a momentum law."""
    from rotstar import DifferentialRotation, ScaleSet

    eos = EquationOfState.from_index(nu)
    prof = solve_lane_emden(eos, 1.0)
    grid = AxiGrid.build(prof.r_inf, *size, focus=prof.xi1)
    init = initial_field_from_profile(grid, prof)
    scale = ScaleSet.from_central_enthalpy(eos, 1.0, 1.0)
    opts = SolverOptions(certify=False)
    law = None
    if kind == "rigid":
        sol = solve_equilibrium(rigid_rotation(grid, 1e-3), eos, 1.0, init, opts)
    elif kind == "differential":
        radius = scale.length_scale * prof.xi1
        varpi = np.linspace(0.0, 1.5 * radius, 9)
        omega = np.sqrt(1e-3) / scale.length_scale / (1.0 + (varpi / radius) ** 2)
        cf = centrifugal_from_omega(DifferentialRotation(varpi, omega), scale, grid)
        sol = solve_equilibrium(cf, eos, 1.0, init, opts)
    else:
        cyl = mass_within_cylinder(init, eos, scale)
        ms = np.linspace(0, 1.3 * cyl.total, 60)
        law = AngularMomentumLaw(ms, 0.01 * ms ** 2 / cyl.total)
        sol = solve_equilibrium(None, eos, 1.0, init, opts, law=law, scale=scale)
    return sol.u, eos, law, scale


@pytest.mark.parametrize("size", [(64, 12, 4), (256, 32, 8)], ids=["64x12xl4", "256x32xl8"])
@pytest.mark.parametrize("nu", [1.5, 3.0])
@pytest.mark.parametrize("kind", ["rigid", "differential", "momentum"])
def test_certificate_matches_dense_svd(kind, nu, size):
    u, eos, law, scale = _converged_state(kind, nu, size)
    want = sigma_min_dense(newton_matrix_dense(u, eos, 1.0, law, scale))
    sigma, info = hl_certificate(u, eos, 1.0, law=law, scale=scale)
    assert abs(sigma - want) <= 1e-12 * want
    assert 0 < info["iterations"] < 100
    # some singular value lies within the residual bound; here it is sigma_min
    assert abs(sigma - want) <= info["residual_bound"] + 1e-14 * want < 1e-6


@pytest.mark.parametrize("size", [(64, 12, 4), (256, 32, 8)], ids=["64x12xl4", "256x32xl8"])
@pytest.mark.parametrize("nu", [1.5, 3.0])
@pytest.mark.parametrize("kind", ["rigid", "differential", "momentum"])
def test_certificate_on_the_support_matches_a_full_lu(kind, nu, size):
    # the matrix-free certificate, preconditioned by the blocks inverted on
    # the star's support, finds the sigma of inverse iteration with an LU of
    # the whole Newton matrix, and it lies within the certificate's own
    # residual bound
    u, eos, law, scale = _converged_state(kind, nu, size)
    want = sigma_min_lu(newton_matrix_dense(u, eos, 1.0, law, scale))[0]
    sigma, info = hl_certificate(u, eos, 1.0, law=law, scale=scale)
    assert abs(sigma - want) <= 1e-13 * want
    assert abs(sigma - want) <= info["residual_bound"] + 1e-14 * want


def _synthetic_jacobian(grid, support):
    """A seeded J on the packed vectors of ``grid``, and its per-degree
    diagonal blocks as ``DegreeBlock``: the radial kernel's blocks with a
    seeded coupling in place of rho'(u), and seeded blocks off the diagonal.
    A column of J is zero where the coupling is zero at every Gauss point
    that reads its node: "full" has no such column, "empty" only such
    (M = I, so sigma = 1), and "zero-column-inside" some inside the support
    as well as those past it.  "weak-coupling" is as the linearization at a
    slowly rotating state: the blocks off the diagonal couple the degrees
    weakly and the smallest singular value is isolated (by a rank-1 part of
    the degree-0 block, which the preconditioner's blocks leave out)."""
    n = packed_size(grid)
    rng = np.random.default_rng(5)
    coef = 0.3 * rng.standard_normal((grid.n_gauss, grid.n_l))
    jac = 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    if support == "empty":
        coef[:] = jac[:] = 0.0
    elif support == "zero-column-inside":
        coef[grid.n_gauss * 3 // 4 :] = 0.0
        coef[60:100] = 0.0
    rows = [packed_block(grid, k) for k in range(grid.n_l)]
    degree = np.repeat(np.arange(grid.n_l), [r.stop - r.start for r in rows])
    blocks = list(equilibrium.degree_blocks(grid, coef))
    for r, blk in zip(rows, blocks):
        dense = blk.dense()
        jac[r, r] = dense
        jac[:, r.start + np.flatnonzero(~np.any(dense, axis=0))] = 0.0
    if support == "weak-coupling":
        jac *= np.where(degree[:, None] != degree, 2e-4, 1.0)
        v = np.where(degree == 0, rng.standard_normal(n), 0.0)
        jac += 0.7 * np.outer(v, v) / (v @ v)
    return jac, blocks


def _certify_synthetic(monkeypatch, grid, synthetic):
    """Make the certificate see the synthetic J of ``_synthetic_jacobian``:
    its blocks as the blocks to factor, and products with I - J."""
    jac, blocks = synthetic
    monkeypatch.setattr(equilibrium, "gravity_jacobian_packed", lambda *args: iter(blocks))
    monkeypatch.setattr(
        equilibrium, "_newton_products",
        lambda *args: (lambda x: x - jac @ x, lambda y: y - jac.T @ y),
    )


@pytest.mark.parametrize("support", ["full", "empty", "zero-column-inside", "weak-coupling"])
def test_certificate_on_a_synthetic_support(support, eos15, profile15, monkeypatch):
    # with blocks off the diagonal as large as those on it ("full",
    # "zero-column-inside"), D^-1 M is far from I and the smallest singular
    # values are clustered; the block iteration still converges to them
    u = _oblate_state(profile15)
    n = packed_size(u.grid)
    synthetic = _synthetic_jacobian(u.grid, support)
    jac = synthetic[0]
    want = sigma_min_lu(np.eye(n) - jac)[0]
    _certify_synthetic(monkeypatch, u.grid, synthetic)
    sigma, info = hl_certificate(u, eos15, 1.0)
    assert abs(sigma - want) <= 1e-13 * want
    assert abs(sigma - sigma_min_dense(np.eye(n) - jac)) <= 1e-12 * want
    assert 0 < info["iterations"] < equilibrium._CERT_MAX_ITER
    if support == "empty":
        assert sigma == pytest.approx(1.0, rel=1e-15) and info["residual_bound"] < 1e-15
    else:
        assert abs(sigma - want) <= info["residual_bound"] + 1e-14 * want < 1e-6


def test_certificate_at_its_step_cap_certifies_nothing(eos15, profile15, monkeypatch):
    # an iteration that has not met its stopping test by the step cap gives
    # only an upper bound on sigma_min, so it raises NoConvergence, which
    # names that bound, and a certified solve raises it too instead of
    # comparing that bound with the threshold
    u = _oblate_state(profile15)
    grid = u.grid
    n = packed_size(grid)
    synthetic = _synthetic_jacobian(grid, "full")
    want = sigma_min_dense(np.eye(n) - synthetic[0])
    init = initial_field_from_profile(grid, profile15)
    cf = rigid_rotation(grid, 1e-3)
    sol = solve_equilibrium(cf, eos15, 1.0, init, SolverOptions(certify=False))
    monkeypatch.setattr(equilibrium, "_CERT_MAX_ITER", 5)
    with pytest.raises(NoConvergence, match="did not converge in 5 steps") as err:
        hl_certificate(sol.u, eos15, 1.0)
    assert "sigma_min <= " in str(err.value)
    with pytest.raises(NoConvergence, match="certificate"):
        solve_equilibrium(cf, eos15, 1.0, init, SolverOptions())
    _certify_synthetic(monkeypatch, grid, synthetic)
    with pytest.raises(NoConvergence) as err:
        hl_certificate(u, eos15, 1.0)
    ritz = float(str(err.value).split("sigma_min <= ")[1].split(",")[0])
    assert want < ritz


# an odd rule keeps its node zeta = 0 once
@pytest.mark.parametrize("size", [(64, 12, 4), (64, 13, 4), (256, 32, 8)],
                         ids=["64x12xl4", "64x13xl4", "256x32xl8"])
@pytest.mark.parametrize("kind", ["rigid", "differential", "momentum"])
def test_newton_products_are_adjoint(kind, size):
    # <M x, y> = <x, M^T y> for the certificate's matrix-free products, each
    # of which is the dense Newton matrix's product
    u, eos, law, scale = _converged_state(kind, 1.5, size)
    grid = u.grid
    lin = None if law is None else centrifugal_deriv_matrix(law, u, eos, scale)
    fp = equilibrium._density_deriv_fine(grid, eos, 1.0, u.modes())
    apply, apply_t = equilibrium._newton_products(grid, fp, lin)
    mat = newton_matrix_dense(u, eos, 1.0, law, scale)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x, y = rng.standard_normal((2, packed_size(grid)))
        mx, mty = apply(x), apply_t(y)
        assert abs(mx @ y - x @ mty) <= 1e-13 * np.linalg.norm(mx) * np.linalg.norm(y)
        assert np.linalg.norm(mx - mat @ x) <= 1e-13 * np.linalg.norm(mx)
        assert np.linalg.norm(mty - mat.T @ y) <= 1e-13 * np.linalg.norm(mty)


# an odd rule keeps its node zeta = 0 once
@pytest.mark.parametrize("size", [(64, 12, 4), (64, 13, 4), (256, 32, 8)],
                         ids=["64x12xl4", "64x13xl4", "256x32xl8"])
def test_centrifugal_products_are_adjoint(size):
    # <B x, y> = <x, B^T y> for a momentum law's B alone, on packed vectors,
    # and each product is the dense oracle's
    u, eos, law, scale = _converged_state("momentum", 1.5, size)
    grid = u.grid
    lin = LinearizedCentrifugal(law, u, eos, scale)
    mat = centrifugal_deriv_dense(lin)
    rng = np.random.default_rng(13)
    for _ in range(3):
        x, y = rng.standard_normal((2, packed_size(grid)))
        bx = pack_modes(grid, lin.apply_half(grid.synthesize_half(unpack_modes(grid, x))))
        bty = pack_modes(grid, lin.apply_transpose(unpack_modes(grid, y)))
        assert abs(bx @ y - x @ bty) <= 1e-13 * np.linalg.norm(bx) * np.linalg.norm(y)
        assert np.linalg.norm(bx - mat @ x) <= 1e-13 * np.linalg.norm(bx)
        assert np.linalg.norm(bty - mat.T @ y) <= 1e-13 * np.linalg.norm(bty)


@pytest.mark.parametrize("size", [(64, 12, 4), (256, 32, 8)], ids=["64x12xl4", "256x32xl8"])
@pytest.mark.parametrize("nu", [1.5, 3.0])
@pytest.mark.parametrize("kind", ["rigid", "differential", "momentum"])
def test_gmres_newton_step_matches_dense_lu(kind, nu, size):
    from rotstar import equilibrium

    u, eos, law, scale = _converged_state(kind, nu, size)
    grid, modes = u.grid, u.modes()
    lin, b_matrix = None, None
    if law is not None:
        lin = LinearizedCentrifugal(law, u, eos, scale)
        b_matrix = centrifugal_deriv_dense(lin)
    rhs = np.random.default_rng(7).standard_normal(packed_size(grid))
    want = dense_newton_step(grid, eos, 1.0, modes, rhs, b_matrix)
    # the Newton step as the solve takes it: GMRES on the products with M,
    # right-preconditioned by the block inverses
    fp = equilibrium._density_deriv_fine(grid, eos, 1.0, modes)
    blocks = equilibrium._factor_blocks(grid, eos, 1.0, modes, 1e-3)
    apply, _ = equilibrium._newton_products(grid, fp, lin)
    got, inner, lin_res = equilibrium._gmres(
        apply, lambda x: equilibrium._solve_blocks(grid, blocks, x), rhs
    )
    assert inner < equilibrium._GMRES_MAX_ITER and lin_res <= equilibrium._GMRES_RTOL
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _block_solve_errors(grid, blocks, seed):
    """The largest error, relative to the solution, of the structured solves
    with ``blocks`` (DegreeBlock), forward and transposed, against an LU of
    each whole dense block I - J_kk (``oracles.block_solve_lu``)."""
    inverse = equilibrium.BlockInverse(grid, blocks)
    x = np.random.default_rng(seed).standard_normal((len(blocks), grid.n_r))
    x[1:, 0] = 0.0
    worst = 0.0
    for transposed in (False, True):
        got = inverse.solve(x, transposed)
        for k, blk in enumerate(blocks):
            dense = blk.dense()
            want = block_solve_lu(dense.T if transposed else dense, x[k, (k > 0):])
            err = np.linalg.norm(got[k, (k > 0):] - want) / np.linalg.norm(want)
            worst = max(worst, err)
    return worst, inverse


@pytest.mark.parametrize("nu", [1.0, 1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("state", ["spherical", "rotating"])
def test_block_inverses_on_the_support_match_a_full_lu(state, nu):
    # the columns of J_kk past the star's support are zero, so the solves
    # factored on the support and the rows below it, forward and transposed,
    # solve I - J_kk as an LU of the whole block does, degree 0 with its
    # center subtraction and the others without their center; the support
    # ends well inside the grid, and at nu = 1 rho'(u) jumps there
    for size in [(64, 12, 4), (128, 16, 6), (256, 32, 8), (512, 48, 16)]:
        if state == "spherical":
            eos = EquationOfState.from_index(nu)
            prof = solve_lane_emden(eos, 1.0)
            grid = AxiGrid.build(prof.r_inf, *size, focus=prof.xi1)
            u = initial_field_from_profile(grid, prof)
        else:
            u, eos, _, _ = _converged_state("rigid", nu, size)
        grid = u.grid
        blocks = list(equilibrium.gravity_jacobian_packed(grid, eos, 1.0, u.modes()))
        assert len(blocks) == grid.n_l
        for blk in blocks:
            # the last nonzero column + 1, short of the whole block
            dense = blk.dense()
            n_in = blk.support - (blk.k > 0)
            assert np.any(dense[:, n_in - 1]) and not np.any(dense[:, n_in:])
        worst, inverse = _block_solve_errors(grid, blocks, 13)
        assert worst <= 1e-13, size
        assert 1 < inverse.chunks.m and inverse.support + 2 <= inverse.chunks.n < grid.n_r


def test_block_inverse_with_full_or_empty_support():
    # the kernel's blocks with a seeded coupling: over the whole grid (n at
    # n_r, or n_r rounded up to whole chunks), short of it, on the first
    # panels only, or none (I - J_kk = I); the grids of degree 120 have
    # several kernel chunks, so the running sums carry from chunk to chunk
    for shape in [(48, 122, 120), (128, 122, 120), (64, 12, 4)]:
        grid = AxiGrid.build(12.0, *shape, focus=3.6)
        assert (len(grid.kernel.starts) > 1) == (shape[2] == 120)
        ends = {"full": grid.n_gauss, "partial": grid.n_gauss * 3 // 5, "center": 8, "empty": 0}
        for support, end in ends.items():
            coef = 0.3 * np.random.default_rng(5).standard_normal((grid.n_gauss, grid.n_l))
            coef[end:] = 0.0
            blocks = list(equilibrium.degree_blocks(grid, coef))
            worst, inverse = _block_solve_errors(grid, blocks, 3)
            assert worst <= 1e-13, (shape, support)
            if support == "full":
                assert inverse.support == grid.n_r <= inverse.chunks.n
            if support == "empty":
                x = np.ones((grid.n_l, grid.n_r))
                x[1:, 0] = 0.0
                assert inverse.support == 0
                assert np.array_equal(inverse.solve(x), x)
                assert np.array_equal(inverse.solve(x, True), x)


def test_factor_blocks_holds_no_dense_block():
    # at 512x48xl16 the factors of the 9 blocks hold no n_r x n_r array and
    # about 1.5 MB in all (12.3 MB while each block's support corner was
    # inverted densely, with a 17.4 MB peak)
    import tracemalloc

    eos = EquationOfState.from_index(1.5)
    prof = solve_lane_emden(eos, 1.0)
    grid = AxiGrid.build(prof.r_inf, 512, 48, 16, focus=prof.xi1)
    modes = initial_field_from_profile(grid, prof).modes()
    tracemalloc.start()
    try:
        blocks = equilibrium._factor_blocks(grid, eos, 1.0, modes, 1e-3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2e6 and peak < 5e6
    assert _widest_square(blocks.factors) < blocks.support


def test_each_block_is_consumed_before_the_next_is_built(eos15, profile15, monkeypatch):
    # the per-block certificate takes the SVD of each block, made dense from
    # its generators, before the next one is built: one n_r x n_r block at a
    # time
    from rotstar.grids import RadialKernel

    built, seen = [], []
    generators, newton_matrix_orig = RadialKernel.generators, equilibrium.newton_matrix

    def counting(self, k, coef):
        built.append(k)
        return generators(self, k, coef)

    def recording(jac):
        seen.append(len(built))
        return newton_matrix_orig(jac)

    monkeypatch.setattr(RadialKernel, "generators", counting)
    monkeypatch.setattr(equilibrium, "newton_matrix", recording)
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    u = initial_field_from_profile(grid, profile15)
    hl_certificate_blocks(u, eos15, 1.0)
    assert seen == [1, 2, 3] and built == [0, 1, 2]


def test_certificate_is_deterministic(eos15, profile15):
    u = _oblate_state(profile15)
    assert hl_certificate(u, eos15, 1.0)[0] == hl_certificate(u, eos15, 1.0)[0]


def _zero_block(blocks):
    # J_kk = I makes the block I - J_kk zero
    blk = blocks[1]
    blk.beta[:] = blk.delta[:] = blk.band[:] = 0.0
    blk.band[2, 1:] = 1.0


def _zero_block_on_the_support(blocks):
    # J_kk = I on the star's support makes I - J_kk [[0, 0], [0, I]]
    blk = blocks[1]
    n_in = blk.support
    blk.beta[:n_in] = blk.delta[:n_in] = blk.band[:, :n_in] = 0.0
    blk.band[2, 1:n_in] = 1.0


def _block_with_nan(blocks):
    blocks[1].band[1, 5] = np.nan


def _breaking(breaker):
    """``degree_blocks`` with its second block broken by ``breaker``."""
    blocks_orig = equilibrium.degree_blocks

    def broken(grid, coef):
        blocks = list(blocks_orig(grid, coef))
        breaker(blocks)
        return blocks

    return broken


_BREAKERS = (_zero_block, _zero_block_on_the_support, _block_with_nan)


def test_singular_or_nonfinite_preconditioner_block_certifies_zero(eos15, profile15, monkeypatch):
    # a preconditioner block that is singular, on the whole block or on the
    # star's support only, or holds a NaN leaves LOBPCG without its
    # preconditioner: sigma = 0.0, "not certified", with no bound and no
    # warning escaping (a solve stops on the same blocks at its first Newton
    # step: test_singular_or_nonfinite_block_stops_the_newton_solve)
    u = _oblate_state(profile15)
    for breaker in _BREAKERS:
        monkeypatch.setattr(equilibrium, "degree_blocks", _breaking(breaker))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma, info = hl_certificate(u, eos15, 1.0)
            assert sigma == 0.0 and info == {"iterations": 0, "residual_bound": None}


@pytest.mark.parametrize("product", ["J-nan", "J-transposed-overflow", "B-nan"])
def test_nonfinite_products_certify_zero(product, monkeypatch):
    # with finite preconditioner blocks, a product with M or M^T that is not
    # finite, from J or from a momentum law's B, gives
    # sigma = 0.0, "not certified", with no bound and no warning escaping
    kind = "momentum" if product == "B-nan" else "rigid"
    u, eos, law, scale = _converged_state(kind, 1.5, (64, 12, 4))
    if product == "J-nan":
        deriv = equilibrium._gravity_deriv_modes
        monkeypatch.setattr(
            equilibrium, "_gravity_deriv_modes", lambda *args: deriv(*args) * np.nan
        )
    elif product == "J-transposed-overflow":
        deriv_t = equilibrium._gravity_deriv_transposed
        monkeypatch.setattr(
            equilibrium, "_gravity_deriv_transposed", lambda *args: deriv_t(*args) * 1e308 * 1e308
        )
    else:
        build = equilibrium.centrifugal_deriv_matrix

        def with_nan(*args):
            lin = build(*args)
            lin.weight[5] = np.nan
            return lin

        monkeypatch.setattr(equilibrium, "centrifugal_deriv_matrix", with_nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma, info = hl_certificate(u, eos, 1.0, law=law, scale=scale)
    assert sigma == 0.0 and info == {"iterations": 1, "residual_bound": None}


def test_singular_or_nonfinite_block_stops_the_newton_solve(eos15, profile15, monkeypatch):
    # a preconditioner block that is singular, on the whole block or on the
    # star's support only, or holds a NaN raises SingularLinearization with
    # sigma 0.0, with no warning escaping
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    init = initial_field_from_profile(grid, profile15)
    cf = rigid_rotation(grid, 1e-3)
    for breaker in _BREAKERS:
        monkeypatch.setattr(equilibrium, "degree_blocks", _breaking(breaker))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularLinearization) as info:
                solve_equilibrium(cf, eos15, 1.0, init, SolverOptions(certify=False))
        assert info.value.sigma_min == 0.0


def test_certified_solve_records_the_certificate(eos15, profile15):
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    init = initial_field_from_profile(grid, profile15)
    sol = solve_equilibrium(rigid_rotation(grid, 1e-3), eos15, 1.0, init, SolverOptions())
    cert = sol.meta["certificate"]
    assert set(cert) == {"iterations", "residual_bound"}
    assert cert["iterations"] > 0 and 0.0 <= cert["residual_bound"] < 1e-6
    # preconditioned by the blocks of the one Newton build, at the start
    blocks = equilibrium._factor_blocks(grid, eos15, 1.0, init.modes(), 1e-3)
    assert sol.meta["newton"]["preconditioner_builds"] == 1
    assert sol.hl_sigma_min == hl_certificate(sol.u, eos15, 1.0, preconditioner=blocks)[0]
    assert abs(sol.hl_sigma_min - hl_certificate(sol.u, eos15, 1.0)[0]) <= 1e-13 * sol.hl_sigma_min
    spherical = solve_equilibrium(None, eos15, 1.0, init, SolverOptions())
    assert spherical.meta["certificate"] == {"iterations": None, "residual_bound": None}
    unchecked = solve_equilibrium(None, eos15, 1.0, init, SolverOptions(certify=False))
    assert "certificate" not in unchecked.meta


def _no_boundary_case(profile3):
    # past mass shedding at nu = 3 this grid converges to a field that crosses
    # zero on no ray
    return AxiGrid.build(profile3.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile3.xi1)


def test_boundary_at_without_a_free_boundary_raises(eos3, profile3):
    # the solve converges to a field with no admissible free boundary; its
    # boundary curve is not evaluated but refused, as require_boundary does
    grid = _no_boundary_case(profile3)
    init = initial_field_from_profile(grid, profile3)
    sol = solve_equilibrium(rigid_rotation(grid, 1e-2), eos3, 1.0, init,
                            SolverOptions(certify=False))
    assert sol.R_of_zeta is None
    with pytest.raises(NoSignChange, match="no admissible free boundary"):
        sol.boundary_at([0.0, 0.5])


def test_family_refuses_a_state_without_boundary(eos3, profile3):
    fam = ConstantRotationFamily(profile3, grid=_no_boundary_case(profile3))
    with pytest.raises(NoSignChange, match="a1=False, a2=False"):
        fam.solve_at(3e-2)
    # the family keeps the preconditioner of its spherical start
    blocks = fam._preconditioner
    assert fam._cache == {} and blocks is not None
    assert fam.solve_at(1e-3).R_of_zeta is not None
    assert fam._preconditioner is blocks


def test_continuation_refuses_a_state_without_boundary(eos3, profile3):
    # past the spherical state, a field with no free boundary is refused and
    # not cached
    fam = ConstantRotationFamily(
        profile3, grid=_no_boundary_case(profile3), opts=SolverOptions(certify=False)
    )
    fam.solve_at(0.0)
    with pytest.raises(NoSignChange):
        fam.solve_at(3e-2)
    assert list(fam._cache) == [0.0]


def _counting_lu(monkeypatch):
    from rotstar import equilibrium

    calls = []
    lu_factor_orig = equilibrium.lu_factor

    def counting(*args, **kwargs):
        calls.append(1)
        return lu_factor_orig(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "lu_factor", counting)
    return calls


def test_family_carries_its_newton_lu(eos15, profile15, monkeypatch, caplog):
    # the family builds the preconditioner of its Newton systems, the
    # per-degree blocks inverted on the star's support, in its first solve
    # and carries it into the next, and each certificate is preconditioned
    # by the same blocks: n_l lu_factor calls in all
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    fam = ConstantRotationFamily(profile15, grid=grid, opts=SolverOptions())
    calls = _counting_lu(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="rotstar.equilibrium")
    first_sol = fam.solve_at(1e-3)
    first = [r.getMessage() for r in caplog.records]
    n_first = len(calls)
    caplog.clear()
    sol = fam.solve_at(1.1e-3)
    second = [r.getMessage() for r in caplog.records]
    assert "preconditioner built" in first[0]
    assert first_sol.meta["newton"]["preconditioner_builds"] == 1
    assert n_first == grid.n_l
    assert "preconditioner carried from the family" in second[0]
    assert not any("preconditioner built" in m for m in second)
    assert sol.meta["newton"]["preconditioner_builds"] == 0
    assert len(calls) == n_first
    # the nodes through the last one whose column of a block is not zero, at
    # the spherical start
    start = initial_field_from_profile(grid, profile15)
    blocks = equilibrium.gravity_jacobian_packed(grid, eos15, 1.0, start.modes())
    nodes = max(
        np.flatnonzero(np.any(b.dense(), axis=0))[-1] + 1 + (k > 0) for k, b in enumerate(blocks)
    )
    assert nodes < grid.n_r
    assert [m for m in second if m.startswith("certificate")] == [
        f"certificate: sigma_min {sol.hl_sigma_min:.6e} "
        f"({sol.meta['certificate']['iterations']} LOBPCG steps, "
        f"preconditioner support {nodes} of {grid.n_r} nodes, "
        f"residual bound {sol.meta['certificate']['residual_bound']})"
    ]
    assert sum(m.startswith("iter") for m in second) == sol.iterations


def test_family_factors_its_blocks_once(eos15, profile15, monkeypatch):
    # three solves of one family share the block inverses built at its
    # spherical start
    from rotstar import equilibrium

    builds = []
    factor_blocks = equilibrium._factor_blocks

    def counting(*args, **kwargs):
        builds.append(1)
        return factor_blocks(*args, **kwargs)

    monkeypatch.setattr(equilibrium, "_factor_blocks", counting)
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    fam = ConstantRotationFamily(profile15, grid=grid)
    sols = [fam.solve_at(beta) for beta in (0.0, 1e-3, 2e-3)]
    assert len(builds) == 1
    assert [s.meta["newton"]["preconditioner_builds"] for s in sols] == [1, 0, 0]


def test_family_refuses_negative_rotation(eos15, profile15):
    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    fam = ConstantRotationFamily(profile15, grid=grid)
    with pytest.raises(DomainError):
        fam.solve_at(-1e-3)
    assert fam._cache == {} and fam._preconditioner is None


def test_capped_gmres_step_rebuilds_the_preconditioner(eos3, profile3, caplog):
    # past mass shedding the blocks stop resembling the operator and GMRES
    # stops at its cap; the next Newton step rebuilds them at its iterate, or
    # finds a block singular there, and then the run ends in NoConvergence
    from rotstar.errors import NoConvergence

    grid = AxiGrid.build(profile3.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile3.xi1)
    init = initial_field_from_profile(grid, profile3)
    caplog.set_level(logging.DEBUG, logger="rotstar.equilibrium")
    with pytest.raises(NoConvergence):
        solve_equilibrium(rigid_rotation(grid, 6e-2), eos3, 1.0, init,
                          SolverOptions(certify=False))
    steps = [r.getMessage() for r in caplog.records if "Newton step" in r.getMessage()]
    capped = [i for i, m in enumerate(steps) if "(iteration cap)" in m]
    assert capped and capped[0] > 0
    assert "preconditioner built" in steps[0]
    singular = [i for i, m in enumerate(steps) if "preconditioner singular" in m]
    assert singular in ([], [len(steps) - 1])
    rebuilt = [i for i, m in enumerate(steps) if "preconditioner built" in m]
    assert rebuilt + singular == [0] + [i + 1 for i in capped if i + 1 < len(steps)]


def test_residual_grown_by_three_capped_steps_ends_newton(eos3, profile3, caplog):
    # past mass shedding every GMRES solve stops at its cap and the residual
    # grows; the third such growth in a row ends the solve in NoConvergence
    # with no step more (no rebuild and no capped solve), and the history
    # ends at that last, finite residual
    from rotstar.errors import NoConvergence

    grid = AxiGrid.build(profile3.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile3.xi1)
    init = initial_field_from_profile(grid, profile3)
    caplog.set_level(logging.DEBUG, logger="rotstar.equilibrium")
    with pytest.raises(NoConvergence) as info:
        solve_equilibrium(rigid_rotation(grid, 6e-2), eos3, 1.0, init,
                          SolverOptions(certify=False))
    history = info.value.residual_history
    assert np.isfinite(history).all()
    steps = [r.getMessage() for r in caplog.records if "Newton step" in r.getMessage()]
    assert len(steps) == len(history) - 1
    assert all("(iteration cap)" in m for m in steps[-3:])
    assert history[-4] < history[-3] < history[-2] < history[-1]
    diverging = [r.getMessage() for r in caplog.records if "diverging" in r.getMessage()]
    assert len(diverging) == 1
    assert diverging[0].startswith(f"iter {len(history) - 1:2d}")


def test_non_finite_step_of_a_momentum_solve_is_no_convergence(
    eos15, profile15, scale15, monkeypatch
):
    # a step that is not finite ends the solve in NoConvergence on the next
    # iteration, without the momentum law's map being evaluated on the
    # iterate (it rejects one that is not finite)
    from rotstar.errors import NoConvergence

    grid = AxiGrid.build(profile15.r_inf, n_r=64, n_zeta=12, l_max=4, focus=profile15.xi1)
    u0 = initial_field_from_profile(grid, profile15)
    law = _momentum_law(u0, eos15, scale15)
    gmres = equilibrium._gmres

    def overflowing(*args):
        x, k, _ = gmres(*args)
        return np.full_like(x, np.nan), k, np.nan

    monkeypatch.setattr(equilibrium, "_gmres", overflowing)
    with pytest.raises(NoConvergence) as info:
        solve_equilibrium(None, eos15, 1.0, u0, SolverOptions(certify=False), law=law,
                          scale=scale15)
    history = info.value.residual_history
    assert len(history) == 2 and np.isfinite(history[0]) and np.isnan(history[1])
    assert str(info.value).startswith("residual is not finite at iteration 1: the iterate")
