"""Acceptance criteria at reference resolution (n_r=256, n_zeta=32, l_max=8).

Each test prints one PASS/FAIL line (visible under pytest -s); the assert
carries the same condition.  Criterion 6 is split: the sign and dual-path
consistency claims pass; the near-axis unit normalization of the degree-2
response contradicts the integral representation it is derived from and is
kept as a strict expected failure (analysis in notes/decisions.md).
"""

import math

import numpy as np
import pytest

import rotstar as rs
from conftest import GOLDEN
from rotstar import AxiField, AxiGrid
from rotstar.errors import GammaFourThirds

N_R, N_ZETA, L_MAX = 256, 32, 8


def _line(num, ok, detail):
    print(f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def ref15():
    eos = rs.EquationOfState.from_index(1.5)
    prof = rs.solve_lane_emden(eos, 1.0)
    grid = AxiGrid.build(prof.r_inf, N_R, N_ZETA, L_MAX, focus=prof.xi1)
    fam = rs.ConstantRotationFamily(
        eos, 1.0, grid=grid, opts=rs.SolverOptions(tol=1e-12, certify=False)
    )
    return eos, prof, grid, fam


@pytest.fixture(scope="module")
def hfield15(ref15):
    eos, prof, grid, _ = ref15
    return rs.compute_h_field(prof, eos, 1.0, grid=grid)


def test_criterion_01_linear_density_analytic():
    eos = rs.EquationOfState.polytrope(2.0)
    prof = rs.solve_lane_emden(eos, 1.0)
    r = np.linspace(1e-6, prof.xi1, 2000)
    sup = float(np.max(np.abs(prof.theta_at(r) - np.sin(r) / r)))
    ok = (
        abs(prof.xi1 - math.pi) <= 1e-8
        and abs(prof.mu1 - math.pi) <= 1e-8
        and sup <= 1e-8
    )
    _line(1, ok, f"xi1 err {abs(prof.xi1 - math.pi):.2e}, mu1 err "
                 f"{abs(prof.mu1 - math.pi):.2e}, profile sup {sup:.2e}")
    assert ok


def test_criterion_02_polytrope_zeros_vs_oracle():
    devs = []
    for nu in (1.5, 3.0):
        prof = rs.solve_lane_emden(rs.EquationOfState.from_index(nu), 1.0)
        devs.append(abs(prof.xi1 - GOLDEN[str(nu)]["xi1"]))
        devs.append(abs(prof.mu1 - GOLDEN[str(nu)]["mu1"]))
    ok = max(devs) <= 1e-8
    _line(2, ok, f"max dev vs step-halving oracle {max(devs):.2e}")
    assert ok


def test_criterion_03_zero_rotation_consistency(ref15):
    eos, prof, grid, fam = ref15
    sol = fam.solve_at(0.0)
    sup = float(np.max(np.abs(sol.u.values - prof.theta_at(grid.r)[:, None])))
    bdry = float(np.max(np.abs(sol.R_of_zeta - prof.xi1)))
    ok = sup <= 1e-5 and bdry <= 1e-5
    _line(3, ok, f"profile sup err {sup:.2e}, boundary dev {bdry:.2e}")
    assert ok


def test_criterion_04_potential_operator():
    # (a) uniform ball with sources exact at the quadrature points
    grid = AxiGrid.build(2.0, 64, 32, 8)
    R = grid.r[44]
    samples = np.zeros((grid.n_l, grid.n_gauss))
    samples[0] = (grid.gauss_x <= R).astype(float)
    out = rs.potential_modes_from_samples(grid, samples)
    inside = grid.r <= R
    ball_err = float(
        np.max(np.abs(out[0][inside] - (R ** 2 - grid.r[inside] ** 2 / 3) / 2))
    )
    # (b) multipole vs direct quadrature on a band-limited smooth field
    modes = np.zeros((grid.n_l, grid.n_r))
    modes[0] = np.exp(-grid.r ** 2)
    for k in range(1, grid.n_l):
        modes[k] = 0.4 ** k * grid.r ** 2 * np.exp(-grid.r ** 2)
    f = AxiField.from_modes(grid, modes)
    mv = float((rs.potential_multipole(f) - rs.potential_direct(f, refine_depth=4)).sup_norm())
    # (c) discrete -laplacian(Kf) = f convergence order under refinement
    errs = []
    for n in (64, 128, 256):
        g = AxiGrid(np.linspace(0.0, 2.0, n), 16, 4)
        m = np.zeros((g.n_l, g.n_r))
        m[0] = np.exp(-g.r ** 2)
        m[1] = g.r ** 2 * np.exp(-g.r ** 2)
        km = rs.potential_multipole(AxiField.from_modes(g, m)).modes()
        h = g.r[1] - g.r[0]
        i = np.arange(2, n - 2)
        worst = 0.0
        for k, l in enumerate(g.lvals[:2]):
            y = km[k]
            lap = (y[i + 1] - 2 * y[i] + y[i - 1]) / h ** 2 + (y[i + 1] - y[i - 1]) / (
                h * g.r[i]
            ) - l * (l + 1) / g.r[i] ** 2 * y[i]
            worst = max(worst, float(np.max(np.abs(-lap - m[k][i]))))
        errs.append(worst)
    order = min(
        math.log(errs[0] / errs[1]) / math.log(2), math.log(errs[1] / errs[2]) / math.log(2)
    )
    ok = ball_err <= 1e-6 and mv <= 1e-5 and order >= 1.8
    _line(4, ok, f"ball {ball_err:.2e}, multipole-direct {mv:.2e}, order {order:.2f}")
    assert ok


@pytest.mark.parametrize("nu", [1.5, 2.5])
def test_criterion_05_linearization_exponent(nu):
    eos = rs.EquationOfState.from_index(nu)
    prof = rs.solve_lane_emden(eos, 1.0)
    grid = AxiGrid.build(prof.r_inf, N_R, N_ZETA, L_MAX, focus=prof.xi1)
    u = rs.initial_field_from_profile(grid, prof)
    h = AxiField.from_function(
        grid,
        lambda r, z: np.exp(-((r - prof.xi1) ** 2)) * (1 + 0.5 * (3 * z ** 2 - 1) / 2),
    )
    base = rs.gravity_map(u, eos, 1.0)
    dg = rs.gravity_map_deriv(u, h, eos, 1.0)
    eps_list = np.logspace(-1, -3, 7)
    rems = [
        (rs.gravity_map(AxiField(grid, u.values + e * h.values), eos, 1.0) - base
         - e * dg).sup_norm()
        for e in eps_list
    ]
    slope = float(np.polyfit(np.log(eps_list), np.log(rems), 1)[0])
    ok = slope >= min(nu, 2.0) - 0.1
    _line(5, ok, f"nu={nu}: measured exponent {slope:.3f} >= {min(nu,2)-0.1:.2f}")
    assert ok


@pytest.mark.parametrize("nu", [1.2, 1.5, 1.9, 2.5, 3.0])
def test_criterion_06a_degree2_sign_and_consistency(nu):
    eos = rs.EquationOfState.from_index(nu)
    prof = rs.solve_lane_emden(eos, 1.0)
    hf = rs.compute_h_field(prof, eos, 1.0)
    neg = bool(np.all(hf.h2[hf.r > 0] < 0))
    ok = neg and hf.consistency_sup <= 1e-4
    _line("6a", ok, f"nu={nu}: h2<0 {neg}, dual-path dev {hf.consistency_sup:.2e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the claimed near-axis normalization h2/(-r^2/6) -> 1 contradicts the "
        "degree-2 integral representation: the outer integral shifts the "
        "quadratic coefficient by (1/5) int q h2 / s ds = O(1).  Verified by "
        "four independent routes (fixed point, resolvent, shooting, full "
        "nonlinear solves); see notes/decisions.md."
    ),
)
def test_criterion_06b_near_axis_unit_ratio(hfield15):
    r = 0.05
    ratio = float(hfield15.h2_at(r)) / (-(r ** 2) / 6.0)
    ok = 0.98 <= ratio <= 1.02
    _line("6b", ok, f"h2/(-r^2/6) at r=0.05 is {ratio:.4f} (stated window [0.98, 1.02])")
    assert ok


def test_criterion_07_oblateness(ref15, hfield15):
    eos, prof, grid, fam = ref15
    slope_pred = -1.5 * (prof.xi1 / prof.mu1) * hfield15.h2_at_xi1
    betas = np.array([1e-4, 3e-4, 1e-3])
    sigmas = []
    for b in betas:
        sol = fam.solve_at(float(b))
        Rb = sol.boundary_at([0.0, 1.0])
        sigmas.append((Rb[0] - Rb[1]) / prof.xi1)
    sigmas = np.array(sigmas)
    # extrapolate sigma/beta to beta -> 0 along the known beta^(nu-1) correction
    A = np.vstack([np.ones_like(betas), betas ** 0.5]).T
    coef, *_ = np.linalg.lstsq(A, sigmas / betas, rcond=None)
    slope_meas = float(coef[0])
    rel = abs(slope_meas - slope_pred) / slope_pred
    # expansion error exponent using the same solves
    base = fam.solve_at(0.0).u
    hm = np.zeros((grid.n_l, grid.n_r))
    hm[0] = hfield15.resolvent_modes[0]
    hm[1] = hfield15.resolvent_modes[1]
    hv = grid.synthesize(hm)
    errs = [
        float(np.max(np.abs(fam.solve_at(float(b)).u.values - base.values - b * hv)))
        for b in betas
    ]
    expo = float(np.polyfit(np.log(betas), np.log(errs), 1)[0])
    ok = bool(np.all(sigmas > 0)) and rel <= 0.02 and expo >= 1.5 - 0.15
    _line(7, ok, f"slope dev {rel:.3%}, expansion exponent {expo:.2f}, "
                 f"sigma>0 {bool(np.all(sigmas > 0))}")
    assert ok


@pytest.mark.parametrize("degree", [4, 6, 8])
def test_criterion_08_mode_decay(ref15, degree):
    eos, prof, grid, _ = ref15
    # start the homogeneous iteration away from zero so it must contract down
    sol = rs.solve_mode(
        prof, eos, 1.0, degree, far_coefficient=0.0,
        initial=lambda r: prof.psi_at(r) * np.sin(2.0 * r),
    )
    decay = float(np.max(np.abs(sol.values)))
    from rotstar.perturb import ModeGrid, _ModeOperator

    mg = ModeGrid.build(prof, eos, 1.0, 500)
    psi = prof.psi_at(mg.r)
    rng = np.random.default_rng(degree)
    probes = [np.ones(mg.r.size)]  # the extremal direction of the bound
    probes += [rng.standard_normal(mg.r.size) for _ in range(12)]
    op = _ModeOperator(mg, degree)
    lip = 0.0
    for H in probes:
        y = H * psi
        out = op @ y
        lip = max(lip, float(np.max(np.abs(out / psi)) / np.max(np.abs(H))))
    ok = decay <= 1e-8 and lip <= 3.0 / (2 * degree + 1) + 0.05
    _line(8, ok, f"degree {degree}: |h_j| {decay:.1e}, weighted Lipschitz {lip:.4f} "
                 f"(bound {3/(2*degree+1):.4f}+0.05)")
    assert ok


def test_criterion_09_invertibility_certificate(ref15, profile3, eos3):
    eos, prof, grid, _ = ref15
    u15 = rs.initial_field_from_profile(grid, prof)
    blocks15 = rs.hl_certificate_blocks(u15, eos, 1.0)
    grid3 = AxiGrid.build(profile3.r_inf, N_R, N_ZETA, L_MAX, focus=profile3.xi1)
    u3 = rs.initial_field_from_profile(grid3, profile3)
    blocks3 = rs.hl_certificate_blocks(u3, eos3, 1.0)
    vac = AxiField(grid, np.full((grid.n_r, grid.n_zeta), -1.0))
    sigma_vac = rs.hl_certificate(vac, eos, 1.0)
    ok = (
        all(v > 1e-3 for v in blocks15.values())
        and all(v > 1e-3 for v in blocks3.values())
        and abs(sigma_vac - 1.0) < 1e-12
    )
    _line(9, ok, f"min block sigma: nu=1.5 {min(blocks15.values()):.3f}, "
                 f"nu=3 {min(blocks3.values()):.3f}, vacuum {sigma_vac:.12f}")
    assert ok


def test_criterion_10_mass_relations():
    eos = rs.EquationOfState.polytrope(5 / 3)
    calc = rs.MassCalculator(eos, 1.0, n_r=N_R, n_zeta=N_ZETA, l_max=L_MAX)
    m1 = calc.m1(0.0)
    rhos = np.logspace(-0.5, 0.5, 7)
    slope = float(
        np.polyfit(np.log(rhos), np.log([rs.physical_mass(m1, eos, r) for r in rhos]), 1)[0]
    )
    slope_ok = abs(slope - (3 * eos.gamma - 4) / 2) <= 1e-3
    try:
        rs.central_density_from_mass(1.0, 0.0, rs.EquationOfState.polytrope(4 / 3), (0.5, 2.0))
        rejected = False
    except GammaFourThirds:
        rejected = True
    out = rs.trace_constant_mass_curve(
        eos, 1.0, [0.0, 2e-4, 5e-4, 1e-3, 2e-3], calculator=calc, rtol=1e-8
    )
    max_err = max(out["relative_errors"])
    ok = slope_ok and rejected and len(out["points"]) == 5 and max_err <= 1e-6
    _line(10, ok, f"slope dev {abs(slope-0.5):.1e}, gamma=4/3 rejected {rejected}, "
                  f"curve max rel err {max_err:.1e}")
    assert ok


def test_criterion_11_white_dwarf():
    poly = rs.solve_lane_emden(rs.EquationOfState.polytrope(5 / 3), 1.0)
    radii = {}
    for kappa in (0.0, 0.01, 0.1):
        u_c = 16 * kappa if kappa > 0 else 16 * 1e-14
        prof = rs.solve_lane_emden(rs.EquationOfState.white_dwarf(1.0, 1.0, 1.0), u_c)
        radii[kappa] = prof.xi1
        assert prof.xi1 < prof.r_inf
    dev = abs(radii[0.0] - poly.xi1)
    ok = dev <= 1e-6 and all(np.isfinite(v) and v > 0 for v in radii.values())
    _line(11, ok, f"kappa=0 vs polytrope {dev:.1e}; radii "
                  + ", ".join(f"{k}: {v:.5f}" for k, v in radii.items()))
    assert ok


def test_criterion_12_angular_momentum_law(ref15, scale15):
    eos, prof, grid, _ = ref15
    u0 = rs.initial_field_from_profile(grid, prof)
    # (a) rigid round trip within the star
    omega = 0.02
    cyl = rs.mass_within_cylinder(u0, eos, scale15)
    mask = cyl.varpi <= prof.xi1
    keep = np.concatenate(([True], np.diff(cyl.mass[mask]) > 0))
    law_r = rs.AngularMomentumLaw(
        cyl.mass[mask][keep], omega * (scale15.length_scale * cyl.varpi[mask][keep]) ** 2
    )
    cf_j = rs.centrifugal_from_momentum(law_r, u0, eos, scale15, grid, cyl=cyl)
    cf_c = rs.centrifugal_from_omega(rs.ConstantRotation(omega), scale15, grid)
    sel = grid.r <= prof.xi1
    rt = float(np.max(np.abs(cf_j.b[sel] - cf_c.b[sel])))
    # (b) derivative consistency order
    ms = np.linspace(0, 1.3 * cyl.total, 60)
    law = rs.AngularMomentumLaw(ms, 0.01 * ms ** 2 / cyl.total)
    h = AxiField.from_function(
        grid, lambda r, z: np.exp(-(r ** 2) / 4) * (1 + 0.3 * (3 * z ** 2 - 1) / 2) - 0.2
    )
    db = rs.centrifugal_deriv_apply(law, u0, h, eos, scale15, grid)
    b0 = rs.centrifugal_from_momentum(law, u0, eos, scale15, grid)
    eps_list = [1e-2, 3e-3, 1e-3]
    errs = []
    for eps in eps_list:
        b1 = rs.centrifugal_from_momentum(
            law, AxiField(grid, u0.values + eps * h.values), eos, scale15, grid
        )
        errs.append(float(np.max(np.abs((b1.g.values - b0.g.values) / eps - db.values))))
    order = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])
    # (c) full solve with the nontrivial law
    sol = rs.solve_equilibrium(
        None, eos, 1.0, u0, rs.SolverOptions(tol=1e-10), law=law, scale=scale15
    )
    rep = sol.admissibility
    flags = rep.a1 and rep.a2 and rep.monotone
    ok = rt <= 1e-6 and order >= 1.0 - 0.02 and flags and sol.hl_sigma_min > 1e-3
    _line(12, ok, f"round trip {rt:.1e}, derivative order {order:.2f}, "
                  f"flags {flags}, sigma_min {sol.hl_sigma_min:.3f}")
    assert ok


def test_criterion_13_property_suites():
    # linearization remainder exponents over 1e4 samples per index
    rng = np.random.default_rng(77)
    slopes = {}
    for nu in (1.3, 1.5, 2.5, 3.0):
        hs = np.logspace(-1, -5, 9)
        sups = []
        for h_mag in hs:
            u = rng.uniform(-2.0, 2.0, 10_000)
            u[:2500] = rng.uniform(-2 * h_mag, 2 * h_mag, 2500)
            h = h_mag * rng.choice([-1.0, 1.0], 10_000)
            keep = np.abs(u + h) <= 2.0
            uu, hh = u[keep], h[keep]
            up = np.maximum(uu, 0.0)
            rem = np.abs(
                np.maximum(uu + hh, 0.0) ** nu - up ** nu - nu * up ** (nu - 1) * hh
            )
            sups.append(np.max(rem))
        slopes[nu] = float(np.polyfit(np.log(hs), np.log(sups), 1)[0])
    rem_ok = all(s >= min(nu, 2.0) - 0.05 for nu, s in slopes.items())

    # gradient control at the origin: 50 random fields x 200 radii
    grid = AxiGrid.build(2.0, 64, 12, 4)
    grad_ok = True
    for _ in range(50):
        modes = np.zeros((grid.n_l, grid.n_r))
        for k, l in enumerate(grid.lvals):
            modes[k] = rng.standard_normal() * 0.5 ** k * np.exp(
                -((grid.r - rng.uniform(0, 2)) ** 2)
            ) * (grid.r ** 2 if l else 1.0)
        modes[1:, 0] = 0.0
        kf = rs.potential_multipole(AxiField.from_modes(grid, modes))
        scale = max(1.0, kf.sup_norm())
        if rs.grad_at_origin(kf) > 2e-4 * scale:
            grad_ok = False
            break
        km = kf.modes()
        r_small = np.linspace(grid.r[1], 0.2, 200)
        eps = 1e-6
        dk = (grid.eval_modes_at(km, r_small + eps) - grid.eval_modes_at(km, r_small - eps)) / (2 * eps)
        if not np.all(np.abs(dk[0]) <= 50.0 * scale * r_small):
            grad_ok = False
            break
    ok = rem_ok and grad_ok
    _line(13, ok, f"remainder slopes {slopes}, gradient-origin bound {grad_ok}")
    assert ok
