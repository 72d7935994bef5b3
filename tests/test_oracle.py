import dataclasses
import json
from fractions import Fraction as Q

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from coxstokes import oracle
from coxstokes.chevalley import build_chevalley
from coxstokes.cli import EXIT_OK, main
from coxstokes.rootcore import build_root_system
from coxstokes.scalars import mat_inv, mat_vec
from coxstokes.oracle import (
    MeromorphicSystem,
    SystemError_,
    build_system,
    circle_coefficients,
    exponent_charpoly,
    formal_solution,
    integrate_monodromy,
    magnus_propagators,
    numerical_monodromy,
    sequential_product,
    standard_rep_sl,
)
from coxstokes.weightrep import registered_representation


def test_standard_rep_tables():
    rep = standard_rep_sl(2)
    assert np.array_equal(rep.e_pos[(0, 1)], [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    for i in range(1, 3):
        assert abs(np.trace(rep.h[i])) == 0
    # the P0 that numerical_monodromy predicts with, in the same basis order
    want_p0 = np.diag([np.exp(2j * np.pi / 3), 1, np.exp(-2j * np.pi / 3)])
    assert np.max(np.abs(registered_representation("A2").p0_matrix() - want_p0)) < 1e-12
    with pytest.raises(ValueError):
        standard_rep_sl(1)


def test_rep_brackets_match_abstract_constants():
    # the matrix-unit model satisfies the same bracket table as the abstract
    # algebra (exhaustive over all root pairs of sl_3)
    alg = build_chevalley("A2")
    rs = alg.rs
    rep = standard_rep_sl(2)

    def mat_of(root):
        pairs = {(1, 0): (0, 1), (0, 1): (1, 2), (1, 1): (0, 2)}
        if sum(root) > 0:
            i, j = pairs[root]
        else:
            j, i = pairs[tuple(-c for c in root)]
        return rep.e_pos[(i, j)]

    for a in rs.roots:
        for b in rs.roots:
            comm = mat_of(a) @ mat_of(b) - mat_of(b) @ mat_of(a)
            s = tuple(x + y for x, y in zip(a, b))
            if rs.is_root(s):
                want = float(alg.nval(a, b)) * mat_of(s)
            elif all(c == 0 for c in s):
                want = sum(c * rep.h[i + 1] for i, c in enumerate(a))
            else:
                want = np.zeros((3, 3))
            assert np.max(np.abs(comm - want)) < 1e-12, (a, b)


def test_build_system_examples():
    sys3 = build_system(2, [1, 1, 1], [0, 0, 0], 1.0)
    assert sys3.bigN == 3 and all(v == 0 for v in sys3.m_values)
    sys3b = build_system(2, [1, 1, 1], [0, 1, 1], 1.0)
    assert sys3b.bigN == 5
    assert all(v == Q(1, 5) for v in sys3b.m_values)
    with pytest.raises(SystemError_):
        build_system(2, [1, 1, 1], [0, 1, 2], 1.0)  # k_1 != k_2 = k_{nu(1)}
    with pytest.raises(SystemError_):
        build_system(2, [1, -1, 1], [0, 0, 0], 1.0)
    with pytest.raises(SystemError_):
        build_system(2, [1, 1, 1], [0, 0, 0], -2.0)
    with pytest.raises(SystemError_):
        build_system(2, [1, 1, 1], [-1, -1, -1], 1.0)  # N = 0


def test_cyclic_symmetry_of_coefficient():
    sys3 = build_system(2, [1.0, 0.6, 0.6], [1, 0, 0], 1.3)
    p0 = registered_representation("A2").p0_matrix()
    rot = p0 @ sys3.eta_plus @ np.linalg.inv(p0)
    assert np.max(np.abs(rot - np.exp(2j * np.pi / 3) * sys3.eta_plus)) < 1e-12


def test_formal_solution_sl3():
    sys3 = build_system(2, [1, 1, 1], [0, 1, 1], 1.0)
    fs = formal_solution(sys3, 5)
    assert fs.lambda0_norm < 1e-13
    assert all(r < 1e-10 for r in fs.residual_norms)
    assert len(fs.y_coeffs) == 5
    fs1 = formal_solution(sys3, 1)
    assert fs1.residual_norms[0] < 1e-13  # prefactor alone solves to leading order
    with pytest.raises(ValueError):
        formal_solution(sys3, 0)
    with pytest.raises(ValueError):
        formal_solution(sys3, 31)


def test_formal_solution_off_torus_components():
    sys3 = build_system(2, [1.0, 0.7, 0.7], [0, 1, 1], 0.8)
    fs = formal_solution(sys3, 4)
    d, V = np.linalg.eig(fs.lambda_minus1)
    Vinv = np.linalg.inv(V)
    for Y in fs.y_coeffs:
        Yp = Vinv @ Y @ V
        assert np.max(np.abs(np.diag(Yp))) < 1e-10


def test_monodromy_sl3():
    for k in ([0, 0, 0], [0, 1, 1]):
        rep = numerical_monodromy(build_system(2, [1, 1, 1], k, 1.0))
        assert rep.max_coeff_residual < 1e-6
    # k = 0: monodromy spectrum is {1, 1, 1}
    rep0 = numerical_monodromy(build_system(2, [1, 1, 1], [0, 0, 0], 1.0))
    assert np.max(np.abs(rep0.numerical_charpoly - np.poly(np.eye(3)))) < 1e-7


def test_monodromy_sl4_generic():
    rep = numerical_monodromy(build_system(3, [1.0, 0.8, 1.3, 0.8], [1, 2, 0, 2], 1.0))
    assert rep.max_coeff_residual < 1e-6


def test_monodromy_z_independence():
    polys = []
    for z in (0.5, 1.0, 2.0):
        rep = numerical_monodromy(build_system(2, [1, 1, 1], [0, 1, 1], z))
        polys.append(rep.numerical_charpoly)
    for p in polys[1:]:
        assert np.max(np.abs(p - polys[0])) < 1e-6


def test_monodromy_radius_independence():
    sys3 = build_system(2, [1.0, 0.9, 0.9], [0, 1, 1], 1.0)
    p1 = numerical_monodromy(sys3, radius=0.7).numerical_charpoly
    p2 = numerical_monodromy(sys3, radius=1.3).numerical_charpoly
    assert np.max(np.abs(p1 - p2)) < 1e-8


def test_m_coords_consistency():
    # the oracle's diagonal m agrees with the abstract H-coordinates
    sys3 = build_system(2, [1, 1, 1], [0, 1, 1], 1.0)
    rep = registered_representation("A2")
    vals = rep.weight_values(sys3.m_coords())
    diag = np.real(np.diag(sys3.m_diag))
    assert np.max(np.abs(vals - diag)) < 1e-12


def test_m_coords_is_the_exact_cartan_solve():
    # m_coords reads G^{-1} from the root system's epsilon basis instead of inverting G
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        rs = build_root_system(f"A{n}")
        for _ in range(3):
            sys_ = _seeded_system(rng, n)
            assert sys_.m_coords() == tuple(mat_vec(mat_inv(rs.form), list(sys_.m_values)))


def _loop_recursion(sys_: MeromorphicSystem, fs):
    """Lambda_k and Y_k of formal_solution, with ad(Lambda_{-1}) inverted entry by entry."""
    size = sys_.rep.size
    P = fs.prefactor
    Pinv = np.linalg.inv(P)
    d, V = np.linalg.eig(fs.lambda_minus1)
    Vinv = np.linalg.inv(V)

    def proj_parts(F):
        Fp = Vinv @ F @ V
        off = Fp - np.diag(np.diag(Fp))
        Yp = np.zeros_like(off)
        for a in range(size):
            for b in range(size):
                if a != b:
                    Yp[a, b] = off[a, b] / (d[b] - d[a])
        return V @ np.diag(np.diag(Fp)) @ Vinv, V @ Yp @ Vinv

    F0 = Pinv @ sys_.m_diag @ P
    lam0, y1 = proj_parts(F0)
    lambdas, ys = [lam0], [np.eye(size, dtype=complex), y1]
    for kk in range(2, fs.order + 1):
        F = F0 @ ys[kk - 1] - (kk - 1) * ys[kk - 1]
        for nn in range(1, kk):
            F = F - ys[nn] @ lambdas[kk - 1 - nn]
        lam_k, y_k = proj_parts(F)
        lambdas.append(lam_k)
        ys.append(y_k)
    return lambdas, ys[1:]


def test_formal_solution_division_is_bit_identical_to_the_entrywise_loop():
    # one masked array division does the same IEEE operation on every entry
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        sys_ = _seeded_system(rng, n)
        fs = formal_solution(sys_, 6)
        lambdas, ys = _loop_recursion(sys_, fs)
        assert all(np.array_equal(a, b) for a, b in zip(fs.lambda_coeffs, lambdas))
        assert all(np.array_equal(a, b) for a, b in zip(fs.y_coeffs, ys))


def _dop853_reference(sys_: MeromorphicSystem, radius: float) -> np.ndarray:
    """The monodromy by scipy's DOP853 on the lambda-plane coefficient (rtol 1e-12)."""
    size = sys_.rep.size
    scale = sys_.s / float(sys_.bigN)

    def rhs(theta, y):
        lam = radius * np.exp(1j * theta)
        coeff = -scale * (sys_.z / lam**2) * sys_.eta_plus + sys_.m_diag / lam
        return (1j * lam * (coeff @ y.reshape(size, size))).reshape(-1)

    sol = solve_ivp(rhs, (0.0, 2 * np.pi), np.eye(size, dtype=complex).reshape(-1),
                    method="DOP853", rtol=1e-12, atol=1e-12, max_step=2 * np.pi / 256)
    assert sol.success
    return sol.y[:, -1].reshape(size, size)


def _seeded_system(rng, n: int) -> MeromorphicSystem:
    """A nu-symmetric sl_{n+1} system drawn like the benchmark's monodromy systems."""
    free = [Q(int(x), 4) for x in rng.integers(-2, 5, size=(n + 1) // 2 + 1)]
    k = [free[0]] + [free[min(i, n + 1 - i)] for i in range(1, n + 1)]
    return build_system(n, rng.uniform(0.5, 2.0, size=n + 1), k, rng.uniform(0.5, 2.0))


def test_magnus_matches_dop853_reference():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5):
        sys_ = _seeded_system(rng, n)
        for radius in (0.7, 1.3):
            got = integrate_monodromy(sys_, radius)
            want = _dop853_reference(sys_, radius)
            assert np.linalg.norm(got.mono - want) <= 1e-9 * np.linalg.norm(want), (n, radius)
            assert type(got.nfev) is int and type(got.steps) is int
            per = got.steps // sys_.s  # Magnus steps in one sector of 2 pi / s
            assert got.steps == sys_.s * per >= oracle.MIN_STEPS and per % 2 == 0
            assert got.nfev == 3 * (per + per // 2)
            assert got.error_estimate <= oracle.ERROR_TOL


def test_magnus_is_sixth_order():
    sys4 = build_system(3, [1.0, 0.8, 1.3, 0.8], [1, 2, 0, 2], 1.0)
    im, k = circle_coefficients(sys4, 0.7)

    def product(steps):
        return sequential_product(magnus_propagators(im, k, steps))

    ref = product(1024)
    assert integrate_monodromy(sys4, 0.7).steps == 128
    err = [np.linalg.norm(product(n) - ref) for n in (64, 128)]
    assert err[0] >= 40 * err[1]  # measured ratio about 64


def test_step_rule():
    # sl3 at radius 1: the full-circle rule's 128 steps become 3 sectors of 2 ceil(128/6) = 44
    sys3 = build_system(2, [1, 1, 1], [0, 1, 1], 1.0)
    assert integrate_monodromy(sys3).steps == 132
    # rho = ||M|| + ||K|| grows like 1/radius; h rho <= 0.2 needs more steps
    im, k = circle_coefficients(sys3, 0.1)
    rho = np.linalg.norm(im, 2) + np.linalg.norm(k, 2)
    steps = integrate_monodromy(sys3, 0.1).steps
    assert 2 * np.pi * rho / steps <= oracle.STEP_NORM < 2 * (2 * np.pi * rho / steps)


def test_step_exponential_refuses_large_generators():
    sys3 = build_system(2, [1, 1, 1], [0, 1, 1], 1.0)
    im, k = circle_coefficients(sys3, 1.0)
    with pytest.raises(ArithmeticError, match="step generator norm"):
        magnus_propagators(im, k, 4)


def test_step_exponential_matches_expm():
    # the Paterson-Stockmeyer evaluation is exact to rounding up to EXP_NORM
    # (measured: 2.5e-16 relative in the 1-norm, as for the Horner form)
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for size in (3, 4, 5, 6):
        stack = rng.standard_normal((32, size, size)) + 1j * rng.standard_normal((32, size, size))
        norms = np.abs(stack).sum(axis=-2).max(axis=-1)
        stack *= (rng.uniform(0.0, oracle.EXP_NORM, 32) / norms)[:, None, None]
        stack[0] *= (1 - 4 * eps) * oracle.EXP_NORM / np.abs(stack[0]).sum(axis=-2).max()
        assert np.abs(stack).sum(axis=-2).max() == pytest.approx(oracle.EXP_NORM, rel=1e-14)
        got = oracle._exp_taylor(stack)
        want = np.array([expm(x) for x in stack])
        err = np.linalg.norm(got - want, 1, axis=(-2, -1)) / np.linalg.norm(want, 1, axis=(-2, -1))
        assert err.max() <= 4 * eps, size
    with pytest.raises(oracle.IntegratorError, match="step generator norm"):
        oracle._exp_taylor(stack * 1.01)
    stack[3, 0, 1] = np.nan
    with pytest.raises(oracle.IntegratorError, match="step generator norm"):
        oracle._exp_taylor(stack)


def test_error_estimate_above_tolerance_raises(monkeypatch):
    monkeypatch.setattr(oracle, "ERROR_TOL", 1e-20)
    with pytest.raises(ArithmeticError, match="integrator failed"):
        integrate_monodromy(build_system(2, [1, 1, 1], [0, 1, 1], 1.0))


def test_error_estimate_at_rounding_noise_does_not_raise():
    # a system with M = 0: the solution grows inside the loop and returns to I, so
    # Phi_N and Phi_{N/2} differ by rounding noise only (its Richardson estimate
    # is about 2.7e-9, above ERROR_TOL)
    sys4 = build_system(3, [1.479, 1.606, 1.773, 1.922], [Q(-1, 2)] * 4, 1.39)
    assert not np.any(sys4.m_diag)
    got = integrate_monodromy(sys4, 0.724)
    assert got.error_estimate > oracle.ERROR_TOL
    assert 63 * got.error_estimate <= oracle.ROUNDING_MARGIN * got.rounding_noise
    assert np.linalg.norm(got.mono - np.eye(4)) < 1e-6
    assert numerical_monodromy(sys4, 0.724).ok


def test_exponent_check_passes_and_catches_tampered_m():
    sys4 = build_system(3, [1.0, 0.8, 1.3, 0.8], [1, 2, 0, 2], 1.0)
    rep = numerical_monodromy(sys4)
    assert rep.ok and rep.exponent_residual < 1e-12
    shifted = (sys4.m_entries[0] + Q(1, 7),) + sys4.m_entries[1:]
    bad = numerical_monodromy(dataclasses.replace(sys4, m_entries=shifted))
    assert bad.exponent_residual > 1e-3 and not bad.ok
    assert bad.max_coeff_residual == rep.max_coeff_residual  # the numerical side is untouched


def test_exponent_charpoly_reduces_mod_one():
    # integer shifts of m_j do not move e^{2 pi i m_j}, and the reduction is exact
    m = [Q(1, 3), Q(-1, 3), Q(0)]
    assert np.array_equal(exponent_charpoly(m), exponent_charpoly([Q(7, 3), Q(-10, 3), Q(5)]))


def test_radius_0553_passes(tmp_path):
    # once an open oracle failure (perfbench/README.md): |Phi(2 pi)| = 5.6e4 with its
    # eigenvalues on the unit circle, so the charpoly of Phi itself carries errors of
    # 3e-5 to 6e-5 even from a long-double product.  The sector factor's spectrum,
    # at |Omega^{-1} U_1| = 7.8e2, gives the measured residual 4.3e-8: 23 times
    # below MONODROMY_TOL = 1e-6
    out = tmp_path / "m.json"
    argv = ["monodromy", "--rank", "3", "--k=-1/2,-1/2,-1/4,-1/2",
            "--c=1.325,1.974,1.132,1.736", "--z", "1.597", "--radius", "0.553",
            "--json-out", str(out)]
    assert main(argv) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 3 and doc["passed"] and doc["tolerance"] == 1e-6
    assert 1e-8 < doc["max_coeff_residual"] < 1e-7
    assert doc["exponent_residual"] < 1e-12
    assert doc["error_estimate"] <= oracle.ERROR_TOL and doc["rounding_noise"] < 1e-8


def _omega(s: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(s) / s))


def test_circle_coefficient_cyclic_symmetry():
    # A(theta + 2 pi/s) = Omega A(theta) Omega^{-1}, and P0 = e^{i pi n/s} Omega^{-1}
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5):
        sys_ = _seeded_system(rng, n)
        s = sys_.s
        im, k = circle_coefficients(sys_, rng.uniform(0.7, 1.3))
        omega, omega_inv = _omega(s), np.linalg.inv(_omega(s))
        for theta in rng.uniform(0.0, 2 * np.pi, 4):
            rotated = im + np.exp(-1j * (theta + 2 * np.pi / s)) * k
            conj = omega @ (im + np.exp(-1j * theta) * k) @ omega_inv
            assert np.max(np.abs(rotated - conj)) < 1e-12, n
        p0 = registered_representation(f"A{n}").p0_matrix()
        assert np.max(np.abs(p0 - np.exp(1j * np.pi * n / s) * omega_inv)) < 1e-12
        assert np.max(np.abs(oracle.sector_phases(s) - np.diag(omega_inv))) < 1e-15


def test_sector_power_matches_full_circle_product():
    # (Omega^{-1} U_1)^s against the same s * per Magnus steps multiplied around the circle
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            sys_ = _seeded_system(rng, n)
            radius = rng.uniform(0.7, 1.3)
            got = integrate_monodromy(sys_, radius)
            im, k = circle_coefficients(sys_, radius)
            want = sequential_product(magnus_propagators(im, k, got.steps))
            assert np.linalg.norm(got.mono - want) <= 1e-12 * np.linalg.norm(want), n


def test_tampered_sector_phase_fails_dop853_comparison(monkeypatch):
    # omega^2 in place of omega: the Richardson pair shares the fault, DOP853 does not
    phases = oracle.sector_phases
    monkeypatch.setattr(oracle, "sector_phases", lambda s: phases(s) ** 2)
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5):
        sys_ = _seeded_system(rng, n)
        got = integrate_monodromy(sys_, 0.7)
        want = _dop853_reference(sys_, 0.7)
        assert np.linalg.norm(got.mono - want) > 1e-3 * np.linalg.norm(want), n


def test_error_bounds_cover_true_error_at_m_zero():
    # with M = 0 the coefficients commute and Phi(2 pi) = exp(K * integral of e^{-i theta}) = I
    # exactly; above the propagators' own rounding (a few eps) the larger of the Richardson
    # estimate and the rounding noise bounds the true error (3.3 to 1.5e3 times it at the
    # 961 such systems of a 20,000-op seeded census)
    rng = np.random.default_rng(17)
    floor = 64 * np.finfo(float).eps
    for i in range(40):
        n = 2 + i % 4
        k = [Q(int(rng.integers(-2, 5)), 4)] * (n + 1)
        sys_ = build_system(n, rng.uniform(0.5, 2.0, n + 1), k, rng.uniform(0.5, 2.0))
        assert not np.any(sys_.m_diag)
        got = integrate_monodromy(sys_, rng.uniform(0.7, 1.3))
        true = np.linalg.norm(got.mono - np.eye(n + 1)) / np.linalg.norm(got.mono)
        assert max(got.error_estimate, got.rounding_noise, floor) >= true, (n, true)
