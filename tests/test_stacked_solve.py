"""The class solve's stacked evaluations are bitwise its one-t-at-a-time ones.

Route 1 of the class solve evaluates its Gauss-Newton residuals in stacks:
the section factors, the section product, eigvals and the power sums each
take a (k, ...) stack.  These tests compare every stacked builder with its
single calls, and the lockstep Gauss-Newton with the sequential one it
replaced, kept here as sequential_gauss_newton, bit for bit.
"""

import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxstokes import steinberg
from coxstokes.characters import CharacterScaleError, fundamental_characters, fundamental_dim
from coxstokes.coxeter import bipartition
from coxstokes.rootcore import build_root_system
from coxstokes.steinberg import alcove_map, steinberg_section, torus_character_values
from coxstokes.weightrep import registered_representation

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

REGISTERED = ("A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4", "E6")

# the stokes-interior bench points that the power-sum route solves (the
# tenth, B3 (0, -7/4, -21/8), has colliding targets and takes the closed form)
ROUTE1_POINTS = (
    ("B3", "-1/8,-5/4,-15/8"),
    ("C3", "1/2,7/4,11/8"),
    ("C3", "-7/4,-13/4,-13/8"),
    ("G2", "-45/8,-13/4"),
    ("G2", "-13/8,-1"),
    ("D4", "-7/8,-1,-1/2,-3/4"),
    ("D4", "-3/2,-11/4,-7/4,-3/2"),
    ("B4", "2/3,0,1/6,1/6"),
    ("B4", "7/6,2/3,1/3,-1/2"),
)


def sequential_gauss_newton(resid, t0, tol, iters, restarts):
    """The class solve's Gauss-Newton before stacking: one t per resid call,
    attempts one after another, restarts drawn from default_rng(1), the
    generator steinberg._RESTART_NORMALS was taken from."""
    l = len(t0)
    rng = np.random.default_rng(1)
    t = np.array(t0, dtype=complex)
    best = None
    for attempt in range(restarts):
        for _ in range(iters):
            F = resid(t)
            r = float(np.max(np.abs(F)))
            if best is None or r < best[0]:
                best = (r, t.copy())
            if r < tol:
                return t, r
            h = 1e-7 * max(1.0, float(np.max(np.abs(t))))
            J = np.empty((len(F), l), dtype=complex)
            for j in range(l):
                tp = t.copy()
                tp[j] += h
                J[:, j] = (resid(tp) - F) / h
            step, *_ = np.linalg.lstsq(J, -F, rcond=None)
            lam = 1.0
            for _ in range(30):
                cand = t + lam * step
                r_cand = np.max(np.abs(resid(cand)))
                if np.isfinite(r_cand) and r_cand < r:
                    t = cand
                    break
                lam /= 2
            else:
                break
        t = np.array(t0, dtype=complex) + 0.3 * (attempt + 1) * (
            rng.normal(size=l) + 1j * rng.normal(size=l)
        )
    return best[1], best[0]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _section_setup(name):
    rs = build_root_system(name)
    bip = bipartition(rs)
    return registered_representation(name), bip, tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))


def with_exceptional_examples(test):
    """The hypothesis test, run also at F4 and E6 at both ends of the modulus range."""
    for name, l in (("F4", 4), ("E6", 6)):
        ts = np.array([[1e-3 * np.exp(0.3j)] * l, [1e3 * np.exp(2.1j)] * l])
        test = example((name, ts))(test)
    return test


@st.composite
def type_and_stack(draw):
    """A registered type and a (k, l) stack of complex t, moduli 1e-3 to 1e3."""
    name = draw(st.sampled_from(REGISTERED))
    l = build_root_system(name).rank
    k = draw(st.integers(1, 5))
    logs = draw(st.lists(st.floats(-3, 3), min_size=k * l, max_size=k * l))
    phases = draw(st.lists(st.floats(0, 2 * np.pi), min_size=k * l, max_size=k * l))
    ts = 10.0 ** np.array(logs) * np.exp(1j * np.array(phases))
    return name, ts.reshape(k, l)


@settings(max_examples=40, deadline=None)
@given(type_and_stack())
@with_exceptional_examples
def test_stacked_nilpotent_exp_is_bitwise_its_single_calls(case):
    name, ts = case
    rep, _, order = _section_setup(name)
    for pos, node in enumerate(order):
        exp_e, _ = rep.section_factors(node - 1)
        got = exp_e(ts[:, pos])
        assert got.shape == (len(ts), rep.dim, rep.dim)
        flat_terms = exp_e.terms.reshape(len(exp_e._k), -1)
        for row, t in zip(got, ts[:, pos]):
            assert same_bits(row, exp_e(t))
            # the scalar series as it was written before it took stacks
            assert same_bits(row, (complex(t) ** exp_e._k @ flat_terms).reshape(row.shape))


@settings(max_examples=40, deadline=None)
@given(type_and_stack())
@with_exceptional_examples
def test_stacked_section_product_is_bitwise_the_section(case):
    name, ts = case
    rep, bip, _ = _section_setup(name)
    got = steinberg._section_stack(rep, bip, ts)
    for row, t in zip(got, ts):
        assert same_bits(row, steinberg_section(rep, bip, t).full())


@settings(max_examples=40, deadline=None)
@given(type_and_stack())
@with_exceptional_examples
def test_stacked_eigvals_and_power_sums_are_bitwise_per_matrix(case):
    name, ts = case
    rep, bip, _ = _section_setup(name)
    eig, ok = steinberg._section_spectra(rep, bip, ts)
    assert ok.all()
    ks = np.arange(1, 29)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = steinberg._power_sums(eig, ks), steinberg._power_sums(eig, 2 * ks)
        for i, t in enumerate(ts):
            single = np.linalg.eigvals(steinberg_section(rep, bip, t).full())
            assert same_bits(eig[i], single)
            assert same_bits(sums[0][i], steinberg._power_sums(single, ks))
            assert same_bits(sums[1][i], steinberg._power_sums(single, 2 * ks))


def test_overflowing_row_gets_an_infinite_residual():
    rep, bip, _ = _section_setup("B3")
    y = alcove_map(build_root_system("B3"), [Q(-1, 8), Q(-5, 4), Q(-15, 8)]).y
    reg_eig = steinberg._target_eigenvalues(rep, y)
    ts = np.array([[0.3 + 0.1j, -1.2, 2.0], [1e200, 1e200, 1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        section = steinberg_section(rep, bip, ts[1]).full()
    assert not np.isfinite(section).all()
    # alone, that section makes eigvals raise, as one t per call did
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvals(section)
    eig, ok = steinberg._section_spectra(rep, bip, ts)
    assert ok.tolist() == [True, False]
    resid = steinberg._power_sum_residual(rep, bip, reg_eig)
    F = resid(ts)
    assert np.isposinf(F[1].real).all() and np.isfinite(F[0]).all()
    assert same_bits(F[0], resid(ts[:1])[0])


def _sequential_route1(name, m_text):
    """Route 1 with the residuals as they were: one section, one eigvals per t."""
    rs = build_root_system(name)
    rep, bip, order = _section_setup(name)
    y = alcove_map(rs, [Q(c) for c in m_text.split(",")]).y
    t0 = torus_character_values(rs, [fundamental_characters(name, k) for k in order], y)
    reg_eig = steinberg._target_eigenvalues(rep, y)
    plethysm = steinberg._ADJOINT_PLETHYSM[rs.type.family]
    dim_ad = len(rs.roots) + rs.rank
    kr = np.arange(1, min(rep.dim, 24) + 1)
    ka = np.arange(1, min(dim_ad, 28) + 1)

    def sums(eig):
        with np.errstate(over="ignore", invalid="ignore"):
            pa = plethysm(steinberg._power_sums(eig, ka), steinberg._power_sums(eig, 2 * ka))
            return np.concatenate([steinberg._power_sums(eig, kr) / rep.dim, pa / dim_ad])

    target = sums(reg_eig)
    poly = np.poly(np.diag(reg_eig))

    def power_sum_resid(t):
        return sums(np.linalg.eigvals(steinberg_section(rep, bip, t).full())) - target

    def registered_resid(t):
        return np.poly(steinberg_section(rep, bip, t).full()) - poly

    t_ps, r_ps = sequential_gauss_newton(power_sum_resid, t0, 1e-12, 60, 3)
    t, r = sequential_gauss_newton(registered_resid, t_ps, steinberg.SOLVE_TOL, 60, 1)
    return (rs, bip, order, y, rep, t0, reg_eig), (t_ps, r_ps), (t, r)


def _seeded_interior_point(name, draw):
    """The draw-th interior point of name, off the bench points, whose registered
    targets are distinct (so that route 1 solves there), from a fixed seed."""
    rs = build_root_system(name)
    rep = registered_representation(name)
    rng = random.Random(f"route1:{name}")
    found = []
    while len(found) <= draw:
        m = tuple(Q(rng.randint(-16, 16), 8) for _ in range(rs.rank))
        pt = alcove_map(rs, m)
        if pt.admissible and min(pt.slacks_simple) > 0 and pt.slack_psi > 0 and (
                steinberg._distinct(steinberg._target_eigenvalues(rep, pt.y))):
            found.append(",".join(map(str, m)))
    assert (name, found[draw]) not in ROUTE1_POINTS
    return found[draw]


@pytest.mark.parametrize("name,m_text", ROUTE1_POINTS)
def test_route1_is_bitwise_the_sequential_solve(name, m_text):
    _assert_route1_is_sequential(name, m_text)


@pytest.mark.parametrize("name,draw", [(name, d) for name in ("B2", "D5", "C3", "G2") for d in (0, 1)])
def test_route1_is_bitwise_the_sequential_solve_off_the_bench_points(name, draw):
    _assert_route1_is_sequential(name, _seeded_interior_point(name, draw))


def _assert_route1_is_sequential(name, m_text):
    (rs, bip, order, y, rep, t0, reg_eig), (t_ps, r_ps), (t, r) = _sequential_route1(name, m_text)
    got_ps = steinberg._solve_power_sums(rep, bip, t0, reg_eig)
    assert same_bits(got_ps[0], t_ps) and same_bits(got_ps[1], r_ps)
    got_t, got_r, cs, chi, _, _ = steinberg._solve_class(rs, bip, order, y)
    assert r <= steinberg.CLASS_TOL
    assert same_bits(got_t, t) and same_bits(got_r, r)
    assert same_bits(cs.full(), steinberg_section(rep, bip, t).full())
    assert same_bits(chi, t0)


def _starts(t0, restarts):
    """The start of every attempt, drawn as sequential_gauss_newton draws them."""
    rng = np.random.default_rng(1)
    out = [np.array(t0, dtype=complex)]
    for k in range(1, restarts):
        out.append(out[0] + 0.3 * k * (rng.normal(size=len(t0)) + 1j * rng.normal(size=len(t0))))
    return out


def test_restart_normals_are_the_generator_draws():
    table = np.array(steinberg._RESTART_NORMALS)
    assert same_bits(table, np.random.default_rng(1).normal(size=44))
    t0 = np.array([0.3 - 0.1j, 1.2, -0.5j])
    assert all(same_bits(a, b) for a, b in zip(steinberg._restart_starts(t0, 3), _starts(t0, 3)))


def _admitted_ranks(family):
    """The ranks of family whose every fundamental dimension is within the character cap."""
    if family == "G":
        return [2]
    ranks, l = [], {"B": 2, "C": 2, "D": 3}[family]
    while True:
        try:
            for k in range(1, l + 1):
                fundamental_dim(f"{family}{l}", k)
        except CharacterScaleError:
            return ranks
        ranks.append(l)
        l += 1


def test_restart_table_covers_every_admitted_route1_type():
    # route 1 runs the power sums with three attempts, so 4 l normals; read
    # from the cap, so that raising it fails here and not in route 1
    for l in (max(_admitted_ranks(family)) for family in steinberg._ADJOINT_PLETHYSM):
        assert 4 * l <= len(steinberg._RESTART_NORMALS)
        assert len(steinberg._restart_starts(np.zeros(l), 3)) == 3
    with pytest.raises(steinberg.RestartTableError, match="3 starts at l = 12 need 48 normals"):
        steinberg._gauss_newton(lambda ts: ts, np.zeros(12), 1e-12, 60, 3)


def _alone(resid, start, tol, iters, monkeypatch):
    """(least-squares steps taken, r) of one attempt from start, run alone.

    An attempt solves once per iteration that does not stop at tol, so the
    count is the iteration it hits tol at, or the number it ran.
    """
    steps = [0]
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        steps[0] += 1
        return lstsq(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "lstsq", counting)
        _, r = sequential_gauss_newton(resid, start, tol, iters, 1)
    return steps[0], r


def square_plus_1(t):
    return t**2 + 1


def inconsistent(t):
    return np.stack([t[..., 0] ** 2 + 1, t[..., 0] ** 2 + 1.5], axis=-1)


def two_roots(t):
    return np.stack([t[..., 0] ** 2 - 4, t[..., 0] * t[..., 1] - 2], axis=-1)


# (residual, t0, iters, what each attempt does alone), the restarts those
# of _RESTART_NORMALS.  Starting on the real axis, t^2 + 1 stays real and its
# line search ends at r = 1; the complex restarts reach +-i.
SYNTHETIC = {
    "attempt 1 hits": (two_roots, [1.0, 0.5], 60, "hit"),
    "attempt 2 hits while attempt 1 runs": (square_plus_1, [0.1], 60, "overlap"),
    "attempt 1 ends on a failed line search": (square_plus_1, [0.5], 60, "failed"),
    "no attempt hits": (inconsistent, [0.3], 60, "none"),
    "attempts run out of iterations": (inconsistent, [0.3], 3, "iters"),
}


def test_the_thirtieth_step_length_is_tried():
    # from 0.13 on the real axis, the ninth step of t^2 + 1 takes 2^-29,
    # the last length, and the tenth finds none; that ninth iterate has the
    # least r, so a shorter trial schedule returns another t
    want = sequential_gauss_newton(square_plus_1, [0.13], 1e-12, 60, 1)
    got = steinberg._gauss_newton(square_plus_1, [0.13], 1e-12, 60, 1)
    assert want[1] >= 1 and same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("case", SYNTHETIC)
def test_lockstep_gauss_newton_is_bitwise_the_sequential(case, monkeypatch):
    resid, t0, iters, kind = SYNTHETIC[case]
    tol = 1e-12
    alone = [_alone(resid, s, tol, iters, monkeypatch) for s in _starts(t0, 3)]
    hits = [r < tol for _, r in alone]
    if kind == "hit":
        assert hits[0]
    elif kind == "overlap":
        # attempt 2 reaches tol at an iteration before attempt 1 stops
        assert not hits[0] and hits[1] and alone[1][0] < alone[0][0] < iters
    elif kind == "failed":
        assert not hits[0] and alone[0][0] < iters and hits[1] and alone[1][0] > alone[0][0]
    else:
        assert not any(hits)
        assert all(n == iters for n, _ in alone) == (kind == "iters")
    want = sequential_gauss_newton(resid, t0, tol, iters, 3)
    got = steinberg._gauss_newton(resid, t0, tol, iters, 3)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("chunks", [(1,) * 29, (29,)])
def test_trial_schedule_changes_no_bit_of_the_result(chunks, monkeypatch):
    # one length per chunk after the first, or all of them in one chunk:
    # other stacks are evaluated, and the same iterates are accepted
    for resid, t0, iters, _ in SYNTHETIC.values():
        want = steinberg._gauss_newton(resid, t0, 1e-12, iters, 3)
        with monkeypatch.context() as patch:
            patch.setattr(steinberg, "_TRIAL_CHUNKS", chunks)
            got = steinberg._gauss_newton(resid, t0, 1e-12, iters, 3)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_a_failed_step_raises_only_where_the_sequential_solve_did():
    # the complex restarts start where the residual is NaN, so their first
    # least-squares solve raises; on the real axis t^2 - 4 reaches tol first
    def hit_on_axis(t):
        return np.where(t.imag == 0, t**2 - 4, np.nan)

    want = sequential_gauss_newton(hit_on_axis, [1.0], 1e-12, 60, 3)
    got = steinberg._gauss_newton(hit_on_axis, [1.0], 1e-12, 60, 3)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

    def no_hit_on_axis(t):
        return np.where(t.imag == 0, t**2 + 1, np.nan)

    for solve in (sequential_gauss_newton, steinberg._gauss_newton):
        with pytest.raises(np.linalg.LinAlgError):
            solve(no_hit_on_axis, [0.5], 1e-12, 60, 3)


def real_when_real(t):
    """Three equations in two unknowns with no common root, real-typed where
    they are real, as np.poly returns conjugate-closed roots."""
    v = np.stack([t[0] ** 2 + t[1] - 3, t[0] * t[1] ** 2 - 1.7, t[0] + t[1] ** 3 - 2.9])
    return v if v.imag.any() else v.real.copy()


def test_rows_of_mixed_dtype_keep_their_arithmetic():
    # attempt 1 stays on the real axis, so its rows are real-typed and its
    # Jacobian differences real divisions, while the complex restarts share
    # its stacks; at this start those divisions decide the least r found
    t0 = [0.6, 0.7]
    want = sequential_gauss_newton(real_when_real, t0, 1e-12, 60, 3)
    got = steinberg._gauss_newton(lambda ts: [real_when_real(t) for t in ts], t0, 1e-12, 60, 3)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    in_complex = sequential_gauss_newton(
        lambda t: real_when_real(t).astype(complex), t0, 1e-12, 60, 3
    )
    assert not same_bits(in_complex[1], want[1])
