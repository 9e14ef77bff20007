"""Tests for the explicit Bellman functions B1 and B2, the auxiliary
function T, and the master Bellman evaluation on dyadic nodes."""

import math
import signal
import warnings

import numpy as np
import pytest

from dyadicbump.bumps import EpsilonModel, log_bump, loglog_bump, power_bump
from dyadicbump.bellman import (
    B1, B2, BellmanNode, ConstantBudget, DataIntegrityError,
    aux_T_check, b1_property_check, b2_property_check,
    default_budget, g_function, g_positivity, hessian_fd, master_bellman_eval,
    T_CONSTANT, node_drop_check, sample_omega2, sylvester_nsd, t_grad,
    t_hessian, t_value,
)
from dyadicbump.dyadic import (
    CarlesonSequence, DyadicIndex, LeafWeight, ROOT, StepDistribution,
    l_intensity_levels,
)


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------

def test_budget_validates():
    ConstantBudget(c1=2.0, c2=5.0)
    with pytest.raises(ValueError):
        ConstantBudget(c1=2.0, c2=5.0, delta1=0.1, c_drop=0.05)
    with pytest.raises(ValueError):
        ConstantBudget(c1=-1.0, c2=5.0)


def test_default_budget_constants():
    fam = log_bump(1.0)
    budget = default_budget(fam)
    b1 = B1(fam)
    assert budget.c1 == pytest.approx(1.0 + b1.j(1.0), rel=1e-12, abs=0)
    # C2 = 1 + P^2 W(P sqrt(delta)) with the beta = 1/4 model: W(z) = 3 z^{1/3}
    z = 100.0 * math.sqrt(1e-3)
    assert budget.c2 == pytest.approx(
        1.0 + 1e4 * 3.0 * z ** (1 / 3), rel=1e-12, abs=0)
    assert budget.delta1 == pytest.approx(budget.c_drop / 10.0)


def test_delta1_is_a_tenth_of_c_drop_by_either_route():
    # built directly or through default_budget, an unset delta1 follows
    # c_drop, so a c_drop below 0.005 still makes a valid budget
    direct = ConstantBudget(c1=1.0, c2=1.0, c_drop=0.01)
    assert direct.delta1 == default_budget(log_bump(1.0),
                                           c_drop=0.01).delta1 == 0.001
    assert ConstantBudget(c1=1.0, c2=1.0, c_drop=0.004).delta1 == 0.004 / 10


# ---------------------------------------------------------------------------
# B1: J and its closed forms
# ---------------------------------------------------------------------------

def test_j_closed_form_log():
    # log family sigma = 2 has companion exponent kappa = 1:
    # J(x) = 1 / (2 + log(1/x)); at x = e^{-2} this is exactly 1/4
    b1 = B1(log_bump(2.0))
    assert b1.base.tag == "log" and b1.base.sigma == 1.0
    assert b1.j(math.exp(-2.0)) == pytest.approx(0.25, abs=1e-14)
    assert b1.j(1.0) == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("family", [log_bump(1.0), log_bump(2.0),
                                    loglog_bump(2.0, 0.1), power_bump(2.0)])
@pytest.mark.parametrize("x0,x1", [(1e-8, 1e-3), (1e-3, 0.1), (0.1, 1.0),
                                   (1e-6, 1.0)])
def test_j_closed_form_matches_quadrature(family, x0, x1):
    # increments pin down J up to a constant; together with the explicit
    # limit J(x) -> 0 as x -> 0 (next test) this determines J
    b1 = B1(family)
    assert b1.j(x1) - b1.j(x0) == pytest.approx(
        b1.j_increment_quad(x0, x1), rel=1e-9, abs=0)


@pytest.mark.parametrize("family", [log_bump(1.0), log_bump(2.0),
                                    loglog_bump(2.0, 0.1), power_bump(2.0)])
def test_j_vanishes_at_zero(family):
    # the closed forms are (diverging quantity)^{-kappa}, so J decreases
    # to 0 as x -> 0; numerically we check strict monotone decay
    b1 = B1(family)
    j4, j100, j300 = b1.j(1e-4), b1.j(1e-100), b1.j(1e-300)
    assert 0 < j300 < j100 < j4


def test_j_power_closed_form():
    # p = 2: alpha = 1/3, J(x) = 3 * 2^{-2/3} x^{1/3}
    b1 = B1(power_bump(2.0))
    x = 0.3
    assert b1.j(x) == pytest.approx(
        3.0 * 2 ** (-2 / 3) * x ** (1 / 3), rel=1e-12, abs=0)


def test_j_beyond_one_grows_logarithmically():
    b1 = B1(log_bump(2.0))
    psi1 = b1.psi0(1.0)
    assert b1.j(math.e) == pytest.approx(
        b1.j(1.0) + 1.0 / psi1, rel=1e-12, abs=0)


J_POINTS = np.concatenate(([0.0, 1e-300, 1.0], np.geomspace(1e-12, 1e6)))


@pytest.mark.parametrize("family", [power_bump(3.0), log_bump(0.5),
                                    log_bump(1.0), loglog_bump(2.0)], ids=repr)
def test_unchecked_j_is_j(family):
    # B1.integral_over calls _j, which skips j's argument check; a fresh
    # family, so _j sets Psi(1) itself
    fresh = type(family).from_json(family.to_json())
    got = fresh._j(J_POINTS)
    assert got.tobytes() == family.j(J_POINTS).tobytes()
    for x in J_POINTS:
        one = fresh._j(np.asarray(x))
        assert type(one) is float
        assert np.float64(one).tobytes() == np.float64(family.j(x)).tobytes()
    with pytest.raises(ValueError):
        family.j(np.array([1.0, -1e-300]))


def test_j_rejects_negative_and_linear_bump():
    b1 = B1(log_bump(2.0))
    with pytest.raises(ValueError):
        b1.j(-0.5)
    from dyadicbump.bumps import DivergentIntegralError
    with pytest.raises(DivergentIntegralError):
        B1(power_bump(1.0))


# ---------------------------------------------------------------------------
# B1: values, gradient, Hessian
# ---------------------------------------------------------------------------

def test_b1_edge_values():
    b1 = B1(log_bump(2.0), C=2.0)
    assert b1.value(0.0, 0.5) == 0.0
    assert b1.value(0.5, 0.0) == -math.inf
    assert b1.value(0.0, 0.0) == 0.0


@pytest.mark.parametrize("family", [log_bump(1.0), loglog_bump(2.0, 0.1),
                                    power_bump(2.0)], ids=repr)
def test_b1_value_matches_masked_form(family):
    # reference form that masks each edge on its own: x = inf where A <= 0,
    # J taken at 1 there, then -inf where N > 0 and 0 where N = 0.  Subnormal
    # A, A = 1e-300 and x > 1 are on the grid.
    b1 = B1(family, C=2.0)
    N, A = np.meshgrid([0.0, 5e-324, 1e-300, 0.3, 1.0],
                       [0.0, 5e-324, 1e-300, 1e-3, 0.3, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(A > 0, N / np.maximum(A, 1e-300), np.inf)
        val = b1.C * N - N * b1.j(np.where(np.isfinite(x), x, 1.0))
        val = np.where((N > 0) & ~np.isfinite(x), -np.inf, val)
    expected = np.where(N == 0.0, 0.0, val)
    assert np.array_equal(b1.value(N, A), expected)
    # scalar calls, and a scalar A broadcast over N, give the same bits
    assert [b1.value(n, a) for n, a in zip(N.ravel(), A.ravel())] \
        == expected.ravel().tolist()
    assert np.array_equal(b1.value(N[-1], 0.3), expected[-2])


def test_b1_gradient_matches_differences():
    b1 = B1(log_bump(1.0), C=2.0)
    # (0.6, 0.65) avoids the seam N = A where second derivatives jump and
    # central differences pick up an O(h) error
    for N, A in [(0.3, 0.7), (0.6, 0.65), (0.9, 0.2), (0.05, 0.9)]:
        h = 1e-6
        gN, gA = b1.grad(N, A)
        fdN = (b1.value(N + h, A) - b1.value(N - h, A)) / (2 * h)
        fdA = (b1.value(N, A + h) - b1.value(N, A - h)) / (2 * h)
        assert gN == pytest.approx(fdN, rel=1e-6, abs=1e-8)
        assert gA == pytest.approx(fdA, rel=1e-6, abs=1e-8)


def test_b1_hessian_matches_finite_differences():
    b1 = B1(log_bump(2.0), C=2.0)
    for N, A in [(0.3, 0.7), (0.2, 0.9), (0.45, 0.5)]:
        h_nn, h_na, h_aa = b1.hessian(N, A)
        H = hessian_fd(lambda x: float(b1.value(x[0], x[1])),
                       np.array([N, A]))
        assert h_nn == pytest.approx(H[0, 0], rel=1e-4, abs=1e-6)
        assert h_na == pytest.approx(H[0, 1], rel=1e-4, abs=1e-6)
        assert h_aa == pytest.approx(H[1, 1], rel=1e-4, abs=1e-6)


def test_b1_hessian_determinant_vanishes():
    # B1 - C N is 1-homogeneous in (N, A), so det of its Hessian is 0
    b1 = B1(loglog_bump(2.0, 0.1))
    N = np.array([0.1, 0.4, 0.7])
    A = np.array([0.5, 0.8, 0.9])
    h_nn, h_na, h_aa = b1.hessian(N, A)
    det = h_nn * h_aa - h_na ** 2
    scale = np.abs(h_nn) * np.abs(h_aa) + h_na ** 2
    assert np.all(np.abs(det) <= 1e-12 * scale)


def test_b1_property_check_passes_on_triangle():
    fam = log_bump(1.0)
    report = b1_property_check(fam, default_budget(fam), n_n=96, n_a=96)
    assert report["pass"]
    assert report["derivative_floor"]["pass"]
    assert report["hessian_nsd"]["pass"]
    assert report["seam_midpoint_concavity"]["pass"]


def test_b1_property_check_reports_violation_region():
    fam = log_bump(2.0)
    report = b1_property_check(fam, default_budget(fam))
    vr = report["violation_region"]
    b1 = B1(fam, default_budget(fam).c1)
    # on the reported boundary A = N / x*, B1 is (numerically) zero
    a_star = vr["a_boundary_at_N1"]
    assert abs(b1.value(1.0, a_star)) <= 1e-9
    # strictly inside the region it is negative
    assert b1.value(1.0, a_star / 2.0) < 0


@pytest.mark.parametrize("family", [loglog_bump(2.0, 0.1), power_bump(2.0)])
def test_b1_property_check_other_families(family):
    report = b1_property_check(family, default_budget(family), n_n=64, n_a=64)
    assert report["pass"], report


def test_b1_integral_over_distribution():
    # single step: N = 0.25 on (0, 2], zero above, so integral = 2 * B1(0.25, A)
    dist = StepDistribution(np.array([2.0]), np.array([0.25]))
    b1 = B1(log_bump(2.0), C=2.0)
    assert b1.integral_over(dist, 0.8) == pytest.approx(
        2.0 * b1.value(0.25, 0.8), rel=1e-12, abs=0)
    # d/dA of the layer-cake integral, summed over the same steps
    widths, fracs = dist.steps()
    grad_a = float(np.dot(widths, b1.grad(fracs, np.full_like(fracs, 0.8))[1]))
    assert grad_a == pytest.approx(
        2.0 * b1.grad(0.25, 0.8)[1], rel=1e-12, abs=0)


def _distributions(seed):
    """StepDistribution.of on every node of a seeded depth-4 weight whose
    leaves come from a small pool, so zero leaves, ties and single-leaf
    nodes are common, with its first four leaves zero (an all-zero node);
    then constructor-built distributions whose last steps, or all of them,
    carry no mass."""
    rng = np.random.default_rng(seed)
    vals = rng.choice([0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0, 3.0], 16)
    vals[8:] = np.where(rng.random(8) < 0.5, vals[8:], rng.uniform(0, 4, 8))
    vals[:4] = 0.0
    w = LeafWeight(4, vals)
    return [StepDistribution.of(w, DyadicIndex(k, p))
            for k in range(5) for p in range(2 ** k)] + [
        StepDistribution([1.0, 2.0], [0.5, 0.0]),
        StepDistribution([1.0], [0.0]), StepDistribution([], [])]


@pytest.mark.parametrize("family", [log_bump(1.0), loglog_bump(2.0, 0.1),
                                    power_bump(2.0)], ids=repr)
def test_b1_integral_over_is_the_masked_dot(family):
    # the layer-cake sum skips value's mask where A > 0 and returns -inf
    # outright where A <= 0; both must equal the dot with value exactly
    b1 = B1(family, C=2.0)
    for seed in range(5):
        for dist in _distributions(seed):
            widths, fracs = dist.steps()
            for A in (0.0, 5e-324, 1e-310, 1e-300, 0.3, 1.0):
                got = b1.integral_over(dist, A)
                assert type(got) is float
                assert got == float(np.dot(widths, b1.value(fracs, A)))
    # A = 0 with mass diverges; without mass the integral is 0
    assert b1.integral_over(StepDistribution([1.0], [0.5]), 0.0) == -math.inf
    assert b1.integral_over(StepDistribution([1.0], [0.0]), 0.0) == 0.0


# ---------------------------------------------------------------------------
# B2: values, gradient, Hessian, g-positivity
# ---------------------------------------------------------------------------

QUARTER = EpsilonModel("power", beta=0.25)


def test_b2_value_closed_form_quarter():
    # W(z) = 3 z^{1/3} for the beta = 1/4 model
    b2 = B2(QUARTER, C=5.0)
    u, v, L, A = 0.02, 0.03, 0.01, 0.5
    z = L / (A + 1.0)
    expected = 5.0 * u - L * L / v * 3.0 * z ** (1 / 3)
    assert b2.value(u, v, L, A) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("model", [QUARTER,
                                   loglog_bump(2.0, 0.1).epsilon_model()])
def test_b2_value_is_cu_where_l_vanishes(model):
    # W(0) = 0, so the tail term vanishes with L, v = 0 included
    b2 = B2(model, C=3.0)
    for u, v, A in [(0.02, 0.03, 0.5), (0.02, 0.0, 0.0), (0.0, 0.0, 1.0)]:
        assert b2.value(u, v, 0.0, A) == 3.0 * u
    got = b2.value(np.array([0.02, 0.01]), np.array([0.0, 0.5]), 0.0, 0.5)
    assert np.array_equal(got, 3.0 * np.array([0.02, 0.01]))


@pytest.mark.parametrize("model", [QUARTER,
                                   loglog_bump(2.0, 0.1).epsilon_model()])
def test_b2_value_scalar_call_is_float_and_bit_equal_to_array_entry(model):
    rng = np.random.default_rng(11)
    u, v, A = rng.uniform(0.0, 0.05, (3, 64))
    L = np.minimum(u * v * rng.uniform(0.0, 50.0, 64), model.z_cap)
    v[:4], L[4:8], A[8:12] = 0.0, 0.0, 0.0
    b2 = B2(model, C=3.0)
    got = b2.value(u, v, L, A)
    assert isinstance(got, np.ndarray) and got.shape == (64,)
    one = [b2.value(*args) for args in zip(u.tolist(), v.tolist(),
                                            L.tolist(), A.tolist())]
    assert all(type(x) is float for x in one)
    assert np.array(one).tobytes() == got.tobytes()


@pytest.mark.parametrize("model", [QUARTER, EpsilonModel("power", beta=1 / 3)])
def test_b2_value_matches_quadrature(model):
    b2 = B2(model, C=3.0)
    for u, v, L, A in [(0.02, 0.03, 0.01, 0.5), (0.001, 0.9, 0.02, 0.0),
                       (0.5, 0.001, 0.002, 1.0)]:
        assert b2.value(u, v, L, A) == pytest.approx(
            b2.value_quad(u, v, L, A), rel=1e-9, abs=0)


def test_b2_value_matches_quadrature_logpow():
    model = loglog_bump(2.0, 0.1).epsilon_model()
    b2 = B2(model, C=3.0)
    got = b2.value(0.02, 0.03, 1e-4, 0.5)
    ref = b2.value_quad(0.02, 0.03, 1e-4, 0.5)
    assert got == pytest.approx(ref, rel=5e-3, abs=0)


def test_b2_gradient_matches_differences():
    b2 = B2(QUARTER, C=3.0)
    x0 = np.array([0.02, 0.03, 0.01, 0.5])
    du, dv, dL, dA = b2.grad(*x0)
    for i, g in enumerate((du, dv, dL, dA)):
        h = 1e-7 * max(abs(x0[i]), 1e-2)
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        fd = (b2.value(*xp) - b2.value(*xm)) / (2 * h)
        assert g == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_b2_hessian_matches_finite_differences():
    b2 = B2(QUARTER, C=3.0)
    u, v, L, A = 0.02, 0.03, 0.01, 0.5
    H = b2.hessian(u, v, L, A)
    Hfd = hessian_fd(lambda x: float(b2.value(u, x[0], x[1], x[2])),
                     np.array([v, L, A]), rel_step=1e-4)
    assert np.allclose(H, Hfd, rtol=1e-3, atol=1e-4 * np.abs(H).max())


def test_b2_hessian_minor_is_g():
    # leading 2x2 minor in (v, L) equals (A+1)^2 g(z) / v^4
    for model in (QUARTER, loglog_bump(2.0, 0.1).epsilon_model()):
        b2 = B2(model, C=3.0)
        u, v, L, A = 0.02, 0.03, 1e-4, 0.5
        z = L / (A + 1.0)
        H = b2.hessian(u, v, L, A)
        minor = H[0, 0] * H[1, 1] - H[0, 1] ** 2
        expected = (A + 1.0) ** 2 * float(g_function(model, z)) / v ** 4
        assert minor == pytest.approx(expected, rel=1e-9, abs=0)


def test_b2_hessian_determinant_vanishes():
    # B2 - Cu is 1-homogeneous in (v, L, A+1): singular Hessian for every eps
    for model in (QUARTER, EpsilonModel("power", beta=1 / 3),
                  loglog_bump(2.0, 0.1).epsilon_model()):
        b2 = B2(model, C=3.0)
        H = b2.hessian(0.02, 0.03, 1e-4, 0.5)
        assert abs(np.linalg.det(H)) <= 1e-12 * np.abs(H).max() ** 3


def _b2_hessian_one_point(model, v, L, A):
    # the one-point formula in Python floats, as B2.hessian had it per point
    z = L / (A + 1.0)
    W = float(model.tail_mass(z))
    fz = float(model.inverse(z))
    fp = 1.0 / float(model.phi_prime(fz)) if z > 0 else 0.0
    h_vv = -2.0 * L * L * W / v ** 3
    h_vL = (2.0 * L * W + (A + 1.0) * fz) / v ** 2
    h_vA = -L * fz / v ** 2
    h_LL = -(2.0 * W + (2.0 * fz / z if z > 0 else 0.0) + fp) / v
    h_LA = (fz + z * fp) / v
    h_AA = -z * z * fp / v
    return np.array([[h_vv, h_vL, h_vA], [h_vL, h_LL, h_LA],
                     [h_vA, h_LA, h_AA]])


@pytest.mark.parametrize("family", [log_bump(1.0), loglog_bump(2.0, 0.1)],
                         ids=["power", "logpow"])
def test_b2_hessian_stack_equals_per_point(family):
    # 400 points of Omega2 and 8 more on L = 0, where every entry is 0
    model = family.epsilon_model()
    b2 = B2(model, C=3.0)
    pts = sample_omega2(default_budget(family), 400,
                        np.random.default_rng(0), model=model)
    zero = np.column_stack([np.full(8, 0.1), np.geomspace(1e-3, 1.0, 8),
                            np.zeros(8), np.linspace(0.0, 1.0, 8)])
    pts = np.vstack([pts, zero])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = b2.hessian(*pts.T)
        one = np.array([b2.hessian(*p) for p in pts])
    assert H.shape == (408, 3, 3) and one.shape == (408, 3, 3)
    assert np.array_equal(H, one)
    assert not H[400:].any()
    # numpy's array pow differs from libm's in the last bit on a few
    # percent of the entries
    np.testing.assert_allclose(
        H, [_b2_hessian_one_point(model, *p) for p in pts[:, 1:].tolist()],
        rtol=1e-15, atol=0)


def test_g_closed_form_quarter():
    # beta = 1/4: f(s) = s^{4/3}, f' = (4/3) s^{1/3}, W = 3 s^{1/3},
    # so g(s) = -s^{8/3} + 8 s^{8/3} = 7 s^{8/3} exactly
    s = np.geomspace(1e-6, 1.0, 50)
    g = g_function(QUARTER, s)
    assert np.allclose(g, 7.0 * s ** (8 / 3), rtol=1e-8)


def test_g_positivity_quarter_and_loglog():
    rep = g_positivity(QUARTER, (1e-8, 10.0))
    assert rep["positive"] and rep["nondecreasing"] and rep["limit_zero"]
    fam = loglog_bump(2.0, 0.1)
    model = fam.epsilon_model()
    cap = 0.9 * float(model.phi(model.x_max))
    rep = g_positivity(model, (1e-12 * cap, cap))
    assert rep["positive"] and rep["nondecreasing"]


def test_g_positivity_rejects_out_of_range():
    model = loglog_bump(2.0, 0.1).epsilon_model()
    with pytest.raises(ValueError):
        g_positivity(model, (1e-6, 1e6))


# ---------------------------------------------------------------------------
# Sylvester NSD verdicts
# ---------------------------------------------------------------------------

def test_sylvester_nsd_lemma_case():
    rep = sylvester_nsd(np.diag([-1.0, -1.0, 0.0])[None])
    assert rep["verdict"][0] == "nsd"


def test_sylvester_eigenvalue_fallback():
    rep = sylvester_nsd(np.diag([-1.0, 1.0, 0.0])[None])
    assert rep["verdict"][0] == "not-nsd"


def test_sylvester_rejects_nonsymmetric():
    M = np.zeros((3, 3))
    M[0, 1] = 1.0
    with pytest.raises(ValueError):
        sylvester_nsd(M[None])


def test_sylvester_on_t_hessian():
    H = t_hessian(0.25, 0.25, 0.5)
    perm = np.ix_([1, 2, 0], [1, 2, 0])
    rep = sylvester_nsd(H[perm][None], tol=1e-8)
    assert rep["verdict"][0] == "nsd"


def _sylvester_oracle(M, tol=1e-9):
    # the verdict one matrix at a time, as sylvester_nsd made it before it
    # took stacks
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3) or not np.allclose(M, M.T, atol=tol * (1 + np.abs(M).max())):
        raise ValueError("sylvester_nsd expects a symmetric 3x3 matrix")
    scale = max(float(np.abs(M).max()), 1e-300)
    det = float(np.linalg.det(M))
    eigs = np.linalg.eigvalsh(M)
    verdict = "nsd" if eigs.max() <= tol * scale else "not-nsd"
    return {"verdict": verdict, "max_eigenvalue": float(eigs.max()), "det": det}


def _assert_stack_matches_oracle(stack, tol):
    got = sylvester_nsd(stack, tol=tol)
    for i, M in enumerate(stack):
        want = _sylvester_oracle(M, tol=tol)
        assert {k: got[k][i].item() for k in want} == want, i


def _sylvester_cases():
    zero_row = np.array([[0.0, 0.0, 0.0], [0.0, -1.0, 0.5], [0.0, 0.5, -1.0]])
    perm = np.ix_([1, 2, 0], [1, 2, 0])
    t_perm = [t_hessian(u, v, A)[perm]
              for u, v, A in [(0.25, 0.25, 0.5), (1e-3, 2.0, 0.0),
                              (1.3, 1.1, 1.0), (0.05, 7.0, 0.3)]]
    return np.array([np.diag([-1.0, -1.0, 0.0]), np.diag([-1.0, 1.0, 0.0]),
                     zero_row, *t_perm])


@pytest.mark.parametrize("tol", [1e-9, 1e-8])
def test_sylvester_stack_matches_per_matrix_oracle(tol):
    stack = _sylvester_cases()
    _assert_stack_matches_oracle(stack, tol)
    rep = sylvester_nsd(stack, tol=tol)
    assert list(rep["verdict"]) == ["nsd", "not-nsd", "nsd"] + ["nsd"] * 4


def test_sylvester_stack_matches_oracle_on_b2_hessians():
    # the matrices b2_property_check hands over, at two seeds
    budget = default_budget(log_bump(1.0))
    b2 = B2(QUARTER, budget.c2)
    for seed in (0, 4):
        pts = sample_omega2(budget, 400, np.random.default_rng(seed),
                            model=QUARTER)
        stack = b2.hessian(*pts.T)
        _assert_stack_matches_oracle(stack, 1e-9)


def test_sylvester_takes_stacks_only():
    stack = _sylvester_cases()
    asym = stack.copy()
    asym[4, 0, 1] += 1.0
    with pytest.raises(ValueError):
        sylvester_nsd(asym)
    with pytest.raises(ValueError):
        sylvester_nsd(stack[0])
    with pytest.raises(ValueError):
        sylvester_nsd(np.zeros((2, 2, 2)))


# ---------------------------------------------------------------------------
# B2 property sweep
# ---------------------------------------------------------------------------

def test_sample_omega2_respects_domain():
    budget = ConstantBudget(c1=1.0, c2=1.0)
    rng = np.random.default_rng(3)
    pts = sample_omega2(budget, 500, rng, model=QUARTER)
    u, v, L, A = pts.T
    assert np.all(u * v <= budget.delta * (1 + 1e-12))
    assert np.all(L <= budget.P * np.sqrt(u * v) * (1 + 1e-12))
    assert np.all((A >= 0) & (A <= 1))


def test_sample_omega2_rejects_an_empty_slab():
    # for beta = 1/4, phi(uv)/10 < P sqrt(uv) exactly when uv < (10 P)^4:
    # 1e-8 at P = 1e-3, below every sampled uv >= 1e-6, and 1e-4 at
    # P = 1e-2; at delta = 1e-7 no sampled uv is at most delta
    rng = np.random.default_rng(0)
    for fields in ({"P": 1e-3}, {"delta": 1e-7}):
        with pytest.raises(ValueError):
            sample_omega2(ConstantBudget(c1=1.0, c2=1.0, **fields), 10, rng,
                          model=QUARTER)
    pts = sample_omega2(ConstantBudget(c1=1.0, c2=1.0, P=1e-2), 10, rng,
                        model=QUARTER)
    u, v, L, A = pts.T
    assert pts.shape == (10, 4) and np.all(u * v < 1e-4)


def test_sample_omega2_gives_up_on_a_sliver_slab():
    # at P = 0.00317 the slab is non-empty only for uv < (10 P)^4 =
    # 1.0098e-6, a sliver above uv_floor = 1e-6 that log-uniform u and v
    # almost never reach; the sampler must raise, not spin
    def expire(signum, frame):
        raise TimeoutError("sample_omega2 still running after 5 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        with pytest.raises(ValueError, match="rate"):
            sample_omega2(ConstantBudget(c1=1.0, c2=1.0, P=0.00317), 10000,
                          np.random.default_rng(0), model=QUARTER)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_b2_property_check_bounds_and_concavity():
    fam = log_bump(1.0)
    report = b2_property_check(fam.epsilon_model(), default_budget(fam),
                               n_points=2000, seed=0)
    assert report["bound_upper"]["pass"]
    assert report["bound_lower"]["pass"]
    assert report["a_monotone"]["pass"]
    assert report["hessian_nsd"]["pass"]


def test_b2_combined_drop_fails_at_default_delta():
    # with delta = 1e-3 and the beta = 1/4 model the infimum over the
    # boundary L = phi(uv), A = 1 is 2^{-4/3} - 7 * 2^{-1/3} delta^{1/4},
    # which is about -0.59: the sweep must report this honestly
    fam = log_bump(1.0)
    report = b2_property_check(fam.epsilon_model(), default_budget(fam),
                               n_points=2000, seed=0)
    expected = 2 ** (-4 / 3) - 7.0 * 2 ** (-1 / 3) * 1e-3 ** 0.25
    assert not report["combined_drop"]["pass"]
    assert report["combined_drop"]["c"] == pytest.approx(
        expected, rel=1e-6, abs=0)
    # the L-derivative floor fails on the same edge
    assert not report["l_derivative"]["pass"]


def test_b2_combined_drop_passes_at_small_delta():
    fam = log_bump(1.0)
    budget = default_budget(fam, delta=1e-5)
    report = b2_property_check(fam.epsilon_model(), budget, n_points=2000,
                               seed=0)
    expected = 2 ** (-4 / 3) - 7.0 * 2 ** (-1 / 3) * 1e-5 ** 0.25
    assert report["combined_drop"]["pass"]
    assert report["combined_drop"]["c"] == pytest.approx(
        expected, rel=1e-6, abs=0)


def test_b2_property_check_loglog_model():
    model = loglog_bump(2.0, 0.1).epsilon_model()
    cap = 0.95 * float(model.phi(model.x_max))
    delta = 0.5 * (cap / 100.0) ** 2
    c2 = 1.0 + 1e4 * model.tail_mass(min(100.0 * math.sqrt(delta), cap))
    budget = ConstantBudget(c1=1.0, c2=c2, c_drop=1e-4, delta1=1e-5,
                            delta=delta)
    report = b2_property_check(model, budget, n_points=1000, seed=1)
    assert report["bound_lower"]["pass"]
    assert report["a_monotone"]["pass"]
    assert report["hessian_nsd"]["pass"]
    assert report["combined_drop"]["pass"]


# ---------------------------------------------------------------------------
# The auxiliary function T
# ---------------------------------------------------------------------------

def test_t_value_and_gradient():
    u, v, A = 0.25, 0.25, 0.5
    assert t_value(u, v, A) == pytest.approx(
        100.0 * 0.25 - 0.0625 / 1.5, rel=1e-12, abs=0)
    gu, gv, gA = t_grad(u, v, A)
    h = 1e-7
    assert gu == pytest.approx((t_value(u + h, v, A) - t_value(u - h, v, A)) / (2 * h),
                               rel=1e-6, abs=0)
    assert gA == pytest.approx(u * v / (A + 1) ** 2, rel=1e-12, abs=0)


def test_t_hessian_matches_fd():
    x0 = np.array([0.3, 0.6, 0.4])
    H = t_hessian(*x0)
    Hfd = hessian_fd(lambda x: t_value(*x), x0)
    assert np.allclose(H, Hfd, rtol=1e-4, atol=1e-6)


def _t_hessian_one_point(u, v, A):
    # the one-point formula in Python floats, with libm's pow
    c = T_CONSTANT
    s = math.sqrt(u * v)
    h_uv = c / 4 / s - 1.0 / (A + 1.0)
    h_uA, h_vA = v / (A + 1.0) ** 2, u / (A + 1.0) ** 2
    return np.array([[-(c / 4) * s / u ** 2, h_uv, h_uA],
                     [h_uv, -(c / 4) * s / v ** 2, h_vA],
                     [h_uA, h_vA, -2.0 * u * v / (A + 1.0) ** 3]])


def test_t_hessian_stack_equals_per_point():
    # a (u, v) grid over the relaxed domain {uv <= 2, 0 <= A <= 1}, with a
    # distinct A in every cell: numpy's array x ** 3 differs from libm's
    # pow in the last bit for a few percent of such A + 1, so the Python
    # float formula is matched to rounding, and each one-point call exactly
    U, V = (x.ravel() for x in np.meshgrid(np.geomspace(1e-3, 2.0, 47),
                                           np.geomspace(1e-3, 2.0, 53)))
    A = np.linspace(0.0, 1.0, U.size)
    keep = U * V <= 2.0
    points = list(zip(U[keep].tolist(), V[keep].tolist(), A[keep].tolist()))
    H = t_hessian(U[keep], V[keep], A[keep])
    assert H.shape == (len(points), 3, 3)
    assert np.array_equal(H, np.array([t_hessian(*p) for p in points]))
    np.testing.assert_allclose(H, [_t_hessian_one_point(*p) for p in points],
                               rtol=1e-15, atol=0)


def test_aux_T_check_passes():
    report = aux_T_check(n_points=4000, seed=0)
    assert report["pass"], report


def test_aux_T_equality_edge():
    # at A = 1 the derivative floor is an equality: T'_A = uv/4
    gA = t_grad(1.0, 2.0, 1.0)[2]
    assert gA == pytest.approx(2.0 / 4.0, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# Master Bellman function on dyadic nodes
# ---------------------------------------------------------------------------

def _nodes_from_tree(u, v, seq):
    a_levels = seq.intensity_levels()
    l_levels = l_intensity_levels(u, v, seq)

    def node(idx):
        return BellmanNode(u.average(idx), v.average(idx),
                           float(l_levels[idx.level][idx.pos]),
                           float(a_levels[idx.level][idx.pos]),
                           StepDistribution.of(u, idx))

    return node


def test_master_bellman_zero_weight():
    u = LeafWeight.constant(2, 0.0)
    v = LeafWeight.constant(2, 0.01)
    seq = CarlesonSequence.from_entries(2, [])
    node = _nodes_from_tree(u, v, seq)(ROOT)
    fam = log_bump(1.0)
    budget = default_budget(fam)
    b1 = B1(fam, budget.c1)
    b2 = B2(QUARTER, budget.c2)
    assert master_bellman_eval(node, b1, b2) == 0.0


def test_master_bellman_upper_bound():
    rng = np.random.default_rng(7)
    u = LeafWeight(3, rng.uniform(0.5, 1.5, 8) * 0.05)
    v = LeafWeight(3, rng.uniform(0.5, 1.5, 8) * 0.005)
    seq = CarlesonSequence(3, [rng.uniform(0.05, 0.3, 2 ** k) for k in range(4)])
    node = _nodes_from_tree(u, v, seq)(ROOT)
    fam = log_bump(1.0)
    budget = default_budget(fam)
    b1 = B1(fam, budget.c1)
    b2 = B2(QUARTER, budget.c2)
    val = master_bellman_eval(node, b1, b2)
    # B2 <= C2 u and the B1 integral <= C1 * integral N dt = C1 u
    assert 0.0 < val <= (budget.c1 + budget.c2) * node.u + 1e-12


def test_node_drop_positive_on_random_tree():
    rng = np.random.default_rng(0)
    u = LeafWeight(3, rng.uniform(0.5, 1.5, 8) * 0.05)
    v = LeafWeight(3, rng.uniform(0.5, 1.5, 8) * 0.005)
    seq = CarlesonSequence(3, [rng.uniform(0.05, 0.3, 2 ** k) for k in range(4)])
    node = _nodes_from_tree(u, v, seq)
    fam = log_bump(1.0)
    budget = default_budget(fam)
    b1 = B1(fam, budget.c1)
    b2 = B2(QUARTER, budget.c2)
    for idx in (ROOT, DyadicIndex(1, 0), DyadicIndex(1, 1), DyadicIndex(2, 3)):
        res = node_drop_check(node(idx), node(idx.children()[0]),
                              node(idx.children()[1]),
                              seq.levels[idx.level][idx.pos], b1, b2)
        assert res["pass"], (idx, res)
        assert res["drop"] > 0


def test_node_drop_zero_intensity_equal_children():
    # a = 0 at the root with identical children: the root drop is exactly
    # zero and required = 0, still a pass (A stays positive from below)
    u = LeafWeight.constant(2, 0.02)
    v = LeafWeight.constant(2, 0.02)
    seq = CarlesonSequence(2, [np.zeros(1), 0.2 * np.ones(2), 0.2 * np.ones(4)])
    node = _nodes_from_tree(u, v, seq)
    fam = log_bump(1.0)
    b1 = B1(fam, 2.0)
    b2 = B2(QUARTER, 2.0)
    res = node_drop_check(node(ROOT), node(DyadicIndex(1, 0)),
                          node(DyadicIndex(1, 1)), 0.0, b1, b2)
    assert res["pass"] and res["drop"] == pytest.approx(0.0, abs=1e-14)


def test_node_drop_rejects_bad_dynamics():
    u = LeafWeight.constant(1, 0.02)
    v = LeafWeight.constant(1, 0.02)
    seq = CarlesonSequence.from_entries(1, [])
    node = _nodes_from_tree(u, v, seq)
    fam = log_bump(1.0)
    b1 = B1(fam, 2.0)
    b2 = B2(QUARTER, 2.0)
    parent = node(ROOT)
    bad = BellmanNode(parent.u * 1.5, parent.v, parent.L, parent.A, parent.dist)
    with pytest.raises(DataIntegrityError):
        node_drop_check(bad, node(DyadicIndex(1, 0)), node(DyadicIndex(1, 1)),
                        0.0, b1, b2)
