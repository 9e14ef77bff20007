"""Tests for bump families, companion functions and Orlicz norms."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicbump import bumps
from dyadicbump.bumps import (LEVEL_GROUP, BumpFamily,
                              DivergentIntegralError, EpsilonModel,
                              curv_translate, integrability_phi, log_bump,
                              loglog_bump, orlicz_norm_def,
                              orlicz_norm_def_batch, orlicz_norm_dist,
                              orlicz_norm_levels, power_bump, psi_gap_check,
                              quad, self_improvement_check)
from dyadicbump.dyadic import ROOT, DyadicIndex, LeafWeight


# ---------------------------------------------------------------------------
# Psi: closed forms against the parametric construction
# ---------------------------------------------------------------------------

def psi_parametric(family: BumpFamily, s: float) -> float:
    """The parametric definition of Psi, an oracle for the closed forms:
    solve s = 1/(Phi(t) Phi'(t)) for t >= 1 and return Phi'(t)."""
    if s <= 0:
        raise ValueError("s must be positive")

    def h(t):
        return float(family.phi(t)) * float(family.phi_prime(t))
    s_cut = 1.0 / h(1.0)
    if s > s_cut * (1 + 1e-12):
        raise ValueError(f"s={s:.3e} outside parametric range (0, {s_cut:.3e}]")
    target = 1.0 / s
    lo, hi = 1.0, 2.0
    for _ in range(2000):
        if h(hi) >= target:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ValueError("parametric map failed to bracket (Phi not convex?)")
    if h(lo) > h(hi):
        raise ValueError("parametric map is not monotone for this Phi")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if h(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return float(family.phi_prime(math.sqrt(lo * hi)))


def test_psi_linear_bump_is_one():
    fam = power_bump(1)
    for s in (0.01, 0.3, 1.0):
        assert fam.psi(s) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert psi_parametric(fam, s) == pytest.approx(1.0, rel=1e-12, abs=0)


def test_psi_quadratic_bump_closed_form():
    fam = power_bump(2)
    for s in (0.005, 0.05, 0.4):
        expect = 2.0 * (2.0 * s) ** (-1 / 3)
        assert fam.psi(s) == pytest.approx(expect, rel=1e-12, abs=0)
        # the parametric solve is an independent oracle for the closed form
        assert psi_parametric(fam, s) == pytest.approx(
            expect, rel=1e-10, abs=0)


def test_psi_log_bump_asymptotics():
    fam = log_bump(1.0)
    ratios = [fam.psi(s) / math.log(1 / s) ** 2 for s in np.geomspace(1e-3, 1e-12, 12)]
    assert 0.9 < min(ratios) and max(ratios) < 3.0
    # parametric and closed forms stay within bounded ratio of each other
    for s in (1e-4, 1e-8, 1e-12):
        q = psi_parametric(fam, s) / fam.psi(s)
        assert 0.1 < q < 10.0


def test_psi_domain_error():
    for fam in (power_bump(2), log_bump(1.0), loglog_bump(2.0, 0.1)):
        for s in (-1.0, 0.0):
            with pytest.raises(ValueError):
                fam.psi(s)


# six catalog families: two of each tag
DERIVATIVE_FAMILIES = [power_bump(1.5), power_bump(2), log_bump(1.0),
                       log_bump(0.3), loglog_bump(2.0, 0.1),
                       loglog_bump(1.0, 0.5)]
FD_STEP = 1e-6


@pytest.mark.parametrize("fam", DERIVATIVE_FAMILIES, ids=repr)
def test_phi_prime_matches_finite_difference(fam):
    t = np.geomspace(1.01, 1e12, 300)
    fd = (fam.phi(t * (1 + FD_STEP)) - fam.phi(t * (1 - FD_STEP))) \
        / (2 * FD_STEP * t)
    assert fam.phi_prime(t) == pytest.approx(fd, rel=1e-8, abs=0)


@pytest.mark.parametrize("fam", DERIVATIVE_FAMILIES, ids=repr)
def test_psi_logderiv_matches_finite_difference(fam):
    x = np.geomspace(1e-250, 0.99, 300)
    fd = (np.log(fam.psi(x * (1 + FD_STEP)))
          - np.log(fam.psi(x * (1 - FD_STEP)))) / (2 * FD_STEP)
    assert fam.psi_logderiv(x) == pytest.approx(fd, rel=1e-5, abs=0)


def test_psi_monotone_and_s_psi_increasing():
    for fam in (power_bump(2), log_bump(1.0), loglog_bump(2.0, 0.1)):
        s = np.geomspace(1e-12, 1.0, 500)
        psi = fam.psi(s)
        assert np.all(np.diff(psi) <= 1e-12 * psi[:-1]), fam
        spsi = s * psi
        assert np.all(np.diff(spsi) >= -1e-12 * spsi[1:]), fam


def test_psi_constant_extension_above_one():
    fam = log_bump(1.0)
    assert fam.psi(1.0) == fam.psi(5.0) == fam.psi(100.0)
    assert fam.psi(1.0) > 0


def test_psi_gap_hypothesis_sampled():
    assert psi_gap_check(log_bump(1.0), bound=1.0)["pass"]
    assert psi_gap_check(loglog_bump(2.0, 0.1), bound=4.0)["pass"]


# ---------------------------------------------------------------------------
# Integrability verdicts
# ---------------------------------------------------------------------------

def test_integrability_phi_linear_infinite():
    assert integrability_phi(power_bump(1))["verdict"] == "infinite"


def test_integrability_phi_log_bump():
    # antiderivative of 1/(t (c+log t)^2) is -1/(c+log t): value 1/c exactly
    res = integrability_phi(log_bump(1.0))
    assert res["verdict"] == "finite"
    assert res["value"] == pytest.approx(0.5, rel=1e-8, abs=0)
    assert res["tail"] == pytest.approx(
        1.0 / (2.0 + math.log(1e6)), rel=1e-12, abs=0)


def test_integrability_phi_loglog_finite():
    res = integrability_phi(loglog_bump(2.0, 0.1))
    assert res["verdict"] == "finite"
    assert res["value"] > 0


# ---------------------------------------------------------------------------
# The composite Gauss-Legendre integrator
# ---------------------------------------------------------------------------

def test_quad_exact_for_polynomials_on_one_panel():
    # an interval of unit width is one panel of the 20-node rule
    rng = np.random.default_rng(0)
    a, b = -0.3, 0.7
    for degree in range(40):
        # coefficients in the panel's own variable, mapped onto [-1, 1]
        c = rng.normal(size=degree + 1)
        poly = np.polynomial.Polynomial(c, domain=[a, b])
        exact = poly.integ()(b) - poly.integ()(a)
        assert quad(poly, a, b)[0] == pytest.approx(exact, rel=1e-13,
                                                    abs=1e-13)


def test_quad_exponential_over_half_line():
    # x = e^s: int_0^inf e^-x dx = int e^(s - e^s) ds, negligible outside
    value, error = quad(lambda s: np.exp(s - np.exp(s)), -40.0, 5.0)
    assert value == pytest.approx(1.0, rel=1e-13, abs=0)
    assert error <= 1e-13


@pytest.mark.parametrize("z", [1e-10, 1e-3, 0.5, 8.0])
def test_quad_integrable_singularity(z):
    # y = z e^-r, r = e^s: int_0^z y^(-2/3) dy = int (z e^-r)^(1/3) r ds
    def body(s):
        r = np.exp(s)
        return (z * np.exp(-r)) ** (1.0 / 3.0) * r
    value, _ = quad(body, -40.0, 8.0)
    assert value == pytest.approx(3.0 * z ** (1.0 / 3.0), rel=1e-13, abs=0)


@pytest.mark.parametrize("f, a, b, exact", [
    (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
    (np.sqrt, 0.0, 3.0, 2.0 * 3.0 ** 1.5 / 3.0),
    (lambda x: np.cos(30.0 * x), 0.0, 1.0, math.sin(30.0) / 30.0),
    (lambda x: np.cos(30.0 * x), 0.0, 2.5, math.sin(75.0) / 30.0),
    (lambda x: 1.0 / (1.0 + x * x), -5.0, 5.0, 2.0 * math.atan(5.0)),
    (lambda x: np.abs(x - 0.3), 0.0, 1.0, 0.29),
])
def test_quad_error_bounds_true_error(f, a, b, exact):
    value, error = quad(f, a, b)
    assert abs(value - exact) <= error


def test_epsilon_integrability_power():
    res = log_bump(1.0).epsilon_model().integral_over_t()  # eps(t) = t^{-1/4}
    assert res["verdict"] == "finite"
    assert res["value"] == pytest.approx(4.0 * 2.0 ** -0.25, rel=1e-12, abs=0)


def test_epsilon_integrability_logpow_threshold():
    for kappa, verdict in ((1.5, "finite"), (1.0, "infinite"), (0.5, "infinite")):
        res = EpsilonModel("logpow", kappa=kappa).integral_over_t()
        assert res["verdict"] == verdict
    # (1-delta)*sigma > 1 is exactly the finite regime for the loglog tag
    for sigma, verdict in ((2.0, "finite"), (1.0, "infinite")):
        res = loglog_bump(sigma, 0.1).epsilon_model().integral_over_t()
        assert res["verdict"] == verdict


def test_epsilon_integrability_constant_infinite():
    assert EpsilonModel("const").integral_over_t()["verdict"] == "infinite"


# ---------------------------------------------------------------------------
# Orlicz norms, both methods
# ---------------------------------------------------------------------------

def test_norm_def_linear_is_average():
    w = LeafWeight(2, [4.0, 2.0, 1.0, 1.0])
    assert orlicz_norm_def(w, ROOT, power_bump(1)) == pytest.approx(
        2.0, rel=1e-10, abs=0)


def test_norm_def_power_constant():
    w = LeafWeight.constant(3, 3.0)
    assert orlicz_norm_def(w, ROOT, power_bump(3)) == pytest.approx(
        3.0, rel=1e-10, abs=0)


def test_norm_def_quadratic_two_leaf():
    w = LeafWeight(1, [2.0, 0.0])
    assert orlicz_norm_def(w, ROOT, power_bump(2)) == pytest.approx(
        math.sqrt(2), rel=1e-10, abs=0)


def test_norm_def_zero_weight():
    assert orlicz_norm_def(LeafWeight.constant(2, 0.0), ROOT, power_bump(2)) == 0.0


def test_norm_def_batch_matches_scalar():
    rng = np.random.default_rng(2)
    rows = rng.uniform(0, 5, (6, 8))
    rows[2] = 0.0
    fam = log_bump(1.0)
    batch = orlicz_norm_def_batch(rows[None], fam)[0]
    for i, row in enumerate(rows):
        assert batch[i] == pytest.approx(
            orlicz_norm_def(LeafWeight(3, row), ROOT, fam), rel=1e-10, abs=1e-15)


BITWISE_FAMILIES = [power_bump(2), log_bump(1.0), loglog_bump(2.0, 0.1)]


def _weights(rng, count, n):
    """Lognormal step weights with a zero row, zero leaves and tied leaves."""
    w = rng.lognormal(0.0, 1.5, (count, n))
    w[1] = 0.0
    w[2, ::3] = 0.0
    w[3] = np.round(w[3])
    w[4, n // 2:] = w[4, 0]
    return w


@pytest.mark.parametrize("fam", BITWISE_FAMILIES, ids=lambda f: f.tag)
def test_norm_def_corpus_form_equals_per_row(fam):
    # one block per weight: each stops where a single-row call would
    rng = np.random.default_rng(5)
    for depth in (0, 3, 6):
        w = _weights(rng, 12, 2 ** depth)
        corpus = orlicz_norm_def_batch(w[:, None, :], fam)
        assert corpus.shape == (12, 1)
        per_row = [orlicz_norm_def(LeafWeight(depth, row), ROOT, fam)
                   for row in w]
        assert np.array_equal(corpus[:, 0], per_row)


def _blocks(rng, n):
    """Blocks of 8 rows: constant rows, single-spike rows, half of each,
    lognormal rows and zero rows.  For power and log bumps at n = 64 a
    constant row meets BISECT_TOL one step before a spike row does."""
    const = np.repeat(rng.lognormal(0.0, 1.0, (8, 1)), n, axis=1)
    spike = np.zeros((8, n))
    spike[np.arange(8), rng.integers(0, n, 8)] = rng.lognormal(0.0, 1.0, 8)
    mixed = np.concatenate((const[:4], spike[4:]))
    return np.stack((const, spike, mixed, _weights(rng, 8, n),
                     np.zeros((8, n))))


@pytest.mark.parametrize("fam", BITWISE_FAMILIES, ids=lambda f: f.tag)
def test_norm_def_blocks_equal_separate_calls(fam):
    rng = np.random.default_rng(6)
    for n in (1, 4, 64):
        blocks = _blocks(rng, n)
        norms = orlicz_norm_def_batch(blocks, fam)
        assert norms.shape == (5, 8)
        for block, got in zip(blocks, norms):
            assert np.array_equal(got, orlicz_norm_def_batch(block[None], fam)[0])


@pytest.mark.parametrize("fam", BITWISE_FAMILIES[:2], ids=lambda f: f.tag)
def test_norm_def_blocks_stop_at_their_own_step(fam):
    # the data can tell the block rule from a joint or a per-row stop
    const, spike, mixed = _blocks(np.random.default_rng(6), 64)[:3]
    norms = orlicz_norm_def_batch(np.stack((const, spike)), fam)
    joint = orlicz_norm_def_batch(np.concatenate((const, spike))[None], fam)[0]
    assert not np.array_equal(joint, norms.ravel())
    per_row = orlicz_norm_def_batch(mixed[:, None, :], fam)[:, 0]
    assert not np.array_equal(orlicz_norm_def_batch(mixed[None], fam)[0], per_row)


class _CountedPhi:
    """A bump that counts its Phi calls, all `_luxemburg` reads of it."""

    def __init__(self, family):
        self.family, self.calls = family, 0

    def phi(self, t):
        self.calls += 1
        return self.family.phi(t)


@pytest.mark.parametrize("fam", BITWISE_FAMILIES, ids=lambda f: f.tag)
def test_luxemburg_stacks_of_different_n_equal_separate_calls(fam):
    # constant rows of 4 leaves beside an all-zero block, and spike rows of
    # 64 leaves: in one call the blocks stop at different steps, and a
    # stopped block's frozen brackets keep each stack's bytes those of a
    # call on it alone
    rng = np.random.default_rng(6)
    const, spike = _blocks(rng, 4)[0], _blocks(rng, 64)[1]
    stacks = [np.stack((const, np.zeros_like(const))), spike[None]]
    joint = bumps._luxemburg(stacks, fam)
    calls = []
    for stack, got in zip(stacks, joint):
        counted = _CountedPhi(fam)
        assert got.tobytes() == bumps._luxemburg([stack], counted)[0].tobytes()
        calls.append(counted.calls)
    assert np.array_equal(joint[0][1], np.zeros(8))
    if fam.tag == "power":
        # a power bump's first brackets (the largest leaf, 1e-6 times the
        # mean) already hold, so the calls differ only in bisection steps
        assert calls[0] != calls[1]


def test_norm_def_batch_takes_only_block_stacks():
    with pytest.raises(ValueError):
        orlicz_norm_def_batch(np.ones((3, 4)), log_bump(1.0))


def test_norm_def_batch_rejects_rows_without_leaves():
    # a weight with no leaves has no norm: no 0/0 row mean, no zero norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            orlicz_norm_def_batch(np.zeros((2, 3, 0)), log_bump(1.0))


@pytest.mark.parametrize("fam", BITWISE_FAMILIES, ids=lambda f: f.tag)
def test_norm_def_zero_row_and_block_give_zero(fam):
    rows = _weights(np.random.default_rng(7), 6, 8)
    assert orlicz_norm_def_batch(rows[None], fam)[0, 1] == 0.0
    blocks = np.stack((rows, np.zeros_like(rows)))
    norms = orlicz_norm_def_batch(blocks, fam)
    assert norms[0, 1] == 0.0 and np.all(norms[0, np.arange(6) != 1] > 0)
    assert np.array_equal(norms[1], np.zeros(6))
    assert np.array_equal(orlicz_norm_def_batch(np.zeros((2, 3, 4)), fam),
                          np.zeros((2, 3)))


def _level_weights(rng, depth):
    """Three leaf weights: lognormal with every third leaf zero, a band
    weight (constant on each (2^-k-1, 2^-k]) that is zero on the bands
    below depth // 2, and the zero weight, whose rows are all dead."""
    leaves = 2 ** depth
    lognormal = rng.lognormal(0.0, 1.5, leaves)
    lognormal[::3] = 0.0
    bands = rng.lognormal(0.0, 1.0, depth + 1)
    bands[depth // 2 + 1:] = 0.0
    band = bands[depth - np.array([i.bit_length() for i in range(leaves)])]
    return np.stack((lognormal, band, np.zeros(leaves)))


@pytest.mark.parametrize("fam", BITWISE_FAMILIES, ids=lambda f: f.tag)
@pytest.mark.parametrize("depth", [0, 1, 4, 9, 11])
def test_norm_levels_equal_per_level_batches(fam, depth):
    # each (weight, level) block keeps the bits of its own batch call, also
    # where the levels share a bisection: up to depth 4 all of them do, and
    # at depth 11 they go two levels to a bisection
    values = _level_weights(np.random.default_rng(depth), depth)
    levels = orlicz_norm_levels(values, fam)
    assert len(levels) == depth + 1
    for k, got in enumerate(levels):
        want = orlicz_norm_def_batch(values.reshape(3, 2 ** k, -1), fam)
        assert got.shape == (3, 2 ** k)
        assert np.array_equal(got, want)
    assert np.array_equal(levels[-1][2], np.zeros(2 ** depth))


@pytest.mark.parametrize("depth, sizes", [
    (0, [1]), (9, [10]), (10, [8, 3]), (12, [2] * 6 + [1]), (14, [1] * 15)])
def test_norm_levels_group_at_most_level_group_values(monkeypatch, depth,
                                                      sizes):
    # u and v, as bump_condition passes them: a tree of depth <= 9 is one
    # bisection, and from depth 13 on each level has its own
    calls = []

    def spy(stacks, family):
        calls.append(sum(s.size for s in stacks))
        return luxemburg(stacks, family)

    luxemburg = bumps._luxemburg
    monkeypatch.setattr(bumps, "_luxemburg", spy)
    orlicz_norm_levels(np.zeros((2, 2 ** depth)), log_bump(1.0))
    assert calls == [2 ** (depth + 1) * n for n in sizes]
    assert max(calls) <= max(LEVEL_GROUP, 2 ** (depth + 1))


@pytest.mark.parametrize("values", [np.ones(4), np.ones((2, 3)),
                                    np.ones((0, 4)), np.ones((1, 2, 2))],
                         ids=["1d", "not-power-of-two", "no-blocks", "3d"])
def test_norm_levels_take_only_leaf_arrays(values):
    with pytest.raises(ValueError):
        orlicz_norm_levels(values, log_bump(1.0))


@given(st.floats(0.01, 100.0))
@settings(max_examples=30, deadline=None)
def test_norm_def_homogeneous(c):
    w = LeafWeight(2, [4.0, 2.0, 1.0, 0.5])
    fam = log_bump(1.0)
    base = orlicz_norm_def(w, ROOT, fam)
    assert orlicz_norm_def(w.scaled(c), ROOT, fam) == pytest.approx(
        c * base, rel=1e-10, abs=0)


def test_norm_def_monotone():
    rng = np.random.default_rng(4)
    lo = rng.uniform(0, 2, 8)
    hi = lo + rng.uniform(0, 2, 8)
    fam = log_bump(1.0)
    for f in (power_bump(2), fam):
        a = orlicz_norm_def(LeafWeight(3, lo), ROOT, f)
        b = orlicz_norm_def(LeafWeight(3, hi), ROOT, f)
        assert a <= b * (1 + 1e-10)


def test_norm_dist_trivial_cases():
    # constant weight: N = 1 on (0, c], value c * Psi(1)
    fam = log_bump(1.0)
    w = LeafWeight.constant(2, 3.0)
    assert orlicz_norm_dist(w, ROOT, fam) == pytest.approx(3.0 * float(fam.psi(1.0)))
    # Psi = 1: distribution form collapses to the average
    assert orlicz_norm_dist(LeafWeight(1, [2.0, 0.0]), ROOT, power_bump(1)) == 1.0


def test_norm_equivalence_log_bump_corpus():
    rng = np.random.default_rng(12345)
    fam = log_bump(1.0)
    ratios = []
    for _ in range(300):
        depth = int(rng.integers(1, 7))
        w = LeafWeight(depth, rng.exponential(1.0, 2 ** depth))
        nd = orlicz_norm_def(w, ROOT, fam)
        nn = orlicz_norm_dist(w, ROOT, fam)
        ratios.append(nn / nd)
    assert 1 / 20 < min(ratios) and max(ratios) < 20


def test_self_improvement_skip_on_zero():
    assert self_improvement_check(LeafWeight.constant(2, 0.0), ROOT, log_bump(1.0)) is None


def test_self_improvement_scale_invariant():
    fam = log_bump(1.0)
    w = LeafWeight(3, [8, 1, 1, 1, 0.5, 0.5, 0.5, 0.5])
    r1 = self_improvement_check(w, ROOT, fam)["ratio"]
    r2 = self_improvement_check(w.scaled(7.0), ROOT, fam)["ratio"]
    assert r1 == pytest.approx(r2, rel=1e-9, abs=0)


def test_self_improvement_bounded_over_sweep():
    rng = np.random.default_rng(99)
    fam = log_bump(1.0)
    worst = 0.0
    for _ in range(200):
        w = LeafWeight(2, rng.exponential(1.0, 4) + 1e-6)
        res = self_improvement_check(w, ROOT, fam)
        worst = max(worst, res["ratio"])
    assert worst < 20.0


def test_self_improvement_tall_leaf_stress():
    fam = log_bump(1.0)
    vals = np.full(16, 1e-3)
    vals[0] = 1e4
    res = self_improvement_check(LeafWeight(4, vals), ROOT, fam)
    assert res["ratio"] <= 20.0


# ---------------------------------------------------------------------------
# The map phi and its inverse
# ---------------------------------------------------------------------------

def test_phi_identity_for_constant_eps():
    model = EpsilonModel("const")
    assert model.phi(0.3) == pytest.approx(0.3)
    assert model.inverse(0.3) == pytest.approx(0.3)


def test_phi_power_closed_form():
    model = log_bump(1.0).epsilon_model()  # beta = 1/4
    assert model.phi(0.2) == pytest.approx(0.2 ** 0.75, rel=1e-14, abs=0)
    assert model.inverse(0.01) == pytest.approx(
        0.01 ** (4 / 3), rel=1e-14, abs=0)


def test_phi_loglog_roundtrip():
    model = loglog_bump(2.0, 0.1).epsilon_model()
    for x in np.geomspace(1e-200, model.x_max, 25):
        y = model.phi(x)
        assert abs(model.phi(model.inverse(y)) - y) <= 1e-12 * y


def test_inverse_range_cap():
    assert EpsilonModel("power", beta=0.25).z_cap == math.inf
    assert EpsilonModel("const").z_cap == math.inf
    model = loglog_bump(2.0, 0.1).epsilon_model()
    assert model.z_cap == pytest.approx(
        0.95 * model.phi(model.x_max), rel=1e-15, abs=0)
    assert model.phi(model.inverse(model.z_cap)) == pytest.approx(model.z_cap,
                                                                  rel=1e-12, abs=0)


def test_epsilon_model_json_holds_used_parameters():
    assert EpsilonModel("power", beta=0.25, kappa=3.0).to_json() == {
        "kind": "power", "beta": 0.25, "coeff": 1.0}
    assert EpsilonModel("logpow", kappa=1.8, coeff=0.5).to_json() == {
        "kind": "logpow", "kappa": 1.8, "coeff": 0.5}
    assert EpsilonModel("const", coeff=2.0).to_json() == {"kind": "const",
                                                          "coeff": 2.0}


@pytest.mark.parametrize("kind, params", [
    ("power", {}), ("power", {"beta": 0.0}), ("power", {"beta": 1.0}),
    ("logpow", {}), ("logpow", {"kappa": 0.0}), ("nope", {}),
    ("power", {"beta": 0.25, "coeff": 0.0}),
    ("logpow", {"kappa": 1.5, "coeff": -1.0}),
    ("const", {"coeff": 0.0}), ("const", {"coeff": math.nan}),
], ids=["power-no-beta", "power-beta-0", "power-beta-1", "logpow-no-kappa",
        "logpow-kappa-0", "unknown-kind", "power-coeff-0", "logpow-coeff-neg",
        "const-coeff-0", "const-coeff-nan"])
def test_epsilon_model_rejects_bad_parameters(kind, params):
    # a missing beta must not reach a comparison with None, and phi divides
    # by coeff and the logpow solve takes its log
    with pytest.raises(ValueError):
        EpsilonModel(kind, **params)


def test_phi_inverse_convex_second_difference():
    model = loglog_bump(2.0, 0.1).epsilon_model()
    y = np.geomspace(1e-8, model.phi(model.x_max) / 4, 40)
    h = 1e-3
    second = model.inverse(y * (1 + h)) - 2 * model.inverse(y) + model.inverse(y * (1 - h))
    assert np.all(second > 0)
    assert np.all(model.f_second(y) > 0)
    assert np.all(model.f_prime(y) > 0)


def test_phi_inverse_domain_error():
    model = loglog_bump(2.0, 0.1).epsilon_model()
    with pytest.raises(ValueError):
        model.inverse(model.phi(model.x_max) * 10.0)


# ---------------------------------------------------------------------------
# Tail mass W and the two-exponent translation
# ---------------------------------------------------------------------------

def test_tail_mass_power_closed_vs_quad():
    model = log_bump(1.0).epsilon_model()
    for z in (0.01, 0.3, 2.0):
        assert model.tail_mass(z) == pytest.approx(
            model.tail_mass_quad(z), rel=1e-8, abs=0)


def test_tail_mass_power_explicit():
    # beta = 1/4: W(z) = 3 z^{1/3}
    model = EpsilonModel("power", beta=0.25)
    assert model.tail_mass(0.008) == pytest.approx(3.0 * 0.2, rel=1e-14, abs=0)


def test_tail_mass_logpow_closed_vs_quad():
    model = loglog_bump(2.0, 0.1).epsilon_model()
    for z in np.geomspace(1e-10, 0.35, 12):
        assert model.tail_mass(z) == pytest.approx(
            model.tail_mass_quad(z), rel=5e-3, abs=0)


@pytest.mark.parametrize("model", [
    loglog_bump(2.0, 0.1).epsilon_model(),
    EpsilonModel("logpow", kappa=1.8, coeff=0.5),
    EpsilonModel("logpow", kappa=1.8, coeff=2.0),
    EpsilonModel("logpow", kappa=1.5),
    EpsilonModel("logpow", kappa=3.0),
])
def test_tail_mass_logpow_quad_tight_and_certified(model):
    # the grid stops at phi's range where that ends below 0.35
    for z in np.geomspace(1e-10, min(0.35, model.z_cap), 12):
        quad = model.tail_mass_quad(z)
        assert not quad.uncertified
        assert quad.error <= 1e-10 * quad
        assert model.tail_mass(z) == pytest.approx(quad, rel=1e-10, abs=0)


def test_tail_mass_quad_flags_a_window_it_cannot_close():
    # kappa = 1.02: the mass beyond any finite s-window decays like
    # r^(-0.02), so the omitted piece is bounded but not below tolerance
    model = EpsilonModel("logpow", kappa=1.02)
    quad = model.tail_mass_quad(1e-3)
    assert quad.uncertified
    assert 0.0 < model.tail_mass(1e-3) - quad <= quad.error


def test_tail_mass_quad_range():
    model = loglog_bump(2.0, 0.1).epsilon_model()
    assert model.tail_mass_quad(0.0) == 0.0
    with pytest.raises(ValueError):
        model.tail_mass_quad(1.01 * float(model.phi(model.x_max)))
    with pytest.raises(DivergentIntegralError):
        EpsilonModel("logpow", kappa=0.9).tail_mass_quad(1e-3)


@pytest.mark.parametrize("model", [
    EpsilonModel("logpow", kappa=1.8, coeff=0.5),
    EpsilonModel("logpow", kappa=1.8, coeff=2.0),
    # the two-exponent counterpart has kappa = 0.9, where W diverges; its
    # square (the model the "ours" integrability verdict reads) has
    # kappa = 1.8 and coeff = 2^(-1.8)
    loglog_bump(2.0, 0.1).epsilon_model().curv_counterpart().squared(),
])
@pytest.mark.parametrize("z", [1e-10, 1e-4, 1e-2])
def test_tail_mass_logpow_coefficient_scaling(model, z):
    # phi_c = phi_1 / c, so f_c(y) = f_1(c y) and W_c(z) = c W_1(c z)
    unit = EpsilonModel("logpow", kappa=model.kappa)
    c = model.coeff
    assert model.tail_mass(z) == pytest.approx(c * unit.tail_mass(c * z),
                                               rel=1e-12, abs=0)


LOGPOW_MODELS = [loglog_bump(2.0, 0.1).epsilon_model(),
                 EpsilonModel("logpow", kappa=1.5, coeff=0.5),
                 EpsilonModel("logpow", kappa=3.0)]


def _logpow_grid(model):
    z = np.geomspace(1e-250, min(model.z_cap, 0.35), 300)
    return np.concatenate([z, [0.0, -1.0, model.z_cap]])


@pytest.mark.parametrize("model", LOGPOW_MODELS)
def test_logpow_closed_form_matches_quad_to_rounding(model):
    # the closed form takes f from the Newton solve of `inverse`, so it
    # agrees with the independent quadrature to a few ulps
    for z in np.geomspace(1e-10, min(0.35, model.z_cap), 12):
        assert model.tail_mass(z) == pytest.approx(model.tail_mass_quad(z),
                                                   rel=2e-15, abs=0.0)


@pytest.mark.parametrize("model", LOGPOW_MODELS)
def test_logpow_vector_path_matches_points(model):
    # one Newton solve for the whole array gives each point its own value
    z = _logpow_grid(model)
    w = model.tail_mass(z)
    assert np.array_equal(w, [model.tail_mass(s) for s in z])
    assert np.array_equal(w[z <= 0], [0.0, 0.0])
    y = z[z >= 0]
    assert np.array_equal(model.inverse(y), [model.inverse(s) for s in y])


@pytest.mark.parametrize("model", LOGPOW_MODELS)
def test_logpow_vector_path_keeps_shape(model):
    z = _logpow_grid(model)[:300]
    for arg in (z[7], z, z.reshape(20, 15)):
        assert model.tail_mass(arg).shape == np.shape(arg)
        assert np.shape(model.inverse(arg)) == np.shape(arg)
    assert model.tail_mass(np.float64(0.0)).shape == ()
    assert np.array_equal(model.tail_mass(z.reshape(20, 15)).ravel(),
                          model.tail_mass(z))


@pytest.mark.parametrize("model", LOGPOW_MODELS)
def test_logpow_vector_path_range_error(model):
    above = 1.01 * float(model.phi(model.x_max))
    for arg in (above, np.array([1e-3, above])):
        with pytest.raises(ValueError):
            model.tail_mass(arg)
        with pytest.raises(ValueError):
            model.inverse(arg)


def test_tail_mass_divergent_cases():
    with pytest.raises(DivergentIntegralError):
        EpsilonModel("const").tail_mass(1.0)
    with pytest.raises(DivergentIntegralError):
        EpsilonModel("logpow", kappa=0.9).tail_mass(0.1)
    with pytest.raises(DivergentIntegralError):  # kappa = 0.9, coeff 2^(-0.9)
        loglog_bump(2.0, 0.1).epsilon_model().curv_counterpart().tail_mass(0.1)
    # truncated version stays defined
    assert EpsilonModel("const").truncated_tail_mass(1.0, 1e-3) == pytest.approx(
        math.log(1e3), rel=1e-12, abs=0)


def test_truncated_tail_mass_is_one_array_log():
    # numpy's array log differs from math.log in the last bit on about 1 in
    # 10^4 of these
    model = EpsilonModel("const", coeff=0.7)
    z = 1e-12 * np.exp(np.random.default_rng(0).uniform(0.0, 40.0, 200_000))
    z = z.reshape(400, 500)
    w = model.truncated_tail_mass(z, 1e-12)
    assert w.shape == z.shape
    np.testing.assert_allclose(w.ravel(), [0.7 * math.log(s / 1e-12)
                                           for s in z.ravel().tolist()],
                               rtol=1e-15, atol=0)
    assert type(model.truncated_tail_mass(2.0, 1e-12)) is float
    # z <= 0 raises, as math.log does, where np.log would warn
    for bad in (0.0, -1.0, np.array([1.0, 0.0])):
        with pytest.raises(ValueError):
            model.truncated_tail_mass(bad, 1e-12)


def test_truncated_tail_mass_is_const_only():
    with pytest.raises(ValueError):
        EpsilonModel("power", beta=0.25).truncated_tail_mass(1.0, 1e-3)


def test_curv_translate_power_fixed_point():
    res = curv_translate(EpsilonModel("power", beta=0.25))
    t = np.array([4.0, 16.0, 100.0])
    assert res["epsilon_curv"] == {"kind": "power", "beta": 0.25, "coeff": 1.0}
    assert np.allclose(EpsilonModel(**res["epsilon_curv"]).eps(t), t ** -0.25)
    assert res["regime"] == "both"


def test_curv_translate_logpow_algebra():
    res = curv_translate(EpsilonModel("logpow", kappa=1.5))
    t = np.array([3.0, 10.0, 100.0])
    curv = EpsilonModel(**res["epsilon_curv"])
    assert np.allclose(curv.eps(t), (2 * np.log(t)) ** -0.75)
    # kappa/2 = 0.75 <= 1: only the squared integral converges
    assert res["integral_ours"]["verdict"] == "finite"
    assert res["integral_curv"]["verdict"] == "infinite"
    assert res["regime"] == "ours-only"


@pytest.mark.parametrize("beta", [0.5, 0.75])
def test_squared_power_needs_beta_below_half(beta):
    with pytest.raises(ValueError):
        EpsilonModel("power", beta=beta).squared()


def test_curv_translate_from_family():
    res = curv_translate(log_bump(1.0).epsilon_model())
    assert res["regime"] == "both"


# ---------------------------------------------------------------------------
# Family construction and serialization
# ---------------------------------------------------------------------------

def test_family_validation():
    with pytest.raises(ValueError):
        BumpFamily("power", p=0.5)
    with pytest.raises(ValueError):
        BumpFamily("log", sigma=-1.0)
    with pytest.raises(ValueError):
        BumpFamily("loglog", sigma=1.0, delta=1.5)
    with pytest.raises(ValueError):
        BumpFamily("custom")  # only the three catalog tags exist


def test_family_phi_increasing_convex_sampled():
    t = np.geomspace(1.0, 1e9, 300)
    for fam in (power_bump(2), log_bump(1.0), loglog_bump(2.0, 0.1)):
        phi = fam.phi(t)
        assert np.all(np.diff(phi) > 0)
        # convexity in t on a linear grid
        tt = np.linspace(1.0, 50.0, 200)
        vals = fam.phi(tt)
        assert np.all(vals[:-1][1:] <= (vals[:-2] + vals[2:]) / 2 + 1e-9)


def test_family_json_roundtrip(tmp_path):
    for fam in (power_bump(2), log_bump(1.0), loglog_bump(2.0, 0.1)):
        blob = fam.to_json()
        again = BumpFamily.from_json(blob)
        assert again.to_json() == blob
    fam = loglog_bump(2.0, 0.3)
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(fam.to_json()))
    again = BumpFamily.from_json(json.loads(path.read_text()))
    assert again.to_json() == fam.to_json()
    assert again.phi(7.0) == fam.phi(7.0)


def test_family_json_rejects_keys_its_tag_does_not_take():
    with pytest.raises(ValueError):
        BumpFamily.from_json({"tag": "loglog", "sigma": 2.0, "detla": 0.5})
    with pytest.raises(ValueError):
        BumpFamily.from_json({"tag": "log", "sigma": 1.0, "delta": 0.5})


def test_companion_families():
    assert log_bump(1.0).companion().sigma == 0.5
    comp = loglog_bump(2.0, 0.1).companion()
    assert comp.sigma == pytest.approx(0.2)
    assert power_bump(2).companion() is None
