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
from dyadicbump.dyadic import ROOT, DyadicIndex, LeafWeight, StepDistribution
from dyadicbump.sparse import bump_condition


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
    """A bump that counts its Phi calls and the values handed to them;
    `phi` and `linear_up_to` are all `_luxemburg` reads of it."""

    def __init__(self, family):
        self.family, self.calls, self.values = family, 0, 0
        self.linear_up_to = family.linear_up_to

    def phi(self, t):
        self.calls += 1
        self.values += np.size(t)
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


CERTIFIED_FAMILIES = BITWISE_FAMILIES + [log_bump(2.0), power_bump(3)]


def _hard_stacks(rng):
    """Stacks of 1, 2, 64 and 1,024 leaves: lognormal sigma = 3 rows,
    single spikes, tied and zero leaves, constant and all-zero rows."""
    stacks = []
    for n in (1, 2, 64, 1024):
        wild = rng.lognormal(0.0, 3.0, (3, 6, n))
        spike = np.zeros((2, 6, n))
        spike[:, np.arange(6), rng.integers(0, n, 6)] = rng.lognormal(
            0.0, 3.0, (2, 6))
        ties = np.round(rng.lognormal(0.0, 1.0, (2, 6, n)))
        ties[0, :, ::2] = 0.0
        const = np.repeat(rng.lognormal(0.0, 2.0, (1, 6, 1)), n, axis=2)
        const[0, 0] = 0.0
        stacks += [wild, spike, ties, const]
    return stacks


def _without_certificates(monkeypatch):
    """Every row uncertified, so every verdict goes through Phi."""
    def nothing(constraint, hi, *proof):
        return np.full(hi.shape, -np.inf), np.full(hi.shape, np.inf)
    monkeypatch.setattr(bumps, "_certified_bracket", nothing)


@pytest.mark.parametrize("fam", CERTIFIED_FAMILIES, ids=repr)
def test_luxemburg_certified_verdicts_keep_the_bits(monkeypatch, fam):
    # the certified window settles verdicts without Phi; every norm must
    # keep the bits of the loop that asks Phi at every step, one stack at a
    # time and several stacks of different n in one call
    stacks = _hard_stacks(np.random.default_rng(11))
    certified = [bumps._luxemburg([s], fam)[0] for s in stacks]
    joint = bumps._luxemburg(stacks[::3], fam)
    levels = orlicz_norm_levels(_level_weights(np.random.default_rng(3), 9),
                                fam)
    _without_certificates(monkeypatch)
    for stack, got in zip(stacks, certified):
        assert got.tobytes() == bumps._luxemburg([stack], fam)[0].tobytes()
    for got, want in zip(joint, bumps._luxemburg(stacks[::3], fam)):
        assert got.tobytes() == want.tobytes()
    want = orlicz_norm_levels(_level_weights(np.random.default_rng(3), 9), fam)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(levels, want))


@pytest.mark.parametrize("fam", CERTIFIED_FAMILIES, ids=repr)
def test_luxemburg_certifies_almost_every_verdict(fam):
    # a block of 8 lognormal rows of 64 leaves: about 48 Phi passes when
    # every verdict asks Phi, at most 24 with the certified window
    for seed in range(5):
        w = np.random.default_rng(seed).lognormal(0.0, 1.5, (1, 8, 64))
        counted = _CountedPhi(fam)
        assert (bumps._luxemburg([w], counted)[0].tobytes()
                == bumps._luxemburg([w], fam)[0].tobytes())
        assert counted.calls <= 24


def _bisection_oracle(block, fam):
    """Luxemburg norms of a (rows, n) block by the literal bisection, one
    row and one step at a time: Phi at every verdict, the midpoint
    math.sqrt(lo * hi), and the block's stop once every row is within
    BISECT_TOL.  The brackets are `_luxemburg`'s: the larger of the
    largest leaf and the mean, doubled until feasible, and 1e-6 times the
    mean, quartered until infeasible (which it already is).  Neither loop
    has a cap, so a bound on `_luxemburg`'s doublings is checked here."""
    n = block.shape[1]

    def fits(row, lam):
        return fam.phi(row / lam).sum() / n <= 1.0
    live = [row for row in block if row.sum() / n > 0]
    his, los = [], []
    for row in live:
        mean = row.sum() / n
        hi, lo = max(float(row.max()), float(mean)), float(mean) * 1e-6
        while not fits(row, hi):
            hi *= 2.0
        while fits(row, lo):
            lo /= 4.0
        his.append(hi)
        los.append(lo)
    for _ in range(bumps.BISECT_MAXITER):
        for i, row in enumerate(live):
            mid = math.sqrt(los[i] * his[i])
            if fits(row, mid):
                his[i] = mid
            else:
                los[i] = mid
        if all(h - l <= bumps.BISECT_TOL * h for h, l in zip(his, los)):
            break
    norms = iter(0.5 * (l + h) for l, h in zip(los, his))
    return np.array([next(norms) if row.sum() / n > 0 else 0.0
                     for row in block])


# families whose upper brackets may take up to 155, 363 and 280 doublings
STEEP_FAMILIES = [log_bump(30.0), log_bump(60.0), loglog_bump(40.0)]


@pytest.mark.parametrize("fam", CERTIFIED_FAMILIES + STEEP_FAMILIES, ids=repr)
def test_luxemburg_equals_the_literal_bisection(fam):
    # an oracle that shares no code with the loop: a change to the loop
    # that moves a bit fails here, whichever of its modes it runs
    rng = np.random.default_rng(21)
    stacks = _hard_stacks(rng)[:12] + [_blocks(rng, 16)]
    for stack in stacks:
        got = bumps._luxemburg([stack], fam)[0]
        want = np.stack([_bisection_oracle(block, fam) for block in stack])
        assert got.tobytes() == want.tobytes()
        # single-row blocks
        rows = stack.reshape(-1, 1, stack.shape[-1])
        got = bumps._luxemburg([rows], fam)[0]
        want = np.stack([_bisection_oracle(block, fam) for block in rows])
        assert got.tobytes() == want.tobytes()
    joint = bumps._luxemburg(stacks[1::2], fam)
    for stack, got in zip(stacks[1::2], joint):
        want = np.stack([_bisection_oracle(block, fam) for block in stack])
        assert got.tobytes() == want.tobytes()


# families with Phi(t) = Phi(1) t on [0, 1] (on [0, inf) for t^1)
LINEAR_FAMILIES = [log_bump(0.5), log_bump(1.0), log_bump(30.0),
                   loglog_bump(2.0), power_bump(1)]


def _assert_proof_windows_hold(w, fam):
    """Every window the proof gives the rows of a (blocks, rows, n) stack w,
    with no Phi pass, must hold in floats: F(a) > 1 and F(b) <= 1,
    recomputed here row by row on the values the bisection sees (a far
    row's scaled by its power of two).  Returns the rows Phi measured."""
    seen = []
    real = bumps._certified_bracket

    def spy(constraint, hi, top, mean, *proof):
        measured = set()

        def asked(lam, rows):
            measured.update(rows.tolist())
            return constraint(lam, rows)
        a, b = real(asked, hi, top, mean, *proof)
        seen.append((top.copy(), a, b, measured))
        return a, b
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bumps, "_certified_bracket", spy)
        bumps._luxemburg([w], fam)
    (top, a, b, measured), = seen
    rows = w.reshape(-1, w.shape[-1])
    for i in set(range(len(rows))) - measured:
        assert np.isfinite(a[i]) and np.isfinite(b[i])
        # top / w.max() is the exact power of two of a far row
        row = rows[i] * (top[i] / rows[i].max())
        assert fam.phi(row / a[i]).sum() / len(row) > 1.0
        assert fam.phi(row / b[i]).sum() / len(row) <= 1.0
    return measured


@pytest.mark.parametrize("fam", LINEAR_FAMILIES, ids=repr)
def test_linear_piece_certificates_hold(fam):
    rng = np.random.default_rng(31)
    for n in (1, 2, 64, 1024, 2 ** 16):
        rows = np.concatenate((rng.uniform(0.5, 1.5, (3, n)),
                               rng.uniform(0.2, 1.8, (3, n)),
                               rng.lognormal(0.0, 1.0, (6, n))))
        rows[3:9, 1::3] = 0.0  # a third zero, in rows of both kinds
        for scale in (1.0, 1e-200, 1e200):
            measured = _assert_proof_windows_hold(
                (rows * scale).reshape(3, 4, n), fam)
            # in the rows of leaves in [0.5, 1.5], top/mean is at most about
            # 1.6, below Phi(1) for each family here but t^1, which needs none
            assert measured.isdisjoint(range(3))
            if fam.tag == "power":
                assert not measured  # t^1 is linear on all of [0, inf)


@given(st.sampled_from(LINEAR_FAMILIES), st.integers(1, 4096),
       st.floats(0.0, 0.99), st.floats(-50.0, 50.0),
       st.one_of(st.none(), st.just(1.0 - 2.0 ** -40), st.floats(0.5, 2.0)),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_linear_piece_windows_hold_on_random_rows(fam, n, spread, exponent,
                                                  reach, seed):
    # four rows of leaves in [1 - spread, 1] times 10^exponent; given a
    # reach, where n allows, each row's first leaf is set so that max/mean
    # is Phi(1) reach: just inside the proof's reach at 1 - 2^-40, and off
    # Phi's linear piece (where the proof must leave the row) past 1
    w = np.random.default_rng(seed).uniform(1.0 - spread, 1.0, (4, n))
    phi_one = float(fam.phi(1.0))
    if reach is not None and n > max(1.0, phi_one * reach):
        ratio = phi_one * reach
        w[:, 0] = ratio * w[:, 1:].sum(axis=1) / (n - ratio)
    w *= 10.0 ** exponent
    measured = _assert_proof_windows_hold(w[None], fam)
    # a row within 2^-42 of Phi(1) is inside the 2^-44 windows' reach
    inside = w.max(axis=1) <= phi_one * (1.0 - 2.0 ** -42) * w.mean(axis=1)
    assert measured.isdisjoint(np.flatnonzero(inside).tolist())


def test_phi_sees_only_the_rows_in_doubt():
    # a depth-10 pair of log sigma = 1 leaves in [0.2, 1.8]: every node is
    # on Phi's linear piece, so the certificate asks Phi nothing, and only
    # the rows in doubt at a step reach it.  A loop that ran Phi over every
    # value whenever some row was in doubt handed it 436,226 values here,
    # and proof windows as wide as the secant's (1e-12) 47,444.
    fam = log_bump(1.0)
    values = np.random.default_rng(0).uniform(0.2, 1.8, (2, 1024))
    counted = _CountedPhi(fam)
    real = bumps._certified_bracket
    before = []

    def spy(*args):
        before.append(counted.values)
        a, b = real(*args)
        assert counted.values == before[-1]  # no Phi pass to certify
        assert np.isfinite(a).all() and np.isfinite(b).all()
        return a, b
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bumps, "_certified_bracket", spy)
        got = orlicz_norm_levels(values, counted)
    assert len(before) == 1  # levels 0-10 in one LEVEL_GROUP group
    assert all(g.tobytes() == w.tobytes()
               for g, w in zip(got, orlicz_norm_levels(values, fam)))
    assert counted.values <= 8_000


@pytest.mark.parametrize("leaves", [[-1.0, 2.0], [np.nan, 2.0], [-3.0, 2.0],
                                    [np.inf, 2.0], [2.0, -1e-300]],
                         ids=["negative", "nan", "negative-mean", "inf",
                              "tiny-negative"])
def test_norms_reject_negative_or_nonfinite_leaves(leaves):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        orlicz_norm_def_batch(np.array([[leaves]]), log_bump(1.0))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        orlicz_norm_levels(np.array([leaves]), log_bump(1.0))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        orlicz_norm_dist(np.array([[1.0, 1.0], leaves]), log_bump(1.0))
    with pytest.raises(ValueError, match="finite and nonnegative"):
        self_improvement_check(np.array([leaves]), log_bump(1.0))


@pytest.mark.parametrize("shape", [(4,), (2, 0), (1, 2, 2)])
def test_row_forms_take_only_rows_with_leaves(shape):
    for norm in (orlicz_norm_dist, self_improvement_check):
        with pytest.raises(ValueError, match="rows"):
            norm(np.ones(shape), log_bump(1.0))


def test_self_improvement_takes_only_dyadic_rows():
    # the pairwise half-sum of an odd row would broadcast, not fail
    with pytest.raises(ValueError, match="2\\*\\*depth"):
        self_improvement_check(np.ones((2, 3)), log_bump(1.0))


def _check_constant_row(c):
    """A constant row c has the norm c / Phi^-1(1) = 4c under the log bump
    (sigma = 1), and an ordinary row beside it keeps the bits of its own
    call."""
    fam = log_bump(1.0)
    norm = orlicz_norm_def_batch(np.full((1, 1, 4), c), fam)[0, 0]
    assert norm == pytest.approx(4.0 * c, rel=1e-11)
    w = np.random.default_rng(0).lognormal(0.0, 1.5, (3, 1, 4))
    w[1] = c
    mixed = orlicz_norm_def_batch(w, fam)[:, 0]
    alone = orlicz_norm_def_batch(w[[0, 2]], fam)[:, 0]
    assert mixed[[0, 2]].tobytes() == alone.tobytes()
    assert mixed[1] == norm


@pytest.mark.parametrize("c", [1e154, 1e200, 1e300])
def test_norm_def_of_huge_constant_rows(c):
    # the bisection's midpoint sqrt(lo * hi) overflows for brackets past
    # about 1.3e154
    _check_constant_row(c)


@pytest.mark.parametrize("c", [1e-160, 1e-200, 1e-300])
def test_norm_def_of_tiny_constant_rows(c):
    # lo * hi underflows for brackets below about 1.5e-154, and the
    # midpoint stuck at 0 gave 2c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_constant_row(c)
        # the bump constants of u = c, v = 1 are 4c, with no warning
        u, v = LeafWeight.constant(3, c), LeafWeight.constant(3, 1.0)
        rep = bump_condition(u, v, log_bump(1.0))
    assert rep["B_uv_left"] == pytest.approx(4.0 * c, rel=1e-11)
    # a lognormal row scaled by c has c times its norm
    w = np.random.default_rng(1).lognormal(0.0, 1.5, (1, 1, 64))
    fam = log_bump(1.0)
    assert orlicz_norm_def_batch(c * w, fam)[0, 0] == pytest.approx(
        c * orlicz_norm_def_batch(w, fam)[0, 0], rel=1e-11)


@pytest.mark.parametrize("c", [1e-318, 5e-324])
def test_norm_def_of_subnormal_constant_rows(c):
    # the first lower bracket, 1e-6 times the mean, underflowed to 0, and
    # every midpoint with it, which gave 2c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_constant_row(c)
        assert orlicz_norm_def_batch(np.full((1, 1, 4), c),
                                     log_bump(1.0))[0, 0] == 4.0 * c


def test_norm_def_of_a_row_whose_mean_underflows():
    # the mean is 0.0 but the largest leaf is positive, so the row is live;
    # under the log bump (sigma = 1) the norm of [x, 0, 0, 0] is x
    norm = orlicz_norm_def_batch(np.array([[[5e-324, 0.0, 0.0, 0.0]]]),
                                 log_bump(1.0))[0, 0]
    assert norm == 5e-324


def test_norm_def_of_a_row_whose_sum_overflows():
    # 8 leaves of 3e307 sum past the float range; the norm is 4 * 3e307
    norm = orlicz_norm_def_batch(np.full((1, 1, 8), 3e307), log_bump(1.0))
    assert norm[0, 0] == pytest.approx(1.2e308, rel=1e-11)


@pytest.mark.parametrize("fam", CERTIFIED_FAMILIES, ids=repr)
def test_norms_commute_with_powers_of_two(fam):
    # a row whose largest leaf is outside [2^-64, 2^64] is bisected as its
    # copy scaled by a power of two, and every step commutes with that
    # scale, so 2^k w has exactly 2^k times the norm of w
    w = np.random.default_rng(4).lognormal(0.0, 1.5, (3, 4, 64))
    blocks = orlicz_norm_def_batch(w, fam)
    levels = orlicz_norm_levels(w[:, 0], fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (256, -256, 700, -700, 1000, -1000):
            scale = math.ldexp(1.0, k)
            got = orlicz_norm_def_batch(scale * w, fam)
            assert got.tobytes() == (scale * blocks).tobytes()
            got = orlicz_norm_levels(scale * w[:, 0], fam)
            assert all(g.tobytes() == (scale * want).tobytes()
                       for g, want in zip(got, levels))


def test_power_past_the_secant_budget_is_rejected_when_built():
    # for t^p, c = max t Phi'/Phi = p: p <= 512 keeps the secant's eps_f,
    # about p + 44 units of 2^-53, under M/12 = 750 units
    with pytest.raises(ValueError, match=r"1 <= p <= 512"):
        power_bump(513)
    assert power_bump(512).p == 512.0


def test_family_past_the_phi_one_cap_is_rejected_when_built():
    # Phi(1) = 81^81, about 2^514, is past PHI_ONE_MAX = 2^440
    with pytest.raises(ValueError, match=r"Phi\(1\) <= 2\^440"):
        log_bump(80.0)
    log_bump(60.0)  # Phi(1) = 61^61, about 2^362


def test_norm_def_of_a_steep_family():
    # Phi(t) = 61^61 t on [0, 1], so a row of ones has the norm 61^61,
    # about 2^362 times its largest leaf
    norm = orlicz_norm_def_batch(np.ones((1, 1, 4)), log_bump(60.0))
    assert norm[0, 0] == pytest.approx(61.0 ** 61, rel=1e-11)


def test_norm_past_the_float_range_is_an_error():
    # Phi(t) = 31^31 t on [0, 1] for log sigma = 30, so a row of 1e300 has
    # the norm 31^31 1e300, past the float range: an error, not a warning
    # and inf
    rows = np.full((1, 4), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            orlicz_norm_def_batch(rows[None], log_bump(30.0))
        with pytest.raises(ValueError, match="overflows"):
            orlicz_norm_levels(rows, log_bump(30.0))


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
@pytest.mark.parametrize("depth", [0, 1, 4, 9, 11, 13])
def test_norm_levels_equal_per_level_batches(fam, depth):
    # each (weight, level) block keeps the bits of its own batch call, also
    # where the levels share a bisection: up to depth 9 all of them do, at
    # depth 11 they go ten levels and two to a bisection, and at depth 13
    # two levels to a bisection
    values = _level_weights(np.random.default_rng(depth), depth)
    levels = orlicz_norm_levels(values, fam)
    assert len(levels) == depth + 1
    for k, got in enumerate(levels):
        want = orlicz_norm_def_batch(values.reshape(3, 2 ** k, -1), fam)
        assert got.shape == (3, 2 ** k)
        assert np.array_equal(got, want)
    assert np.array_equal(levels[-1][2], np.zeros(2 ** depth))


@pytest.mark.parametrize("depth, sizes", [
    (0, [1]), (9, [10]), (10, [11]), (12, [8, 5]), (14, [2] * 7 + [1]),
    (15, [1] * 16)])
def test_norm_levels_group_at_most_level_group_values(monkeypatch, depth,
                                                      sizes):
    # u and v, as bump_condition passes them: a tree of depth <= 11 is one
    # bisection, and from depth 15 on each level has its own
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
    rows = np.full((1, 4), 3.0)
    assert orlicz_norm_dist(rows, fam)[0] == pytest.approx(3.0 * float(fam.psi(1.0)))
    # Psi = 1: distribution form collapses to the average
    assert orlicz_norm_dist(np.array([[2.0, 0.0]]), power_bump(1))[0] == 1.0


def _norm_dist_oracle(depth, row, fam):
    """The per-weight distribution form: the root StepDistribution of the
    row and one dot product."""
    widths, fracs = StepDistribution.of(LeafWeight(depth, row), ROOT).steps()
    if widths.size == 0:
        return 0.0
    return float(np.dot(widths, fracs * fam.psi(fracs)))


def _dist_rows(rng, depth):
    """_weights' rows (zero row, zero leaves, ties) and a row of one
    repeated leaf value beside a zero leaf."""
    w = _weights(rng, 12, 2 ** depth)
    w[5] = 2.5
    w[5, -1] = 0.0
    return w


ROW_FAMILIES = [log_bump(1.0), log_bump(0.3), loglog_bump(2.0, 0.1),
                loglog_bump(0.5, 0.5)]


@pytest.mark.parametrize("fam", ROW_FAMILIES, ids=repr)
def test_norm_dist_rows_equal_per_weight_form(fam):
    rng = np.random.default_rng(8)
    for depth in (0, 1, 3, 6):
        w = _dist_rows(rng, depth)
        got = orlicz_norm_dist(w, fam)
        want = np.array([_norm_dist_oracle(depth, row, fam) for row in w])
        assert got.tobytes() == want.tobytes()
    assert orlicz_norm_dist(np.zeros((3, 8)), fam).tobytes() == bytes(24)


@pytest.mark.parametrize("fam", ROW_FAMILIES, ids=repr)
def test_self_improvement_rows_equal_per_weight_formula(fam):
    model = fam.epsilon_model()
    rng = np.random.default_rng(9)
    for depth in (0, 1, 3, 6):
        w = _dist_rows(rng, depth)
        want = []
        for row in w:
            weight = LeafWeight(depth, row)
            avg = weight.average(ROOT)
            if avg == 0.0:
                continue
            base = _norm_dist_oracle(depth, row, fam)
            lhs = _norm_dist_oracle(depth, row, fam.companion())
            gap = float(model.eps(max(base / avg, 1.0 + 1e-12)))
            want.append(lhs / (base * gap))
        got = self_improvement_check(w, fam)
        assert len(want) < len(w)  # a zero row has no ratio
        assert got.tobytes() == np.array(want).tobytes()


def test_norm_equivalence_log_bump_corpus():
    rng = np.random.default_rng(12345)
    fam = log_bump(1.0)
    ratios = []
    for _ in range(300):
        depth = int(rng.integers(1, 7))
        w = LeafWeight(depth, rng.exponential(1.0, 2 ** depth))
        nd = orlicz_norm_def(w, ROOT, fam)
        nn = orlicz_norm_dist(w.values[None], fam)[0]
        ratios.append(nn / nd)
    assert 1 / 20 < min(ratios) and max(ratios) < 20


def test_self_improvement_skip_on_zero():
    assert self_improvement_check(np.zeros((1, 4)), log_bump(1.0)).size == 0


def test_self_improvement_scale_invariant():
    fam = log_bump(1.0)
    w = LeafWeight(3, [8, 1, 1, 1, 0.5, 0.5, 0.5, 0.5])
    r1, r2 = self_improvement_check(np.stack((w.values, 7.0 * w.values)), fam)
    assert r1 == pytest.approx(r2, rel=1e-9, abs=0)


def test_self_improvement_bounded_over_sweep():
    rng = np.random.default_rng(99)
    fam = log_bump(1.0)
    ratios = self_improvement_check(rng.exponential(1.0, (200, 4)) + 1e-6, fam)
    assert ratios.size == 200
    assert ratios.max() < 20.0


def test_self_improvement_tall_leaf_stress():
    fam = log_bump(1.0)
    vals = np.full(16, 1e-3)
    vals[0] = 1e4
    ratio, = self_improvement_check(vals[None], fam)
    assert ratio <= 20.0


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
    for tag, params in [("power", {"p": math.nan}),
                        ("log", {"sigma": math.nan}),
                        ("loglog", {"sigma": math.nan}),
                        ("log", {"sigma": math.inf}),
                        ("loglog", {"sigma": math.inf})]:
        with pytest.raises(ValueError):
            BumpFamily(tag, **params)


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
