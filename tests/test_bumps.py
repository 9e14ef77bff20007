"""Tests for bump families, companion functions and Orlicz norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicbump.bumps import (BumpFamily, DivergentIntegralError,
                              EpsilonModel, curv_translate,
                              epsilon_integrability, integrability_phi,
                              log_bump, loglog_bump, orlicz_norm_def,
                              orlicz_norm_def_batch, orlicz_norm_dist,
                              power_bump, psi_from_phi,
                              psi_gap_check, psi_parametric,
                              self_improvement_check, weak_concavity_probe)
from dyadicbump.dyadic import ROOT, DyadicIndex, LeafWeight


# ---------------------------------------------------------------------------
# Psi: parametric construction and closed forms
# ---------------------------------------------------------------------------

def test_psi_linear_bump_is_one():
    fam = power_bump(1)
    for s in (0.01, 0.3, 1.0):
        assert psi_from_phi(fam, s) == pytest.approx(1.0, rel=1e-12)


def test_psi_quadratic_bump_closed_form():
    fam = power_bump(2)
    for s in (0.005, 0.05, 0.4):
        expect = 2.0 * (2.0 * s) ** (-1 / 3)
        assert psi_from_phi(fam, s) == pytest.approx(expect, rel=1e-12)
        # the parametric solve is an independent oracle for the closed form
        assert psi_parametric(fam, s) == pytest.approx(expect, rel=1e-10)


def test_psi_log_bump_asymptotics():
    fam = log_bump(1.0)
    ratios = [fam.psi(s) / math.log(1 / s) ** 2 for s in np.geomspace(1e-3, 1e-12, 12)]
    assert 0.9 < min(ratios) and max(ratios) < 3.0
    # parametric and closed forms stay within bounded ratio of each other
    for s in (1e-4, 1e-8, 1e-12):
        q = psi_parametric(fam, s) / fam.psi(s)
        assert 0.1 < q < 10.0


def test_psi_domain_error():
    with pytest.raises(ValueError):
        psi_from_phi(power_bump(2), 0.9)  # above s_cut = 1/2
    with pytest.raises(ValueError):
        psi_from_phi(power_bump(2), -1.0)


def test_psi_custom_table_matches_quadratic():
    t = np.geomspace(1.0, 1e12, 600)
    fam = BumpFamily("custom", phi_table=np.column_stack([t, t ** 2]))
    assert psi_from_phi(fam, 0.01) == pytest.approx(2.0 * 0.02 ** (-1 / 3), rel=1e-6)


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
    assert res["value"] == pytest.approx(0.5, rel=1e-8)
    assert res["tail"] == pytest.approx(1.0 / (2.0 + math.log(1e6)), rel=1e-12)


def test_integrability_phi_loglog_finite():
    res = integrability_phi(loglog_bump(2.0, 0.1))
    assert res["verdict"] == "finite"
    assert res["value"] > 0


def test_integrability_phi_custom_inconclusive():
    t = np.geomspace(1.0, 1e8, 200)
    fam = BumpFamily("custom", phi_table=np.column_stack([t, t ** 2]))
    assert integrability_phi(fam)["verdict"] == "inconclusive"


def test_epsilon_integrability_power():
    res = epsilon_integrability(log_bump(1.0))  # eps(t) = t^{-1/4}
    assert res["verdict"] == "finite"
    assert res["value"] == pytest.approx(4.0 * 2.0 ** -0.25, rel=1e-12)


def test_epsilon_integrability_logpow_threshold():
    assert epsilon_integrability(EpsilonModel("logpow", kappa=1.5))["verdict"] == "finite"
    assert epsilon_integrability(EpsilonModel("logpow", kappa=1.0))["verdict"] == "infinite"
    assert epsilon_integrability(EpsilonModel("logpow", kappa=0.5))["verdict"] == "infinite"
    # (1-delta)*sigma > 1 is exactly the finite regime for the loglog tag
    assert epsilon_integrability(loglog_bump(2.0, 0.1))["verdict"] == "finite"
    assert epsilon_integrability(loglog_bump(1.0, 0.1))["verdict"] == "infinite"


def test_epsilon_integrability_constant_infinite():
    assert epsilon_integrability(EpsilonModel("const"))["verdict"] == "infinite"


# ---------------------------------------------------------------------------
# Orlicz norms, both methods
# ---------------------------------------------------------------------------

def test_norm_def_linear_is_average():
    w = LeafWeight(2, [4.0, 2.0, 1.0, 1.0])
    assert orlicz_norm_def(w, ROOT, power_bump(1)) == pytest.approx(2.0, rel=1e-10)


def test_norm_def_power_constant():
    w = LeafWeight.constant(3, 3.0)
    assert orlicz_norm_def(w, ROOT, power_bump(3)) == pytest.approx(3.0, rel=1e-10)


def test_norm_def_quadratic_two_leaf():
    w = LeafWeight(1, [2.0, 0.0])
    assert orlicz_norm_def(w, ROOT, power_bump(2)) == pytest.approx(math.sqrt(2), rel=1e-10)


def test_norm_def_zero_weight():
    assert orlicz_norm_def(LeafWeight.constant(2, 0.0), ROOT, power_bump(2)) == 0.0


def test_norm_def_batch_matches_scalar():
    rng = np.random.default_rng(2)
    rows = rng.uniform(0, 5, (6, 8))
    rows[2] = 0.0
    fam = log_bump(1.0)
    batch = orlicz_norm_def_batch(rows, fam)
    for i, row in enumerate(rows):
        assert batch[i] == pytest.approx(
            orlicz_norm_def(LeafWeight(3, row), ROOT, fam), rel=1e-10, abs=1e-15)


@given(st.floats(0.01, 100.0))
@settings(max_examples=30, deadline=None)
def test_norm_def_homogeneous(c):
    w = LeafWeight(2, [4.0, 2.0, 1.0, 0.5])
    fam = log_bump(1.0)
    base = orlicz_norm_def(w, ROOT, fam)
    assert orlicz_norm_def(w.scaled(c), ROOT, fam) == pytest.approx(c * base, rel=1e-10)


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
    assert r1 == pytest.approx(r2, rel=1e-9)


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
    res = self_improvement_check(LeafWeight(4, vals), ROOT, fam, bound=20.0)
    assert res["pass"]


# ---------------------------------------------------------------------------
# Weak concavity probe
# ---------------------------------------------------------------------------

def test_probe_concave_at_least_one():
    rng = np.random.default_rng(0)
    res = weak_concavity_probe(np.sqrt, (2.0, 1e6), 500, rng)
    assert res["constant"] >= 1.0 - 1e-9


def test_probe_t_eps_weakly_concave():
    rng = np.random.default_rng(1)
    a = lambda t: np.asarray(t) * np.log(t) ** -0.5
    res = weak_concavity_probe(a, (2.0, 1e6), 2000, rng)
    assert res["constant"] > 0.5


def test_probe_convex_below_one():
    rng = np.random.default_rng(2)
    res = weak_concavity_probe(lambda t: np.asarray(t, float) ** 2, (1.0, 10.0), 2000, rng)
    assert res["constant"] < 1.0


def test_probe_rejects_nonpositive():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        weak_concavity_probe(lambda t: np.asarray(t) - 5.0, (2.0, 10.0), 50, rng)


# ---------------------------------------------------------------------------
# The map phi and its inverse
# ---------------------------------------------------------------------------

def test_phi_identity_for_constant_eps():
    model = EpsilonModel("const")
    assert model.phi(0.3) == pytest.approx(0.3)
    assert model.inverse(0.3) == pytest.approx(0.3)


def test_phi_power_closed_form():
    model = log_bump(1.0).epsilon_model()  # beta = 1/4
    assert model.phi(0.2) == pytest.approx(0.2 ** 0.75, rel=1e-14)
    assert model.inverse(0.01) == pytest.approx(0.01 ** (4 / 3), rel=1e-14)


def test_phi_loglog_roundtrip():
    model = loglog_bump(2.0, 0.1).epsilon_model()
    for x in np.geomspace(1e-200, model.x_max, 25):
        y = model.phi(x)
        assert abs(model.phi(model.inverse(y)) - y) <= 1e-12 * y


def test_inverse_range_cap():
    assert EpsilonModel("power", beta=0.25).z_cap == math.inf
    assert EpsilonModel("const").z_cap == math.inf
    model = loglog_bump(2.0, 0.1).epsilon_model()
    assert model.z_cap == pytest.approx(0.95 * model.phi(model.x_max), rel=1e-15)
    assert model.phi(model.inverse(model.z_cap)) == pytest.approx(model.z_cap,
                                                                  rel=1e-12)


def test_epsilon_model_json_holds_used_parameters():
    assert EpsilonModel("power", beta=0.25, kappa=3.0).to_json() == {
        "kind": "power", "beta": 0.25, "coeff": 1.0}
    assert EpsilonModel("logpow", kappa=1.8, coeff=0.5).to_json() == {
        "kind": "logpow", "kappa": 1.8, "coeff": 0.5}
    assert EpsilonModel("const", coeff=2.0).to_json() == {"kind": "const",
                                                          "coeff": 2.0}
    assert EpsilonModel("custom", func=np.sqrt).to_json() == {"kind": "custom"}


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
        assert model.tail_mass(z) == pytest.approx(model.tail_mass_quad(z), rel=1e-8)


def test_tail_mass_power_explicit():
    # beta = 1/4: W(z) = 3 z^{1/3}
    model = EpsilonModel("power", beta=0.25)
    assert model.tail_mass(0.008) == pytest.approx(3.0 * 0.2, rel=1e-14)


def test_tail_mass_logpow_closed_vs_quad():
    model = loglog_bump(2.0, 0.1).epsilon_model()
    for z in (1e-2, 1e-4):
        assert model.tail_mass(z) == pytest.approx(model.tail_mass_quad(z), rel=5e-3)


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
                                               rel=1e-12)


def test_tail_mass_divergent_cases():
    with pytest.raises(DivergentIntegralError):
        EpsilonModel("const").tail_mass(1.0)
    with pytest.raises(DivergentIntegralError):
        EpsilonModel("logpow", kappa=0.9).tail_mass(0.1)
    with pytest.raises(DivergentIntegralError):  # kappa = 0.9, coeff 2^(-0.9)
        loglog_bump(2.0, 0.1).epsilon_model().curv_counterpart().tail_mass(0.1)
    # truncated version stays defined
    assert EpsilonModel("const").truncated_tail_mass(1.0, 1e-3) == pytest.approx(
        math.log(1e3), rel=1e-12)


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


def test_curv_translate_from_family():
    res = curv_translate(log_bump(1.0))
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
        BumpFamily("custom", phi_table=[[1, 1], [2, 0.5], [3, 2], [4, 3]])


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
    t = np.geomspace(1, 100, 8)
    fam = BumpFamily("custom", phi_table=np.column_stack([t, t ** 2]))
    path = tmp_path / "fam.json"
    path.write_text(__import__("json").dumps(fam.to_json()))
    again = BumpFamily.load(path)
    assert np.allclose(again.phi_table, fam.phi_table)


def test_companion_families():
    assert log_bump(1.0).companion().sigma == 0.5
    comp = loglog_bump(2.0, 0.1).companion()
    assert comp.sigma == pytest.approx(0.2)
    assert power_bump(2).companion() is None
