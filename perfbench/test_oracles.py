"""Tests of the benchmark's reference computations on cases with known
answers.  Run from the repository root:

    python3 -m pytest perfbench/test_oracles.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracles  # noqa: E402


@pytest.mark.parametrize("z", [1e-10, 1e-4, 3e-3, 0.3])
def test_tail_mass_integrator_matches_power_closed_form(z):
    # eps(t) = t^(-1/4): f(y) = y^(4/3), W(z) = int_0^z y^(-2/3) dy = 3 z^(1/3)
    W = oracles.tail_mass(oracles.PowerProfile(0.25), z)
    assert W == pytest.approx(3.0 * z ** (1.0 / 3.0), rel=1e-13)


@pytest.mark.parametrize("z", [1e-10, 1e-3, 0.35])
def test_tail_mass_integrator_matches_logpow_antiderivative(z):
    # W(z) = coeff * int_R^inf (r - kappa) r^(-kappa-1) dr
    #      = coeff * (R^(1-kappa) / (kappa - 1) - R^(-kappa)), R = log(1/f(z))
    k, c = 1.8, 0.5
    prof = oracles.LogPowProfile(k, c)
    R = prof.ell_of(z)
    assert float(prof.phi(math.exp(-R))) == pytest.approx(z, rel=1e-13)
    exact = c * (R ** (1 - k) / (k - 1) - R ** (-k))
    assert oracles.tail_mass(prof, z) == pytest.approx(exact, rel=1e-12)


def test_dense_testing_oracle_depth_one_by_hand():
    # leaves of measure 1/2; a_root = 1/2, a on the two halves = (1, 0)
    M = oracles.sparse_matrix([[0.5], [1.0, 0.0]])
    u = np.array([2.0, 4.0])
    v = np.array([1.0, 3.0])
    ratios = oracles.testing_ratios(M, u, v)
    # J = [0,1): T u = 1/2 * <u> + a_J <u>_J on each half = 1.5 + (2, 0)
    #   ||T u||^2_{L^2(v)} = (3.5^2 * 1 + 1.5^2 * 3) / 2 = 9.5, u(J) = 3
    assert ratios[(0, 0)] == pytest.approx(9.5 / 3.0, rel=1e-15)
    # J = [0,1/2): T(u chi_J) = (1/2 * 1 + 1 * 2) on J = 2.5
    #   ||.||^2 = 2.5^2 * 1 / 2 = 3.125, u(J) = 1
    assert ratios[(1, 0)] == pytest.approx(3.125, rel=1e-15)
    # J = [1/2,1): T(u chi_J) = 1/2 * 2 + 0 = 1 on J; ||.||^2 = 3 / 2, u(J) = 2
    assert ratios[(1, 1)] == pytest.approx(0.75, rel=1e-15)


def test_dense_testing_oracle_skips_massless_intervals():
    M = oracles.sparse_matrix([[0.5], [0.2, 0.1]])
    ratios = oracles.testing_ratios(M, np.array([0.0, 1.0]), np.ones(2))
    assert (1, 0) not in ratios and set(ratios) == {(0, 0), (1, 1)}


@pytest.mark.parametrize("seed", range(5))
def test_layer_cake_matches_step_distribution_integral(seed):
    from dyadicbump.dyadic import ROOT, DyadicIndex, LeafWeight, StepDistribution
    rng = np.random.default_rng(seed)
    values = rng.lognormal(0.0, 1.0, 64)
    values[::7] = 0.0                 # zero leaves
    values[3] = values[5] = values[9]  # ties
    w = LeafWeight(6, values)
    for idx in (ROOT, DyadicIndex(2, 1), DyadicIndex(6, 10)):
        lo, hi = idx.leaf_range(6)
        got = oracles.layer_cake(values[lo:hi], lambda N: N)
        assert got == pytest.approx(StepDistribution.of(w, idx).integral(),
                                    rel=1e-13, abs=1e-300)
        assert got == pytest.approx(values[lo:hi].mean(), rel=1e-13, abs=1e-300)


def test_glav_sum_matches_node_by_node_definition():
    rng = np.random.default_rng(3)
    depth = 4
    u = rng.uniform(0.2, 1.8, 2 ** depth)
    v = rng.uniform(0.2, 1.8, 2 ** depth)
    a = [rng.uniform(0.0, 0.5, 2 ** k) for k in range(depth + 1)]
    total = 0.0
    for k in range(depth + 1):
        for p in range(2 ** k):
            node = oracles.node_data(u, v, a, k, p)
            total += 2.0 ** -k * a[k][p] * node["u"] * node["L"]
    assert oracles.glav_sum(u, v, a) == pytest.approx(total, rel=1e-13)


def test_tracer_wraps_names_callers_imported():
    import dyadicbump
    import dyadicbump.cli  # noqa: F401  (loads every module)
    from dyadicbump import bellman, bumps, dyadic, sparse
    from tracer import Tracer
    original = sparse.master_bellman_eval
    tracer = Tracer()
    tracer.install(dyadicbump)
    try:
        # the name sparse imported is replaced as well as the defining one
        assert sparse.master_bellman_eval is bellman.master_bellman_eval
        assert sparse.master_bellman_eval is not original
        family = bumps.log_bump(1.0)
        budget = bellman.default_budget(family)
        inst = sparse.random_instance(4, 1, family=family, bump_target=0.01,
                                      omega2_delta=budget.delta)
        tracer.active = True
        with tracer.span("bench.case"):
            sparse.green_induction(inst["u"], inst["v"], inst["T"], family,
                                   budget)
        tracer.active = False
        counters = tracer.snapshot()
        nodes = 2 ** 5 - 1
        assert counters["sparse.green_induction"]["nodes"] == nodes
        assert counters["dyadic.step_distribution"]["calls"] == nodes
        assert counters["bellman.master_eval"]["calls"] == nodes
        green = counters["sparse.green_induction"]
        assert 0 < green["self_s"] < green["s"]
        names = {span[0]: span[1] for span in tracer.spans}
        parents = {span[1]: names.get(span[4]) for span in tracer.spans}
        assert parents["sparse.green_induction"] == "bench.case"
    finally:
        tracer.uninstall()
    assert sparse.master_bellman_eval is original
    assert not hasattr(dyadic.StepDistribution.__dict__["of"].__func__,
                       "__wrapped__")
