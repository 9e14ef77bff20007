"""Tests for the dyadic sparse operator, testing/bump conditions, the
(glav) recursion, and the Green's-formula induction."""

import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest

from dyadicbump.bumps import log_bump, power_bump
from dyadicbump.bellman import (B1, B2, BellmanNode, DataIntegrityError,
                                default_budget, master_bellman_eval)
from dyadicbump.dyadic import (CarlesonSequence, DyadicIndex, LeafWeight,
                               ROOT, StepDistribution, l_intensity_levels)
from dyadicbump.sparse import (
    SparseOperator, apply_sparse, bump_condition, glav_brute, glav_check,
    glav_levels, glav_sup, green_induction, load_instance, normalize_to_bump,
    normalize_to_omega2, random_instance, save_instance, truncated,
    vavo_L_bound,
)
# aliased import: the real name starts with "test", which pytest would
# otherwise try to collect as a test item
from dyadicbump.sparse import testing_condition as sparse_testing_condition

FAM = log_bump(1.0)


# ---------------------------------------------------------------------------
# SparseOperator construction
# ---------------------------------------------------------------------------

def test_operator_rejects_oversized_intensity():
    seq = CarlesonSequence(1, [np.array([1.0]), np.array([1.0, 1.0])])
    # root intensity is 1 + 1 = 2 > 1 for the unit convention
    with pytest.raises(ValueError):
        SparseOperator(seq)


# ---------------------------------------------------------------------------
# apply_sparse
# ---------------------------------------------------------------------------

def test_apply_root_only_gives_global_average():
    seq = CarlesonSequence.from_entries(2, [(ROOT, 1.0)])
    T = SparseOperator(seq)
    f = LeafWeight(2, [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(apply_sparse(T, f).values, 2.5)


def test_apply_zero_coefficients():
    T = SparseOperator(CarlesonSequence.from_entries(3, []))
    f = LeafWeight(3, np.arange(8.0))
    assert np.all(apply_sparse(T, f).values == 0.0)


def test_apply_matches_bruteforce_double_loop():
    rng = np.random.default_rng(4)
    seq = CarlesonSequence(3, [rng.uniform(0, 0.12, 2 ** k) for k in range(4)])
    T = SparseOperator(seq)
    f = LeafWeight(3, rng.uniform(0, 2, 8))
    got = apply_sparse(T, f).values
    brute = np.zeros(8)
    for k in range(4):
        for pos in range(2 ** k):
            I = DyadicIndex(k, pos)
            lo, hi = I.leaf_range(3)
            brute[lo:hi] += seq.levels[k][pos] * f.average(I)
    assert np.allclose(got, brute, atol=1e-15)


def test_apply_is_linear_and_monotone():
    rng = np.random.default_rng(9)
    seq = CarlesonSequence(3, [rng.uniform(0, 0.12, 2 ** k) for k in range(4)])
    T = SparseOperator(seq)
    f = LeafWeight(3, rng.uniform(0, 2, 8))
    g = LeafWeight(3, rng.uniform(0, 2, 8))
    lhs = apply_sparse(T, LeafWeight(3, 0.5 * f.values + g.values)).values
    rhs = 0.5 * apply_sparse(T, f).values + apply_sparse(T, g).values
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)
    assert np.all(apply_sparse(T, f).values >= 0)


def test_apply_rejects_shallow_weight():
    T = SparseOperator(CarlesonSequence.from_entries(3, []))
    with pytest.raises(ValueError):
        apply_sparse(T, LeafWeight.constant(2, 1.0))


def test_apply_accepts_deeper_weight():
    seq = CarlesonSequence.from_entries(1, [(ROOT, 1.0)])
    T = SparseOperator(seq)
    f = LeafWeight(3, np.arange(8.0))
    assert np.allclose(apply_sparse(T, f).values, f.average(ROOT))


# ---------------------------------------------------------------------------
# testing_condition
# ---------------------------------------------------------------------------

def test_testing_constant_weights_root_mass():
    seq = CarlesonSequence.from_entries(2, [(ROOT, 1.0)])
    T = SparseOperator(seq)
    one = LeafWeight.constant(2, 1.0)
    rep = sparse_testing_condition(T, one, one)
    assert rep["sup"] == pytest.approx(1.0, abs=1e-14)
    assert rep["u_to_v"]["sup_at"] == (0, 0)


def test_testing_skips_zero_mass():
    seq = CarlesonSequence.from_entries(2, [(ROOT, 0.5)])
    T = SparseOperator(seq)
    zero = LeafWeight.constant(2, 0.0)
    one = LeafWeight.constant(2, 1.0)
    rep = sparse_testing_condition(T, zero, one)
    assert rep["u_to_v"]["sup"] == 0.0 and rep["u_to_v"]["ratios"] == []


def test_testing_swap_symmetry():
    rng = np.random.default_rng(2)
    seq = CarlesonSequence(3, [rng.uniform(0, 0.1, 2 ** k) for k in range(4)])
    T = SparseOperator(seq)
    u = LeafWeight(3, rng.uniform(0.1, 1, 8))
    v = LeafWeight(3, rng.uniform(0.1, 1, 8))
    a = sparse_testing_condition(T, u, v)
    b = sparse_testing_condition(T, v, u)
    assert a["u_to_v"]["sup"] == b["v_to_u"]["sup"]
    assert a["v_to_u"]["sup"] == b["u_to_v"]["sup"]


def _dense_operator(T, depth):
    """T as a 2**depth square matrix, built one dyadic interval at a time:
    (T f)(x) = sum over I containing x of a_I times the mean of f on I."""
    M = np.zeros((2 ** depth, 2 ** depth))
    for k in range(T.depth + 1):
        for pos in range(2 ** k):
            lo, hi = DyadicIndex(k, pos).leaf_range(depth)
            M[lo:hi, lo:hi] += T.coeffs.levels[k][pos] / (hi - lo)
    return M


def _dense_testing(T, u, v):
    """||chi_J T(u chi_J)||^2_{L^2(v)} / u(J) for every J with u(J) > 0, in
    level-then-position order, and the first strict maximum."""
    M, n = _dense_operator(T, u.depth), u.values.size
    ratios, sup, sup_at = [], 0.0, None
    for k in range(T.depth + 1):
        for pos in range(2 ** k):
            lo, hi = DyadicIndex(k, pos).leaf_range(u.depth)
            mass = u.values[lo:hi].sum() / n
            if mass <= 0.0:
                continue
            g = M[lo:hi, lo:hi] @ u.values[lo:hi]
            ratio = float(np.dot(g * g, v.values[lo:hi]) / n) / mass
            ratios.append(((k, pos), ratio))
            if ratio > sup:
                sup, sup_at = ratio, (k, pos)
    return {"ratios": ratios, "sup": sup, "sup_at": sup_at}


@pytest.mark.parametrize("depth", range(6))
@pytest.mark.parametrize("seed", range(3))
def test_testing_matches_dense_operator(depth, seed):
    inst = random_instance(depth, seed)
    rng = np.random.default_rng(100 + seed)
    u, v = inst["u"].values.copy(), inst["v"].values.copy()
    u[rng.random(u.size) < 0.3] = 0.0  # scattered zero-mass leaves
    u[:u.size // 4] = 0.0              # and a zero-mass subtree
    v[rng.random(v.size) < 0.2] = 0.0
    u, v = LeafWeight(depth, u), LeafWeight(depth, v)
    operators = [inst["T"]] + ([truncated(inst["T"], depth - 2)]
                               if depth >= 2 else [])
    for T in operators:  # the second one is shallower than the weights
        got = sparse_testing_condition(T, u, v)
        for key, w, w2 in (("u_to_v", u, v), ("v_to_u", v, u)):
            ref = _dense_testing(T, w, w2)
            assert [j for j, _ in got[key]["ratios"]] == \
                [j for j, _ in ref["ratios"]]
            for (_, r), (_, r_ref) in zip(got[key]["ratios"], ref["ratios"]):
                assert r == pytest.approx(r_ref, rel=1e-12, abs=0.0)
            assert got[key]["sup"] == pytest.approx(ref["sup"], rel=1e-12,
                                                    abs=0.0)
            assert got[key]["sup_at"] == ref["sup_at"]
        assert got["sup"] == max(got["u_to_v"]["sup"], got["v_to_u"]["sup"])


def test_testing_rejects_shallow_weight():
    T = random_instance(3, 0)["T"]
    w = LeafWeight.constant(2, 1.0)
    with pytest.raises(ValueError):
        sparse_testing_condition(T, w, w)


# ---------------------------------------------------------------------------
# bump_condition and normalizations
# ---------------------------------------------------------------------------

def test_bump_constant_weights_power_family():
    one = LeafWeight.constant(2, 1.0)
    rep = bump_condition(one, one, power_bump(2.0))
    # ||1||_{Phi} = 1 for any normalized Phi with Phi(1) = 1
    assert rep["B_uv_left"] == pytest.approx(1.0, rel=1e-10, abs=0)
    assert rep["B_uv_right"] == pytest.approx(1.0, rel=1e-10, abs=0)
    assert rep["A2"] == pytest.approx(1.0, rel=1e-12, abs=0)


def test_bump_disjoint_supports():
    u = LeafWeight(1, [2.0, 0.0])
    v = LeafWeight(1, [0.0, 2.0])
    rep = bump_condition(u, v, power_bump(2.0))
    # only the root sees both: <u> = <v> = 1 there, leaves give 0
    assert rep["A2"] == pytest.approx(1.0, rel=1e-12, abs=0)


def test_bump_scaling_homogeneity():
    rng = np.random.default_rng(5)
    u = LeafWeight(3, rng.uniform(0.1, 1, 8))
    v = LeafWeight(3, rng.uniform(0.1, 1, 8))
    base = bump_condition(u, v, FAM)
    scaled = bump_condition(u.scaled(3.0), v, FAM)
    assert scaled["B_uv_left"] == pytest.approx(
        3.0 * base["B_uv_left"], rel=1e-9, abs=0)
    assert scaled["A2"] == pytest.approx(3.0 * base["A2"], rel=1e-12, abs=0)


def test_normalize_to_bump_and_omega2():
    rng = np.random.default_rng(6)
    u = LeafWeight(4, rng.uniform(0.1, 2, 16))
    v = LeafWeight(4, rng.uniform(0.1, 2, 16))
    u2, v2 = normalize_to_bump(u, v, FAM, 0.01)
    rep = bump_condition(u2, v2, FAM)
    assert max(rep["B_uv_left"], rep["B_uv_right"]) == pytest.approx(
        0.01, rel=1e-8, abs=0)
    u3, v3 = normalize_to_omega2(u2, v2, 1e-3)
    worst = max(float(np.max(u3.node_averages(k) * v3.node_averages(k)))
                for k in range(5))
    assert worst <= 1e-3 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# glav recursion
# ---------------------------------------------------------------------------

def test_glav_zero_coefficients():
    T = SparseOperator(CarlesonSequence.from_entries(3, []))
    one = LeafWeight.constant(3, 1.0)
    G = glav_levels(one, one, T)
    assert all(np.all(g == 0.0) for g in G)


def test_glav_recursion_matches_bruteforce():
    rng = np.random.default_rng(7)
    seq = CarlesonSequence(4, [rng.uniform(0, 0.1, 2 ** k) for k in range(5)])
    T = SparseOperator(seq)
    u = LeafWeight(4, rng.uniform(0.2, 1.8, 16))
    v = LeafWeight(4, rng.uniform(0.2, 1.8, 16))
    G = glav_levels(u, v, T)
    for k in range(5):
        for pos in range(2 ** k):
            b = glav_brute(u, v, T, DyadicIndex(k, pos))
            assert G[k][pos] == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_glav_small_instance_exhaustive():
    # every {0, 1/3} coefficient pattern on the depth-2 tree (7 nodes),
    # recursion vs brute force to 1e-12 (the depth <= 4 exhaustive sweep
    # with three coefficient values runs in the acceptance suite)
    rng = np.random.default_rng(8)
    u = LeafWeight(2, rng.uniform(0.2, 1.8, 4))
    v = LeafWeight(2, rng.uniform(0.2, 1.8, 4))
    count = 0
    for bits in itertools.product([0.0, 1 / 3], repeat=7):
        levels = [np.array(bits[:1]), np.array(bits[1:3]), np.array(bits[3:7])]
        try:
            T = SparseOperator(CarlesonSequence(2, levels))
        except ValueError:
            continue  # intensity above 1
        G = glav_levels(u, v, T)
        for k in range(3):
            for pos in range(2 ** k):
                b = glav_brute(u, v, T, DyadicIndex(k, pos))
                assert abs(G[k][pos] - b) <= 1e-12 * max(1.0, abs(b))
        count += 1
    assert count >= 100


@pytest.mark.parametrize("seed", range(6))
def test_upward_recursions_are_exact(seed):
    # A, L and G share one recursion X_k = t_k + (X_+ + X_-) / 2; the
    # operation order is pinned bit for bit, not to a tolerance
    inst = random_instance(seed + 1, seed)
    u, v = inst["u"], inst["v"]
    for T in (inst["T"], truncated(inst["T"], seed // 2)):
        a = T.coeffs.levels
        L = l_intensity_levels(u, v, T.coeffs)
        cases = ((T.coeffs.intensity_levels(), lambda k: a[k]),
                 (L, lambda k: a[k] * u.node_averages(k) * v.node_averages(k)),
                 (glav_levels(u, v, T),
                  lambda k: a[k] * u.node_averages(k) * L[k]))
        for X, term in cases:
            assert len(X) == T.depth + 1
            assert np.array_equal(X[T.depth], term(T.depth))
            for k in range(T.depth):
                mids = (X[k + 1][0::2] + X[k + 1][1::2]) / 2
                assert np.array_equal(X[k], term(k) + mids)


def test_glav_ratio_scale_invariance():
    rng = np.random.default_rng(11)
    seq = CarlesonSequence(3, [rng.uniform(0, 0.1, 2 ** k) for k in range(4)])
    T = SparseOperator(seq)
    u = LeafWeight(3, rng.uniform(0.2, 1.8, 8))
    v = LeafWeight(3, rng.uniform(0.2, 1.8, 8))
    r1 = glav_check(u, v, T, FAM)["sup_ratio"]
    # the glav ratio G_I/u_I has degree (1, 1) in (u, v) jointly: scaling u
    # by t multiplies it by t (L is bilinear), scaling v by t likewise
    r2 = glav_check(u.scaled(2.0), v, T, FAM)["sup_ratio"]
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12, abs=0)


def test_glav_check_is_sup_plus_bump_constants():
    inst = random_instance(6, 2, family=FAM, bump_target=0.01)
    u, v, T = inst["u"], inst["v"], inst["T"]
    budget = default_budget(FAM)
    sup = glav_sup(u, v, T)
    assert sup["sup_ratio"] > 0 and sup["sup_at"] is not None
    assert sup["glav_root"] == float(glav_levels(u, v, T)[0][0])
    assert glav_check(u, v, T, FAM, budget) == {
        **sup, "bump": bump_condition(u, v, FAM), "budget": budget}


def test_glav_truncation_stability():
    fam = FAM
    inst = random_instance(8, 3, family=fam, bump_target=0.01,
                           omega2_delta=1e-3)
    u, v, T = inst["u"], inst["v"], inst["T"]
    full = glav_check(u, v, T, fam)["sup_ratio"]
    trunc = glav_check(u, v, truncated(T, 5), fam)["sup_ratio"]
    assert math.isfinite(full) and full > 0
    # coefficients decay geometrically per level, so the tail is small
    assert abs(full - trunc) <= 0.1 * full


# ---------------------------------------------------------------------------
# green_induction
# ---------------------------------------------------------------------------

def test_green_telescoping_is_exact():
    fam = FAM
    budget = default_budget(fam)
    inst = random_instance(6, 0, family=fam, bump_target=0.01,
                           omega2_delta=1e-3)
    rep = green_induction(inst["u"], inst["v"], inst["T"], fam, budget)
    assert rep["telescoping_residual"] <= 1e-10
    assert rep["pass"], rep
    assert rep["min_drop_constant"] > 0
    assert rep["excluded_nodes"] == []


def test_green_induction_keeps_no_weight_alive():
    # each level's step table is a local of the induction, so the weight
    # dies with the caller's last reference
    budget = default_budget(FAM)
    inst = random_instance(6, 0, family=FAM, bump_target=0.01,
                           omega2_delta=1e-3)
    green_induction(inst["u"], inst["v"], inst["T"], FAM, budget)
    ref = weakref.ref(inst["u"])
    del inst
    gc.collect()
    assert ref() is None


def test_green_random_suite_positive_drop():
    fam = FAM
    budget = default_budget(fam)
    mins = []
    for seed in range(10):
        inst = random_instance(5, seed, family=fam, bump_target=0.01,
                               omega2_delta=1e-3)
        rep = green_induction(inst["u"], inst["v"], inst["T"], fam, budget)
        assert rep["pass"], (seed, rep)
        mins.append(rep["min_drop_constant"])
    assert min(mins) > 0


def test_green_dominant_root_mass():
    # mass concentrated at the root, tiny uniform coefficients elsewhere so
    # A stays positive at every node and B1 remains finite
    fam = FAM
    budget = default_budget(fam)
    depth = 2
    levels = [np.full(2 ** k, 1e-4) for k in range(depth + 1)]
    levels[0][0] = 0.5
    seq = CarlesonSequence(depth, levels)
    u = LeafWeight.constant(depth, 0.02)
    v = LeafWeight.constant(depth, 0.02)
    rep = green_induction(u, v, SparseOperator(seq), fam, budget)
    assert rep["pass"], rep
    assert rep["drop_nodes"] == 3


def test_green_reports_divergent_nodes():
    # coefficients only at the root: child nodes have A = 0 with mass
    # present, where B1 = -inf; the report flags them instead of NaN-ing
    fam = FAM
    budget = default_budget(fam)
    seq = CarlesonSequence.from_entries(2, [(ROOT, 0.5)])
    u = LeafWeight.constant(2, 0.02)
    v = LeafWeight.constant(2, 0.02)
    rep = green_induction(u, v, SparseOperator(seq), fam, budget)
    assert rep["divergent_nodes"] and not rep["pass"]


def test_green_reports_omega2_exclusions():
    fam = FAM
    budget = default_budget(fam)
    # positive coefficients everywhere keep A > 0 (B1 finite), but
    # uv = 1 >> delta puts every node outside Omega2
    seq = CarlesonSequence(2, [np.full(2 ** k, 0.1) for k in range(3)])
    u = LeafWeight.constant(2, 1.0)
    v = LeafWeight.constant(2, 1.0)
    rep = green_induction(u, v, SparseOperator(seq), fam, budget)
    assert rep["excluded_nodes"] and not rep["pass"]
    assert rep["divergent_nodes"] == []


# A per-node induction: one BellmanNode per dyadic index and a Python
# exclusion and drop loop over the nodes.  Its report is the oracle for
# green_induction's per-level bookkeeping, byte for byte as JSON.

def _tree_nodes_oracle(u, v, T):
    A = T.coeffs.intensity_levels()
    L = l_intensity_levels(u, v, T.coeffs)
    nodes = []
    for k in range(T.depth + 1):
        row = []
        for pos in range(2 ** k):
            idx = DyadicIndex(k, pos)
            row.append(BellmanNode(u.average(idx), v.average(idx),
                                   float(L[k][pos]), float(A[k][pos]),
                                   StepDistribution.of(u, idx)))
        nodes.append(row)
    return nodes


def _green_oracle(u, v, T, family, budget):
    b1 = B1(family, budget.c1)
    b2 = B2(family.b2_model(), budget.c2)
    nodes = _tree_nodes_oracle(u, v, T)
    values = [np.array([master_bellman_eval(n, b1, b2) for n in row])
              for row in nodes]
    lengths = [2.0 ** (-k) for k in range(T.depth + 1)]
    divergent = [{"level": k, "pos": int(p)}
                 for k, row in enumerate(values)
                 for p in np.nonzero(~np.isfinite(row))[0]]
    if divergent:
        return {"telescoping_residual": math.inf, "telescoping_pass": False,
                "min_drop_constant": None, "min_drop_at": None,
                "drop_nodes": 0, "excluded_nodes": [],
                "divergent_nodes": divergent, "glav_sum": None,
                "u_root": nodes[0][0].u, "chain_holds": False, "pass": False}
    deltas = []
    drop_stats = []
    excluded = []
    for k in range(T.depth):
        d = lengths[k] * values[k] \
            - lengths[k + 1] * (values[k + 1][0::2] + values[k + 1][1::2])
        deltas.append(d)
        for pos in range(2 ** k):
            n = nodes[k][pos]
            uv = n.u * n.v
            if uv > budget.delta * (1 + 1e-12) \
                    or n.L > budget.P * math.sqrt(uv) * (1 + 1e-12):
                excluded.append({"level": k, "pos": pos, "uv": uv, "L": n.L})
                continue
            required = lengths[k] * T.coeffs.levels[k][pos] * n.u * n.L
            if required > 0:
                drop_stats.append(((k, pos), float(d[pos]) / required))
    lhs = values[0][0]
    bottom = lengths[T.depth] * float(values[T.depth].sum())
    rhs = bottom + float(sum(d.sum() for d in deltas))
    residual = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    min_c, min_at = math.inf, None
    for at, c in drop_stats:
        if c < min_c:
            min_c, min_at = c, at
    glav_sum = float(glav_levels(u, v, T)[0][0])
    u_root = nodes[0][0].u
    chain_holds = (not drop_stats or min_c <= 0 or glav_sum <= 0
                   or (budget.c1 + budget.c2) * u_root
                   >= min_c * glav_sum * (1 - 1e-12))
    return {
        "telescoping_residual": residual,
        "telescoping_pass": bool(residual <= 1e-10),
        "min_drop_constant": None if not drop_stats else min_c,
        "min_drop_at": min_at,
        "drop_nodes": len(drop_stats),
        "excluded_nodes": excluded,
        "divergent_nodes": [],
        "glav_sum": glav_sum,
        "u_root": u_root,
        "chain_holds": bool(chain_holds),
        "pass": bool(residual <= 1e-10
                     and (not drop_stats or min_c > 0)
                     and chain_holds
                     and not excluded),
    }


def _assert_green_matches_oracle(u, v, T, family, budget):
    rep = green_induction(u, v, T, family, budget)
    assert json.dumps(rep) == json.dumps(_green_oracle(u, v, T, family,
                                                       budget))
    return rep


@pytest.mark.parametrize("family", [FAM, power_bump(2.0)], ids=repr)
@pytest.mark.parametrize("depth", range(9))
def test_green_matches_per_node_oracle_random(family, depth):
    budget = default_budget(family)
    for seed in range(2):
        inst = random_instance(depth, seed, family=family, bump_target=0.01,
                               omega2_delta=budget.delta)
        _assert_green_matches_oracle(inst["u"], inst["v"], inst["T"],
                                     family, budget)


def test_green_matches_oracle_partial_omega2_exclusion():
    # uv = 0.02 > delta on the left half, 2e-4 on the right: the root and
    # the left subtree are excluded, the right subtree is not, so the order
    # of excluded_nodes is checked
    budget = default_budget(FAM)
    depth = 3
    u = LeafWeight(depth, [1.0] * 4 + [0.01] * 4)
    v = LeafWeight.constant(depth, 0.02)
    seq = CarlesonSequence(depth, [np.full(2 ** k, 0.1)
                                   for k in range(depth + 1)])
    rep = _assert_green_matches_oracle(u, v, SparseOperator(seq), FAM, budget)
    assert [(e["level"], e["pos"]) for e in rep["excluded_nodes"]] \
        == [(0, 0), (1, 0), (2, 0), (2, 1)]
    assert rep["drop_nodes"] == 3


def test_green_matches_oracle_on_the_omega2_slack():
    # uv overshoots delta by less than its 1e-12 relative slack: inside
    budget = default_budget(FAM)
    u = LeafWeight.constant(2, 0.02)
    v = LeafWeight.constant(2, 0.05 * (1 + 5e-13))
    assert 0.02 * v.average() > budget.delta
    seq = CarlesonSequence(2, [np.full(2 ** k, 0.1) for k in range(3)])
    rep = _assert_green_matches_oracle(u, v, SparseOperator(seq), FAM, budget)
    assert rep["excluded_nodes"] == [] and rep["drop_nodes"] == 3


def test_green_matches_oracle_divergent():
    budget = default_budget(FAM)
    seq = CarlesonSequence.from_entries(2, [(ROOT, 0.5)])
    u = LeafWeight.constant(2, 0.02)
    v = LeafWeight.constant(2, 0.02)
    rep = _assert_green_matches_oracle(u, v, SparseOperator(seq), FAM,
                                       budget)
    assert len(rep["divergent_nodes"]) == 6


@pytest.mark.parametrize("seed", range(3))
def test_green_matches_oracle_zero_and_tied_leaves(seed):
    budget = default_budget(FAM)
    inst = random_instance(6, seed, family=FAM, bump_target=0.01,
                           omega2_delta=budget.delta)
    values = inst["u"].values.copy()
    values[::3] = 0.0               # zero leaves, an all-zero node or two
    values[1::4] = values[2::4]     # ties inside a node
    values[:8] = 0.0
    u = LeafWeight(6, values)
    _assert_green_matches_oracle(u, inst["v"], inst["T"], FAM, budget)


def test_green_matches_oracle_first_of_equal_ratios_wins():
    # mirror-image halves give the two level-1 nodes bit-equal drop ratios,
    # and a = 0 at the root keeps it out of the statistic
    budget = default_budget(FAM)
    u = LeafWeight(2, [0.02, 0.03, 0.02, 0.03])
    v = LeafWeight.constant(2, 0.02)
    seq = CarlesonSequence(2, [np.zeros(1), np.full(2, 0.1),
                               np.full(4, 0.1)])
    rep = _assert_green_matches_oracle(u, v, SparseOperator(seq), FAM,
                                       budget)
    assert rep["drop_nodes"] == 2
    assert rep["min_drop_at"] == (1, 0)


# ---------------------------------------------------------------------------
# vavo_L_bound
# ---------------------------------------------------------------------------

def test_vavo_zero_coefficients():
    T = SparseOperator(CarlesonSequence.from_entries(2, []))
    one = LeafWeight.constant(2, 1.0)
    rep = vavo_L_bound(one, one, T)
    assert rep["worst_ratio"] == 0.0 and rep["pass"]


def test_vavo_root_only():
    seq = CarlesonSequence.from_entries(2, [(ROOT, 1.0)])
    one = LeafWeight.constant(2, 1.0)
    rep = vavo_L_bound(one, one, SparseOperator(seq))
    # L_root = 1 against P sqrt(uv) = 100
    assert rep["worst_ratio"] == pytest.approx(0.01, rel=1e-12, abs=0)
    assert rep["pass"] and not rep["conditional"]


def test_vavo_conditional_when_hypotheses_fail():
    seq = CarlesonSequence.from_entries(1, [(ROOT, 1.0)])
    u = LeafWeight.constant(1, 3.0)
    v = LeafWeight.constant(1, 3.0)  # A2 = 9 > 1
    rep = vavo_L_bound(u, v, SparseOperator(seq))
    assert rep["conditional"]


# ---------------------------------------------------------------------------
# instances and bundle I/O
# ---------------------------------------------------------------------------

def test_random_instance_is_deterministic():
    a = random_instance(5, 42)
    b = random_instance(5, 42)
    assert a["u"] == b["u"] and a["v"] == b["v"]
    assert all(np.array_equal(x, y) for x, y in
               zip(a["T"].coeffs.levels, b["T"].coeffs.levels))


def test_random_instance_carleson_below_one():
    for seed in range(5):
        inst = random_instance(6, seed)
        assert inst["T"].coeffs.max_intensity() < 1.0


def test_instance_bundle_roundtrip(tmp_path):
    inst = random_instance(4, 1, family=FAM, bump_target=0.01)
    save_instance(tmp_path / "inst", inst["u"], inst["v"], inst["T"])
    back = load_instance(tmp_path / "inst")
    assert back["u"] == inst["u"] and back["v"] == inst["v"]
    assert all(np.array_equal(x, y) for x, y in
               zip(back["T"].coeffs.levels, inst["T"].coeffs.levels))


@pytest.mark.parametrize("u_depth, v_depth, T_depth", [
    (4, 3, 3),  # u and v differ in depth
    (3, 4, 3),
    (2, 2, 3),  # the weights are shallower than T
])
def test_load_instance_rejects_mismatched_depths(tmp_path, u_depth, v_depth,
                                                 T_depth):
    T = random_instance(T_depth, 1)["T"]
    save_instance(tmp_path / "inst", random_instance(u_depth, 2)["u"],
                  random_instance(v_depth, 3)["v"], T)
    with pytest.raises(ValueError, match="depths"):
        load_instance(tmp_path / "inst")


def test_load_instance_takes_weights_deeper_than_T(tmp_path):
    inst = random_instance(4, 1)
    save_instance(tmp_path / "inst", inst["u"], inst["v"],
                  truncated(inst["T"], 2))
    back = load_instance(tmp_path / "inst")
    assert back["u"].depth == back["v"].depth == 4 and back["T"].depth == 2
