"""Tests for the two-weight obstruction construction: band-constant
weights, the growing profile, the stopping hierarchy, the companion
weight, the divergence identity, and the joint-scaling probe."""

import itertools
import json
import math

import numpy as np
import pytest

from dyadicbump import obstruction
from dyadicbump.bumps import EpsilonModel, loglog_bump
from dyadicbump.dyadic import (CarlesonSequence, DyadicIndex, dyadic_maximal,
                               stopping_family)
from dyadicbump.obstruction import (
    ALPHA, BASE, BUNDLE_MAX_DEPTH, BandWeight, ConstructionIntegrityError,
    _b0_point, _generation, a2_supremum, b0_probe,
    build_alpha, build_hierarchy, build_u, build_v, divergence_sum,
    growth_table, instance_bundle, maximal_band_values, maximal_integral,
    obstruction_report,
)


# ---------------------------------------------------------------------------
# Band-constant weights against the leaf-array representation
# ---------------------------------------------------------------------------

class TestBandWeight:
    def test_validation(self):
        with pytest.raises(ValueError):
            BandWeight(3, np.ones(2))
        with pytest.raises(ValueError):
            BandWeight(2, np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            BandWeight(2, np.ones(2), last_value=-1.0)

    def test_integral_matches_leaf(self):
        u = build_u(6)
        w = u.to_leaf_weight()
        assert u.integral() == pytest.approx(w.average(), rel=0, abs=1e-15)

    def test_prefix_and_band_averages_match_leaf(self):
        u = BandWeight(5, np.array([2.0, 0.5, 7.0, 1.0, 3.0]), 0.25)
        w = u.to_leaf_weight()
        for m in range(6):
            assert u.average(DyadicIndex(m, 0)) == pytest.approx(
                w.average(DyadicIndex(m, 0)), rel=1e-14, abs=0)
        for k in range(5):
            assert u.average(DyadicIndex(k + 1, 1)) == pytest.approx(
                w.average(DyadicIndex(k + 1, 1)), rel=1e-14, abs=0)

    def test_average_matches_leaf_on_every_interval(self):
        # every dyadic interval down to the depth is a prefix or lies
        # inside one band; the last value must be reached too
        u = BandWeight(5, np.array([2.0, 0.5, 7.0, 1.0, 3.0]), 0.25)
        w = u.to_leaf_weight()
        intervals = [DyadicIndex(k, p) for k in range(6) for p in range(2 ** k)]
        assert len(intervals) == 63
        for index in intervals:
            assert u.average(index) == pytest.approx(w.average(index),
                                                     rel=1e-14, abs=0)
        with pytest.raises(ValueError):
            u.average(DyadicIndex(6, 3))

    @pytest.mark.parametrize("depth", [0, 1, 20])
    def test_leaves_match_band_slices(self, depth):
        # band k is the leaf slice [2^(depth-k-1), 2^(depth-k)), leaf 0 the
        # leftover interval
        u = BandWeight(depth, np.arange(1.0, depth + 1.0) ** 1.5, 0.75)
        expected = np.empty(2 ** depth)
        expected[0] = u.last_value
        for k in range(depth):
            lo = 2 ** (depth - k - 1)
            expected[lo:2 * lo] = u.band_values[k]
        assert np.array_equal(u.to_leaf_weight().values, expected)

    def test_prefix_level_out_of_range(self):
        u = build_u(4)
        with pytest.raises(ValueError):
            u.average(DyadicIndex(5, 0))

    def test_maximal_matches_leaf_oracle(self):
        # the compressed maximal function against the full leafwise oracle
        u = build_u(6)
        m_leaf = dyadic_maximal(u.to_leaf_weight())
        bands, last = maximal_band_values(u)
        m_band = BandWeight(6, bands, last).to_leaf_weight()
        np.testing.assert_allclose(m_band.values, m_leaf.values, rtol=1e-14)
        assert maximal_integral(u) == pytest.approx(m_leaf.average(),
                                                    rel=1e-14, abs=0)

    def test_maximal_cutoff_is_a_suffix(self):
        u = build_u(8)
        bands, last = maximal_band_values(u)
        widths = 0.5 ** (np.arange(8) + 1)
        manual = float(np.dot(bands[3:], widths[3:])) + last * 0.5 ** 8
        assert maximal_integral(u, cutoff_band=3) == pytest.approx(manual)


# ---------------------------------------------------------------------------
# The growing profile
# ---------------------------------------------------------------------------

class TestProfile:
    def test_first_band_value(self):
        assert build_u(1).band_values[0] == 1.0

    def test_integral_bounded_uniformly(self):
        # integral = (1/2) sum 1/(k+1)^2 < pi^2 / 12 at every depth
        for d in (5, 20, 60):
            assert build_u(d).integral() < math.pi ** 2 / 12

    def test_integral_tail_small_beyond_twenty(self):
        assert build_u(40).integral() - build_u(20).integral() < 0.025

    def test_maximal_integral_grows_like_log(self):
        # M^d u >= prefix averages ~ 2^m u-integral tail; the integral of
        # the maximal function grows at least logarithmically in depth
        vals = [maximal_integral(build_u(d)) for d in (10, 40, 160)]
        assert vals[1] - vals[0] > 0.25
        # log growth: equal depth-ratios give comparable increments
        inc1, inc2 = vals[1] - vals[0], vals[2] - vals[1]
        assert 0.5 < inc2 / inc1 < 2.0

    def test_custom_profile(self):
        # band k holds k + 1; leaves run left to right from [0, 1/8)
        u = BandWeight(3, [float(k + 1) for k in range(3)], 0.0)
        np.testing.assert_allclose(u.band_values, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(u.to_leaf_weight().values,
                                      [0.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# Stopping hierarchy
# ---------------------------------------------------------------------------

class TestHierarchy:
    def test_flat_weight_has_no_generations(self):
        u = BandWeight(6, np.ones(6), 1.0)
        h = build_hierarchy(u)
        assert h.generations == []

    def test_depth_ten_first_generation(self):
        # at depth 10 the first threshold 3 is met only by the two deepest
        # bands; no prefix qualifies
        u = build_u(10)
        h = build_hierarchy(u)
        assert h.generations[0] == [DyadicIndex(9, 1), DyadicIndex(10, 1)]

    def test_structural_invariants_depth_forty(self):
        u = build_u(40)
        h = build_hierarchy(u)
        assert h.generations
        assert h.sv_ok and h.sn_ok
        # (sv): member averages within [3^n, 2*3^n]
        for n, mem in h.all_members():
            a = u.average(mem)
            assert 3.0 ** n <= a <= 2.0 * 3.0 ** n + 1e-12

    def test_generations_nest(self):
        u = build_u(30)
        h = build_hierarchy(u)
        for n in range(1, len(h.generations)):
            for mem in h.generations[n]:
                assert any(p.contains(mem) for p in h.generations[n - 1])

    @staticmethod
    def _generations_match_leaf_oracle(u):
        """The band shortcut against the leaf-array stopping family at
        every threshold 3^n up to the first empty generation."""
        leaves = u.to_leaf_weight()
        for n in itertools.count(1):
            want = stopping_family(leaves, BASE ** n)
            assert sorted(_generation(u, BASE ** n)) == want, (u, n)
            if not want:
                return n

    @pytest.mark.parametrize("depth", range(1, 15))
    def test_generation_matches_stopping_family(self, depth):
        self._generations_match_leaf_oracle(build_u(depth))

    def test_generation_matches_stopping_family_random(self):
        rng = np.random.default_rng(17)
        for depth in range(1, 13):
            for _ in range(6):
                # growing bands, so that several generations are nonempty
                bands = rng.lognormal(0.0, 1.5, depth) * 2.0 ** np.arange(depth)
                u = BandWeight(depth, bands, float(rng.lognormal(0.0, 1.5)))
                self._generations_match_leaf_oracle(u)


# ---------------------------------------------------------------------------
# Companion weight
# ---------------------------------------------------------------------------

class TestCompanionWeight:
    def test_product_is_one_at_every_member(self):
        u = build_u(25)
        h = build_hierarchy(u)
        built = build_v(u, h)
        v_pre = built["v_pre"]
        for _, mem in h.all_members():
            assert u.average(mem) * v_pre.average(mem) == pytest.approx(
                1.0, rel=1e-12, abs=0)

    def test_final_scaling_is_one_ninth(self):
        u = build_u(15)
        built = build_v(u, build_hierarchy(u))
        np.testing.assert_allclose(built["v"].band_values,
                                   built["v_pre"].band_values / 9.0)
        assert built["v"].last_value == pytest.approx(
            built["v_pre"].last_value / 9.0)

    def test_a2_bounded_after_scaling(self):
        u = build_u(40)
        built = build_v(u, build_hierarchy(u))
        assert a2_supremum(u, built["v"]) <= 1.0 + 1e-12

    def test_out_of_range_constant_raises(self):
        # a profile whose member averages force a solved constant outside
        # (1, 9) must be rejected, not silently accepted
        u = BandWeight(10, 4.0 ** np.arange(10), 0.0)
        h = build_hierarchy(u)
        with pytest.raises(ConstructionIntegrityError):
            build_v(u, h)


# ---------------------------------------------------------------------------
# Coefficient family and the divergence identity
# ---------------------------------------------------------------------------

class TestDivergence:
    def test_alpha_of_empty_hierarchy(self):
        u = BandWeight(6, np.ones(6), 1.0)
        alpha = build_alpha(build_hierarchy(u), 6)
        assert alpha["carleson_sup"] == 0.0 and alpha["pass"]

    def test_alpha_carleson_bounded(self):
        u = build_u(40)
        alpha = build_alpha(build_hierarchy(u), 40)
        assert alpha["pass"]

    def test_identity_and_maximal_bound(self):
        u = build_u(40)
        h = build_hierarchy(u)
        div = divergence_sum(u, build_v(u, h)["v_pre"], h)
        assert div["identity_pass"]
        assert div["identity_residual"] <= 1e-10
        assert div["maximal_bound_pass"]
        # partial sums nondecreasing
        assert all(b >= a for a, b in zip(div["S"], div["S"][1:]))

    def test_growth_table_monotone(self):
        rows = growth_table(depths=(10, 20, 40))
        ratios = [r["ratio"] for r in rows]
        assert ratios[0] < ratios[1] < ratios[2]
        inc1, inc2 = ratios[1] - ratios[0], ratios[2] - ratios[1]
        assert abs(inc1 - inc2) <= 0.35 * max(inc1, inc2)

    def test_report_end_to_end(self):
        rep = obstruction_report(20)
        assert rep["sv_ok"] and rep["sn_ok"]
        assert rep["product_residual"] <= 1e-12
        assert rep["a2_pass"] and rep["carleson_pass"]
        assert rep["divergence"]["identity_pass"]
        assert rep["pass"]

    def test_report_is_plain_data(self):
        rep = obstruction_report(12)
        assert json.loads(json.dumps(rep)) == rep

    @staticmethod
    def _conjunction(rep):
        # the verdict as the obstruction campaign once spelled it out
        return (rep["sv_ok"] and rep["sn_ok"]
                and rep["product_residual"] <= 1e-10
                and rep["a2_pass"] and rep["carleson_pass"]
                and rep["divergence"]["identity_pass"]
                and rep["divergence"]["maximal_bound_pass"])

    def test_verdict_is_the_seven_checks(self):
        for depth in range(1, 41):
            rep = obstruction_report(depth)
            assert rep["pass"] is bool(self._conjunction(rep)), depth

    def test_verdict_fails_with_one_check(self, monkeypatch):
        monkeypatch.setattr(obstruction, "a2_supremum", lambda u, v: 2.0)
        rep = obstruction_report(12)
        assert not rep["a2_pass"] and not rep["pass"]
        assert rep["pass"] is bool(self._conjunction(rep))


# ---------------------------------------------------------------------------
# The leaf-array instance bundle
# ---------------------------------------------------------------------------

def _inline_bundle(depth):
    # the bundle as the obstruction campaign once built it from its report
    u = build_u(depth)
    h = build_hierarchy(u)
    entries = [(mem, 1.0 / 3.0) for _, mem in h.all_members()]
    seq = CarlesonSequence.from_entries(depth, entries)
    return (u.to_leaf_weight(), build_v(u, h)["v"].to_leaf_weight(), seq,
            [mem for _, mem in h.all_members()])


class TestInstanceBundle:
    @pytest.mark.parametrize("depth", [1, 12, 20])
    def test_bundle_matches_inline_construction(self, depth):
        u, v, T = instance_bundle(depth)
        u_old, v_old, seq_old, members = _inline_bundle(depth)
        assert u.depth == v.depth == T.depth == depth
        assert u.values.tobytes() == u_old.values.tobytes()
        assert v.values.tobytes() == v_old.values.tobytes()
        assert [a.tobytes() for a in T.coeffs.levels] \
            == [a.tobytes() for a in seq_old.levels]
        # alpha = 1/3 on every stopping member and nowhere else
        nonzero = {DyadicIndex(k, int(p))
                   for k, arr in enumerate(T.coeffs.levels)
                   for p in np.nonzero(arr)[0]}
        assert nonzero == set(members)
        assert all(T.coeffs.levels[m.level][m.pos] == ALPHA == 1.0 / 3.0
                   for m in members)

    def test_bundle_depth_is_capped(self):
        u, v, T = instance_bundle(BUNDLE_MAX_DEPTH + 7)
        assert u.depth == v.depth == T.depth == BUNDLE_MAX_DEPTH == 20
        assert u.values.tobytes() \
            == instance_bundle(BUNDLE_MAX_DEPTH)[0].values.tobytes()


# ---------------------------------------------------------------------------
# The joint-scaling probe
# ---------------------------------------------------------------------------

class TestB0Probe:
    def test_power_quarter_has_uniform_floor(self):
        r = b0_probe(EpsilonModel("power", beta=0.25), n_points=60)
        assert r["floor_pass"] and r["c_joint"] > 0
        assert r["bounds_pass"] and r["envelope_pass"]
        assert r["da_nonneg_pass"]
        assert r["fd_checked"] > 0 and r["fd_pass"]
        assert r["concavity_in_A_pass"]

    def test_logpow_has_uniform_floor(self):
        r = b0_probe(EpsilonModel("logpow", kappa=1.5), n_points=60)
        assert r["floor_pass"] and r["c_joint"] > 0
        assert r["bounds_pass"] and r["envelope_pass"] and r["fd_pass"]

    def test_no_gap_floor_collapses(self):
        # the truncated candidate's floor constant shrinks as the
        # truncation is removed: no uniform derivative floor exists
        r = b0_probe(EpsilonModel("const"), n_points=60)
        assert not r["floor_pass"]
        assert r["floor_collapse"]
        cs = [row["c_joint"] for row in r["floors"]]
        assert cs[0] > cs[1] > cs[2]
        assert r["bounds_pass"] and r["envelope_pass"] and r["fd_pass"]

    def test_custom_kind_rejected(self):
        # only the named kinds exist: power, logpow and const
        with pytest.raises(ValueError):
            EpsilonModel("custom")

    def test_deterministic(self):
        m = EpsilonModel("power", beta=0.25)
        assert b0_probe(m, n_points=40, seed=7) == b0_probe(m, n_points=40,
                                                            seed=7)


# ---------------------------------------------------------------------------
# The array probe against the per-point oracle
# ---------------------------------------------------------------------------

def _b0_point_oracle(model, C, u, v, A, P, y_floor):
    # the scalar evaluation that b0_probe made once per sample point
    lo, hi = u * v, P * math.sqrt(u * v)
    grid = np.geomspace(lo, hi, 24)
    z = grid / (A + 1.0)
    if y_floor is None:
        w = model.tail_mass(z)
    else:
        w = np.array([max(0.0, model.coeff * math.log(float(s) / y_floor))
                      for s in z])
    terms = grid * grid / v * w
    i_star = int(np.argmax(terms))
    l_star = float(grid[i_star])
    z_star = l_star / (A + 1.0)
    da = l_star / v * float(model.inverse(z_star))
    return {
        "value": C * u - float(terms[i_star]),
        "argmax_at_top": i_star == grid.size - 1,
        "da": da,
    }


def _b0_probe_oracle(model, delta=1e-3, P=100.0, n_points=120, seed=0):
    # b0_probe's per-point loop, kept literally
    delta_used = min(delta, 0.5 * (model.z_cap / P) ** 2)
    floors = [None] if model.kind != "const" else [1e-6, 1e-12, 1e-24]
    per_floor = []
    env_ok = True
    bounds_ok = True
    da_min = math.inf
    fd_max_rel = 0.0
    fd_checked = 0
    for y_floor in floors:
        if y_floor is None:
            t_min = 1e-3 * delta_used
        else:
            t_min = 10.0 * (2.0 * y_floor / P) ** 2
        rng = np.random.default_rng(seed)
        t = np.exp(rng.uniform(math.log(t_min), math.log(delta_used), n_points))
        uu = 10.0 ** rng.uniform(-1.0, 1.0, n_points)
        aa = rng.uniform(0.0, 1.0, n_points)
        aa[:2] = (0.0, 1.0)
        t[:2] = (t_min, delta_used)
        z_top = P * math.sqrt(delta_used)
        if y_floor is None:
            c_budget = 1.0 + P * P * float(model.tail_mass(z_top))
        else:
            c_budget = 1.0 + P * P * max(
                0.0, model.coeff * math.log(z_top / y_floor))
        lam = 0.0
        gamma = math.inf
        for u, tv, A in zip(uu, t, aa):
            v = tv / u
            pt = _b0_point_oracle(model, c_budget, u, v, A, P, y_floor)
            env_ok &= pt["argmax_at_top"]
            bounds_ok &= -1e-12 * c_budget * u <= pt["value"] \
                <= c_budget * u * (1 + 1e-12)
            lam = max(lam, pt["value"] / u)
            gamma = min(gamma, pt["da"] / (u * u * v))
            da_min = min(da_min, pt["da"])
            h = 1e-4 * (A + 1.0)
            if 0.0 <= A - h and A + h <= 1.0 \
                    and pt["da"] * h > 1e5 * np.finfo(float).eps * c_budget * u:
                up = _b0_point_oracle(model, c_budget, u, v, A + h, P, y_floor)
                dn = _b0_point_oracle(model, c_budget, u, v, A - h, P, y_floor)
                fd = (up["value"] - dn["value"]) / (2 * h)
                fd_max_rel = max(fd_max_rel, abs(fd - pt["da"]) / pt["da"])
                fd_checked += 1
        per_floor.append({
            "y_floor": y_floor,
            "C": c_budget,
            "Lambda": lam,
            "gamma": gamma,
            "c_joint": gamma / lam if lam > 0 else math.inf,
        })
    u0, v0 = 1.0, delta_used
    a_line = np.linspace(0.0, 1.0, 33)
    vals = np.array([_b0_point_oracle(model, per_floor[0]["C"], u0, v0, a, P,
                                      floors[0])["value"] for a in a_line])
    second = np.diff(vals, 2)
    concave_ok = bool(np.all(second <= 1e-9 * max(1.0, float(np.abs(vals).max()))))
    c_joints = [row["c_joint"] for row in per_floor]
    if model.kind == "const":
        collapse = all(b < a * (1 - 1e-6) for a, b in zip(c_joints, c_joints[1:]))
        floor_pass = False
    else:
        collapse = False
        floor_pass = c_joints[0] > 1e-12
    return {
        "kind": model.kind,
        "points": int(n_points),
        "delta_used": delta_used,
        "floors": per_floor,
        "c_joint": c_joints[0],
        "floor_pass": bool(floor_pass),
        "floor_collapse": bool(collapse),
        "bounds_pass": bool(bounds_ok),
        "envelope_pass": bool(env_ok),
        "da_min": float(da_min),
        "da_nonneg_pass": bool(da_min >= 0.0),
        "fd_checked": fd_checked,
        "fd_max_rel": float(fd_max_rel),
        "fd_pass": bool(fd_checked == 0 or fd_max_rel <= 1e-4),
        "concavity_in_A_pass": concave_ok,
    }


ORACLE_MODELS = {
    "power-0.25": EpsilonModel("power", beta=0.25),
    "loglog-2-0.1": loglog_bump(2.0, 0.1).epsilon_model(),
    "logpow-1.5": EpsilonModel("logpow", kappa=1.5),
    "const": EpsilonModel("const"),
}


@pytest.mark.parametrize("n_points", [12, 60, 120])
@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_b0_probe_matches_per_point_oracle(name, n_points):
    # every reported value over twelve seeds, bit for bit but fd_max_rel: a
    # roundoff measurement near 5e-9, which the array f(z*) moves by about
    # 1e-16 (power-0.25 at 120 points, seed 3)
    model = ORACLE_MODELS[name]
    for seed in range(12):
        got = b0_probe(model, n_points=n_points, seed=seed)
        want = _b0_probe_oracle(model, n_points=n_points, seed=seed)
        assert got.pop("fd_max_rel") == pytest.approx(
            want.pop("fd_max_rel"), rel=0, abs=1e-14), (name, n_points, seed)
        assert json.dumps(got) == json.dumps(want), (name, n_points, seed)


@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_b0_point_rows_match_scalar_calls(name):
    model = ORACLE_MODELS[name]
    rng = np.random.default_rng(5)
    uv_top = min(1e-4, 0.5 * (model.z_cap / 100.0) ** 2)
    u = 10.0 ** rng.uniform(-1.0, 1.0, 40)
    v = np.exp(rng.uniform(math.log(1e-3 * uv_top), math.log(uv_top), 40)) / u
    A = rng.uniform(0.0, 1.0, 40)
    y_floor = 1e-9 if model.kind == "const" else None
    got = _b0_point(model, 3.0, u, v, A, 100.0, y_floor)
    for i in range(40):
        want = _b0_point_oracle(model, 3.0, u[i], v[i], A[i], 100.0, y_floor)
        # f(z*) is one array call, which may differ from the scalar one in
        # the last bit
        assert got["da"][i] == pytest.approx(want.pop("da"), rel=1e-15, abs=0)
        assert {k: got[k][i] for k in want} == want


def test_b0_point_counts_one_call_per_batch(monkeypatch):
    # one call for the points of each floor, one for each side of the
    # finite differences, one for the concavity line
    calls = []
    inner = obstruction._b0_point

    def counted(*args):
        calls.append(args[2].size)
        return inner(*args)

    monkeypatch.setattr(obstruction, "_b0_point", counted)
    r = b0_probe(EpsilonModel("const"), n_points=60)
    assert len(calls) == 10 and calls[-1] == 33
    assert sum(calls) == 3 * 60 + 2 * r["fd_checked"] + 33
