"""Tests for the dyadic tree primitives."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicbump.dyadic import (MAX_DEPTH, ROOT, CarlesonSequence, DyadicIndex,
                               LeafWeight, StepDistribution, TreeDepthError,
                               L_intensity, dyadic_maximal,
                               l_intensity_levels, stopping_family)


def leaf_weights(depth=3, max_value=8.0):
    return st.lists(st.floats(0.0, max_value, allow_nan=False),
                    min_size=2 ** depth, max_size=2 ** depth).map(
                        lambda vals: LeafWeight(depth, vals))


# ---------------------------------------------------------------------------
# DyadicIndex
# ---------------------------------------------------------------------------

def test_index_children_parent_involutive():
    idx = DyadicIndex(3, 5)
    left, right = idx.children()
    assert left == DyadicIndex(4, 10) and right == DyadicIndex(4, 11)
    assert left.parent() == idx and right.parent() == idx
    assert idx.length == 2.0 ** -3


def test_index_validation():
    with pytest.raises(ValueError):
        DyadicIndex(2, 4)
    with pytest.raises(ValueError):
        DyadicIndex(-1, 0)
    with pytest.raises(ValueError):
        ROOT.parent()


def test_index_contains():
    assert ROOT.contains(DyadicIndex(5, 17))
    assert DyadicIndex(1, 1).contains(DyadicIndex(2, 3))
    assert not DyadicIndex(1, 1).contains(DyadicIndex(2, 1))
    assert DyadicIndex(2, 1).contains(DyadicIndex(2, 1))
    assert not DyadicIndex(2, 1).contains(ROOT)


def test_leaf_range():
    assert DyadicIndex(1, 0).leaf_range(3) == (0, 4)
    assert DyadicIndex(2, 3).leaf_range(2) == (3, 4)
    with pytest.raises(ValueError):
        DyadicIndex(3, 0).leaf_range(2)


# ---------------------------------------------------------------------------
# LeafWeight and averages
# ---------------------------------------------------------------------------

def test_average_constant_weight():
    w = LeafWeight.constant(4, 2.5)
    for level in range(5):
        assert w.average(DyadicIndex(level, 0)) == 2.5


def test_average_two_leaves():
    assert LeafWeight(1, [2.0, 0.0]).average(ROOT) == 1.0


def test_average_direct_sum():
    w = LeafWeight(2, [4.0, 2.0, 1.0, 1.0])
    assert w.average(DyadicIndex(1, 0)) == 3.0
    assert w.average(DyadicIndex(1, 1)) == 1.0
    assert w.average(ROOT) == 2.0


def test_average_out_of_range():
    w = LeafWeight(2, [1, 1, 1, 1])
    with pytest.raises(ValueError):
        w.average(DyadicIndex(3, 0))


def test_depth_cap():
    with pytest.raises(TreeDepthError):
        LeafWeight(MAX_DEPTH + 1, np.zeros(2 ** (MAX_DEPTH + 1)))


def test_negative_values_rejected():
    with pytest.raises(ValueError):
        LeafWeight(1, [1.0, -0.5])


@given(leaf_weights())
@settings(max_examples=50, deadline=None)
def test_midpoint_recursion_exact(w):
    for level in range(w.depth):
        for pos in range(2 ** level):
            node = DyadicIndex(level, pos)
            left, right = node.children()
            assert w.average(node) == (w.average(left) + w.average(right)) / 2.0


def test_refine_and_coarsen_roundtrip():
    w = LeafWeight(2, [4.0, 2.0, 1.0, 1.0])
    fine = w.refined(3)
    assert fine.depth == 5
    assert fine.average(DyadicIndex(1, 0)) == 3.0
    assert fine.coarsened(2) == w


def test_weight_json_roundtrip(tmp_path):
    w = LeafWeight(3, np.arange(8.0))
    path = tmp_path / "w.json"
    w.save(path)
    again = LeafWeight.load(path)
    assert again == w
    blob = json.loads(path.read_text())
    assert set(blob) == {"depth", "values"}


# ---------------------------------------------------------------------------
# StepDistribution
# ---------------------------------------------------------------------------

def test_distribution_constant():
    dist = StepDistribution.of(LeafWeight.constant(3, 4.0), ROOT)
    assert dist.eval(0.5) == 1.0
    assert dist.eval(4.0) == 1.0
    assert dist.eval(4.0001) == 0.0


def test_distribution_two_leaf():
    dist = StepDistribution.of(LeafWeight(1, [2.0, 0.0]), ROOT)
    assert dist.eval(1.0) == 0.5
    assert dist.eval(2.0) == 0.5
    assert dist.eval(2.5) == 0.0


def test_distribution_integral_is_average():
    w = LeafWeight(2, [4.0, 2.0, 1.0, 1.0])
    assert StepDistribution.of(w, ROOT).integral() == w.average(ROOT) == 2.0


@given(leaf_weights())
@settings(max_examples=50, deadline=None)
def test_distribution_layer_cake(w):
    for pos in range(2):
        node = DyadicIndex(1, pos)
        dist = StepDistribution.of(w, node)
        assert dist.integral() == pytest.approx(w.average(node), rel=1e-12, abs=1e-12)


def test_distribution_midpoint_mix():
    w = LeafWeight(2, [4.0, 2.0, 1.0, 0.0])
    mixed = StepDistribution.midpoint_mix(
        StepDistribution.of(w, DyadicIndex(1, 0)),
        StepDistribution.of(w, DyadicIndex(1, 1)))
    whole = StepDistribution.of(w, ROOT)
    for t in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
        assert mixed.eval(t) == whole.eval(t)


def test_distribution_validation():
    with pytest.raises(ValueError):
        StepDistribution([1.0, 0.5], [1.0, 0.5])
    with pytest.raises(ValueError):
        StepDistribution([0.5, 1.0], [0.5, 1.0])


# ---------------------------------------------------------------------------
# Carleson sequences and intensities
# ---------------------------------------------------------------------------

def test_intensity_all_zero():
    seq = CarlesonSequence.zeros(3)
    assert seq.intensity_levels()[0][0] == 0.0
    assert seq.max_intensity() == 0.0


def test_intensity_root_only():
    seq = CarlesonSequence.from_entries(2, [(ROOT, 1.0)])
    assert seq.intensity_levels()[0][0] == 1.0
    assert seq.intensity_levels()[1][0] == 0.0
    # a level beyond the sequence's depth carries no coefficient
    assert seq.a(DyadicIndex(3, 0)) == 0.0


def test_intensity_direct_sum():
    entries = [(ROOT, 1 / 3), (DyadicIndex(1, 0), 1 / 3), (DyadicIndex(1, 1), 1 / 3)]
    seq = CarlesonSequence.from_entries(1, entries)
    assert seq.intensity_levels()[0][0] == pytest.approx(2 / 3, rel=1e-15)


def test_intensity_matches_double_sum():
    rng = np.random.default_rng(7)
    depth = 4
    levels = [rng.uniform(0, 0.2, 2 ** k) for k in range(depth + 1)]
    seq = CarlesonSequence(depth, levels)
    for level, pos in [(0, 0), (1, 1), (2, 3), (3, 5)]:
        node = DyadicIndex(level, pos)
        brute = sum(
            levels[k][j] * 2.0 ** -k
            for k in range(depth + 1) for j in range(2 ** k)
            if node.contains(DyadicIndex(k, j))) / node.length
        assert seq.intensity_levels()[level][pos] == pytest.approx(brute,
                                                                  rel=1e-12)


def test_l_intensity_trivial_cases():
    u = LeafWeight.constant(2, 2.0)
    v = LeafWeight.constant(2, 3.0)
    assert L_intensity(u, v, CarlesonSequence.zeros(2), ROOT) == 0.0
    seq = CarlesonSequence.from_entries(2, [(ROOT, 1.0)])
    assert L_intensity(u, v, seq, ROOT) == 6.0


def test_l_intensity_matches_double_sum():
    rng = np.random.default_rng(11)
    depth = 4
    u = LeafWeight(depth, rng.uniform(0, 3, 2 ** depth))
    v = LeafWeight(depth, rng.uniform(0, 3, 2 ** depth))
    levels = [rng.uniform(0, 0.3, 2 ** k) for k in range(depth + 1)]
    seq = CarlesonSequence(depth, levels)
    for level, pos in [(0, 0), (2, 2)]:
        node = DyadicIndex(level, pos)
        brute = sum(
            levels[k][j] * u.average(DyadicIndex(k, j)) * v.average(DyadicIndex(k, j))
            * 2.0 ** -k
            for k in range(depth + 1) for j in range(2 ** k)
            if node.contains(DyadicIndex(k, j))) / node.length
        assert L_intensity(u, v, seq, node) == pytest.approx(brute, rel=1e-12)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_intensity_recursion(seed):
    rng = np.random.default_rng(seed)
    depth = 3
    seq = CarlesonSequence(depth, [rng.uniform(0, 1, 2 ** k)
                                   for k in range(depth + 1)])
    levels = seq.intensity_levels()
    for k in range(depth):
        mids = (levels[k + 1][0::2] + levels[k + 1][1::2]) / 2.0
        assert np.array_equal(levels[k], seq.levels[k] + mids)


def test_carleson_check_chain_free_thirds():
    # a = 1/3 on a family covering at most 2/3 of each parent: bound 1 holds
    depth = 4
    entries = [(ROOT, 1 / 3)]
    frontier = [ROOT]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            left, _ = node.children()
            entries.append((left, 1 / 3))
            nxt.append(left)
        frontier = nxt
    seq = CarlesonSequence.from_entries(depth, entries, bound=1.0)
    assert seq.max_intensity() <= 1.0 + 1e-12
    assert seq.check()


def test_carleson_json_roundtrip(tmp_path):
    seq = CarlesonSequence.from_entries(
        2, [(ROOT, 0.5), (DyadicIndex(2, 3), 0.25)], bound=2.0)
    path = tmp_path / "seq.json"
    seq.save(path)
    again = CarlesonSequence.load(path)
    assert again.bound == 2.0
    assert again.a(ROOT) == 0.5
    assert again.a(DyadicIndex(2, 3)) == 0.25
    assert again.a(DyadicIndex(1, 1)) == 0.0


# ---------------------------------------------------------------------------
# Maximal operator and stopping families
# ---------------------------------------------------------------------------

def test_maximal_constant():
    w = LeafWeight.constant(3, 5.0)
    assert dyadic_maximal(w) == w


def test_maximal_two_leaf():
    assert dyadic_maximal(LeafWeight(1, [2.0, 0.0])) == LeafWeight(1, [2.0, 1.0])


@given(leaf_weights())
@settings(max_examples=50, deadline=None)
def test_maximal_dominates(w):
    m = dyadic_maximal(w)
    assert np.all(m.values >= w.values)
    assert m.integral() >= w.integral()


def test_stopping_family_empty():
    assert stopping_family(LeafWeight.constant(2, 1.0), 2.0) == []


def test_stopping_family_single():
    fam = stopping_family(LeafWeight(2, [4.0, 0.0, 0.0, 0.0]), 3.0)
    assert fam == [DyadicIndex(2, 0)]


def test_stopping_family_members_are_maximal():
    rng = np.random.default_rng(3)
    w = LeafWeight(5, rng.exponential(1.0, 32))
    fam = stopping_family(w, 2.0)
    for node in fam:
        assert w.average(node) >= 2.0
        if node.level > 0:
            assert w.average(node.parent()) < 2.0
    for a in fam:
        for b in fam:
            if a != b:
                assert not a.contains(b)


def test_stopping_family_doubling_bound():
    # parent below threshold forces member average <= 2 * threshold
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = LeafWeight(6, rng.exponential(1.0, 64))
        thr = 3.0
        for node in stopping_family(w, thr):
            if node.level > 0:
                assert w.average(node) <= 2.0 * thr


@given(leaf_weights(depth=4, max_value=4.0), st.floats(0.5, 6.0))
@settings(max_examples=50, deadline=None)
def test_stopping_family_chebyshev(w, thr):
    fam = stopping_family(w, thr)
    covered = sum(node.length for node in fam)
    assert covered <= w.average(ROOT) / thr + 1e-12
