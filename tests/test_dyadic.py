"""Tests for the dyadic tree primitives."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadicbump import dyadic
from dyadicbump.dyadic import (MAX_DEPTH, ROOT, CarlesonSequence, DyadicIndex,
                               LeafWeight, StepDistribution, TreeDepthError,
                               dyadic_maximal, l_intensity_levels,
                               stopping_family)
from dyadicbump.obstruction import build_u


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
# subnormal averages: dividing a sum by its leaf count rounds twice here
@example(LeafWeight(3, [0.0] * 6 + [2.225073858507e-311, 5e-324]))
def test_midpoint_recursion_exact(w):
    for level in range(w.depth):
        for pos in range(2 ** level):
            node = DyadicIndex(level, pos)
            left, right = node.children()
            assert w.average(node) == (w.average(left) + w.average(right)) / 2.0


def test_refine_and_coarsen_roundtrip():
    w = LeafWeight(2, [4.0, 2.0, 1.0, 1.0])
    # the same step function on a grid three levels finer
    fine = LeafWeight(5, np.repeat(w.values, 8))
    assert fine.depth == 5
    assert fine.average(DyadicIndex(1, 0)) == 3.0
    assert fine.coarsened(2) == w


def test_weight_json_roundtrip(tmp_path):
    w = LeafWeight(3, np.arange(8.0))
    path = tmp_path / "w.json"
    with open(path, "w") as fh:
        json.dump(w.to_json(), fh)
    again = LeafWeight.load(path)
    assert again == w
    blob = json.loads(path.read_text())
    assert set(blob) == {"depth", "values"}


def _json_roundtrip(w: LeafWeight) -> LeafWeight:
    return LeafWeight.from_json(json.loads(json.dumps(w.to_json())))


def test_weight_json_runs_of_a_band_weight():
    w = build_u(12).to_leaf_weight()
    blob = w.to_json()
    # one run for the leftover leaf and one per band
    assert blob["repeats"] == [1] + [2 ** j for j in range(12)]
    assert blob["values"] == [w.values[0]] + [w.values[2 ** j]
                                              for j in range(12)]
    again = _json_roundtrip(w)
    assert again.depth == 12 and np.array_equal(again.values, w.values)


@pytest.mark.parametrize("w", [
    LeafWeight.constant(5, 2.5),
    LeafWeight(0, [3.0]),
    LeafWeight(4, [0.0] * 3 + [1.0] * 2 + [0.0] * 6 + [2.0] + [0.0] * 4),
    LeafWeight(3, np.zeros(8)),
], ids=["constant", "depth0", "zero-runs", "all-zero"])
def test_weight_json_runs_roundtrip(w):
    again = _json_roundtrip(w)
    assert again.depth == w.depth and np.array_equal(again.values, w.values)
    runs = w.to_json().get("repeats", [1])
    assert sum(runs) == 2 ** w.depth


def test_weight_json_constant_is_one_run():
    assert LeafWeight.constant(5, 2.5).to_json() == {
        "depth": 5, "values": [2.5], "repeats": [32]}
    # a single leaf is a single run of length one: no repeats
    assert LeafWeight(0, [3.0]).to_json() == {"depth": 0, "values": [3.0]}


def test_weight_json_zero_length_runs_load():
    w = LeafWeight.from_json({"depth": 2, "values": [1.0, 9.0, 2.0, 3.0],
                              "repeats": [1, 0, 2, 1]})
    assert np.array_equal(w.values, [1.0, 2.0, 2.0, 3.0])


def test_weight_json_plain_band_values_still_load():
    w = build_u(10).to_leaf_weight()
    plain = {"depth": 10, "values": w.values.tolist()}
    assert np.array_equal(LeafWeight.from_json(plain).values, w.values)


@pytest.mark.parametrize("repeats", [
    [4, 3],          # sums to 7, not 8
    [4, 5],          # sums to 9
    [9, -1],         # negative run
    [8],             # one count for two values
    [4.0, 4.0],      # not integers
    [True, True],
    [[4, 4]],
    8,
], ids=["short", "long", "negative", "length", "float", "bool", "nested",
        "scalar"])
def test_weight_json_bad_repeats_raise(repeats):
    with pytest.raises(ValueError):
        LeafWeight.from_json({"depth": 3, "values": [1.0, 2.0],
                              "repeats": repeats})


@pytest.mark.parametrize("blob", [
    {"depth": 1, "values": ["0.5", True]},
    {"depth": 1, "values": [0.5, True]},
    {"depth": 1, "values": [0.5, None]},
    {"depth": 1, "values": [[0.5, 1.0]]},
    {"depth": 1, "values": 0.5},
    {"depth": True, "values": [0.5, 1.0]},
    {"depth": "1", "values": [0.5, 1.0]},
    {"depth": 1.0, "values": [0.5, 1.0]},
], ids=["str-and-bool", "bool", "null", "nested", "scalar", "bool-depth",
        "str-depth", "float-depth"])
def test_weight_json_non_numeric_raise(blob):
    # numpy would read "0.5" as 0.5 and true as 1.0
    with pytest.raises(ValueError):
        LeafWeight.from_json(blob)


def test_weight_json_integer_values_load():
    assert np.array_equal(
        LeafWeight.from_json({"depth": 1, "values": [2, 0.5]}).values,
        [2.0, 0.5])


def test_constructors_copy_what_another_name_can_write():
    # a writeable array, and a read-only view of a writeable one
    arr = np.arange(4.0) / 8.0
    owner = np.arange(4.0) / 8.0
    view = owner[:]
    view.setflags(write=False)
    for given, writer in ((arr, arr), (view, owner)):
        w = LeafWeight(2, given)
        seq = CarlesonSequence(2, [np.zeros(1), np.zeros(2), given])
        writer[0] = 1.0
        assert w.values[0] == 0.0 and seq.levels[2][0] == 0.0
        assert not w.values.flags.writeable
        assert all(not a.flags.writeable for a in seq.levels)


@pytest.mark.parametrize("bad", [-0.5, 1.5, np.nan],
                         ids=["negative", "above-one", "nan"])
def test_carleson_coefficients_outside_unit_interval_are_rejected(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        CarlesonSequence(1, [np.array([bad]), np.zeros(2)])


def test_constructors_keep_a_read_only_array_they_alone_hold():
    # what from_json and from_entries hand over is built once, not copied
    arr = np.arange(4.0)
    arr.setflags(write=False)
    assert LeafWeight(2, arr).values is arr
    levels = [np.zeros(2 ** k) for k in range(3)]
    for a in levels:
        a.setflags(write=False)
    assert all(kept is a for kept, a in
               zip(CarlesonSequence(2, levels).levels, levels))
    loaded = LeafWeight.from_json({"depth": 2, "values": [1.0, 2.0],
                                   "repeats": [1, 3]})
    assert loaded.values.base is None and not loaded.values.flags.writeable


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
    # a repeated infinite threshold is not strictly increasing either
    with pytest.raises(ValueError):
        StepDistribution([1.0, np.inf, np.inf], [1.0, 0.5, 0.25])


# leaves from a small pool, so zero leaves, ties, subnormals and all-zero
# intervals are common
LEAF_POOL = (0.0, 5e-324, 2.225073858507e-311, 1e-300, 0.25, 0.5, 1.0, 3.0)


@st.composite
def weight_and_index(draw):
    depth = draw(st.integers(0, 5))
    values = draw(st.lists(st.sampled_from(LEAF_POOL) | st.floats(0.0, 8.0),
                           min_size=2 ** depth, max_size=2 ** depth))
    level = draw(st.integers(0, depth))
    pos = draw(st.integers(0, 2 ** level - 1))
    return LeafWeight(depth, values), DyadicIndex(level, pos)


@given(weight_and_index())
@settings(max_examples=200, deadline=None)
@example((LeafWeight(2, [0.0, 0.0, 5e-324, 5e-324]), DyadicIndex(1, 0)))
@example((LeafWeight(2, [0.0, 5e-324, 5e-324, 1.0]), ROOT))
def test_distribution_of_matches_unique(case):
    w, idx = case
    lo, hi = idx.leaf_range(w.depth)
    vals = w.values[lo:hi]
    pos = np.sort(vals[vals > 0])
    uniq, first = np.unique(pos, return_index=True)
    dist = StepDistribution.of(w, idx)
    assert np.array_equal(dist.thresholds, uniq)
    assert np.array_equal(dist.fractions, (pos.size - first) / vals.size)


@given(weight_and_index())
@settings(max_examples=200, deadline=None)
@example((LeafWeight(2, [0.0, 0.0, 0.0, 0.0]), ROOT))
@example((LeafWeight(2, [0.0, 0.0, 3.0, 3.0]), DyadicIndex(1, 0)))
@example((LeafWeight(1, [0.0, 3.0]), DyadicIndex(1, 1)))
@example((LeafWeight(0, [0.5]), ROOT))
def test_distribution_of_passes_the_constructor_checks(case):
    # of builds its result without __init__; the public constructor must
    # accept it as it stands and keep the same arrays
    dist = StepDistribution.of(*case)
    again = StepDistribution(dist.thresholds, dist.fractions)
    assert dist.thresholds.dtype == dist.fractions.dtype == np.float64
    assert np.array_equal(again.thresholds, dist.thresholds)
    assert np.array_equal(again.fractions, dist.fractions)


# StepDistribution.of slices a table of the whole level, built from one
# row-wise sort.  Its oracle is a per-node sort: mask, copy and sort the
# node's leaves, then keep the start of each run of equal values.

def _of_by_sort(w, index):
    lo, hi = index.leaf_range(w.depth)
    vals = w.values[lo:hi]
    pos = vals[vals > 0]
    pos.sort()
    if pos.size == 0:
        return np.empty(0), np.empty(0)
    keep = np.empty(pos.size, dtype=bool)
    keep[0] = True
    np.not_equal(pos[1:], pos[:-1], out=keep[1:])
    first = keep.nonzero()[0]
    return pos[first], (pos.size - first) / vals.size


def _assert_of_is_the_sort(w, index):
    dist = StepDistribution.of(w, index)
    t, n = _of_by_sort(w, index)
    assert dist.thresholds.tobytes() == t.tobytes()
    assert dist.fractions.tobytes() == n.tobytes()
    assert dist.widths.tobytes() == StepDistribution(t, n).widths.tobytes()
    assert all(not arr.flags.writeable
               for arr in (dist.thresholds, dist.fractions, dist.widths))


def _pool_weight(depth, seed):
    """Leaves from LEAF_POOL with half of them uniform, and the first
    quarter zero, so all-zero nodes, ties and 5e-324 are common."""
    rng = np.random.default_rng(seed)
    vals = rng.choice(LEAF_POOL, 2 ** depth)
    vals = np.where(rng.random(2 ** depth) < 0.5, vals,
                    rng.uniform(0.0, 4.0, 2 ** depth))
    vals[:2 ** depth // 4] = 0.0
    return LeafWeight(depth, vals)


@pytest.mark.parametrize("depth", range(9))
def test_of_is_the_per_node_sort_in_shuffled_order(depth):
    rng = np.random.default_rng(depth)
    for seed in range(3):
        w = _pool_weight(depth, seed)
        for level in rng.permutation(depth + 1):
            for pos in rng.permutation(2 ** int(level)):
                _assert_of_is_the_sort(w, DyadicIndex(int(level), int(pos)))


def test_of_alternating_weights_at_one_level():
    # two weights of one depth read in turn at the same level and position:
    # a table kept for the wrong weight would show here
    a, b = _pool_weight(6, 0), _pool_weight(6, 1)
    twin = LeafWeight(6, a.values)  # equal to a, but another weight
    for level in range(7):
        for pos in range(2 ** level):
            for w in (a, b, twin, b):
                _assert_of_is_the_sort(w, DyadicIndex(level, pos))


@pytest.mark.parametrize("depth,values", [
    (0, [0.0]), (0, [5e-324]), (0, [2.5]), (3, [0.0] * 8), (2, [5e-324] * 4),
    (3, [1.0, 1.0, 0.0, 1.0, 5e-324, 5e-324, 3.0, 3.0]),
], ids=["depth0-zero", "depth0-subnormal", "depth0", "all-zero",
        "all-subnormal", "ties"])
def test_of_is_the_per_node_sort_on_edge_weights(depth, values):
    w = LeafWeight(depth, values)
    for level in range(w.depth + 1):
        for pos in range(2 ** level):
            _assert_of_is_the_sort(w, DyadicIndex(level, pos))


def test_of_rejects_a_level_below_the_leaves():
    with pytest.raises(ValueError):
        StepDistribution.of(LeafWeight(1, [1.0, 2.0]), DyadicIndex(2, 0))


def _dist_arrays(dist):
    return dist.thresholds, dist.fractions, dist.widths


@pytest.mark.parametrize("depth", range(7))
def test_step_table_is_the_level_table(depth):
    # the nodes of a level as the rows of one array, and a row per weight
    # of a stack of weights, give each node's distribution bit for bit,
    # and of slices a table it is given as it slices the one it builds
    for seed in range(3):
        w = _pool_weight(depth, seed)
        for level in range(depth + 1):
            table = dyadic._step_table(w.values.reshape(2 ** level, -1))
            offsets = table[3]
            for pos in range(2 ** level):
                idx = DyadicIndex(level, pos)
                lo, hi = offsets[pos], offsets[pos + 1]
                built = _dist_arrays(StepDistribution.of(w, idx))
                given = _dist_arrays(StepDistribution.of(w, idx, table))
                for row, got, want in zip(table[:3], given, built):
                    assert row[lo:hi].tobytes() == want.tobytes()
                    assert got.tobytes() == want.tobytes()
    weights = [_pool_weight(depth, seed) for seed in range(4)]
    stacked = dyadic._step_table(np.stack([w.values for w in weights]))
    for i, w in enumerate(weights):
        lo, hi = stacked[3][i], stacked[3][i + 1]
        for got, want in zip(stacked[:3],
                             _dist_arrays(StepDistribution.of(w, ROOT))):
            assert got[lo:hi].tobytes() == want.tobytes()


def test_average_pyramid_of_rows_is_each_row_pyramid():
    rows = np.stack([_pool_weight(5, seed).values for seed in range(4)])
    pyramid = dyadic._average_pyramid(rows)
    for i, row in enumerate(rows):
        w = LeafWeight(5, row)
        for level in range(6):
            assert (pyramid[level][i].tobytes()
                    == w.node_averages(level).tobytes())


def _rejected_by_diff_checks(t, n):
    """StepDistribution's input checks written with np.diff and np.any."""
    t = np.asarray(t, dtype=float)
    n = np.asarray(n, dtype=float)
    return bool(t.shape != n.shape
                or (t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0))
                or np.any(np.diff(n) > 0)
                or (n.size and (n[0] > 1 or n[-1] < 0)))


FINITE = st.sampled_from((0.0, -0.0, 5e-324, 0.5, 1.0)) | st.floats(
    -2.0, 2.0, allow_nan=False)


@st.composite
def distribution_inputs(draw):
    """(thresholds, fractions), sorted the valid way in most draws, so that
    valid inputs, and inputs one tie, sign or length away from valid, are
    all common."""
    size = draw(st.integers(0, 4))
    t = draw(st.lists(st.floats(0.0, 2.0) | FINITE, min_size=size,
                      max_size=size))
    n = draw(st.lists(st.floats(0.0, 1.0) | FINITE, min_size=size,
                      max_size=size))
    if draw(st.integers(0, 3)):
        t, n = sorted(t), sorted(n, reverse=True)
    if not draw(st.integers(0, 9)):
        n = n + [0.0]
    return t, n


@given(distribution_inputs())
@settings(max_examples=300, deadline=None)
def test_distribution_rejects_what_diff_checks_rejected(inputs):
    t, n = inputs
    if _rejected_by_diff_checks(t, n):
        with pytest.raises(ValueError):
            StepDistribution(t, n)
    else:
        StepDistribution(t, n)


# ---------------------------------------------------------------------------
# Carleson sequences and intensities
# ---------------------------------------------------------------------------

def test_intensity_all_zero():
    seq = CarlesonSequence.from_entries(3, [])
    assert seq.intensity_levels()[0][0] == 0.0
    assert seq.max_intensity() == 0.0


def test_intensity_root_only():
    seq = CarlesonSequence.from_entries(2, [(ROOT, 1.0)])
    assert seq.intensity_levels()[0][0] == 1.0
    assert seq.intensity_levels()[1][0] == 0.0
    # no level beyond the sequence's depth, so no coefficient there
    assert len(seq.levels) == 3


def test_intensity_direct_sum():
    entries = [(ROOT, 1 / 3), (DyadicIndex(1, 0), 1 / 3), (DyadicIndex(1, 1), 1 / 3)]
    seq = CarlesonSequence.from_entries(1, entries)
    assert seq.intensity_levels()[0][0] == pytest.approx(
        2 / 3, rel=1e-15, abs=0)


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
                                                                  rel=1e-12, abs=0)


def test_l_intensity_trivial_cases():
    u = LeafWeight.constant(2, 2.0)
    v = LeafWeight.constant(2, 3.0)
    empty = CarlesonSequence.from_entries(2, [])
    assert l_intensity_levels(u, v, empty)[0][0] == 0.0
    seq = CarlesonSequence.from_entries(2, [(ROOT, 1.0)])
    assert l_intensity_levels(u, v, seq)[0][0] == 6.0


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
        assert l_intensity_levels(u, v, seq)[level][pos] == pytest.approx(
            brute, rel=1e-12, abs=0)


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
    seq = CarlesonSequence.from_entries(depth, entries)
    assert seq.max_intensity() <= 1.0 + 1e-12


def test_carleson_json_roundtrip(tmp_path):
    seq = CarlesonSequence.from_entries(
        2, [(ROOT, 0.5), (DyadicIndex(2, 3), 0.25)])
    path = tmp_path / "seq.json"
    with open(path, "w") as fh:
        json.dump(seq.to_json(), fh)
    again = CarlesonSequence.load(path)
    assert json.loads(path.read_text())["bound"] == 1.0
    assert again.levels[0][0] == 0.5
    assert again.levels[2][3] == 0.25
    assert again.levels[1][1] == 0.0


@pytest.mark.parametrize("entry", [
    {"level": True, "pos": 1, "a": 0.5},
    {"level": 1, "pos": True, "a": 0.5},
    {"level": 1, "pos": 1, "a": "0.5"},
    {"level": 1, "pos": 1, "a": True},
    {"level": 1.0, "pos": 1, "a": 0.5},
    {"level": 1, "pos": "1", "a": 0.5},
], ids=["bool-level", "bool-pos", "str-a", "bool-a", "float-level",
        "str-pos"])
def test_carleson_json_non_numeric_entries_raise(entry):
    # a bool is an int to Python, and numpy reads "0.5" as 0.5
    with pytest.raises(ValueError):
        CarlesonSequence.from_json({"depth": 2, "entries": [entry]})


@pytest.mark.parametrize("depth", [True, "2", 2.0])
def test_carleson_json_non_integer_depth_raises(depth):
    with pytest.raises(ValueError):
        CarlesonSequence.from_json({"depth": depth, "entries": []})


def test_carleson_json_repeated_entry_raises():
    # a later entry for the same interval must not overwrite an earlier one
    entries = [{"level": 1, "pos": 0, "a": 0.5},
               {"level": 0, "pos": 0, "a": 0.1},
               {"level": 1, "pos": 0, "a": 0.2}]
    with pytest.raises(ValueError, match="repeated"):
        CarlesonSequence.from_json({"depth": 1, "entries": entries})
    seq = CarlesonSequence.from_json({"depth": 1, "entries": entries[:2]})
    assert seq.levels[1][0] == 0.5 and seq.levels[0][0] == 0.1


def test_carleson_json_integer_a_loads():
    seq = CarlesonSequence.from_json(
        {"depth": 1, "entries": [{"level": 1, "pos": 0, "a": 1}]})
    assert np.array_equal(seq.levels[1], [1.0, 0.0])


def test_carleson_json_needs_depth():
    blob = CarlesonSequence.from_entries(1, [(ROOT, 0.5)]).to_json()
    del blob["depth"]
    with pytest.raises(KeyError):
        CarlesonSequence.from_json(blob)


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
    assert m.average() >= w.average()


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
