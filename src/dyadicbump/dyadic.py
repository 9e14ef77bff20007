"""Exact arithmetic on the dyadic tree of [0, 1).

Weights are piecewise constant on the 2**n leaves of a finite dyadic tree,
so every average, distribution function and Carleson intensity is a finite
sum and every midpoint recursion holds to floating-point exactness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: Hard cap on tree depth for materialized leaf arrays.
MAX_DEPTH = 24


class TreeDepthError(ValueError):
    """Requested tree depth exceeds the configured resource cap."""


def check_depth(depth: int, cap: int = MAX_DEPTH) -> None:
    """Reject a negative depth, or one above cap, before any 2**depth
    array is drawn."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > cap:
        raise TreeDepthError(f"depth {depth} exceeds cap {cap}")


# the Python types json gives a JSON integer and a JSON number
_INTEGER, _NUMBER = {int}, {int, float}


def _json_values(values, types: set, what: str) -> list:
    """values, a list read from JSON, if the type of every entry is in
    types and every float is finite, else ValueError.  json reads true as
    a bool and "0.5" as a str, which Python takes as an int and numpy as
    the float 0.5, and NaN and Infinity, which JSON does not have, as
    floats."""
    if (not isinstance(values, list) or not set(map(type, values)) <= types
            or not all(math.isfinite(x) for x in values if type(x) is float)):
        kind = "integers" if types == _INTEGER else "numbers"
        raise ValueError(f"{what}: expected JSON {kind}, got {values!r:.80}")
    return values


def _check_leaves(values: np.ndarray) -> None:
    """ValueError unless all leaves are finite and nonnegative (NaN is not)."""
    if values.size and not (values.min() >= 0.0 and values.max() < np.inf):
        raise ValueError("leaf values must be finite and nonnegative")


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr itself if it is read-only and owns its memory, so that no other
    name can write to it; else a read-only copy."""
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, order=True)
class DyadicIndex:
    """The dyadic interval I = [pos * 2**-level, (pos+1) * 2**-level)."""

    level: int
    pos: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if not 0 <= self.pos < 2 ** self.level:
            raise ValueError(f"pos {self.pos} out of range at level {self.level}")

    @property
    def length(self) -> float:
        return 2.0 ** -self.level

    def parent(self) -> "DyadicIndex":
        if self.level == 0:
            raise ValueError("root has no parent")
        return DyadicIndex(self.level - 1, self.pos // 2)

    def children(self) -> tuple["DyadicIndex", "DyadicIndex"]:
        return (DyadicIndex(self.level + 1, 2 * self.pos),
                DyadicIndex(self.level + 1, 2 * self.pos + 1))

    def contains(self, other: "DyadicIndex") -> bool:
        """True if other is a subinterval of self (inclusive)."""
        if other.level < self.level:
            return False
        return other.pos >> (other.level - self.level) == self.pos

    def leaf_range(self, depth: int) -> tuple[int, int]:
        """Index range [start, stop) of depth-level leaves under this interval."""
        if depth < self.level:
            raise ValueError(f"interval at level {self.level} has no leaves at depth {depth}")
        width = 1 << (depth - self.level)
        return self.pos * width, (self.pos + 1) * width


ROOT = DyadicIndex(0, 0)


def _average_pyramid(values: np.ndarray) -> list[np.ndarray]:
    """pyramid[k] = node averages at level k over the last axis, each the
    half-sum of its two children, so the midpoint identity
    <w>_I = (<w>_I- + <w>_I+)/2 is bit-exact, subnormal averages included.
    Halving is exact above the subnormal range, so there each average is
    its node's pairwise sum divided by the node's leaf count, bit for bit.
    Each row of a (rows, 2**depth) array gets the pyramid of its own."""
    levels = [values]
    cur = values
    while cur.shape[-1] > 1:
        cur = (cur[..., 0::2] + cur[..., 1::2]) / 2.0
        cur.setflags(write=False)  # handed out by node_averages
        levels.append(cur)
    levels.reverse()
    return levels


def weight_json(depth: int, values, lengths) -> dict:
    """The weight file of values[i] on lengths[i] adjacent leaves, left to
    right: one value per run of equal adjacent leaves and each run's length
    ("repeats"), which is left out when every run is a single leaf."""
    check_depth(depth)
    values = np.asarray(values, dtype=float)
    first = np.r_[True, values[1:] != values[:-1]]
    if np.count_nonzero(first) == 1 << depth:
        return {"depth": depth, "values": values.tolist()}
    ends = np.cumsum(lengths)[np.r_[first[1:], True]]
    return {"depth": depth, "values": values[first].tolist(),
            "repeats": np.diff(ends, prepend=0).tolist()}


class LeafWeight:
    """A nonnegative weight on [0,1) given by its values on 2**depth leaves."""

    def __init__(self, depth: int, values):
        check_depth(depth)
        arr = np.asarray(values, dtype=float)
        if arr.shape != (2 ** depth,):
            raise ValueError(f"expected {2 ** depth} leaf values, got shape {arr.shape}")
        _check_leaves(arr)
        self.depth = depth
        self.values = _read_only(arr)
        self._pyramid: list[np.ndarray] | None = None

    @classmethod
    def constant(cls, depth: int, value: float) -> "LeafWeight":
        return cls(depth, np.full(2 ** depth, float(value)))

    def average(self, index: DyadicIndex = ROOT) -> float:
        return float(self.node_averages(index.level)[index.pos])

    def node_averages(self, level: int) -> np.ndarray:
        """Vector of averages over all 2**level intervals of the given level."""
        if level > self.depth:
            raise ValueError(f"level {level} deeper than weight depth {self.depth}")
        if self._pyramid is None:
            self._pyramid = _average_pyramid(self.values)
        return self._pyramid[level]

    def scaled(self, factor: float) -> "LeafWeight":
        return LeafWeight(self.depth, self.values * factor)

    def coarsened(self, level: int) -> "LeafWeight":
        """L^2-orthogonal projection onto step functions of the given depth."""
        return LeafWeight(level, self.node_averages(level))

    def to_json(self) -> dict:
        return weight_json(self.depth, self.values,
                           np.ones(self.values.size, dtype=np.intp))

    @classmethod
    def from_json(cls, obj: dict) -> "LeafWeight":
        """depth and repeats must be JSON integers and values JSON numbers
        (ValueError otherwise)."""
        depth, = _json_values([obj["depth"]], _INTEGER, "depth")
        check_depth(depth)
        values = np.asarray(_json_values(obj["values"], _NUMBER, "values"),
                            dtype=float)
        if "repeats" in obj:
            repeats = np.asarray(_json_values(obj["repeats"], _INTEGER,
                                              "repeats"))
            if (repeats.shape != values.shape or np.any(repeats < 0)
                    or repeats.sum() != 2 ** depth):
                raise ValueError(f"repeats must be {values.size} counts >= 0 "
                                 f"summing to {2 ** depth}")
            values = np.repeat(values, repeats)
        values.setflags(write=False)  # fresh: the constructor keeps it
        return cls(depth, values)

    @classmethod
    def load(cls, path) -> "LeafWeight":
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def __eq__(self, other):
        return (isinstance(other, LeafWeight) and other.depth == self.depth
                and np.array_equal(other.values, self.values))


class StepDistribution:
    """Right-continuous step function N(t) = |{x in I : u(x) >= t}| / |I|.

    Stored as ascending positive thresholds t_1 < ... < t_m and the constant
    value N_i that N takes on the interval (t_{i-1}, t_i]; N = 0 above t_m.
    """

    def __init__(self, thresholds, fractions):
        t = np.asarray(thresholds, dtype=float)
        n = np.asarray(fractions, dtype=float)
        if t.shape != n.shape:
            raise ValueError("thresholds and fractions must have equal length")
        if t.size and (t[0] <= 0 or (t[1:] <= t[:-1]).any()):
            raise ValueError("thresholds must be positive and strictly increasing")
        if (n[1:] > n[:-1]).any() or (n.size and (n[0] > 1 or n[-1] < 0)):
            raise ValueError("fractions must be nonincreasing within [0, 1]")
        self.thresholds = t
        self.fractions = n
        self.widths = t.copy()
        self.widths[1:] -= t[:-1]

    @classmethod
    def of(cls, w: LeafWeight, index: DyadicIndex = ROOT,
           table: tuple | None = None) -> "StepDistribution":
        """N of w on index: three read-only slices of table, the
        `_step_table` of w's nodes at index's level (built here when not
        given), which satisfy __init__'s checks by construction."""
        if table is None:
            index.leaf_range(w.depth)  # ValueError below the leaves
            table = _step_table(w.values.reshape(1 << index.level, -1))
        thresholds, fractions, widths, offsets = table
        lo, hi = offsets[index.pos], offsets[index.pos + 1]
        out = cls.__new__(cls)
        out.thresholds = thresholds[lo:hi]
        out.fractions = fractions[lo:hi]
        out.widths = widths[lo:hi]
        return out

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """(widths, values): N equals values[i] on an interval of length widths[i]."""
        return self.widths, self.fractions

    def eval(self, t: float) -> float:
        if self.thresholds.size == 0 or t > self.thresholds[-1]:
            return 0.0
        if t <= 0:
            return float(self.fractions[0]) if self.thresholds.size else 0.0
        i = np.searchsorted(self.thresholds, t, side="left")
        return float(self.fractions[i])

    def integral(self) -> float:
        """Exact layer-cake integral of N over (0, infinity)."""
        widths, vals = self.steps()
        return float(np.dot(widths, vals))

    @staticmethod
    def midpoint_mix(a: "StepDistribution", b: "StepDistribution") -> "StepDistribution":
        """The distribution (N_a + N_b) / 2, i.e. of the concatenated halves."""
        t = np.unique(np.concatenate((a.thresholds, b.thresholds)))
        if t.size == 0:
            return StepDistribution([], [])
        mixed = np.array([(a.eval(x) + b.eval(x)) / 2.0 for x in t])
        return StepDistribution(t, mixed)


def _step_table(rows: np.ndarray) -> tuple:
    """(thresholds, fractions, widths, offsets) of the step distribution of
    every row of a (nodes, n) array of leaves: row i owns entries
    offsets[i]:offsets[i + 1] of the three flat read-only arrays, which
    hold its distinct positive leaves in ascending order, N on each step,
    (count of leaves >= threshold) / n, and each step's width."""
    rows = np.sort(rows, axis=1)
    n = rows.shape[1]
    # a run of equal positive values starts where a sorted row steps up
    # from its zeros or from a smaller value; N on (t_{i-1}, t_i] counts
    # the leaves from that run's start to the row's end
    keep = rows > 0
    keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    thresholds = rows[keep]
    del rows
    fractions = np.broadcast_to((n - np.arange(n)) / n, keep.shape)[keep]
    offsets = np.zeros(len(keep) + 1, dtype=np.intp)
    np.cumsum(keep.sum(axis=1), out=offsets[1:])
    widths = thresholds.copy()
    widths[1:] -= thresholds[:-1]
    # each row's first step starts at 0
    starts = offsets[:-1][offsets[:-1] < offsets[1:]]
    widths[starts] = thresholds[starts]
    for arr in (thresholds, fractions, widths):
        arr.setflags(write=False)
    return thresholds, fractions, widths, offsets


def carleson_json(depth: int, entries) -> dict:
    """The Carleson file of the coefficients a != 0 given as (level, pos, a)
    in (level, pos) order, each (level, pos) once; its bound is the
    intensity cap SparseOperator enforces, kept for older readers."""
    return {"bound": 1.0, "depth": depth, "entries": [
        {"level": k, "pos": j, "a": a} for k, j, a in entries]}


class CarlesonSequence:
    """Coefficients a_I in [0, 1] on all dyadic intervals down to a depth;
    `SparseOperator` holds their intensity at or below 1."""

    def __init__(self, depth: int, levels):
        check_depth(depth)
        if len(levels) != depth + 1:
            raise ValueError(f"need {depth + 1} per-level arrays, got {len(levels)}")
        self.depth = depth
        self.levels = []
        for k, arr in enumerate(levels):
            a = np.asarray(arr, dtype=float)
            if a.shape != (2 ** k,):
                raise ValueError(f"level {k} must have {2 ** k} entries")
            if not np.all((a >= 0) & (a <= 1)):  # NaN fails
                raise ValueError("coefficients must lie in [0, 1]")
            self.levels.append(_read_only(a))

    @classmethod
    def from_entries(cls, depth: int, entries) -> "CarlesonSequence":
        levels = [np.zeros(2 ** k) for k in range(depth + 1)]
        for idx, val in entries:
            if idx.level > depth:
                raise ValueError(f"entry at level {idx.level} beyond depth {depth}")
            levels[idx.level][idx.pos] = val
        for a in levels:  # fresh: the constructor keeps them
            a.setflags(write=False)
        return cls(depth, levels)

    def intensity_levels(self) -> list[np.ndarray]:
        """A_I = a_I + (A_{I+} + A_{I-})/2 for every node, leaves seeded with a."""
        return upward_levels(self.levels)

    def max_intensity(self) -> float:
        return max(float(arr.max()) for arr in self.intensity_levels())

    def to_json(self) -> dict:
        return carleson_json(self.depth, (
            (k, int(j), float(arr[j]))
            for k, arr in enumerate(self.levels) for j in np.nonzero(arr)[0]))

    @classmethod
    def from_json(cls, obj: dict) -> "CarlesonSequence":
        """Reads depth and entries; the stored cap is always 1.  An entry
        outside the tree is a ValueError, and so are a depth, level or pos
        that is not a JSON integer, an a that is not a JSON number and a
        second entry for one (level, pos), which `to_json` never writes."""
        depth, = _json_values([obj["depth"]], _INTEGER, "depth")
        entries = obj["entries"]
        for key, types in (("level", _INTEGER), ("pos", _INTEGER),
                           ("a", _NUMBER)):
            _json_values([e[key] for e in entries], types, f"entry {key}")
        keys = [(e["level"], e["pos"]) for e in entries]
        if len(set(keys)) < len(keys):
            raise ValueError("repeated (level, pos) entry")
        return cls.from_entries(depth, [
            (DyadicIndex(e["level"], e["pos"]), e["a"]) for e in entries])

    @classmethod
    def load(cls, path) -> "CarlesonSequence":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def upward_levels(terms) -> list[np.ndarray]:
    """X_k = t_k + (X_{k+1}[0::2] + X_{k+1}[1::2]) / 2 from the bottom
    level X_depth = t_depth up to the root, for per-level arrays t_k."""
    out = list(terms)
    for k in range(len(out) - 2, -1, -1):
        out[k] = out[k] + (out[k + 1][0::2] + out[k + 1][1::2]) / 2.0
    return out


def l_intensity_levels(u: LeafWeight, v: LeafWeight,
                       seq: CarlesonSequence) -> list[np.ndarray]:
    """L_I = a_I u_I v_I + (L_{I+} + L_{I-})/2 for every node."""
    if u.depth != v.depth or seq.depth > u.depth:
        raise ValueError("weights must share a depth covering the sequence")
    return upward_levels(a * u.node_averages(k) * v.node_averages(k)
                         for k, a in enumerate(seq.levels))


def dyadic_maximal(w: LeafWeight) -> LeafWeight:
    """(M^d w)(x) = max over dyadic ancestors I of x of <w>_I, leafwise."""
    running = np.full(1, w.average(ROOT))
    for level in range(1, w.depth + 1):
        running = np.maximum(np.repeat(running, 2), w.node_averages(level))
    return LeafWeight(w.depth, running)


def stopping_family(w: LeafWeight, threshold: float) -> list[DyadicIndex]:
    """Maximal dyadic intervals I with <w>_I >= threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    out: list[DyadicIndex] = []
    stack = [ROOT]
    while stack:
        node = stack.pop()
        if w.average(node) >= threshold:
            out.append(node)
        elif node.level < w.depth:
            stack.extend(node.children())
    out.sort()
    return out
