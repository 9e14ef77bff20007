"""Exact arithmetic on the dyadic tree of [0, 1).

Weights are piecewise constant on the 2**n leaves of a finite dyadic tree,
so every average, distribution function and Carleson intensity is a finite
sum and every midpoint recursion holds to floating-point exactness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Hard cap on tree depth for materialized leaf arrays.
MAX_DEPTH = 24


class TreeDepthError(ValueError):
    """Requested tree depth exceeds the configured resource cap."""


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

    @property
    def left_endpoint(self) -> float:
        return self.pos * 2.0 ** -self.level

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


def _sum_pyramid(values: np.ndarray) -> list[np.ndarray]:
    """pyramid[k] = node sums at level k; built by pairwise adds so that the
    midpoint identity sum(I) = sum(I+) + sum(I-) is bit-exact."""
    levels = [values]
    cur = values
    while len(cur) > 1:
        cur = cur[0::2] + cur[1::2]
        levels.append(cur)
    levels.reverse()
    return levels


class LeafWeight:
    """A nonnegative weight on [0,1) given by its values on 2**depth leaves."""

    def __init__(self, depth: int, values):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if depth > MAX_DEPTH:
            raise TreeDepthError(f"depth {depth} exceeds cap {MAX_DEPTH}")
        arr = np.asarray(values, dtype=float)
        if arr.shape != (2 ** depth,):
            raise ValueError(f"expected {2 ** depth} leaf values, got shape {arr.shape}")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("leaf values must be finite and nonnegative")
        arr = arr.copy()
        arr.setflags(write=False)
        self.depth = depth
        self.values = arr
        self._pyramid: list[np.ndarray] | None = None

    @classmethod
    def constant(cls, depth: int, value: float) -> "LeafWeight":
        return cls(depth, np.full(2 ** depth, float(value)))

    @property
    def sums(self) -> list[np.ndarray]:
        if self._pyramid is None:
            self._pyramid = _sum_pyramid(self.values)
        return self._pyramid

    def average(self, index: DyadicIndex = ROOT) -> float:
        if index.level > self.depth:
            raise ValueError(f"level {index.level} deeper than weight depth {self.depth}")
        return float(self.sums[index.level][index.pos]) / (1 << (self.depth - index.level))

    def node_averages(self, level: int) -> np.ndarray:
        """Vector of averages over all 2**level intervals of the given level."""
        if level > self.depth:
            raise ValueError(f"level {level} deeper than weight depth {self.depth}")
        return self.sums[level] / (1 << (self.depth - level))

    def integral(self) -> float:
        """The total mass: integral of the weight over [0, 1)."""
        return float(self.sums[0][0]) * 2.0 ** -self.depth

    def scaled(self, factor: float) -> "LeafWeight":
        return LeafWeight(self.depth, self.values * factor)

    def refined(self, extra_levels: int) -> "LeafWeight":
        """The same step function expressed on a finer dyadic grid."""
        return LeafWeight(self.depth + extra_levels,
                          np.repeat(self.values, 1 << extra_levels))

    def coarsened(self, level: int) -> "LeafWeight":
        """L^2-orthogonal projection onto step functions of the given depth."""
        return LeafWeight(level, self.node_averages(level))

    def to_json(self) -> dict:
        return {"depth": self.depth, "values": self.values.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "LeafWeight":
        return cls(int(obj["depth"]), obj["values"])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

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
        if t.size and (np.any(np.diff(t) <= 0) or t[0] <= 0):
            raise ValueError("thresholds must be positive and strictly increasing")
        if np.any(np.diff(n) > 0) or (n.size and (n[0] > 1 or n[-1] < 0)):
            raise ValueError("fractions must be nonincreasing within [0, 1]")
        self.thresholds = t
        self.fractions = n

    @classmethod
    def of(cls, w: LeafWeight, index: DyadicIndex = ROOT) -> "StepDistribution":
        lo, hi = index.leaf_range(w.depth)
        vals = w.values[lo:hi]
        pos = np.sort(vals[vals > 0])
        if pos.size == 0:
            return cls([], [])
        uniq, first = np.unique(pos, return_index=True)
        # N on (t_{i-1}, t_i] counts leaves >= t_i
        frac = (pos.size - first) / vals.size
        return cls(uniq, frac)

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """(widths, values): N equals values[i] on an interval of length widths[i]."""
        if self.thresholds.size == 0:
            return np.empty(0), np.empty(0)
        widths = np.diff(np.concatenate(([0.0], self.thresholds)))
        return widths, self.fractions

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


class CarlesonSequence:
    """Coefficients a_I in [0, 1] on all dyadic intervals down to a depth,
    with a target Carleson constant for (1/|J|) sum_{I subset J} a_I |I|."""

    def __init__(self, depth: int, levels, bound: float = 1.0):
        if depth > MAX_DEPTH:
            raise TreeDepthError(f"depth {depth} exceeds cap {MAX_DEPTH}")
        if len(levels) != depth + 1:
            raise ValueError(f"need {depth + 1} per-level arrays, got {len(levels)}")
        self.depth = depth
        self.levels = []
        for k, arr in enumerate(levels):
            a = np.asarray(arr, dtype=float)
            if a.shape != (2 ** k,):
                raise ValueError(f"level {k} must have {2 ** k} entries")
            if np.any(a < 0) or np.any(a > 1):
                raise ValueError("coefficients must lie in [0, 1]")
            a = a.copy()
            a.setflags(write=False)
            self.levels.append(a)
        if bound <= 0:
            raise ValueError("carleson bound must be positive")
        self.bound = float(bound)

    @classmethod
    def zeros(cls, depth: int, bound: float = 1.0) -> "CarlesonSequence":
        return cls(depth, [np.zeros(2 ** k) for k in range(depth + 1)], bound)

    @classmethod
    def from_entries(cls, depth: int, entries, bound: float = 1.0) -> "CarlesonSequence":
        levels = [np.zeros(2 ** k) for k in range(depth + 1)]
        for idx, val in entries:
            if idx.level > depth:
                raise ValueError(f"entry at level {idx.level} beyond depth {depth}")
            levels[idx.level][idx.pos] = val
        return cls(depth, levels, bound)

    def a(self, index: DyadicIndex) -> float:
        if index.level > self.depth:
            return 0.0
        return float(self.levels[index.level][index.pos])

    def scaled(self, factor: float) -> "CarlesonSequence":
        return CarlesonSequence(self.depth, [lv * factor for lv in self.levels],
                                self.bound)

    def intensity_levels(self) -> list[np.ndarray]:
        """A_I = a_I + (A_{I+} + A_{I-})/2 for every node, leaves seeded with a."""
        out = [None] * (self.depth + 1)
        cur = self.levels[self.depth].copy()
        out[self.depth] = cur
        for k in range(self.depth - 1, -1, -1):
            cur = self.levels[k] + (cur[0::2] + cur[1::2]) / 2.0
            out[k] = cur
        return out

    def max_intensity(self) -> float:
        return max(float(arr.max()) for arr in self.intensity_levels())

    def check(self) -> bool:
        """True iff the Carleson condition holds with the stored bound."""
        return self.max_intensity() <= self.bound + 1e-12

    def to_json(self) -> dict:
        entries = []
        for k, arr in enumerate(self.levels):
            for j in np.nonzero(arr)[0]:
                entries.append({"level": k, "pos": int(j), "a": float(arr[j])})
        return {"bound": self.bound, "depth": self.depth, "entries": entries}

    @classmethod
    def from_json(cls, obj: dict) -> "CarlesonSequence":
        depth = int(obj["depth"]) if "depth" in obj else max(
            (e["level"] for e in obj["entries"]), default=0)
        levels = [np.zeros(2 ** k) for k in range(depth + 1)]
        for e in obj["entries"]:
            levels[e["level"]][e["pos"]] = e["a"]
        return cls(depth, levels, float(obj.get("bound", 1.0)))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path) -> "CarlesonSequence":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def l_intensity_levels(u: LeafWeight, v: LeafWeight,
                       seq: CarlesonSequence) -> list[np.ndarray]:
    """L_I = a_I u_I v_I + (L_{I+} + L_{I-})/2 for every node."""
    if u.depth != v.depth or seq.depth > u.depth:
        raise ValueError("weights must share a depth covering the sequence")
    out = [None] * (seq.depth + 1)
    k = seq.depth
    cur = seq.levels[k] * u.node_averages(k) * v.node_averages(k)
    out[k] = cur
    for k in range(seq.depth - 1, -1, -1):
        cur = seq.levels[k] * u.node_averages(k) * v.node_averages(k) \
            + (cur[0::2] + cur[1::2]) / 2.0
        out[k] = cur
    return out


def L_intensity(u: LeafWeight, v: LeafWeight, seq: CarlesonSequence,
                index: DyadicIndex) -> float:
    """L_I = (1/|I|) sum_{J subset-or-equal I} a_J <u>_J <v>_J |J|."""
    if index.level > seq.depth:
        return 0.0
    return float(l_intensity_levels(u, v, seq)[index.level][index.pos])


def dyadic_maximal(w: LeafWeight) -> LeafWeight:
    """(M^d w)(x) = max over dyadic ancestors I of x of <w>_I, leafwise."""
    running = np.full(1, w.average(ROOT))
    for level in range(1, w.depth + 1):
        running = np.maximum(np.repeat(running, 2), w.node_averages(level))
    return LeafWeight(w.depth, running)


def stopping_family(w: LeafWeight, threshold: float,
                    root: DyadicIndex = ROOT) -> list[DyadicIndex]:
    """Maximal dyadic subintervals I of root with <w>_I >= threshold."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    out: list[DyadicIndex] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if w.average(node) >= threshold:
            out.append(node)
        elif node.level < w.depth:
            stack.extend(node.children())
    out.sort()
    return out
