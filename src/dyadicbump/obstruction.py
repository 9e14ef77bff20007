"""Construction of the two-weight obstruction: a weight u with bounded
integral but divergent dyadic maximal integral, a stopping hierarchy at
thresholds 3^n, a companion weight v built bottom-to-top so that
<u><v> = 1 exactly at every stopping interval, and the coefficient family
alpha = 1/3 on the stopping intervals.  The divergence of
sum <u>_I^2 <v>_I alpha_I |I| relative to the fixed integral of u is then
demonstrated on a depth sweep.

Weights here are band-constant: constant on each dyadic band
(2^{-k-1}, 2^{-k}] and on the final interval [0, 2^{-depth}).  That
compressed form keeps all arithmetic O(depth), so the construction runs at
depths far beyond the leaf-array cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bellman import ConstantBudget
from .bumps import EpsilonModel
from .dyadic import CarlesonSequence, DyadicIndex, LeafWeight, MAX_DEPTH
from .sparse import SparseOperator


#: Ratio of consecutive stopping thresholds: generation n stops at 3^n.
BASE = 3.0

#: The coefficient alpha_I on every stopping interval (0 elsewhere).
ALPHA = 1.0 / 3.0

#: Deepest instance bundle: its weights are written as leaf arrays.
BUNDLE_MAX_DEPTH = 20

#: Deepest construction that stays in the float range: from depth 532 on,
#: the largest stopping average <u>_I is about 2.5e154, so its square in
#: the identity sum sum <u>^2 <v> alpha |I| overflows and the residual
#: reads inf.
MAX_OBSTRUCTION_DEPTH = 531


class ConstructionIntegrityError(ValueError):
    """The bottom-to-top construction produced an out-of-range constant."""


# ---------------------------------------------------------------------------
# Band-constant weights
# ---------------------------------------------------------------------------

@dataclass
class BandWeight:
    """Weight constant on each band (2^{-k-1}, 2^{-k}], k = 0..depth-1,
    and on the leftover interval [0, 2^{-depth})."""

    depth: int
    band_values: np.ndarray
    last_value: float = 0.0

    def __post_init__(self):
        self.band_values = np.asarray(self.band_values, dtype=float)
        if self.band_values.shape != (self.depth,):
            raise ValueError(f"need {self.depth} band values")
        if np.any(self.band_values < 0) or self.last_value < 0:
            raise ValueError("weights must be nonnegative")

    def integral(self) -> float:
        widths = 0.5 ** (np.arange(self.depth) + 1)
        return float(np.dot(self.band_values, widths)) \
            + self.last_value * 0.5 ** self.depth

    def prefix_averages(self) -> np.ndarray:
        """Averages over the prefixes [0, 2^{-m}) for m = 0..depth."""
        widths = 0.5 ** (np.arange(self.depth) + 1)
        # integrals over the prefixes, summed up from the leftover interval
        pieces = np.concatenate(([self.last_value * 0.5 ** self.depth],
                                 (self.band_values * widths)[::-1]))
        return np.cumsum(pieces)[::-1] * 2.0 ** np.arange(self.depth + 1)

    def average(self, index: DyadicIndex) -> float:
        """Average over any dyadic interval down to the weight's depth: it
        is a prefix (pos 0) or lies inside band level - bit_length(pos)."""
        if index.level > self.depth:
            raise ValueError(f"level {index.level} deeper than weight depth "
                             f"{self.depth}")
        if index.pos == 0:
            return float(self.prefix_averages()[index.level])
        return float(self.band_values[index.level - index.pos.bit_length()])

    def to_leaf_weight(self) -> LeafWeight:
        if self.depth > MAX_DEPTH:
            raise ValueError("band weight too deep for a leaf array")
        # left to right: one leaf for [0, 2^-depth), then bands depth-1, ...,
        # 0 of 1, 2, ..., 2^(depth-1) leaves
        runs = np.r_[1, 2 ** np.arange(self.depth)]
        return LeafWeight(self.depth, np.repeat(
            np.r_[self.last_value, self.band_values[::-1]], runs))


def maximal_band_values(u: BandWeight) -> tuple[np.ndarray, float]:
    """The dyadic maximal function of a band weight is band-constant:
    on band k it equals max(value_k, max of prefix averages over levels
    <= k); on the leftover interval, the max over all prefix averages."""
    running = np.maximum.accumulate(u.prefix_averages())
    bands = np.maximum(u.band_values, running[:u.depth])
    last = max(float(running[u.depth]), u.last_value)
    return bands, last


def maximal_integral(u: BandWeight, cutoff_band: int = 0) -> float:
    """integral of M^d u, over [0, 1) or truncated to [0, 2^{-cutoff}) when
    a cutoff band index is given."""
    bands, last = maximal_band_values(u)
    widths = 0.5 ** (np.arange(cutoff_band, u.depth) + 1)
    return float(np.dot(bands[cutoff_band:], widths)) + last * 0.5 ** u.depth


# ---------------------------------------------------------------------------
# The default profile and the stopping hierarchy
# ---------------------------------------------------------------------------

def build_u(depth: int) -> BandWeight:
    """Default profile: value 2^k / (k+1)^2 on band k, zero on the leftover
    interval.  Then the integral stays below pi^2/12 at every depth while
    the maximal-function integral grows like the harmonic series."""
    k = np.arange(depth)
    return BandWeight(depth, 2.0 ** k / (k + 1) ** 2, 0.0)


@dataclass
class StoppingHierarchy:
    """Generations of stopping intervals: each member is a prefix
    DyadicIndex(m, 0) = [0, 2^{-m}) or the band DyadicIndex(k + 1, 1) =
    [2^{-k-1}, 2^{-k})."""
    generations: list[list[DyadicIndex]]
    sv_ok: bool = True
    sn_ok: bool = True

    def all_members(self):
        for n, gen in enumerate(self.generations, start=1):
            for mem in gen:
                yield n, mem


def _generation(u: BandWeight, threshold: float) -> list[DyadicIndex]:
    """Maximal dyadic intervals with average >= threshold.  For a band
    weight these are a shortest qualifying prefix plus the qualifying band
    intervals not inside it."""
    qual_prefix = np.nonzero(u.prefix_averages() >= threshold)[0]
    m_star = int(qual_prefix[0]) if qual_prefix.size else None
    limit = u.depth if m_star is None else m_star
    members = [DyadicIndex(int(k) + 1, 1)
               for k in np.nonzero(u.band_values[:limit] >= threshold)[0]]
    if m_star is not None:
        members.append(DyadicIndex(m_star, 0))
    return members


def build_hierarchy(u: BandWeight) -> StoppingHierarchy:
    """Stopping families at thresholds 3^n with the structural invariants
    measured: 3^n <= <u>_I <= 2*3^n on members, and each member of the
    previous generation keeps at least 1/3 of its measure uncovered."""
    gens = []
    for n in itertools.count(1):  # u is bounded, so some generation is empty
        gen = _generation(u, BASE ** n)
        if not gen:
            break
        gens.append(gen)
    h = StoppingHierarchy(gens)
    # nesting: each member must sit inside a member one generation up
    for n, (prev, gen) in enumerate(zip(gens, gens[1:]), start=1):
        for mem in gen:
            if not any(p.contains(mem) for p in prev):
                raise ConstructionIntegrityError(
                    f"generation {n + 1} member {mem} escapes generation {n}")
    # (sv): threshold <= average <= 2 * threshold
    for n, mem in h.all_members():
        avg = u.average(mem)
        h.sv_ok = h.sv_ok and BASE ** n <= avg * (1 + 1e-12) \
            and avg <= 2 * BASE ** n * (1 + 1e-12)
    # (sn): uncovered fraction within each parent member
    for gen, nxt in zip(gens, gens[1:] + [[]]):
        for mem in gen:
            covered = sum(c.length for c in nxt if mem.contains(c))
            h.sn_ok = h.sn_ok \
                and 1.0 - covered / mem.length >= 1.0 / 3.0 - 1e-12
    return h


def build_v(u: BandWeight, hierarchy: StoppingHierarchy) -> dict:
    """The companion weight, built from the deepest generation upward.

    Terminal members get v = 1/<u> on themselves, so <u><v> = 1 there
    exactly.  A member with children keeps v on the covered part and gets
    one solved constant on the uncovered part, again making <u><v> = 1
    exact.  Outside all stopping intervals v = 1/3.  The solved constants
    are validated against the window (1, 9) relative to 3^{-(n+1)}.

    Returns the pre-scaling weight plus the scaled one (times 1/9), which
    satisfies <u>_L <v>_L <= 1 for every dyadic L.
    """
    band_widths = 0.5 ** (np.arange(u.depth) + 1)
    v_bands = np.full(u.depth, -1.0)   # -1 marks "not assigned yet"
    v_last = -1.0
    gens = hierarchy.generations
    for n in range(len(gens), 0, -1):
        for mem in gens[n - 1]:
            target_avg = 1.0 / u.average(mem)
            if mem.pos:
                v_bands[mem.level - 1] = target_avg
                continue
            # prefix member [0, 2^{-m}): descendants already carry their v
            # (assigned on earlier, deeper iterations); everything still
            # unassigned inside gets the one solved constant
            m = mem.level
            assigned = v_bands[m:] >= 0
            covered_integral = float(np.dot(
                np.where(assigned, v_bands[m:], 0.0), band_widths[m:]))
            uncovered = float(np.dot(~assigned, band_widths[m:]))
            if v_last >= 0:
                covered_integral += v_last * 0.5 ** u.depth
            else:
                uncovered += 0.5 ** u.depth
            if uncovered <= 0:
                raise ConstructionIntegrityError(
                    f"no uncovered mass below prefix {m}")
            c_val = (2.0 ** (-m) * target_avg - covered_integral) / uncovered
            rel = c_val * BASE ** (n + 1)
            if not 1.0 < rel < 9.0:
                raise ConstructionIntegrityError(
                    f"solved constant {c_val:.6g} (relative {rel:.4g}) "
                    f"outside (1, 9) at prefix {m}, generation {n}")
            v_bands[m:][~assigned] = c_val
            if v_last < 0:
                v_last = c_val
    # the region outside every stopping interval
    v_bands[v_bands < 0] = 1.0 / 3.0
    if v_last < 0:
        v_last = 1.0 / 3.0
    v_pre = BandWeight(u.depth, v_bands, v_last)
    v_scaled = BandWeight(u.depth, v_bands / 9.0, v_last / 9.0)
    return {"v_pre": v_pre, "v": v_scaled}


def a2_supremum(u: BandWeight, v: BandWeight) -> float:
    """sup over dyadic L of <u>_L <v>_L.  Any dyadic interval is either a
    prefix or sits inside one band where both weights are constant, so the
    sup is over prefixes and bands."""
    worst = max(u.last_value * v.last_value,
                float(np.max(u.prefix_averages() * v.prefix_averages())))
    if u.depth:
        worst = max(worst, float(np.max(u.band_values * v.band_values)))
    return float(worst)


def build_alpha(hierarchy: StoppingHierarchy, depth: int) -> dict:
    """alpha = 1/3 on the stopping intervals, 0 elsewhere, with its
    Carleson intensity A_I = (1/|I|) sum_{J within I} alpha_J |J| computed
    over the compressed structure (the sup is attained at a prefix or a
    member).  The (sn) geometry keeps the bound at most 1."""
    members = [mem for _, mem in hierarchy.all_members()]
    # intensity at each prefix level
    sup = 0.0
    for m in range(depth + 1):
        holder = DyadicIndex(m, 0)
        total = sum(mem.length * ALPHA for mem in members
                    if holder.contains(mem))
        sup = max(sup, total * 2.0 ** m)
    # intensity at each member (bands contain only themselves; prefixes
    # are covered above)
    for mem in members:
        if mem.pos:
            inner = sum(other.length * ALPHA for other in members
                        if mem.contains(other))
            sup = max(sup, inner / mem.length)
    return {"carleson_sup": float(sup), "pass": bool(sup <= 1.0 + 1e-12)}


def divergence_sum(u: BandWeight, v_pre: BandWeight,
                   hierarchy: StoppingHierarchy) -> dict:
    """S(n) = sum over generations <= n of sum_{I in G_k} <u>_I |I|, the
    weighted identity sum <u>^2 <v> alpha |I| = (1/3) S (pre-scaling;
    1/27 after v is multiplied by 1/9), and the comparison of S against
    one third of the maximal-function integral over the union of the first
    generation."""
    gens = hierarchy.generations
    s_partial = []
    running = 0.0
    lhs_pre = 0.0
    for gen in gens:
        for mem in gen:
            au = u.average(mem)
            running += au * mem.length
            lhs_pre += au * au * v_pre.average(mem) * ALPHA * mem.length
        s_partial.append(running)
    s_total = running
    # S / 3, not S * ALPHA, which can differ in the reported last bit
    identity_residual = (abs(lhs_pre - s_total / 3.0)
                         / max(s_total / 3.0, 1e-300))

    # integral of M^d u over the union of the first generation: the
    # maximal function is band-constant, so integrate member by member
    trunc_maximal = 0.0
    if gens:
        m_bands, _ = maximal_band_values(u)
        for mem in gens[0]:
            if mem.pos:
                trunc_maximal += m_bands[mem.level - 1] * mem.length
            else:
                trunc_maximal += maximal_integral(u, cutoff_band=mem.level)
    return {
        "S": s_partial,
        "S_total": s_total,
        "integral_u": u.integral(),
        "ratio": s_total / u.integral(),
        "identity_lhs_pre": lhs_pre,
        "identity_constant_pre": ALPHA,
        "identity_constant_post": 1.0 / 27.0,
        "identity_residual": identity_residual,
        "identity_pass": bool(identity_residual <= 1e-10),
        "truncated_maximal_integral": trunc_maximal,
        "maximal_bound_pass": bool(s_total >= trunc_maximal / 3.0 - 1e-12),
    }


def obstruction_report(depth: int) -> dict:
    """End-to-end run of the construction at one depth, as plain data;
    "pass" is the construction's verdict."""
    u = build_u(depth)
    h = build_hierarchy(u)
    built = build_v(u, h)
    alpha = build_alpha(h, depth)
    div = divergence_sum(u, built["v_pre"], h)
    # <u><v> = 1 at stopping intervals, pre-scaling
    worst_prod = max((abs(u.average(mem) * built["v_pre"].average(mem) - 1.0)
                      for _, mem in h.all_members()), default=0.0)
    a2_pre = a2_supremum(u, built["v_pre"])
    a2_post = a2_supremum(u, built["v"])
    a2_pass = bool(a2_post <= 1.0 + 1e-12)
    return {
        "depth": depth,
        "generations": len(h.generations),
        "sv_ok": h.sv_ok,
        "sn_ok": h.sn_ok,
        "product_residual": worst_prod,
        "a2_pre": a2_pre,
        "a2_post": a2_post,
        "a2_pass": a2_pass,
        "carleson": alpha["carleson_sup"],
        "carleson_pass": alpha["pass"],
        "divergence": div,
        "pass": bool(h.sv_ok and h.sn_ok and worst_prod <= 1e-10
                     and a2_pass and alpha["pass"] and div["identity_pass"]
                     and div["maximal_bound_pass"]),
    }


def instance_bundle(depth: int) -> tuple[LeafWeight, LeafWeight,
                                          SparseOperator]:
    """The construction at min(depth, BUNDLE_MAX_DEPTH) as a leaf-array
    instance (u, v, T): the scaled companion v, and alpha on every
    stopping interval as T's coefficients."""
    depth = min(depth, BUNDLE_MAX_DEPTH)
    u = build_u(depth)
    h = build_hierarchy(u)
    entries = [(mem, ALPHA) for _, mem in h.all_members()]
    seq = CarlesonSequence.from_entries(depth, entries)
    return (u.to_leaf_weight(), build_v(u, h)["v"].to_leaf_weight(),
            SparseOperator(seq))


def growth_row(rep: dict) -> dict:
    """One depth's row of the growth table, from its obstruction_report."""
    div = rep["divergence"]
    return {
        "depth": rep["depth"],
        "generations": rep["generations"],
        "S": div["S_total"],
        "integral_u": div["integral_u"],
        "ratio": div["ratio"],
        "truncated_maximal": div["truncated_maximal_integral"],
    }


def growth_table(depths=(10, 20, 40)) -> list[dict]:
    """S(n)/integral(u) across a depth sweep plus the truncated maximal
    integral — the log-divergence signature."""
    return [growth_row(obstruction_report(d)) for d in depths]


# ---------------------------------------------------------------------------
# The B0 probe
# ---------------------------------------------------------------------------

def _b0_point(model: EpsilonModel, C: float, u: np.ndarray, v: np.ndarray,
              A: np.ndarray, P: float, y_floor: float | None) -> dict:
    """Evaluate B0(u, v, A) = C u - sup_L (L^2/v) W(L/(A+1)) over the
    admissible slab uv <= L <= P sqrt(uv), together with the envelope
    derivative in A at the maximizing L, at arrays of points (u, v, A).

    The inner term is increasing in L, so the sup sits at the right
    endpoint; a 24-point grid per point is kept as an independent check of
    that fact.  Each entry of the result is an array over the points.
    """
    uv = u * v
    grid = np.geomspace(uv, P * np.sqrt(uv), 24, axis=-1)
    z = grid / (A + 1.0)[:, None]
    if y_floor is None:
        w = model.tail_mass(z)
    else:
        w = np.maximum(0.0, model.truncated_tail_mass(z, y_floor))
    terms = grid * grid / v[:, None] * w
    i_star = np.argmax(terms, axis=-1)
    rows = np.arange(i_star.size)
    l_star = grid[rows, i_star]
    term = terms[rows, i_star]
    z_star = l_star / (A + 1.0)
    # envelope derivative: d/dA of -(L^2/v) W(L/(A+1)) at fixed L = L*
    return {
        "value": C * u - term,
        "argmax_at_top": i_star == grid.shape[-1] - 1,
        "da": l_star / v * model.inverse(z_star),
    }


def b0_probe(model: EpsilonModel, delta: float = ConstantBudget.delta,
             P: float = ConstantBudget.P, n_points: int = 120,
             seed: int = 0) -> dict:
    """Joint-scaling probe for a Bellman candidate on the reduced domain
    {(u, v, A): uv <= delta, 0 <= A <= 1} without the flow variable.

    B0 is the lower envelope of B2 over the admissible L-slab.  The probe
    measures

        Lambda = sup B0 / u   (the size the bound 0 <= B0 <= Lambda u needs),
        gamma  = inf dA B0 / (u^2 v)   (derivative floor, L = L* slab edge),

    and reports c_joint = gamma / Lambda: the floor constant the rescaled
    candidate B0 / Lambda achieves while staying below u.  For an
    integrable decay profile c_joint is a fixed positive number on the
    whole domain.  For the constant (no-gap) profile the tail mass only
    exists truncated at a floor y_floor, and the truncated candidate is
    inert (dA = 0) wherever P sqrt(uv) falls below the floor — so covering
    smaller uv forces a smaller y_floor.  The probe couples the region's
    lower uv edge to the floor; the budget then grows like log(1/y_floor)
    while gamma stays fixed, and c_joint collapses to zero as the
    truncation is removed.  There is no uniform derivative floor in the
    no-gap case.
    """
    delta_used = min(delta, 0.5 * (model.z_cap / P) ** 2)

    floors = [None] if model.kind != "const" else [1e-6, 1e-12, 1e-24]
    per_floor = []
    env_ok = True
    bounds_ok = True
    da_min = math.inf
    fd_max_rel = 0.0
    fd_checked = 0
    for y_floor in floors:
        # region: uv log-uniform from t_min up to delta_used, u log-uniform,
        # A uniform with both endpoints pinned; for the truncated candidate
        # t_min sits just above the floor's dead zone
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
                0.0, float(model.truncated_tail_mass(z_top, y_floor)))
        vv = t / uu
        pt = _b0_point(model, c_budget, uu, vv, aa, P, y_floor)
        value, da = pt["value"], pt["da"]
        env_ok &= bool(pt["argmax_at_top"].all())
        bounds_ok &= bool(np.all((-1e-12 * c_budget * uu <= value)
                                 & (value <= c_budget * uu * (1 + 1e-12))))
        lam = max(0.0, float(np.max(value / uu)))
        gamma = float(np.min(da / (uu * uu * vv)))
        da_min = min(da_min, float(np.min(da)))
        # finite-difference cross-check of the envelope derivative
        # wherever the increment clears roundoff on C u
        h = 1e-4 * (aa + 1.0)
        fd = (0.0 <= aa - h) & (aa + h <= 1.0) \
            & (da * h > 1e5 * np.finfo(float).eps * c_budget * uu)
        if fd.any():
            u_fd, v_fd, a_fd, h_fd = uu[fd], vv[fd], aa[fd], h[fd]
            up = _b0_point(model, c_budget, u_fd, v_fd, a_fd + h_fd, P, y_floor)
            dn = _b0_point(model, c_budget, u_fd, v_fd, a_fd - h_fd, P, y_floor)
            slope = (up["value"] - dn["value"]) / (2 * h_fd)
            fd_max_rel = max(fd_max_rel, float(np.max(
                np.abs(slope - da[fd]) / da[fd])))
            fd_checked += int(fd.sum())
        per_floor.append({
            "y_floor": y_floor,
            "C": c_budget,
            "Lambda": lam,
            "gamma": gamma,
            "c_joint": gamma / lam if lam > 0 else math.inf,
        })

    # concavity of the envelope along A at a fixed weight point
    a_line = np.linspace(0.0, 1.0, 33)
    vals = _b0_point(model, per_floor[0]["C"], np.ones_like(a_line),
                     np.full_like(a_line, delta_used), a_line, P,
                     floors[0])["value"]
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
