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

import math
from dataclasses import dataclass, field

import numpy as np

from .bumps import EpsilonModel
from .dyadic import DyadicIndex, LeafWeight, MAX_DEPTH


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

    def suffix_integrals(self) -> np.ndarray:
        """I_m = integral over [0, 2^{-m}) for m = 0..depth."""
        widths = 0.5 ** (np.arange(self.depth) + 1)
        pieces = self.band_values * widths
        out = np.zeros(self.depth + 1)
        out[self.depth] = self.last_value * 0.5 ** self.depth
        for m in range(self.depth - 1, -1, -1):
            out[m] = out[m + 1] + pieces[m]
        return out

    def prefix_average(self, m: int) -> float:
        """Average over the prefix interval [0, 2^{-m})."""
        if not 0 <= m <= self.depth:
            raise ValueError(f"prefix level {m} outside [0, {self.depth}]")
        return float(self.suffix_integrals()[m] * 2.0 ** m)

    def band_average(self, k: int) -> float:
        return float(self.band_values[k])

    def to_leaf_weight(self) -> LeafWeight:
        if self.depth > MAX_DEPTH:
            raise ValueError("band weight too deep for a leaf array")
        vals = np.empty(2 ** self.depth)
        vals[0] = self.last_value
        for k in range(self.depth):
            lo = 2 ** (self.depth - k - 1)
            vals[lo:2 * lo] = self.band_values[k]
        return LeafWeight(self.depth, vals)


def maximal_band_values(u: BandWeight) -> tuple[np.ndarray, float]:
    """The dyadic maximal function of a band weight is band-constant:
    on band k it equals max(value_k, max of prefix averages over levels
    <= k); on the leftover interval, the max over all prefix averages."""
    prefix = u.suffix_integrals() * 2.0 ** np.arange(u.depth + 1)
    running = np.maximum.accumulate(prefix[:u.depth + 1])
    bands = np.maximum(u.band_values, running[:u.depth])
    last = max(float(running[u.depth]), u.last_value)
    return bands, last


def maximal_integral(u: BandWeight, cutoff_band: int | None = None) -> float:
    """integral of M^d u, over [0, 1) or truncated to [0, 2^{-cutoff}) when
    a cutoff band index is given."""
    bands, last = maximal_band_values(u)
    k0 = 0 if cutoff_band is None else cutoff_band
    widths = 0.5 ** (np.arange(k0, u.depth) + 1)
    return float(np.dot(bands[k0:], widths)) + last * 0.5 ** u.depth


# ---------------------------------------------------------------------------
# The default profile and the stopping hierarchy
# ---------------------------------------------------------------------------

def build_u(depth: int, profile=None) -> BandWeight:
    """Default profile: value 2^k / (k+1)^2 on band k, zero on the leftover
    interval.  Then the integral stays below pi^2/12 at every depth while
    the maximal-function integral grows like the harmonic series."""
    if profile is None:
        k = np.arange(depth)
        vals = 2.0 ** k / (k + 1) ** 2
    else:
        vals = np.asarray([profile(k) for k in range(depth)], dtype=float)
    return BandWeight(depth, vals, 0.0)


@dataclass(frozen=True)
class Member:
    """One stopping interval: a prefix [0, 2^{-index}) or the dyadic
    interval [2^{-index-1}, 2^{-index}) carrying band number index."""
    kind: str  # "prefix" | "band"
    index: int

    def measure(self) -> float:
        if self.kind == "prefix":
            return 2.0 ** (-self.index)
        return 2.0 ** (-self.index - 1)

    def average(self, w: BandWeight) -> float:
        if self.kind == "prefix":
            return w.prefix_average(self.index)
        return w.band_average(self.index)

    def dyadic_index(self) -> DyadicIndex:
        if self.kind == "prefix":
            return DyadicIndex(self.index, 0)
        return DyadicIndex(self.index + 1, 1)


@dataclass
class StoppingHierarchy:
    generations: list[list[Member]]
    base: float = 3.0
    sv_ok: bool = True
    sn_ok: bool = True
    sv_records: list = field(default_factory=list)
    sn_records: list = field(default_factory=list)

    @property
    def depth_of_generations(self) -> int:
        return len(self.generations)

    def all_members(self):
        for n, gen in enumerate(self.generations, start=1):
            for mem in gen:
                yield n, mem


def _generation(u: BandWeight, threshold: float) -> list[Member]:
    """Maximal dyadic intervals with average >= threshold.  For a band
    weight these are a shortest qualifying prefix plus the qualifying band
    intervals not inside it."""
    prefix_avg = u.suffix_integrals() * 2.0 ** np.arange(u.depth + 1)
    qual_prefix = np.nonzero(prefix_avg >= threshold)[0]
    m_star = int(qual_prefix[0]) if qual_prefix.size else None
    limit = u.depth if m_star is None else m_star
    members = [Member("band", int(k))
               for k in np.nonzero(u.band_values[:limit] >= threshold)[0]]
    if m_star is not None:
        members.append(Member("prefix", m_star))
    return members


def build_hierarchy(u: BandWeight, base: float = 3.0,
                    max_generations: int = 64) -> StoppingHierarchy:
    """Stopping families at thresholds base^n with the structural
    invariants measured: 3^n <= <u>_I <= 2*3^n on members, and each member
    of the previous generation keeps at least 1/3 of its measure
    uncovered."""
    gens = []
    for n in range(1, max_generations + 1):
        gen = _generation(u, base ** n)
        if not gen:
            break
        gens.append(gen)
    h = StoppingHierarchy(gens, base=base)
    # nesting: each member must sit inside a member one generation up
    for n in range(1, len(gens)):
        for mem in gens[n]:
            if not any(p.dyadic_index().contains(mem.dyadic_index())
                       for p in gens[n - 1]):
                raise ConstructionIntegrityError(
                    f"generation {n + 1} member {mem} escapes "
                    f"generation {n}")
    # (sv): threshold <= average <= 2 * threshold
    for n, mem in h.all_members():
        avg = mem.average(u)
        ok = base ** n <= avg * (1 + 1e-12) and avg <= 2 * base ** n * (1 + 1e-12)
        h.sv_records.append({"generation": n, "member": mem, "average": avg,
                             "ok": ok})
        h.sv_ok = h.sv_ok and ok
    # (sn): uncovered fraction within each parent member
    for n in range(len(gens)):
        nxt = gens[n + 1] if n + 1 < len(gens) else []
        for mem in gens[n]:
            inside = [c for c in nxt if mem.dyadic_index().contains(
                c.dyadic_index())]
            covered = sum(c.measure() for c in inside)
            frac = 1.0 - covered / mem.measure()
            ok = frac >= 1.0 / 3.0 - 1e-12
            h.sn_records.append({"generation": n + 1, "member": mem,
                                 "uncovered_fraction": frac, "ok": ok})
            h.sn_ok = h.sn_ok and ok
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
    base = hierarchy.base
    band_widths = 0.5 ** (np.arange(u.depth) + 1)
    v_bands = np.full(u.depth, -1.0)   # -1 marks "not assigned yet"
    v_last = -1.0
    gens = hierarchy.generations
    constants = []
    for n in range(len(gens), 0, -1):
        for mem in gens[n - 1]:
            target_avg = 1.0 / mem.average(u)
            if mem.kind == "band":
                v_bands[mem.index] = target_avg
                continue
            # prefix member [0, 2^{-m}): descendants already carry their v
            # (assigned on earlier, deeper iterations); everything still
            # unassigned inside gets the one solved constant
            m = mem.index
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
            rel = c_val * base ** (n + 1)
            constants.append({"generation": n, "member": mem,
                              "value": c_val, "relative": rel})
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
    return {"v_pre": v_pre, "v": v_scaled, "constants": constants}


def a2_supremum(u: BandWeight, v: BandWeight) -> float:
    """sup over dyadic L of <u>_L <v>_L.  Any dyadic interval is either a
    prefix or sits inside one band where both weights are constant, so the
    sup is over prefixes and bands."""
    worst = u.last_value * v.last_value
    for m in range(u.depth + 1):
        worst = max(worst, u.prefix_average(m) * v.prefix_average(m))
    worst = max(worst, float(np.max(u.band_values * v.band_values))
                if u.depth else worst)
    return float(worst)


def build_alpha(hierarchy: StoppingHierarchy, depth: int) -> dict:
    """alpha = 1/3 on the stopping intervals, 0 elsewhere, with its
    Carleson intensity A_I = (1/|I|) sum_{J within I} alpha_J |J| computed
    over the compressed structure (the sup is attained at a prefix or a
    member).  The (sn) geometry keeps the bound at most 1."""
    members = [(n, mem) for n, mem in hierarchy.all_members()]
    # intensity at each prefix level
    sup = 0.0
    for m in range(depth + 1):
        holder = DyadicIndex(m, 0)
        total = sum(mem.measure() / 3.0 for _, mem in members
                    if holder.contains(mem.dyadic_index()))
        sup = max(sup, total * 2.0 ** m)
    # intensity at each member (bands contain only themselves; prefixes
    # are covered above)
    for _, mem in members:
        if mem.kind == "band":
            inner = sum(other.measure() / 3.0 for _, other in members
                        if mem.dyadic_index().contains(other.dyadic_index()))
            sup = max(sup, inner / mem.measure())
    return {"members": members, "value": 1.0 / 3.0,
            "carleson_sup": float(sup), "pass": bool(sup <= 1.0 + 1e-12)}


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
    for n, gen in enumerate(gens, start=1):
        for mem in gen:
            au = mem.average(u)
            if mem.kind == "band":
                av = v_pre.band_average(mem.index)
            else:
                av = v_pre.prefix_average(mem.index)
            running += au * mem.measure()
            lhs_pre += au * au * av * (1.0 / 3.0) * mem.measure()
        s_partial.append(running)
    s_total = running
    identity_residual = (abs(lhs_pre - s_total / 3.0)
                         / max(s_total / 3.0, 1e-300))

    # integral of M^d u over the union of the first generation: the
    # maximal function is band-constant, so integrate member by member
    trunc_maximal = 0.0
    if gens:
        m_bands, m_last = maximal_band_values(u)
        widths = 0.5 ** (np.arange(u.depth) + 1)
        for mem in gens[0]:
            if mem.kind == "band":
                trunc_maximal += m_bands[mem.index] * widths[mem.index]
            else:
                trunc_maximal += float(
                    np.dot(m_bands[mem.index:], widths[mem.index:])) \
                    + m_last * 0.5 ** u.depth
    return {
        "S": s_partial,
        "S_total": s_total,
        "integral_u": u.integral(),
        "ratio": s_total / u.integral(),
        "identity_lhs_pre": lhs_pre,
        "identity_constant_pre": 1.0 / 3.0,
        "identity_constant_post": 1.0 / 27.0,
        "identity_residual": identity_residual,
        "identity_pass": bool(identity_residual <= 1e-10),
        "truncated_maximal_integral": trunc_maximal,
        "maximal_bound_pass": bool(s_total >= trunc_maximal / 3.0 - 1e-12),
    }


def obstruction_report(depth: int, base: float = 3.0) -> dict:
    """End-to-end run of the construction at one depth."""
    u = build_u(depth)
    h = build_hierarchy(u, base=base)
    built = build_v(u, h)
    alpha = build_alpha(h, depth)
    div = divergence_sum(u, built["v_pre"], h)
    # <u><v> = 1 at stopping intervals, pre-scaling
    worst_prod = 0.0
    for _, mem in h.all_members():
        av = built["v_pre"].band_average(mem.index) if mem.kind == "band" \
            else built["v_pre"].prefix_average(mem.index)
        worst_prod = max(worst_prod, abs(mem.average(u) * av - 1.0))
    a2_pre = a2_supremum(u, built["v_pre"])
    a2_post = a2_supremum(u, built["v"])
    return {
        "depth": depth,
        "generations": len(h.generations),
        "sv_ok": h.sv_ok,
        "sn_ok": h.sn_ok,
        "product_residual": worst_prod,
        "a2_pre": a2_pre,
        "a2_post": a2_post,
        "a2_pass": bool(a2_post <= 1.0 + 1e-12),
        "carleson": alpha["carleson_sup"],
        "carleson_pass": alpha["pass"],
        "divergence": div,
        "u": u,
        "v": built["v"],
        "v_pre": built["v_pre"],
        "hierarchy": h,
    }


def growth_table(depths=(10, 20, 40), base: float = 3.0) -> list[dict]:
    """S(n)/integral(u) across a depth sweep plus the truncated maximal
    integral — the log-divergence signature."""
    rows = []
    for d in depths:
        rep = obstruction_report(d, base=base)
        rows.append({
            "depth": d,
            "generations": rep["generations"],
            "S": rep["divergence"]["S_total"],
            "integral_u": rep["divergence"]["integral_u"],
            "ratio": rep["divergence"]["ratio"],
            "truncated_maximal": rep["divergence"]["truncated_maximal_integral"],
        })
    return rows


# ---------------------------------------------------------------------------
# The B0 probe
# ---------------------------------------------------------------------------

def _b0_point(model: EpsilonModel, C: float, u: float, v: float, A: float,
              P: float, y_floor: float | None, n_grid: int = 24) -> dict:
    """Evaluate B0(u, v, A) = C u - sup_L (L^2/v) W(L/(A+1)) over the
    admissible slab uv <= L <= P sqrt(uv), together with the envelope
    derivative in A at the maximizing L.

    The inner term is increasing in L, so the sup sits at the right
    endpoint; the grid is kept as an independent check of that fact.
    """
    lo, hi = u * v, P * math.sqrt(u * v)
    grid = np.geomspace(lo, hi, n_grid)
    z = grid / (A + 1.0)
    if y_floor is None:
        w = np.array([float(model.tail_mass(s)) for s in z])
    else:
        w = np.array([max(0.0, float(model.truncated_tail_mass(s, y_floor)))
                      for s in z])
    terms = grid * grid / v * w
    i_star = int(np.argmax(terms))
    l_star = float(grid[i_star])
    z_star = l_star / (A + 1.0)
    # envelope derivative: d/dA of -(L^2/v) W(L/(A+1)) at fixed L = L*
    da = l_star / v * float(model.inverse(z_star))
    return {
        "value": C * u - float(terms[i_star]),
        "term": float(terms[i_star]),
        "L_star": l_star,
        "argmax_at_top": i_star == n_grid - 1,
        "da": da,
    }


def b0_probe(model: EpsilonModel, delta: float = 1e-3, P: float = 100.0,
             n_points: int = 120, seed: int = 0,
             y_floors=(1e-6, 1e-12, 1e-24)) -> dict:
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
    if model.kind == "custom":
        raise ValueError("probe needs a named epsilon kind")
    delta_used = min(delta, 0.5 * (model.z_cap / P) ** 2)

    floors = [None] if model.kind != "const" else list(y_floors)
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
        lam = 0.0
        gamma = math.inf
        for u, tv, A in zip(uu, t, aa):
            v = tv / u
            pt = _b0_point(model, c_budget, u, v, A, P, y_floor)
            env_ok &= pt["argmax_at_top"]
            bounds_ok &= -1e-12 * c_budget * u <= pt["value"] \
                <= c_budget * u * (1 + 1e-12)
            lam = max(lam, pt["value"] / u)
            gamma = min(gamma, pt["da"] / (u * u * v))
            da_min = min(da_min, pt["da"])
            # finite-difference cross-check of the envelope derivative
            # wherever the increment clears roundoff on C u
            h = 1e-4 * (A + 1.0)
            if 0.0 <= A - h and A + h <= 1.0 \
                    and pt["da"] * h > 1e5 * np.finfo(float).eps * c_budget * u:
                up = _b0_point(model, c_budget, u, v, A + h, P, y_floor)
                dn = _b0_point(model, c_budget, u, v, A - h, P, y_floor)
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

    # concavity of the envelope along A at a fixed weight point
    u0, v0 = 1.0, delta_used
    a_line = np.linspace(0.0, 1.0, 33)
    vals = np.array([_b0_point(model, per_floor[0]["C"], u0, v0, a, P,
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
