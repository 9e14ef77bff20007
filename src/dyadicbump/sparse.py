"""The dyadic sparse operator T f = sum_I a_I <f>_I chi_I, its testing
conditions, bump constants, and the Green's-formula induction that bounds
the weighted sums sum a_J u_J L_J |J| on finite trees."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .bellman import B1, B2, BellmanNode, ConstantBudget, master_bellman_eval
from .bumps import BumpFamily, orlicz_norm_levels
from .dyadic import (CarlesonSequence, DyadicIndex, LeafWeight, ROOT,
                     StepDistribution, _step_table, check_depth,
                     l_intensity_levels, upward_levels)


class SparseOperator:
    """Positive sparse operator given by a Carleson family of coefficients
    whose intensity (1/|J|) sum_{I subseteq J} a_I |I| stays <= 1."""

    def __init__(self, coeffs: CarlesonSequence):
        worst = coeffs.max_intensity()
        if worst > 1.0 + 1e-12:
            raise ValueError(
                f"Carleson intensity {worst:.6g} exceeds the unit bound 1")
        self.coeffs = coeffs
        self.depth = coeffs.depth


def truncated(T: SparseOperator, depth: int) -> SparseOperator:
    """The operator with all coefficients below the given depth discarded
    (used for depth-refinement stability comparisons)."""
    if depth > T.depth:
        raise ValueError(f"cannot truncate depth {T.depth} to {depth}")
    return SparseOperator(CarlesonSequence(depth, T.coeffs.levels[:depth + 1]))


def apply_sparse(T: SparseOperator, f: LeafWeight) -> LeafWeight:
    """(T f)(x) = sum over dyadic I containing x of a_I <f>_I."""
    if f.depth < T.depth:
        raise ValueError(
            f"weight depth {f.depth} shallower than operator depth {T.depth}")
    out = np.zeros(2 ** f.depth)
    for k, a in enumerate(T.coeffs.levels):
        out += np.repeat(a * f.node_averages(k), 2 ** (f.depth - k))
    return LeafWeight(f.depth, out)


def _level_sup(levels) -> tuple[float, tuple[int, int] | None]:
    """(sup, (level, pos)) over per-level arrays in level-then-position
    order; the first strictly greater entry wins, and (0.0, None) when no
    entry is positive."""
    sup, at = 0.0, None
    for k, arr in enumerate(levels):
        j = int(np.argmax(arr))
        if arr[j] > sup:
            sup, at = float(arr[j]), (k, j)
    return sup, at


def _joint_a2(u: LeafWeight, v: LeafWeight, depth: int) -> float:
    """max over dyadic I down to the depth of <u>_I <v>_I."""
    return _level_sup(u.node_averages(k) * v.node_averages(k)
                      for k in range(depth + 1))[0]


def _one_sided_testing(T: SparseOperator, u: LeafWeight,
                       v: LeafWeight) -> dict:
    """ratio(J) = ||chi_J T(u chi_J)||^2_{L^2(v)} / u(J) over all dyadic J.

    On J at level k, T(u chi_J) = S_k + c_J, where S_k sums a_I <u>_I chi_I
    over the I at levels >= k and c_J = u(J) sum_{I strictly containing J}
    a_I / |I|.  So one bottom-up pass keeps S_k as a leaf array, and each
    level's numerators are three block sums of nonnegative leaf arrays."""
    if u.depth < T.depth:
        raise ValueError(
            f"weight depth {u.depth} shallower than operator depth {T.depth}")
    a = T.coeffs.levels
    above = [np.zeros(1)]
    for k in range(T.depth):
        above.append(np.repeat(above[k] + a[k] * 2.0 ** k, 2))
    S = np.zeros(2 ** u.depth)
    per_level, kept = [None] * (T.depth + 1), [None] * (T.depth + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for k in range(T.depth, -1, -1):
            S += np.repeat(a[k] * u.node_averages(k), 2 ** (u.depth - k))
            Sv = S * v.values
            mass = u.node_averages(k) * 2.0 ** -k  # u(J)
            c = mass * above[k]
            num = ((S * Sv).reshape(2 ** k, -1).sum(axis=1)
                   + 2.0 * c * Sv.reshape(2 ** k, -1).sum(axis=1)
                   + c * c * (v.node_averages(k) * 2.0 ** (v.depth - k))
                   ) / 2 ** u.depth
            live = mass > 0
            per_level[k] = np.divide(num, mass, out=np.zeros_like(num),
                                     where=live)
            if not np.isfinite(per_level[k]).all():
                raise ValueError("a testing ratio overflows the float range")
            kept[k] = np.flatnonzero(live)
    ratios = list(zip(
        [(k, p) for k, pos in enumerate(kept) for p in pos.tolist()],
        np.concatenate([r[pos] for r, pos in zip(per_level, kept)]).tolist()))
    sup, sup_at = _level_sup(per_level)
    return {"ratios": ratios, "sup": sup, "sup_at": sup_at}


def testing_condition(T: SparseOperator, u: LeafWeight, v: LeafWeight) -> dict:
    """Both one-sided sparse testing conditions; zero-mass J are skipped."""
    if u.depth != v.depth:
        raise ValueError("u and v must share a depth")
    fwd = _one_sided_testing(T, u, v)
    bwd = _one_sided_testing(T, v, u)
    return {"u_to_v": fwd, "v_to_u": bwd,
            "sup": max(fwd["sup"], bwd["sup"])}


def bump_condition(u: LeafWeight, v: LeafWeight, family: BumpFamily) -> dict:
    """Suprema over dyadic I of the one-sided bump products and the joint
    A2 product: B_uv_left = sup ||u||_{Phi,I} <v>_I, B_uv_right the mirror,
    A2 = sup <u>_I <v>_I."""
    if u.depth != v.depth:
        raise ValueError("u and v must share a depth")
    # u's and v's nodes of a level are two blocks: each stops on its own
    norms = orlicz_norm_levels(np.stack((u.values, v.values)), family)
    return {"B_uv_left": _level_sup(nu * v.node_averages(k) for k, (nu, _)
                                    in enumerate(norms))[0],
            "B_uv_right": _level_sup(u.node_averages(k) * nv for k, (_, nv)
                                     in enumerate(norms))[0],
            "A2": _joint_a2(u, v, u.depth)}


def normalize_to_bump(u: LeafWeight, v: LeafWeight, family: BumpFamily,
                      target: float) -> tuple[LeafWeight, LeafWeight]:
    """Scale u and v by a common factor so the larger one-sided bump
    constant equals target (both products are bilinear in (u, v))."""
    rep = bump_condition(u, v, family)
    worst = max(rep["B_uv_left"], rep["B_uv_right"])
    if worst <= 0:
        return u, v
    s = math.sqrt(target / worst)
    return u.scaled(s), v.scaled(s)


# ---------------------------------------------------------------------------
# The (glav) sum and its recursion
# ---------------------------------------------------------------------------

def glav_levels(u: LeafWeight, v: LeafWeight,
                T: SparseOperator) -> list[np.ndarray]:
    """G_I = (1/|I|) sum_{J subseteq I} a_J u_J L_J |J| for every node,
    by the midpoint recursion G_I = a_I u_I L_I + (G_+ + G_-)/2."""
    L = l_intensity_levels(u, v, T.coeffs)
    return upward_levels(a * u.node_averages(k) * L[k]
                         for k, a in enumerate(T.coeffs.levels))


def glav_brute(u: LeafWeight, v: LeafWeight, T: SparseOperator,
               index: DyadicIndex = ROOT) -> float:
    """G_I by the literal double sum over descendants (oracle)."""
    L = l_intensity_levels(u, v, T.coeffs)
    total = 0.0
    for k in range(index.level, T.depth + 1):
        for pos in range(2 ** k):
            J = DyadicIndex(k, pos)
            if index.contains(J):
                total += T.coeffs.levels[k][pos] * u.average(J) \
                    * float(L[k][pos]) * J.length
    return total / index.length


def glav_sup(u: LeafWeight, v: LeafWeight, T: SparseOperator) -> dict:
    """sup over dyadic I of G_I / u_I (zero-mass I skipped), where it is
    attained, and G at the root."""
    G = glav_levels(u, v, T)
    avgs = [u.node_averages(k) for k in range(T.depth + 1)]
    sup, sup_at = _level_sup(
        np.where(avg > 0, g / np.where(avg > 0, avg, 1.0), 0.0)
        for g, avg in zip(G, avgs))
    return {"sup_ratio": sup, "sup_at": sup_at, "glav_root": float(G[0][0])}


def glav_check(u: LeafWeight, v: LeafWeight, T: SparseOperator,
               family: BumpFamily, budget: ConstantBudget | None = None) -> dict:
    """glav_sup with the bump constants recorded so callers can confirm the
    weights were rescaled to their bump target."""
    return {**glav_sup(u, v, T), "bump": bump_condition(u, v, family),
            "budget": budget}


# ---------------------------------------------------------------------------
# Green's-formula induction
# ---------------------------------------------------------------------------

def green_induction(u: LeafWeight, v: LeafWeight, T: SparseOperator,
                    family: BumpFamily, budget: ConstantBudget) -> dict:
    """Evaluate the master Bellman function at every node, verify the
    telescoping identity |I| B(I) - sum over bottom nodes = sum of the
    per-node differences Delta(J), and report the achieved minimum of
    Delta(J) / (|J| a_J u_J L_J).

    Nodes outside Omega2 (uv > delta or L > P sqrt(uv)) are excluded from
    the drop statistic and listed in the report; the telescoping identity
    is algebra and is checked on everything.
    """
    b1 = B1(family, budget.c1)
    b2 = B2(family.b2_model(), budget.c2)
    us = [u.node_averages(k) for k in range(T.depth + 1)]
    vs = [v.node_averages(k) for k in range(T.depth + 1)]
    L = l_intensity_levels(u, v, T.coeffs)
    A = T.coeffs.intensity_levels()

    # one distribution function, sliced from its level's step table, and one
    # master evaluation per node; all the other bookkeeping works on levels
    values = []
    for k in range(T.depth + 1):
        table = _step_table(u.values.reshape(1 << k, -1))
        values.append(np.array([
            master_bellman_eval(BellmanNode(
                uu, vv, ll, aa,
                StepDistribution.of(u, DyadicIndex(k, pos), table)), b1, b2)
            for pos, (uu, vv, ll, aa) in enumerate(zip(
                us[k].tolist(), vs[k].tolist(), L[k].tolist(),
                A[k].tolist()))]))
    lengths = [2.0 ** (-k) for k in range(T.depth + 1)]
    u_root = float(us[0][0])

    # B1(N, A) -> -inf as A -> 0 with mass present, so nodes carrying mass
    # but no coefficients below them make the evaluation diverge; report
    # them instead of propagating NaN through the telescoping algebra
    divergent = [{"level": k, "pos": int(p)}
                 for k, row in enumerate(values)
                 for p in np.nonzero(~np.isfinite(row))[0]]
    if divergent:
        return {"telescoping_residual": math.inf, "telescoping_pass": False,
                "min_drop_constant": None, "min_drop_at": None,
                "drop_nodes": 0, "excluded_nodes": [],
                "divergent_nodes": divergent, "glav_sum": None,
                "u_root": u_root, "chain_holds": False, "pass": False}

    # Delta(J) = |J| B(J) - |J+| B(J+) - |J-| B(J-) for internal J
    deltas = []
    excluded = []
    drop_nodes = 0
    min_c, min_at = math.inf, None
    for k in range(T.depth):
        d = lengths[k] * values[k] \
            - lengths[k + 1] * (values[k + 1][0::2] + values[k + 1][1::2])
        deltas.append(d)
        uv = us[k] * vs[k]
        outside = (uv > budget.delta * (1 + 1e-12)) \
            | (L[k] > budget.P * np.sqrt(uv) * (1 + 1e-12))
        excluded += [{"level": k, "pos": pos, "uv": uv_p, "L": L_p}
                     for pos, uv_p, L_p in zip(
                         np.flatnonzero(outside).tolist(),
                         uv[outside].tolist(), L[k][outside].tolist())]
        required = lengths[k] * T.coeffs.levels[k] * us[k] * L[k]
        live = np.flatnonzero(~outside & (required > 0))
        if live.size:
            drop_nodes += live.size
            ratios = d[live] / required[live]
            # the first node in level-then-position order wins a tie
            j = int(np.argmin(ratios))
            if ratios[j] < min_c:
                min_c, min_at = float(ratios[j]), (k, int(live[j]))

    lhs = values[0][0]  # |I0| = 1
    bottom = lengths[T.depth] * float(values[T.depth].sum())
    rhs = bottom + float(sum(d.sum() for d in deltas))
    residual = abs(lhs - rhs) / max(abs(lhs), 1e-300)

    # chain: (C1 + C2) u_I >= |I| B(I) >= sum Delta >= min_c sum |J| a_J u_J L_J
    glav_sum = float(glav_levels(u, v, T)[0][0])  # sum |J| a_J u_J L_J, |I0|=1
    chain_holds = (not drop_nodes or min_c <= 0 or glav_sum <= 0
                   or (budget.c1 + budget.c2) * u_root
                   >= min_c * glav_sum * (1 - 1e-12))
    report = {
        "telescoping_residual": residual,
        "telescoping_pass": bool(residual <= 1e-10),
        "min_drop_constant": None if not drop_nodes else min_c,
        "min_drop_at": min_at,
        "drop_nodes": drop_nodes,
        "excluded_nodes": excluded,
        "divergent_nodes": [],
        "glav_sum": glav_sum,
        "u_root": u_root,
        "chain_holds": bool(chain_holds),
        "pass": bool(residual <= 1e-10
                     and (not drop_nodes or min_c > 0)
                     and chain_holds
                     and not excluded),
    }
    return report


def vavo_L_bound(u: LeafWeight, v: LeafWeight, T: SparseOperator,
                 P: float = ConstantBudget.P) -> dict:
    """Check L_I <= P sqrt(u_I v_I) at every node.  The bound is a lemma
    under joint A2 <= 1 and Carleson bound <= 1; if either hypothesis fails
    the report is marked conditional rather than failed."""
    a2 = _joint_a2(u, v, T.depth)
    carleson = T.coeffs.max_intensity()
    hypotheses = a2 <= 1.0 + 1e-12 and carleson <= 1.0 + 1e-12

    L = l_intensity_levels(u, v, T.coeffs)
    denoms = [P * np.sqrt(u.node_averages(k) * v.node_averages(k))
              for k in range(T.depth + 1)]
    worst, worst_at = _level_sup(
        np.where(d > 0, Lk / np.where(d > 0, d, 1.0),
                 np.where(Lk > 0, np.inf, 0.0))
        for Lk, d in zip(L, denoms))
    return {"worst_ratio": worst, "worst_at": worst_at, "A2": a2,
            "carleson": carleson, "conditional": not hypotheses,
            "pass": bool(worst <= 1.0 or not hypotheses)}


# ---------------------------------------------------------------------------
# Seeded random instances and bundle I/O
# ---------------------------------------------------------------------------

def normalize_to_omega2(u: LeafWeight, v: LeafWeight,
                        delta: float) -> tuple[LeafWeight, LeafWeight]:
    """Shrink u and v by a common factor until max over dyadic I of
    u_I v_I <= delta (no-op when already inside)."""
    worst = _joint_a2(u, v, u.depth)
    if worst <= delta:
        return u, v
    s = math.sqrt(delta / worst)
    return u.scaled(s), v.scaled(s)


def random_instance(depth: int, seed: int, *, family: BumpFamily | None = None,
                    bump_target: float | None = None,
                    omega2_delta: float | None = None) -> dict:
    """Seeded random (u, v, T): positive step weights and a Carleson family
    with per-level magnitude 0.45^k, which keeps every intensity < 1.
    When bump_target is given the weights are rescaled so the one-sided
    bump constant equals it; omega2_delta additionally shrinks them until
    every node average product u_I v_I is <= that delta."""
    check_depth(depth)
    rng = np.random.default_rng(seed)
    a_decay = 0.45
    u = LeafWeight(depth, rng.uniform(0.2, 1.8, 2 ** depth))
    v = LeafWeight(depth, rng.uniform(0.2, 1.8, 2 ** depth))
    levels = [rng.uniform(0.0, 1.0, 2 ** k) * a_decay ** k * (1 - a_decay)
              for k in range(depth + 1)]
    seq = CarlesonSequence(depth, levels)
    if bump_target is not None:
        if family is None:
            raise ValueError("bump_target needs a family")
        u, v = normalize_to_bump(u, v, family, bump_target)
    if omega2_delta is not None:
        u, v = normalize_to_omega2(u, v, omega2_delta)
    return {"u": u, "v": v, "T": SparseOperator(seq), "seed": seed}


def save_instance(path, u, v, T) -> None:
    """Write u.json, v.json and carleson.json: u and v are weights with
    LeafWeight's to_json (a LeafWeight, or a band weight that writes the
    same file without leaves), T a SparseOperator or its file's dict."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    carleson = T if isinstance(T, dict) else T.coeffs.to_json()
    for name, obj in (("u", u.to_json()), ("v", v.to_json()),
                      ("carleson", carleson)):
        with open(path / f"{name}.json", "w") as fh:
            json.dump(obj, fh)


def load_instance(path) -> dict:
    """save_instance's bundle; ValueError unless u, v share a depth >= T's."""
    path = Path(path)
    u, v = LeafWeight.load(path / "u.json"), LeafWeight.load(path / "v.json")
    T = SparseOperator(CarlesonSequence.load(path / "carleson.json"))
    if v.depth != u.depth or u.depth < T.depth:
        raise ValueError(f"weights of depths {u.depth} and {v.depth} for an "
                         f"operator of depth {T.depth}")
    return {"u": u, "v": v, "T": T}
