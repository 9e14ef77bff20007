"""Command-line front end: named verification campaigns over the dyadic,
bump, Bellman, sparse, and obstruction modules.

    dyadicbump <campaign> --config path [--seed n] [--out dir]
                          [--depth n] [--family path]

Campaigns: bump-check | orlicz | bellman-b1 | bellman-b2 | glav | testing
| obstruction | full, each a runner in the CAMPAIGNS registry.  Each writes
report.json, summary.csv, and the campaign's plot-data series to the output
directory.  Exit status 0 when every configured check passes, 1 on check
failures (report still written), 2 on input errors (no partial report).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bellman import (B1, B2, aux_T_check, b1_property_check,
                      b2_property_check, default_budget, g_positivity)
from .bumps import (BumpFamily, DivergentIntegralError, EpsilonModel,
                    curv_translate, integrability_phi, log_bump,
                    orlicz_norm_def_batch, orlicz_norm_dist, psi_gap_check,
                    self_improvement_check)
from .dyadic import ROOT, LeafWeight, TreeDepthError, check_depth
from .obstruction import (MAX_OBSTRUCTION_DEPTH, b0_probe, growth_row,
                          instance_bundle, obstruction_report)
from .reports import emit_plotdata, make_report, write_report
from .sparse import (bump_condition, glav_sup, green_induction,
                     load_instance, random_instance, save_instance,
                     testing_condition, truncated, vavo_L_bound)


class InputError(Exception):
    """Malformed or missing input; reported on stderr with status 2."""


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise InputError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InputError(f"config {p} must hold a JSON object")
    return cfg


def _load_family(descriptor) -> BumpFamily:
    if descriptor is None:
        return log_bump(1.0)
    if isinstance(descriptor, str):
        p = Path(descriptor)
        if not p.is_file():
            raise InputError(f"family file not found: {p}")
        try:
            descriptor = json.loads(p.read_text())
        except ValueError as exc:  # bad JSON, or bytes that are not text
            raise InputError(f"family file {p} is not valid JSON: {exc}") from exc
    if not isinstance(descriptor, dict):
        raise InputError("family must be a JSON object or a path to one")
    try:
        return BumpFamily.from_json(descriptor)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad family descriptor: {exc}") from exc


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _count(least: int):
    return lambda x: type(x) is int and x >= least, f"an integer >= {least}"


_POSITIVE = (lambda x: _is_number(x) and x > 0, "a positive number")
_PATH = (lambda x: isinstance(x, str), "a path string")

# the integer fields: depths and sample sizes, each taking the least count
# a campaign can run on
COUNTS = {
    "seed": _count(0),
    "depth": _count(0),
    "refine_depth": _count(0),
    **dict.fromkeys(("n_points", "n_points_T", "n_quad", "g_points",
                     "n_weights", "n_instances", "n_n", "n_a"), _count(1)),
    "probe_points": _count(2),
}
BUDGET_FIELDS = ("delta", "P", "c_drop", "delta1", "derivative_floor")
# the pass bounds of bump-check's Psi gap and orlicz's C*; no config moves them
PSI_GAP_BOUND = 4.0
EQUIVALENCE_BOUND = 20.0
# orlicz's, glav's and testing's tree depth; glav's and testing's bump target
DEPTH = 6
BUMP_TARGET = 0.01
# every config field, with its check and what the check asks for
FIELDS = {
    "family": (lambda x: isinstance(x, (str, dict)),
               "a JSON object or a path to one"),
    "out": _PATH,
    "instance": _PATH,
    **COUNTS,
    **dict.fromkeys((*BUDGET_FIELDS, "bump_target"), _POSITIVE),
    # the seam sample draws A from [max(2 a_min, 0.05), 1]
    "a_min": (lambda x: _is_number(x) and 0 <= x <= 0.5,
              "a number in [0, 0.5]"),
}


def _resolve(args) -> dict:
    """Merge config file and command-line flags; flags win.  Every field
    must be one of FIELDS and pass its check."""
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.depth is not None:
        cfg["depth"] = args.depth
    if args.family is not None:
        cfg["family"] = args.family
    if args.out is not None:
        cfg["out"] = args.out
    cfg.setdefault("seed", 0)
    cfg.setdefault("out", f"reports/{args.campaign}")
    for key, value in cfg.items():
        if key not in FIELDS:
            raise InputError(f"unknown config field {key!r}")
        check, wanted = FIELDS[key]
        if not check(value):
            raise InputError(f"config field {key!r} must be {wanted}")
    return cfg


def _given(cfg: dict, **params) -> dict:
    """Keyword arguments param=cfg[field], for each param=field whose field
    the config sets; the called function's own default covers the rest.
    Every number but a count becomes a float, so 1 and 1.0 report alike."""
    return {param: cfg[key] if key in COUNTS else float(cfg[key])
            for param, key in params.items() if key in cfg}


def _budget(family: BumpFamily, cfg: dict, **fixed):
    fields = _given(cfg, **{key: key for key in BUDGET_FIELDS})
    try:
        return default_budget(family, **fields, **fixed)
    except ValueError as exc:
        raise InputError(f"no constant budget for {family!r}: {exc}") from exc


def _need_companion(family: BumpFamily) -> None:
    if family.companion() is None:
        raise InputError(f"family {family!r} has no companion bump")


def _corpus(depth: int, n: int, seed: int) -> list[LeafWeight]:
    check_depth(depth)
    rng = np.random.default_rng(seed)
    return [LeafWeight(depth, rng.lognormal(0.0, 1.5, 2 ** depth))
            for _ in range(n)]


# ---------------------------------------------------------------------------
# Campaigns: each takes (family, cfg, seed, out) and returns (results, passed)
# ---------------------------------------------------------------------------

def run_bump_check(family: BumpFamily, cfg: dict, seed: int, out: Path):
    _need_companion(family)
    model = family.epsilon_model()
    results = {
        "family": family.to_json(),
        "phi_integrability": integrability_phi(family),
        "eps_integrability": model.integral_over_t(),
        "psi_gap": psi_gap_check(family, bound=PSI_GAP_BOUND),
        "curv_translate": curv_translate(model),
    }
    passed = results["psi_gap"]["pass"]
    if results["eps_integrability"]["verdict"] == "finite":
        gp = g_positivity(model, (1e-6, min(0.1, 0.9 * model.z_cap)),
                          **_given(cfg, n="g_points"))
        results["g_positivity"] = {k: gp[k] for k in
                                   ("min_g", "positive", "nondecreasing",
                                    "limit_zero")}
        results["series"] = {"g_series": {
            "columns": ["s", "g"],
            "rows": [[float(a), float(b)] for a, b in zip(gp["s"], gp["g"])],
        }}
        passed = passed and gp["positive"] and gp["nondecreasing"]
    return results, bool(passed)


def run_orlicz(family: BumpFamily, cfg: dict, seed: int, out: Path):
    _need_companion(family)
    depth = int(cfg.get("depth", DEPTH))
    n = int(cfg.get("n_weights", 200))
    corpus = _corpus(depth, n, seed)
    # one block per weight, so each norm is its own orlicz_norm_def
    bases = orlicz_norm_def_batch(
        np.stack([w.values for w in corpus])[:, None, :], family)[:, 0]
    ratios, si_ratios = [], []
    for w, base in zip(corpus, bases):
        dist = orlicz_norm_dist(w, ROOT, family)
        ratios.append(dist / base)
        si = self_improvement_check(w, ROOT, family)
        if si is not None:
            si_ratios.append(si["ratio"])
    ratios = np.asarray(ratios)
    c_star = float(max(ratios.max(), 1.0 / ratios.min()))
    results = {
        "weights": n,
        "depth": depth,
        "equivalence": {
            "ratio_min": float(ratios.min()),
            "ratio_max": float(ratios.max()),
            "C_star": c_star,
            "bound": EQUIVALENCE_BOUND,
            "pass": c_star <= EQUIVALENCE_BOUND,
        },
        "self_improvement": {
            "measured_C": float(max(si_ratios)),
            "ratio_min": float(min(si_ratios)),
        },
    }
    return results, results["equivalence"]["pass"]


def run_bellman_b1(family: BumpFamily, cfg: dict, seed: int, out: Path):
    # B1 reads no c2, and W diverges for some families B1 handles
    budget = _budget(family, cfg, c2=math.inf)
    rep = b1_property_check(
        family, budget, **_given(cfg, n_n="n_n", n_a="n_a", a_min="a_min"))
    # derivative-floor margin heat grid (the binding property)
    b1 = B1(family, budget.c1)
    grid = np.linspace(1e-3, 1.0, 33)
    N, A = np.meshgrid(grid, grid, indexing="ij")
    N, A = N[N <= A], A[N <= A]
    margin = b1.grad(N, A)[1] - budget.derivative_floor * N / b1.psi0(N)
    rows = np.column_stack([N, A, margin]).tolist()
    rep["series"] = {"b1_floor_margin_grid":
                     {"columns": ["N", "A", "margin"], "rows": rows}}
    return rep, rep["pass"]


def run_bellman_b2(family: BumpFamily, cfg: dict, seed: int, out: Path):
    budget = _budget(family, cfg)
    model = family.epsilon_model()
    if model is None:
        raise InputError(f"family {family!r} has no epsilon model for B2")
    try:
        rep = b2_property_check(model, budget, seed=seed,
                                **_given(cfg, n_points="n_points"))
    except ValueError as exc:  # an empty L-slab: no Omega2 point to sample
        raise InputError(f"no B2 sample for this budget: {exc}") from exc
    # closed form vs quadrature on a seeded sample
    b2 = B2(model, budget.c2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(int(cfg.get("n_quad", 100))):
        u = math.exp(rng.uniform(-6.0, 0.0))
        v = min(math.exp(rng.uniform(-6.0, 0.0)), budget.delta / u)
        z_hi = min(budget.P * math.sqrt(u * v), model.z_cap)
        # L from [uv, z_hi], or z_hi itself where a small P puts z_hi < uv
        L = math.exp(rng.uniform(math.log(min(u * v, z_hi)), math.log(z_hi)))
        A = rng.uniform(0.0, 1.0)
        closed = b2.value(u, v, L, A)
        quadv = b2.value_quad(u, v, L, A)
        worst = max(worst, abs(closed - quadv) / max(abs(quadv), 1e-300))
    rep["closed_vs_quad"] = {"worst_rel": worst, "pass": worst <= 1e-9}
    # combined-drop margin heat grid along the slab edge L = phi(uv)
    uv_grid = np.geomspace(min(1e-6, 1e-3 * budget.delta), budget.delta, 33)
    a_grid = np.linspace(0.0, 1.0, 17)
    uv, A = (x.ravel() for x in np.meshgrid(uv_grid, a_grid, indexing="ij"))
    s, L = np.sqrt(uv), model.phi(uv)
    _, _, dL, dA = b2.grad(s, s, L, A)
    rows = np.column_stack([uv, A, dA / (s * L) + s * dL / L]).tolist()
    rep["series"] = {"b2_combined_drop_grid":
                     {"columns": ["uv", "A", "margin"], "rows": rows}}
    rep["aux_T"] = aux_T_check(seed=seed, **_given(cfg, n_points="n_points_T"))
    passed = rep["pass"] and rep["closed_vs_quad"]["pass"] \
        and rep["aux_T"]["pass"]
    return rep, passed


def run_glav(family: BumpFamily, cfg: dict, seed: int, out: Path):
    budget = _budget(family, cfg)
    depth = int(cfg.get("depth", DEPTH))
    if depth < 1:
        # a depth-0 tree has no internal node, so no drop constant
        raise InputError(f"glav depth {depth} is below 1")
    fine = int(cfg.get("refine_depth", depth + 2))
    if fine < depth:
        # the stability rows coarsen the refined instances to depth
        raise InputError(f"glav refine_depth {fine} is below depth {depth}")
    n = int(cfg.get("n_instances", 10))
    bump_target = float(cfg.get("bump_target", BUMP_TARGET))
    seeds = [seed + i for i in range(n)]
    per = []
    for s in seeds:
        inst = random_instance(depth, s, family=family,
                               bump_target=bump_target,
                               omega2_delta=budget.delta)
        green = green_induction(inst["u"], inst["v"], inst["T"], family,
                                budget)
        glav = glav_sup(inst["u"], inst["v"], inst["T"])
        per.append({
            "seed": s,
            "telescoping_residual": green["telescoping_residual"],
            "min_drop_constant": green["min_drop_constant"],
            "glav_sup_ratio": glav["sup_ratio"],
            "pass": green["pass"],
        })
    # refinement stability of the (glav) sup-ratio on a few instances
    stability = []
    for s in seeds[:min(3, n)]:
        inst = random_instance(fine, s, family=family,
                               bump_target=bump_target,
                               omega2_delta=budget.delta)
        full = glav_sup(inst["u"], inst["v"], inst["T"])["sup_ratio"]
        part = glav_sup(inst["u"].coarsened(depth),
                        inst["v"].coarsened(depth),
                        truncated(inst["T"], depth))["sup_ratio"]
        stability.append({"seed": s, "fine": full, "coarse": part,
                          "rel_change": abs(full - part) / max(full, 1e-300)})
    stable = all(row["rel_change"] <= 0.10 for row in stability)
    results = {
        "instances": n,
        "depth": depth,
        "per_instance": per,
        "min_drop_constant": float(min(r["min_drop_constant"] for r in per)),
        "worst_telescoping": float(max(r["telescoping_residual"] for r in per)),
        "stability": stability,
        "stability_pass": stable,
    }
    passed = stable and all(r["pass"] for r in per) \
        and results["min_drop_constant"] > 0
    return results, passed


def run_testing(family: BumpFamily, cfg: dict, seed: int, out: Path):
    if "instance" in cfg:
        where = cfg["instance"]
        try:
            inst = load_instance(Path(where))
        except (OSError, LookupError, TypeError, ValueError,
                OverflowError) as exc:  # an integer past float's range
            raise InputError(f"instance bundle at {where} is unreadable: "
                             f"{exc}") from exc
    else:
        inst = random_instance(
            int(cfg.get("depth", DEPTH)), seed, family=family,
            bump_target=float(cfg.get("bump_target", BUMP_TARGET)))
    u, v, T = inst["u"], inst["v"], inst["T"]
    tc = testing_condition(T, u, v)
    results = {
        "testing": {"u_to_v_sup": tc["u_to_v"]["sup"],
                    "v_to_u_sup": tc["v_to_u"]["sup"],
                    "sup": tc["sup"]},
        "vavo": vavo_L_bound(u, v, T, **_given(cfg, P="P")),
        "bump": bump_condition(u, v, family),
    }
    return results, results["vavo"]["pass"]


def run_obstruction(family: BumpFamily, cfg: dict, seed: int, out: Path):
    depth = int(cfg.get("depth", 20))
    if not 1 <= depth <= MAX_OBSTRUCTION_DEPTH:
        raise InputError(f"obstruction depth {depth} outside "
                         f"[1, {MAX_OBSTRUCTION_DEPTH}]")
    # each depth is built once: the growth table's 10 and 20 and the
    # campaign's own depth
    reports = {d: obstruction_report(d) for d in sorted({10, 20, depth})}
    rep = reports[depth]
    table = [growth_row(r) for r in reports.values()]
    ratios = [r["ratio"] for r in table]
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    probe_kw = {"seed": seed, **_given(cfg, delta="delta", P="P",
                                       n_points="probe_points")}
    probe = b0_probe(family.b2_model(), **probe_kw)
    probe_const = b0_probe(EpsilonModel("const"), **probe_kw)
    results = {
        "depth": depth,
        "construction": {k: rep[k] for k in
                         ("generations", "sv_ok", "sn_ok", "product_residual",
                          "a2_pre", "a2_post", "a2_pass", "carleson",
                          "carleson_pass")},
        "divergence": rep["divergence"],
        "growth_table": table,
        "growth_monotone": monotone,
        "b0_probe": probe,
        "b0_probe_no_gap": probe_const,
        "series": {"obstruction_growth": {
            "columns": ["n", "S", "S_over_integral_u", "truncated_maximal"],
            "rows": [[r["depth"], r["S"], r["ratio"], r["truncated_maximal"]]
                     for r in table],
        }},
    }
    u, v, T = instance_bundle(depth)
    save_instance(out / "instance", u, v, T)
    results["instance_bundle"] = {"path": "instance", "depth": T.depth}
    passed = (rep["pass"] and monotone
              and probe["floor_pass"] and probe["fd_pass"]
              and (not probe_const["floor_pass"])
              and probe_const["floor_collapse"])
    return results, passed


def run_full(family: BumpFamily, cfg: dict, seed: int, out: Path):
    results, passed = {}, True
    for name, fn in CAMPAIGNS.items():
        if fn is run_full:
            continue
        res, ok = fn(family, cfg, seed, out)
        res.pop("series", None)
        results[name] = {"results": res, "pass": ok}
        passed = passed and ok
    return results, passed


CAMPAIGNS = {"bump-check": run_bump_check, "orlicz": run_orlicz,
             "bellman-b1": run_bellman_b1, "bellman-b2": run_bellman_b2,
             "glav": run_glav, "testing": run_testing,
             "obstruction": run_obstruction, "full": run_full}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyadicbump",
        description="Verification campaigns for one-sided Orlicz bump "
                    "conditions on dyadic trees.")
    parser.add_argument("campaign", choices=CAMPAIGNS)
    parser.add_argument("--config", help="JSON campaign configuration")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--depth", type=int, help="tree depth override")
    parser.add_argument("--family", help="bump-family JSON file")
    args = parser.parse_args(argv)

    try:
        cfg = _resolve(args)
        family = _load_family(cfg.get("family"))
        seed = int(cfg["seed"])
        out = Path(cfg["out"])
        results, passed = CAMPAIGNS[args.campaign](family, cfg, seed, out)
    except (InputError, TreeDepthError, DivergentIntegralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # the output path is plumbing, not part of the verified configuration
    cfg_recorded = {k: v for k, v in cfg.items() if k != "out"}
    report = make_report(args.campaign, cfg_recorded, seed, results, passed)
    paths = write_report(report, out)
    emit_plotdata(report, out)
    print(f"{args.campaign}: {'pass' if passed else 'FAIL'} "
          f"(report: {paths['report']})")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
