"""The benchmark's three workloads.

Each workload builds its inputs from the seed and lists its ``stages``:
named lists of units, each unit one or a few calls into the package.  A
round runs every unit once, timing each, and afterwards checks every output
against ``oracles`` or a property the method must have; the checks run
outside the timed units and untraced.  Only the first round's checks are
counted as operations, so ``attempted`` and ``failed`` do not depend on how
many rounds fit in a run; later rounds' outputs are still checked.
``REPORTED`` names the three stages reported as ``stage1_s``..``stage3_s``.

``induction``
    Green's-formula induction on seeded random trees (log bump, sigma = 1):
    a suite of 18 instances at depths 5..10, one depth-12 instance, and both
    sparse testing conditions at depth 10.  Per-node Python; no quadrature.
``quadrature``
    Closed forms against quadrature: criterion 4's closed-vs-quad loop on
    the power model, the logpow tail-mass oracle on a fixed z-grid, and the
    logpow B2 sweep with the B0 probes.  Scalar ``inverse`` and ``quad``
    calls; no trees.
``campaigns``
    Every CLI campaign through ``cli.main`` in this process, each writing
    its report into a scratch directory under the checkout.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np

import oracles

OBJECT_REPR = re.compile(r"object at 0x[0-9a-fA-F]+")


class Tally:
    """Operations attempted and failed, plus wrong outputs.

    ``op(fault)`` counts an operation, as failed when a known fault in the
    package hit it, while ``counting`` is true (the first round);
    ``wrong`` records an output that disagrees with its reference, in any
    round, which makes the whole run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.counting = True
        self.errors: list[str] = []
        self.faults: dict[str, int] = {}

    def op(self, fault: str | None = None) -> None:
        if not self.counting:
            return
        self.attempted += 1
        if fault is not None:
            self.failed += 1
            self.faults[fault] = self.faults.get(fault, 0) + 1

    def wrong(self, message: str) -> None:
        if len(self.errors) < 50:
            self.errors.append(message)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# induction
# ---------------------------------------------------------------------------

class Induction:
    SUITE_DEPTHS = tuple(5 + i % 6 for i in range(18))
    DEEP_DEPTH = 12
    TESTING_DEPTH = 10
    REPEATS = 3         # the deep tree and testing units run 3 times a round
    BUMP_TARGET = 0.01
    NODES_CHECKED = 3   # master values recomputed per instance, plus root
    REPORTED = ("green_suite_s", "deep_tree_s", "testing_s")

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.seed = seed
        self.family = pkg.bumps.log_bump(1.0)
        self.budget = pkg.bellman.default_budget(self.family)
        n = len(self.SUITE_DEPTHS)
        seeds = [int(s) for s in
                 np.random.default_rng(seed).integers(0, 2 ** 31, n + 2)]
        deep = functools.partial(self._instance, self.DEEP_DEPTH, seeds[n])
        testing = functools.partial(self.testing, seeds[n + 1])
        self.stages = (
            ("green_suite_s", [functools.partial(self.suite_instance, d, s)
                               for d, s in zip(self.SUITE_DEPTHS, seeds)]),
            ("deep_tree_s", [deep] * self.REPEATS),
            ("testing_s", [testing] * self.REPEATS))

    def _instance(self, depth, seed):
        sparse = self.pkg.sparse
        inst = sparse.random_instance(depth, seed, family=self.family,
                                      bump_target=self.BUMP_TARGET,
                                      omega2_delta=self.budget.delta)
        green = sparse.green_induction(inst["u"], inst["v"], inst["T"],
                                       self.family, self.budget)
        return inst, green

    def suite_instance(self, depth, seed):
        inst, green = self._instance(depth, seed)
        glav = self.pkg.sparse.glav_check(inst["u"], inst["v"], inst["T"],
                                          self.family, self.budget)
        return inst, green, glav

    def testing(self, seed):
        inst = self.pkg.sparse.random_instance(
            self.TESTING_DEPTH, seed, family=self.family,
            bump_target=self.BUMP_TARGET)
        tc = self.pkg.sparse.testing_condition(inst["T"], inst["u"], inst["v"])
        return inst, tc

    # -- checks ------------------------------------------------------------

    def check(self, out: dict, tally: Tally) -> None:
        b = self.budget
        if rel_err(b.c1, oracles.c1_log1()) > 1e-12 \
                or rel_err(b.c2, oracles.c2_log1(b.delta, b.P)) > 1e-12:
            tally.wrong(f"budget constants c1={b.c1} c2={b.c2}")
        rng = np.random.default_rng(self.seed + 1)
        for inst, green, glav in out["green_suite_s"]:
            self._check_instance(inst, green, rng, tally)
            if not (math.isfinite(glav["sup_ratio"]) and glav["sup_ratio"] > 0):
                tally.wrong(f"glav sup ratio {glav['sup_ratio']}")
        for inst, green in out["deep_tree_s"]:
            self._check_instance(inst, green, rng, tally)
        for inst, tc in out["testing_s"]:
            self._check_testing(inst, tc, tally)

    def _check_instance(self, inst, green, rng, tally: Tally) -> None:
        tally.op()
        u, v, T = inst["u"].values, inst["v"].values, inst["T"]
        where = f"depth {T.depth} seed {inst['seed']}"
        if not (green["telescoping_residual"] <= 1e-10
                and green["min_drop_constant"] is not None
                and green["min_drop_constant"] > 0 and green["pass"]):
            tally.wrong(f"induction {where}: residual "
                        f"{green['telescoping_residual']}, drop "
                        f"{green['min_drop_constant']}, pass {green['pass']}")
        levels = T.coeffs.levels
        glav = oracles.glav_sum(u, v, levels)
        if rel_err(green["glav_sum"], glav) > 1e-10:
            tally.wrong(f"glav sum {where}: {green['glav_sum']} vs {glav}")
        nodes = [(0, 0)] + [(k, int(rng.integers(0, 2 ** k))) for k in
                            rng.integers(0, T.depth, self.NODES_CHECKED)]
        self._check_master(inst, nodes, tally, where)

    def _check_master(self, inst, nodes, tally: Tally, where: str) -> None:
        """The master value the induction evaluates at a node, against the
        explicit formulas evaluated on the node's own leaves."""
        pkg, b = self.pkg, self.budget
        u, v, T = inst["u"], inst["v"], inst["T"]
        A_lv = T.coeffs.intensity_levels()
        L_lv = pkg.dyadic.l_intensity_levels(u, v, T.coeffs)
        b1 = pkg.bellman.B1(self.family, b.c1)
        b2 = pkg.bellman.B2(self.family.epsilon_model(), b.c2)
        for k, p in nodes:
            idx = pkg.dyadic.DyadicIndex(k, p)
            node = pkg.bellman.BellmanNode(
                u.average(idx), v.average(idx), float(L_lv[k][p]),
                float(A_lv[k][p]), pkg.dyadic.StepDistribution.of(u, idx))
            got = pkg.bellman.master_bellman_eval(node, b1, b2)
            ref = oracles.master_log1(
                oracles.node_data(u.values, v.values, T.coeffs.levels, k, p),
                oracles.c1_log1(), oracles.c2_log1(b.delta, b.P))
            if rel_err(got, ref) > 1e-9:
                tally.wrong(f"master value {where} node ({k},{p}): "
                            f"{got} vs {ref}")

    def _check_testing(self, inst, tc, tally: Tally) -> None:
        u, v, T = inst["u"].values, inst["v"].values, inst["T"]
        M = oracles.sparse_matrix(T.coeffs.levels)
        for key, w, w2 in (("u_to_v", u, v), ("v_to_u", v, u)):
            tally.op()
            ref = oracles.testing_ratios(M, w, w2)
            got = dict(tc[key]["ratios"])
            worst = max((rel_err(got[j], r) for j, r in ref.items()
                         if j in got), default=math.inf)
            if got.keys() != ref.keys() or worst > 1e-9 \
                    or rel_err(tc[key]["sup"], max(ref.values())) > 1e-9:
                tally.wrong(f"testing {key}: worst ratio error {worst}")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

class Quadrature:
    N_CLOSED_VS_QUAD = 1000
    # the logpow tail-mass oracle runs on a grid fixed for every seed
    Z_GRID = tuple(np.geomspace(1e-10, 0.35, 12))
    Y_VECTOR = 2000          # points of the one vector inverse call
    N_B2_POINTS = 200
    N_PROBE_POINTS = 12
    QUAD_TOL = 5e-3          # the package's own test tolerance
    REPORTED = ("closed_vs_quad_s", "tail_oracle_s", "logpow_s")

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.seed = seed
        bumps, bellman, obstruction = pkg.bumps, pkg.bellman, pkg.obstruction
        family = bumps.log_bump(1.0)
        self.budget = bellman.default_budget(family)
        self.b2 = bellman.B2(family.epsilon_model(), self.budget.c2)
        # criterion 4's sampler of Omega2 for the power model
        rng = np.random.default_rng(seed)
        self.samples = []
        for _ in range(self.N_CLOSED_VS_QUAD):
            u = math.exp(rng.uniform(-6.0, 0.0))
            v = min(math.exp(rng.uniform(-6.0, 0.0)), self.budget.delta / u)
            L = math.exp(rng.uniform(math.log(u * v),
                                     math.log(self.budget.P * math.sqrt(u * v))))
            self.samples.append((u, v, L, rng.uniform(0.0, 1.0)))
        self.logpow = bumps.loglog_bump(2.0, 0.1).epsilon_model()
        self.profile = oracles.LogPowProfile(self.logpow.kappa,
                                             self.logpow.coeff)
        self.y_vector = np.geomspace(1e-12, 0.35, self.Y_VECTOR)
        # the budget the package's loglog B2 test uses, inside phi's range
        cap = 0.95 * float(self.profile.phi(math.exp(-self.logpow.kappa - 1)))
        delta = 0.5 * (cap / 100.0) ** 2
        c2 = 1.0 + 1e4 * float(self.logpow.tail_mass(min(100.0 * math.sqrt(delta),
                                                         cap)))
        self.logpow_budget = bellman.ConstantBudget(
            c1=1.0, c2=c2, c_drop=1e-4, delta1=1e-5, delta=delta)
        self.const = bumps.EpsilonModel("const")
        P = functools.partial
        self.stages = (
            ("closed_vs_quad_s", [P(self.closed_vs_quad, *s)
                                  for s in self.samples]),
            ("tail_oracle_s", [P(self.tail_oracle, z) for z in self.Z_GRID]
             + [P(self.logpow.inverse, self.y_vector)]),
            ("logpow_s", [
                P(bellman.b2_property_check, self.logpow, self.logpow_budget,
                  n_points=self.N_B2_POINTS, seed=seed),
                P(obstruction.b0_probe, self.logpow,
                  n_points=self.N_PROBE_POINTS, seed=seed),
                P(obstruction.b0_probe, self.const,
                  n_points=self.N_PROBE_POINTS, seed=seed)]))

    def closed_vs_quad(self, u, v, L, A):
        return self.b2.value(u, v, L, A), self.b2.value_quad(u, v, L, A)

    def tail_oracle(self, z):
        M = self.logpow
        return float(M.tail_mass(z)), M.tail_mass_quad(z), float(M.inverse(z))

    # -- checks ------------------------------------------------------------

    def check(self, out: dict, tally: Tally) -> None:
        c2 = self.budget.c2
        if rel_err(c2, oracles.c2_log1(self.budget.delta, self.budget.P)) > 1e-12:
            tally.wrong(f"power-model C2 {c2}")
        for (u, v, L, A), (closed, quad) in zip(self.samples,
                                                out["closed_vs_quad_s"]):
            tally.op()
            ref = oracles.b2_log1(u, v, L, A, c2)
            if max(rel_err(closed, quad), rel_err(closed, ref),
                   rel_err(quad, ref)) > 1e-9:
                tally.wrong(f"B2 at {(u, v, L, A)}: closed {closed}, "
                            f"quad {quad}, formula {ref}")

        *per_z, vector = out["tail_oracle_s"]
        for z, (closed, quad, f_z) in zip(self.Z_GRID, per_z):
            ref = oracles.tail_mass(self.profile, z)
            if rel_err(closed, ref) > 1e-12:
                tally.wrong(f"logpow W({z:.3e}) closed {closed} vs {ref}")
            if rel_err(float(self.profile.phi(f_z)), z) > 1e-11:
                tally.wrong(f"phi(f({z:.3e})) = {self.profile.phi(f_z)}")
            tally.op("tail_mass_quad" if rel_err(quad, ref) > self.QUAD_TOL
                     else None)
        tally.op()
        worst = float(np.max(np.abs(self.profile.phi(vector) - self.y_vector)
                             / self.y_vector))
        if worst > 1e-11:
            tally.wrong(f"vector phi(f(y)) = y off by {worst:.2e}")

        b2rep, probe, probe_const = out["logpow_s"]
        tally.op()
        bad = [k for k in ("bound_upper", "bound_lower", "a_monotone",
                           "hessian_nsd") if not b2rep[k]["pass"]]
        if bad:
            tally.wrong(f"logpow B2 property check fails {bad}")
        tally.op()
        if not (probe["floor_pass"] and probe["fd_pass"]
                and probe["envelope_pass"]):
            tally.wrong(f"logpow B0 probe: floor {probe['floor_pass']}, fd "
                        f"{probe['fd_pass']}, envelope {probe['envelope_pass']}")
        tally.op()
        if probe_const["floor_pass"] or not probe_const["floor_collapse"]:
            tally.wrong("constant-profile B0 probe did not collapse")


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

class Campaigns:
    ORDER = ("bump-check", "orlicz", "bellman-b1", "bellman-b2", "glav",
             "testing", "obstruction", "full")
    EXPECTED_RC = {"bellman-b2": 1, "full": 1}   # FAIL is the right verdict
    ORLICZ_WEIGHTS = 600                          # default corpus is 200
    REPORTED = ("orlicz_s", "obstruction_s", "full_s")

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        # orlicz gets the larger corpus; every other campaign, full too, its
        # default configuration
        self.configs = {"orlicz": workdir / "orlicz.json",
                        "default": workdir / "default.json"}
        self.configs["orlicz"].write_text(
            json.dumps({"n_weights": self.ORLICZ_WEIGHTS}))
        self.configs["default"].write_text("{}")
        self.stages = tuple((c.replace("-", "_") + "_s",
                             [functools.partial(self._run, c, "round")])
                            for c in self.ORDER)
        # one untimed write of every report before the timed rounds: each
        # round's report must match it byte for byte (same config and seed)
        self.reference = {}
        for campaign in self.ORDER:
            path = self._run(campaign, "reference")[2] / "report.json"
            self.reference[campaign] = path.read_bytes()
        shutil.rmtree(workdir / "reference")

    def _run(self, campaign: str, tag: str) -> tuple[str, int, Path]:
        out = self.workdir / tag / campaign
        config = self.configs.get(campaign, self.configs["default"])
        argv = [campaign, "--config", str(config), "--seed", str(self.seed),
                "--out", str(out)]
        with contextlib.redirect_stdout(sys.stderr):
            rc = self.pkg.cli.main(argv)
        return campaign, rc, out

    # -- checks ------------------------------------------------------------

    def check(self, out: dict, tally: Tally) -> None:
        try:
            for (campaign, rc, path), in out.values():
                data = (path / "report.json").read_bytes()
                self._check_campaign(campaign, rc, data, path, tally)
                same = data == self.reference[campaign] \
                    and not OBJECT_REPR.search(data.decode())
                tally.op(None if same else "report_not_deterministic")
        finally:
            shutil.rmtree(self.workdir / "round", ignore_errors=True)

    def _check_campaign(self, campaign, rc, data: bytes, path: Path,
                        tally: Tally) -> None:
        expected = self.EXPECTED_RC.get(campaign, 0)
        if rc != expected:
            tally.wrong(f"{campaign}: exit status {rc}, expected {expected}")
        check = getattr(self, "_check_" + campaign.replace("-", "_"), None)
        if check is not None:
            check(json.loads(data)["results"], path, tally)

    def _check_bump_check(self, res, path, tally):
        rows = np.asarray(res["series"]["g_series"]["rows"])
        worst = float(np.max(np.abs(rows[:, 1] - 7.0 * rows[:, 0] ** (8 / 3))
                             / (7.0 * rows[:, 0] ** (8 / 3))))
        if worst > 1e-9:
            tally.wrong(f"bump-check g_series off 7 s^(8/3) by {worst:.2e}")

    def _check_orlicz(self, res, path, tally):
        if not res["equivalence"]["C_star"] <= 20.0:
            tally.wrong(f"orlicz C* = {res['equivalence']['C_star']}")

    def _check_bellman_b2(self, res, path, tally):
        delta, P = 1e-3, 100.0
        c = 2 ** (-4 / 3) - 7 * 2 ** (-1 / 3) * delta ** 0.25
        l_inf = -7.0 * (P * math.sqrt(delta)) ** (1 / 3)
        if rel_err(res["combined_drop"]["c"], c) > 1e-6 \
                or rel_err(res["l_derivative"]["inf"], l_inf) > 1e-6:
            tally.wrong(f"bellman-b2 c = {res['combined_drop']['c']} "
                        f"(closed form {c}), l inf = "
                        f"{res['l_derivative']['inf']} (closed form {l_inf})")

    def _check_obstruction(self, res, path, tally):
        ratios = [row["ratio"] for row in
                  sorted(res["growth_table"], key=lambda r: r["depth"])]
        if not all(b > a for a, b in zip(ratios, ratios[1:])):
            tally.wrong(f"obstruction S/int u not increasing: {ratios}")
        bundle = self.pkg.sparse.load_instance(path / "instance")
        depth = res["instance_bundle"]["depth"]
        if bundle["u"].depth != depth or bundle["T"].depth != depth \
                or not np.array_equal(bundle["u"].values,
                                      band_profile_leaves(depth)):
            tally.wrong("obstruction bundle u is not the band profile")

    def _check_full(self, res, path, tally):
        for name, sub in res.items():
            if sub["pass"] != (name != "bellman-b2"):
                tally.wrong(f"full: {name} pass = {sub['pass']}")
        self._check_bellman_b2(res["bellman-b2"]["results"], path, tally)


def band_profile_leaves(depth: int) -> np.ndarray:
    """Leaf values of the obstruction's weight u: 2^k / (k+1)^2 on the band
    (2^(-k-1), 2^(-k)], zero on the last interval [0, 2^(-depth))."""
    leaves = np.zeros(2 ** depth)
    for k in range(depth):
        lo = 2 ** (depth - k - 1)
        leaves[lo:2 * lo] = 2.0 ** k / (k + 1) ** 2
    return leaves


WORKLOADS = {"induction": Induction, "quadrature": Quadrature,
             "campaigns": Campaigns}
