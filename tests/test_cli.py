"""Tests for the campaign command-line interface: exit codes, report
determinism, config handling, and plot-data emission."""

import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dyadicbump.cli import FIELDS, main
from dyadicbump.dyadic import MAX_DEPTH
from dyadicbump.obstruction import MAX_OBSTRUCTION_DEPTH, build_u
from dyadicbump.sparse import load_instance, random_instance, save_instance
from dyadicbump.reports import (canonical, config_hash, emit_plotdata,
                                make_report, write_report)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

class TestReports:
    def test_canonical_handles_numpy(self):
        import numpy as np
        obj = {"a": np.float64(1.5), "b": np.arange(3), "c": (1, 2),
               "d": np.bool_(True)}
        out = canonical(obj)
        assert out == {"a": 1.5, "b": [0, 1, 2], "c": [1, 2], "d": True}
        json.dumps(out)

    def test_canonical_rejects_unknown_types(self):
        # a repr would carry a memory address into the report
        with pytest.raises(TypeError):
            canonical({"a": [object()]})

    def test_config_hash_stable_and_order_free(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_write_and_plotdata(self, tmp_path):
        rep = make_report("demo", {"x": 1}, 0,
                          {"val": 3.5,
                           "series": {"line": {"columns": ["s", "g"],
                                               "rows": [[1, 2], [3, 4]]}}},
                          True)
        paths = write_report(rep, tmp_path)
        loaded = json.loads(paths["report"].read_text())
        assert loaded["pass"] is True and loaded["campaign"] == "demo"
        assert loaded["config_hash"] == config_hash({"x": 1})
        with paths["summary"].open() as fh:
            rows = list(csv.reader(fh))
        assert ["key", "value"] == rows[0]
        assert ["results.val", "3.5"] in rows
        series = emit_plotdata(rep, tmp_path)
        with series[0].open() as fh:
            out = list(csv.reader(fh))
        assert out == [["s", "g"], ["1", "2"], ["3", "4"]]


# ---------------------------------------------------------------------------
# Campaign runs
# ---------------------------------------------------------------------------

class TestCampaigns:
    def test_bump_check_passes_and_emits_g_series(self, tmp_path):
        code, out = run(tmp_path, "bump-check")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["psi_gap"]["bound"] == 4.0
        rows = list(csv.reader((out / "g_series.csv").open()))
        assert rows[0] == ["s", "g"]
        assert len(rows) > 100

    def test_orlicz_small_corpus(self, tmp_path):
        code, out = run(tmp_path, "orlicz", "--config",
                        self._cfg(tmp_path, {"n_weights": 20, "depth": 5}))
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["equivalence"]["C_star"] <= 20
        assert rep["results"]["equivalence"]["bound"] == 20.0

    def test_bellman_b1_passes(self, tmp_path):
        code, out = run(tmp_path, "bellman-b1", "--config",
                        self._cfg(tmp_path, {"n_n": 48, "n_a": 48}))
        assert code == 0
        assert (out / "b1_floor_margin_grid.csv").exists()

    def test_bellman_b1_at_a_min_zero_warns_nothing(self, tmp_path):
        # the sweep's corner (N, A) = (0, 0) gives x = N/A = 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "bellman-b1", "--config",
                            self._cfg(tmp_path, {"a_min": 0}))
        assert code == 0
        rep = json.loads((out / "report.json").read_text())["results"]
        assert rep["points"] == 128 * 129 // 2

    def test_bellman_b2_fails_at_default_budget(self, tmp_path):
        # the combined-drop constant is negative at delta = 1e-3: honest
        # check failure, exit 1, report still written
        code, out = run(tmp_path, "bellman-b2", "--config",
                        self._cfg(tmp_path, {"n_points": 500}))
        assert code == 1
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["combined_drop"]["c"] < 0

    def test_bellman_b2_passes_with_feasible_budget(self, tmp_path):
        code, out = run(tmp_path, "bellman-b2", "--config",
                        self._cfg(tmp_path, {"delta": 1e-14, "c_drop": 0.3,
                                             "delta1": 0.2, "n_points": 500,
                                             "n_quad": 20,
                                             "n_points_T": 500}))
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["combined_drop"]["c"] >= 0.3

    def test_glav_passes(self, tmp_path):
        code, out = run(tmp_path, "glav", "--config",
                        self._cfg(tmp_path, {"n_instances": 3, "depth": 5,
                                             "refine_depth": 7}))
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["min_drop_constant"] > 0
        assert rep["results"]["stability_pass"]

    def test_testing_campaign(self, tmp_path):
        code, out = run(tmp_path, "testing", "--depth", "5")
        assert code == 0

    def test_obstruction_writes_bundle_and_growth_table(self, tmp_path):
        code, out = run(tmp_path, "obstruction", "--depth", "20")
        assert code == 0
        rows = list(csv.reader((out / "obstruction_growth.csv").open()))
        assert rows[0] == ["n", "S", "S_over_integral_u", "truncated_maximal"]
        ratios = [float(r[2]) for r in rows[1:]]
        assert ratios == sorted(ratios)
        for name in ("u.json", "v.json", "carleson.json"):
            assert (out / "instance" / name).exists()
        # band-constant weights are written one value per run of leaves
        for name in ("u.json", "v.json"):
            assert (out / "instance" / name).stat().st_size < 2048
        bundle = load_instance(out / "instance")
        assert bundle["u"].depth == bundle["v"].depth == 20
        assert np.array_equal(bundle["u"].values,
                              build_u(20).to_leaf_weight().values)

    @staticmethod
    def _cfg(tmp_path, obj):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(obj))
        return str(p)


# ---------------------------------------------------------------------------
# Exit codes and determinism
# ---------------------------------------------------------------------------

class TestPlumbing:
    def test_missing_config_is_input_error_without_report(self, tmp_path):
        code, out = run(tmp_path, "bellman-b1", "--config",
                        str(tmp_path / "nope.json"))
        assert code == 2
        assert not out.exists()

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = run(tmp_path, "bump-check", "--config", str(bad))
        assert code == 2 and not out.exists()

    def test_missing_family_file(self, tmp_path):
        code, out = run(tmp_path, "bump-check", "--family",
                        str(tmp_path / "fam.json"))
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("where, family", [
        ("file", {"tag": "power", "p": "2"}),  # a parameter of the wrong type
        ("file", ["power"]),  # not a JSON object
        ("config", ["power"]),  # neither a path nor an object
        ("file", {"tag": "log", "sigma": True}),  # a bool is not a number
        ("config", {"tag": "loglog", "sigma": True, "delta": 0.5}),
    ])
    def test_malformed_family_is_input_error(self, tmp_path, where, family):
        if where == "file":
            path = tmp_path / "fam.json"
            path.write_text(json.dumps(family))
            argv = ["--family", str(path)]
        else:
            argv = ["--config", TestCampaigns._cfg(tmp_path,
                                                   {"family": family})]
        code, out = run(tmp_path, "bump-check", *argv)
        assert code == 2 and not out.exists()

    def test_missing_instance_bundle(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"instance": str(tmp_path / "absent")}))
        code, out = run(tmp_path, "testing", "--config", str(cfg))
        assert code == 2 and not out.exists()

    @staticmethod
    def _bundle(tmp_path):
        inst = random_instance(3, 5)
        path = tmp_path / "bundle"
        save_instance(path, inst["u"], inst["v"], inst["T"])
        return path

    def _run_bundle(self, tmp_path, path):
        cfg = TestCampaigns._cfg(tmp_path, {"instance": str(path)})
        return run(tmp_path, "testing", "--config", cfg)

    def test_intact_bundle_runs(self, tmp_path):
        code, out = self._run_bundle(tmp_path, self._bundle(tmp_path))
        assert code == 0 and (out / "report.json").exists()

    @pytest.mark.parametrize("name", ["u.json", "v.json", "carleson.json"])
    def test_bundle_missing_file_is_input_error(self, tmp_path, name):
        path = self._bundle(tmp_path)
        (path / name).unlink()
        code, out = self._run_bundle(tmp_path, path)
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("name", ["u.json", "v.json", "carleson.json"])
    def test_bundle_truncated_json_is_input_error(self, tmp_path, name):
        path = self._bundle(tmp_path)
        text = (path / name).read_text()
        (path / name).write_text(text[:len(text) // 2])
        code, out = self._run_bundle(tmp_path, path)
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("blob", [
        {"depth": 3, "values": [1.0, 2.0], "repeats": [4, 3]},
        {"depth": 3, "values": [1.0] * 7},
        {"depth": 3, "values": [1.0] * 7 + [-1.0]},
        {"depth": 2, "values": [1.0] * 4},
        {"depth": 3, "values": ["0.5"] + [1.0] * 7},
        {"depth": 3, "values": [True] + [1.0] * 7},
        {"depth": "3", "values": [1.0] * 8},
        {"depth": 3, "values": [10 ** 400] + [1.0] * 7},
    ], ids=["repeats-sum", "leaf-count", "negative", "depth-mismatch",
            "str-value", "bool-value", "str-depth", "huge-int-value"])
    def test_bundle_bad_weight_is_input_error(self, tmp_path, blob):
        path = self._bundle(tmp_path)
        (path / "v.json").write_text(json.dumps(blob))
        code, out = self._run_bundle(tmp_path, path)
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("entry", [
        {"level": 5, "pos": 0, "a": 0.5}, {"level": 1, "pos": 9, "a": 0.5},
        {"level": -1, "pos": 0, "a": 0.5}, {"level": 2, "pos": -1, "a": 0.5},
        {"level": 1, "pos": 1.5, "a": 0.5},
        # inside the tree and the intensity cap, but not JSON integers and
        # numbers: true would read as 1 (or, as pos, mask the whole level)
        {"level": True, "pos": 1, "a": 0.001},
        {"level": 1, "pos": True, "a": 0.001},
        {"level": 1, "pos": 1, "a": "0.001"},
    ], ids=["deep-level", "far-pos", "negative-level", "negative-pos",
            "fractional-pos", "bool-level", "bool-pos", "str-a"])
    def test_bundle_bad_carleson_is_input_error(self, tmp_path, entry):
        # the bundle's operator has depth 3; a negative index must not wrap
        # around to the last coefficient of its level
        path = self._bundle(tmp_path)
        blob = json.loads((path / "carleson.json").read_text())
        blob["entries"].append(entry)
        (path / "carleson.json").write_text(json.dumps(blob))
        code, out = self._run_bundle(tmp_path, path)
        assert code == 2 and not out.exists()

    def test_bundle_repeated_carleson_entry_is_input_error(self, tmp_path):
        # a second entry for one interval, inside the intensity cap, would
        # otherwise overwrite the first
        path = self._bundle(tmp_path)
        blob = json.loads((path / "carleson.json").read_text())
        first = blob["entries"][0]
        blob["entries"].append(dict(first, a=first["a"] / 2))
        (path / "carleson.json").write_text(json.dumps(blob))
        code, out = self._run_bundle(tmp_path, path)
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("argv", [
        ("testing", "--depth", "-1"), ("glav", "--depth", "-1"),
        ("orlicz", "--depth", "-1"),
        ("glav", "--depth", str(MAX_DEPTH + 1)),
        # a depth-0 tree has no internal node and so no drop constant
        ("glav", "--depth", "0"), ("full", "--depth", "0")])
    def test_bad_depth_is_input_error_without_report(self, tmp_path, argv):
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("campaign", ["glav", "full"])
    def test_refine_depth_below_depth_is_input_error(self, tmp_path, campaign):
        # the stability rows coarsen the refined instances to depth
        cfg = TestCampaigns._cfg(tmp_path, {"refine_depth": 2, "depth": 4})
        code, out = run(tmp_path, campaign, "--config", cfg)
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("field", [{"depth": 2.5}, {"depth": True},
                                       {"depth": "4"}, {"refine_depth": -3}])
    def test_config_depth_must_be_nonnegative_integer(self, tmp_path, field):
        cfg = TestCampaigns._cfg(tmp_path, field)
        code, out = run(tmp_path, "glav", "--config", cfg)
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("campaign, field", [
        ("obstruction", {"probe_points": 0}),
        ("obstruction", {"probe_points": 1}),
        ("bellman-b2", {"n_points": 0}),
        ("bellman-b2", {"n_points": "abc"}),
        ("bellman-b2", {"n_points_T": 0}),
        ("bellman-b2", {"n_quad": -1}),
        ("bump-check", {"g_points": 0}),
        ("orlicz", {"n_weights": 0}),
        ("glav", {"n_instances": 0}),
        ("glav", {"bump_target": -1}),
        ("bellman-b1", {"n_n": 0}),
        ("bellman-b1", {"n_a": 0}),
        # delta1 must stay below c_drop (0.05 by default)
        ("bellman-b1", {"delta1": 0.1}),
        ("bellman-b1", {"a_min": "x"}),
        ("bellman-b1", {"a_min": 2}),
        ("bellman-b1", {"a_min": -0.1}),
        # the pass bounds are no config fields, not even at their values
        ("orlicz", {"equivalence_bound": 20.0}),
        ("bump-check", {"psi_gap_bound": 4.0}),
        ("bump-check", {"psi_gap_bound": "x"}),
        ("testing", {"seed": -1}),
        # an unknown key, here a misspelt n_weights
        ("orlicz", {"n_weigths": 3}),
    ])
    def test_bad_sample_size_is_input_error(self, tmp_path, campaign, field):
        cfg = TestCampaigns._cfg(tmp_path, field)
        code, out = run(tmp_path, campaign, "--config", cfg)
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("campaign", ["bellman-b2", "full"])
    def test_empty_omega2_slab_is_input_error(self, tmp_path, campaign):
        # at P = 0.001 the L-slab [phi(uv)/10, P sqrt(uv)] is empty for
        # every sampled uv, so Omega2's sampler could accept no point; a
        # subprocess with a timeout bounds the run should it loop
        cfg = TestCampaigns._cfg(tmp_path, {"P": 0.001})
        out = tmp_path / "out"
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "dyadicbump.cli", campaign, "--config", cfg,
             "--out", str(out)], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 2 and not out.exists()
        assert "L-slab" in done.stderr

    def test_small_omega2_slab_still_runs(self, tmp_path):
        # at P = 0.01 the slab is empty only above uv = 1e-4
        cfg = TestCampaigns._cfg(tmp_path, {"P": 0.01, "n_points": 500,
                                            "n_quad": 5, "n_points_T": 500})
        code, out = run(tmp_path, "bellman-b2", "--config", cfg)
        assert code == 1 and (out / "report.json").exists()

    def test_obstruction_runs_at_least_probe_points(self, tmp_path):
        cfg = TestCampaigns._cfg(tmp_path, {"probe_points": 2})
        code, out = run(tmp_path, "obstruction", "--config", cfg)
        assert code == 0 and (out / "report.json").exists()

    def test_obstruction_depth_runs_past_leaf_cap(self, tmp_path):
        # band weights are never materialized beyond the depth-20 bundle
        cfg = TestCampaigns._cfg(tmp_path, {"probe_points": 12})
        code, out = run(tmp_path, "obstruction", "--depth",
                        str(MAX_DEPTH + 1), "--config", cfg)
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["depth"] == MAX_DEPTH + 1
        assert rep["results"]["instance_bundle"]["depth"] == 20

    @pytest.mark.parametrize("depth", [0, MAX_OBSTRUCTION_DEPTH + 1])
    def test_obstruction_depth_out_of_range_is_input_error(self, tmp_path,
                                                           depth):
        code, out = run(tmp_path, "obstruction", "--depth", str(depth))
        assert code == 2 and not out.exists()

    def test_obstruction_depth_past_64_generations(self, tmp_path):
        # depth 120 has 66 generations of stopping intervals
        cfg = TestCampaigns._cfg(tmp_path, {"probe_points": 12})
        code, out = run(tmp_path, "obstruction", "--depth", "120",
                        "--config", cfg)
        assert code == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["construction"]["generations"] == 66
        assert res["construction"]["a2_pass"]

    FAMILIES = {
        # kappa = 0.9 <= 1, so the tail mass W diverges
        "divergent-W": {"tag": "loglog", "sigma": 1.0, "delta": 0.1},
        # Psi is constant near 0, so J diverges
        "divergent-J": {"tag": "power", "p": 1},
        # a power bump has no companion and no epsilon model
        "no-companion": {"tag": "power", "p": 2},
        # "detla" is not a parameter, so delta would silently stay 0.1
        "misspelt-key": {"tag": "loglog", "sigma": 2.0, "detla": 0.5},
        # a tabulated Phi = t^2: "custom" is not a catalog tag, so every
        # campaign rejects it
        "custom-table": {"tag": "custom", "phi_table": np.column_stack(
            [np.geomspace(1.0, 1e12, 600),
             np.geomspace(1.0, 1e12, 600) ** 2]).tolist()},
    }

    def _family(self, tmp_path, name):
        p = tmp_path / "family.json"
        p.write_text(json.dumps(self.FAMILIES[name]))
        return str(p)

    @pytest.mark.parametrize("family, campaign", [
        ("divergent-W", "bellman-b2"),
        ("divergent-W", "glav"), ("divergent-W", "obstruction"),
        ("divergent-W", "full"),
        ("divergent-J", "bellman-b1"), ("divergent-J", "bellman-b2"),
        ("divergent-J", "glav"),
        ("no-companion", "bump-check"), ("no-companion", "orlicz"),
        ("misspelt-key", "bellman-b1"),
        ("custom-table", "bellman-b1"), ("custom-table", "glav"),
        ("custom-table", "bellman-b2"), ("custom-table", "testing"),
        ("custom-table", "obstruction"),
    ])
    def test_family_the_campaign_cannot_handle_is_input_error(
            self, tmp_path, family, campaign):
        cfg = TestCampaigns._cfg(tmp_path, {
            "n_weights": 5, "n_n": 8, "n_a": 8, "n_points": 50, "n_quad": 2,
            "n_points_T": 50, "n_instances": 1, "depth": 4,
            "refine_depth": 5, "probe_points": 2})
        code, out = run(tmp_path, campaign, "--config", cfg,
                        "--family", self._family(tmp_path, family))
        assert code == 2 and not out.exists()

    def test_divergent_w_family_runs_bellman_b1(self, tmp_path):
        # B1 needs only J; the tail mass W (and so B2's c2) diverges here
        code, out = run(tmp_path, "bellman-b1", "--config",
                        TestCampaigns._cfg(tmp_path, {"n_n": 16, "n_a": 16}),
                        "--family", self._family(tmp_path, "divergent-W"))
        assert code in (0, 1)
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["points"] > 0

    def test_divergent_gap_bump_check_skips_g_positivity(self, tmp_path):
        code, out = run(tmp_path, "bump-check", "--family",
                        self._family(tmp_path, "divergent-W"))
        assert code == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["eps_integrability"]["verdict"] == "infinite"
        assert "g_positivity" not in res

    def test_config_P_reaches_vavo(self, tmp_path):
        reports = []
        for cfg in ({}, {"P": 50}):
            code, out = run(tmp_path / str(len(reports)), "testing",
                            "--depth", "5", "--config",
                            TestCampaigns._cfg(tmp_path, cfg))
            assert code == 0
            reports.append(json.loads((out / "report.json").read_text()))
        default, halved = (r["results"]["vavo"]["worst_ratio"]
                           for r in reports)
        assert halved == 2.0 * default

    def test_config_delta_reaches_b0_probe(self, tmp_path):
        cfg = TestCampaigns._cfg(tmp_path, {"delta": 1e-4,
                                            "probe_points": 12})
        code, out = run(tmp_path, "obstruction", "--config", cfg)
        assert code == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["b0_probe"]["delta_used"] == 1e-4

    @pytest.mark.parametrize("campaign, whole, real", [
        ("bellman-b1", {"a_min": 0, "n_n": 48, "n_a": 48},
         {"a_min": 0.0, "n_n": 48, "n_a": 48}),
        ("testing", {"P": 50, "depth": 4}, {"P": 50.0, "depth": 4}),
        ("obstruction", {"delta": 1, "probe_points": 12},
         {"delta": 1.0, "probe_points": 12}),
        ("obstruction", {"P": 100, "probe_points": 12},
         {"P": 100.0, "probe_points": 12}),
    ])
    def test_integer_valued_numbers_report_as_floats(self, tmp_path, campaign,
                                                     whole, real):
        results = []
        for name, cfg in (("whole", whole), ("real", real)):
            code, out = run(tmp_path / name, campaign, "--config",
                            TestCampaigns._cfg(tmp_path, cfg))
            assert code == 0
            results.append(json.dumps(
                json.loads((out / "report.json").read_text())["results"]))
        # e.g. "delta": 1 still writes b0_probe's delta_used as 1.0
        assert results[0] == results[1]

    def test_unknown_campaign_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("campaign", ["glav", "bump-check", "obstruction"])
    def test_reports_deterministic(self, tmp_path, campaign):
        cfg = TestCampaigns._cfg(tmp_path, {"n_instances": 2, "depth": 4,
                                            "refine_depth": 6,
                                            "probe_points": 12})
        code1, out1 = run(tmp_path / "a", campaign, "--seed", "3",
                          "--config", cfg)
        code2, out2 = run(tmp_path / "b", campaign, "--seed", "3",
                          "--config", cfg)
        assert code1 == code2 == 0
        report = (out1 / "report.json").read_bytes()
        assert b"object at 0x" not in report
        files = sorted(p.relative_to(out1) for p in out1.rglob("*")
                       if p.is_file())
        assert files == sorted(p.relative_to(out2) for p in out2.rglob("*")
                               if p.is_file())
        assert Path("report.json") in files and Path("summary.csv") in files
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), \
                name

    def test_seed_recorded(self, tmp_path):
        code, out = run(tmp_path, "testing", "--seed", "42", "--depth", "4")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["seed"] == 42
        assert rep["tool_version"]
        assert rep["schema_version"] == 1


def test_cli_import_loads_no_scipy():
    # numpy is the only numerical dependency; scipy's import alone once
    # cost every campaign about 0.75 s and 52 MB
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, dyadicbump.cli; print(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip() == "[]"


def test_readme_names_every_config_field():
    # README's config-field paragraph names the fields FIELDS checks, and
    # no others
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    para = re.search(r"^The config file is a JSON object;.*?(?=\n\n)",
                     readme, re.M | re.S)
    assert para, "README has no config-field paragraph"
    assert set(re.findall(r"`([^`]+)`", para.group(0))) == set(FIELDS)
