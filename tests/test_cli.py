"""Tests for the campaign command-line interface: exit codes, report
determinism, config handling, and plot-data emission."""

import csv
import json

import pytest

from dyadicbump.cli import main
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
        rows = list(csv.reader((out / "g_series.csv").open()))
        assert rows[0] == ["s", "g"]
        assert len(rows) > 100

    def test_orlicz_small_corpus(self, tmp_path):
        code, out = run(tmp_path, "orlicz", "--config",
                        self._cfg(tmp_path, {"n_weights": 20, "depth": 5}))
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["equivalence"]["C_star"] <= 20

    def test_bellman_b1_passes(self, tmp_path):
        code, out = run(tmp_path, "bellman-b1", "--config",
                        self._cfg(tmp_path, {"n_n": 48, "n_a": 48}))
        assert code == 0
        assert (out / "b1_floor_margin_grid.csv").exists()

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

    def test_missing_instance_bundle(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"instance": str(tmp_path / "absent")}))
        code, out = run(tmp_path, "testing", "--config", str(cfg))
        assert code == 2 and not out.exists()

    def test_unknown_campaign_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("campaign", ["glav", "bump-check"])
    def test_reports_deterministic(self, tmp_path, campaign):
        cfg = TestCampaigns._cfg(tmp_path, {"n_instances": 2, "depth": 4,
                                            "refine_depth": 6})
        code1, out1 = run(tmp_path / "a", campaign, "--seed", "3",
                          "--config", cfg)
        code2, out2 = run(tmp_path / "b", campaign, "--seed", "3",
                          "--config", cfg)
        assert code1 == code2 == 0
        report = (out1 / "report.json").read_bytes()
        assert report == (out2 / "report.json").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == \
            (out2 / "summary.csv").read_bytes()
        assert b"object at 0x" not in report

    def test_seed_recorded(self, tmp_path):
        code, out = run(tmp_path, "testing", "--seed", "42", "--depth", "4")
        assert code == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["seed"] == 42
        assert rep["tool_version"]
        assert rep["schema_version"] == 1
