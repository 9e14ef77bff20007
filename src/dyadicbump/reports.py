"""Deterministic report emission: schema-versioned JSON reports, flat CSV
summaries, and plot-data series.

Reports are plain dicts.  Campaigns may attach series under
results["series"] as {name: {"columns": [...], "rows": [[...], ...]}};
emit_plotdata writes each one as a CSV file with that column order.
Given the same (config, seed) two runs produce byte-identical files: no
timestamps, sorted JSON keys, repr-roundtrip floats.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__

SCHEMA_VERSION = 1


def canonical(obj):
    """Recursively convert to plain JSON-serializable types with a stable
    layout (numpy scalars/arrays to python numbers/lists, tuples to lists).
    Any other type is a TypeError: its repr would put a memory address into
    the report and break byte-identical reruns."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [canonical(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot put a {type(obj).__name__} into a report")


def config_hash(config: dict) -> str:
    """sha256 of the canonical JSON form of the resolved configuration."""
    blob = json.dumps(canonical(config), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def make_report(campaign: str, config: dict, seed: int,
                results: dict, passed: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "campaign": campaign,
        "config": canonical(config),
        "config_hash": config_hash(config),
        "seed": int(seed),
        "results": canonical(results),
        "pass": bool(passed),
    }


def _flatten(prefix: str, obj, out: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k == "series":
                continue
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (bool, int, float, str)) or obj is None:
        out.append((prefix, obj))


def write_report(report: dict, out_dir) -> dict:
    """report.json plus summary.csv (dotted-key scalar rows)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "report.json"
    json_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    rows = []
    _flatten("", report, rows)
    csv_path = out / "summary.csv"
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["key", "value"])
        w.writerows(rows)
    return {"report": json_path, "summary": csv_path}


def emit_plotdata(report: dict, out_dir) -> list:
    """Write every series attached to the report as a CSV file named after
    the series, in the declared column order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    series = report.get("results", {}).get("series", {})
    for name, layout in series.items():
        path = out / f"{name}.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(layout["columns"])
            w.writerows(layout["rows"])
        paths.append(path)
    return paths
