"""Repeat benchmark runs over seeds and report how steady each metric is.

    python3 perfbench/stability.py --runs 10                 # every workload
    python3 perfbench/stability.py --runs 5 --workload quadrature --trace

For each workload this runs ``run.py`` once per seed (1, 2, ...,
``--runs``) for ``run_seconds`` of ``BENCHMARK.json``, one run at a time,
and prints for every end-to-end metric its median, first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and
that spread as a share of the metric's bound in ``BENCHMARK.json``.  A
spread under a third of the bound is marked ``ok``.  It also checks that
the share of failed operations is identical in every run.  With
``--trace`` each seed is also run traced, and the tracing overhead is the
traced round wall time over the untraced one, minus one.  The summary is
written to ``perfbench/out/stability.json`` as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:"
                           f"\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    seconds = spec["run_seconds"]
    summary = {}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        seeds = range(1, args.runs + 1)
        results = [run_once(workload, s, seconds, 0) for s in seeds]
        shares = {(r["failed"], r["attempted"]) for r in results}
        same_share = len({f / a for f, a in shares}) == 1
        rows = {}
        print(f"\n{workload}: {args.runs} runs, seeds {seeds.start}.."
              f"{seeds.stop - 1}, correct {all(r['correct'] for r in results)},"
              f" failed/attempted {sorted(shares)}"
              f" ({'same share' if same_share else 'SHARE DIFFERS'})")
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'/bound':>8}")
        for m in spec["end_to_end"]:
            row = spread([r["metrics"][m["name"]]["value"] for r in results])
            row["bound"] = m["bound"]
            row["of_bound"] = row["spread"] / m["bound"]
            ok = m["name"] == "setup_s" or row["of_bound"] < 1 / 3
            steady &= ok
            rows[m["name"]] = row
            print(f"{m['name']:<14}{row['median']:>12.5g}{row['q1']:>12.5g}"
                  f"{row['q3']:>12.5g}{row['spread']:>9.4f}{m['bound']:>7.2f}"
                  f"{row['of_bound']:>8.3f}  {'ok' if ok else 'WIDE'}")
        entry = {"runs": results, "metrics": rows, "same_failed_share": same_share,
                 "correct": all(r["correct"] for r in results)}
        steady &= same_share and entry["correct"]
        if args.trace:
            traced = [run_once(workload, s, seconds, 1) for s in seeds]
            overhead = [t["metrics"]["trace.wall.s"]["value"]
                        / r["metrics"]["wall_s"]["value"] - 1.0
                        for t, r in zip(traced, results)]
            entry["traced"] = traced
            entry["trace_overhead"] = spread(overhead) | {"values": overhead}
            print(f"tracing overhead: median {statistics.median(overhead):+.2%}"
                  f" (per seed: {', '.join(f'{o:+.1%}' for o in overhead)})")
        summary[workload] = entry

    out = HERE / "out" / "stability.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\n{'steady' if steady else 'NOT steady'}; details in {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
