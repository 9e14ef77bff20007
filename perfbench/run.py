"""Run one workload of the dyadicbump benchmark and print its metrics.

    python3 perfbench/run.py --workload induction --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The run
times its set-up (``import dyadicbump.cli`` in fresh processes), then
repeats rounds of the workload until ``--seconds`` would be overrun, and
prints one JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from a run with the package's public functions wrapped (see
``tracer.py``), and the spans are written to ``perfbench/out/``.  Times
are calibrated seconds (see ``calibration.py``): each unit of work's
median over the rounds, corrected for the machine's speed at the time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import calibration
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3   # fresh-process imports behind setup_s
PROBE_EVERY_S = 0.25  # longest stretch of timed units between speed probes
# A probe after a stretch of timed units repeats until it has taken about
# PROBE_SHARE of the stretch (at most PROBE_MAX_REPS times): one 4 ms probe
# samples the speed of a multi-second call poorly.
PROBE_SHARE = 0.04
PROBE_MAX_REPS = 8

# one thread of its own: no thread pool in the package, none in BLAS
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Times the import in a fresh interpreter, between two runs of a speed
# probe that needs nothing but the standard library (numpy must not be
# loaded before the timed import).
IMPORT_PROBE = """
import json, sys, time
def probe():
    t = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    json.dumps([i * 0.1 for i in range(4000)])
    return time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
before = probe()
t = time.perf_counter()
import dyadicbump.cli
t = time.perf_counter() - t
print(t, before, probe(), dyadicbump.__file__)
"""


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no sources, wrong package)."""


def _check_origin(path: str) -> None:
    if Path(path).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"dyadicbump imported from {path}, not from {SRC}")


def import_time(env: dict) -> float:
    """Calibrated seconds a fresh interpreter takes to import
    dyadicbump.cli."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise SetupError(f"import probe failed: {done.stderr.strip()[-400:]}")
    seconds, before, after, path = done.stdout.split(maxsplit=3)
    _check_origin(path.strip())
    return calibration.calibrated(float(seconds), float(before), float(after),
                                  calibration.IMPORT_REFERENCE_S)


def measure(wl, seconds: float, probe, tracer, tally) -> dict:
    """Rounds of timed stages, each round followed by its checks, until the
    next round's timed stages would end past ``seconds``.  Only the first
    round's checks count operations in ``tally``.

    Every unit of work (one program call or a few) is timed on its own in
    every round, and the speed probe runs between units at least every
    PROBE_EVERY_S, so each unit's time is calibrated by the probes that
    bracket it.  Returns the calibrated unit times per stage, the per-layer
    counters of each round when traced (times calibrated by the round's
    probes), and the peak RSS (MB) at the end of the first round's timed
    stages.
    """
    times = {name: [[] for _ in units] for name, units in wl.stages}
    raw_times = {name: [[] for _ in units] for name, units in wl.stages}
    layers = []
    peak_mb = None
    rounds = 0
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds += 1
        probes = [probe(PROBE_MAX_REPS)]
        pending, since = [], 0.0

        def flush():
            reps = round(PROBE_SHARE * since / calibration.REFERENCE_S)
            probes.append(probe(min(max(reps, 1), PROBE_MAX_REPS)))
            for samples, raw in pending:
                samples.append(calibration.calibrated(raw, probes[-2],
                                                      probes[-1]))
            pending.clear()

        if tracer is not None:
            before = tracer.snapshot()
            tracer.active = True
        outputs = {}
        for name, units in wl.stages:
            gc.collect()  # every stage starts from a collected heap
            with tracer.span("bench." + name) if tracer else nullcontext():
                outputs[name] = []
                for unit, samples, raw_samples in zip(units, times[name],
                                                      raw_times[name]):
                    t = time.perf_counter()
                    outputs[name].append(unit())
                    raw = time.perf_counter() - t
                    raw_samples.append(raw)
                    pending.append((samples, raw))
                    since += raw
                    if since >= PROBE_EVERY_S:
                        flush()
                        since = 0.0
        if pending:
            flush()
        timed = time.perf_counter() - r0
        if tracer is not None:
            tracer.active = False
            factor = calibration.calibrated(1.0, statistics.median(probes),
                                            statistics.median(probes))
            layers.append(_delta(before, tracer.snapshot(), factor))
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.check(outputs, tally)
        tally.counting = False  # every round makes the same operations
        if time.perf_counter() - start + timed > seconds:
            return {"times": times, "raw_times": raw_times, "layers": layers,
                    "peak_mb": peak_mb, "rounds": rounds}


def stage_seconds(stages, times: dict) -> dict:
    """Per stage, the sum over its units of each unit's median calibrated
    time over the rounds.  A unit listed more than once in a stage counts
    once, with the samples of all its listings."""
    out = {}
    for name, units in stages:
        pooled = {}
        for unit, samples in zip(units, times[name]):
            pooled.setdefault(id(unit), []).extend(samples)
        out[name] = sum(statistics.median(s) for s in pooled.values())
    return out


def _delta(before: dict, after: dict, factor: float) -> dict:
    """Counters of one round, with its times (``s``, ``self_s``) calibrated."""
    out = {}
    for name, fields in after.items():
        prev = before.get(name, {})
        out[name] = {k: (v - prev.get(k, 0)) * (factor if k in ("s", "self_s")
                                                 else 1)
                     for k, v in fields.items()}
    return out


def layer_value(stages, run: dict, metric: str) -> float:
    """A per-layer metric ``<module>.<function>.<field>``: its median over
    the rounds.  ``trace.wall.s`` is the round's wall time with tracing on,
    estimated as ``wall_s`` is."""
    if metric == "trace.wall.s":
        return sum(stage_seconds(stages, run["times"]).values())
    name, field = metric.rsplit(".", 1)
    return float(statistics.median(r.get(name, {}).get(field, 0)
                                   for r in run["layers"]))


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dyadicbump" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("TOOL_THREADS", None)
    os.environ.update(THREAD_ENV)
    env = dict(os.environ)

    probe = calibration.Probe()
    try:
        setup = []
        if not args.trace:
            import_time(env)  # compiles the sources once, untimed
            setup = [import_time(env) for _ in range(SETUP_SAMPLES)]
        sys.path.insert(0, str(SRC))
        import dyadicbump.cli
        _check_origin(dyadicbump.__file__)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(dyadicbump)
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tally = workloads.Tally()
    try:
        wl = workloads.WORKLOADS[args.workload](dyadicbump, args.seed, workdir)
        run = measure(wl, args.seconds, probe, tracer, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stage_s = stage_seconds(wl.stages, run["times"])
    raw_s = stage_seconds(wl.stages, run["raw_times"])
    print(f"{args.workload} seed {args.seed}: {run['rounds']} rounds; "
          "stage seconds calibrated (raw): "
          + ", ".join(f"{k} {v:.4f} ({raw_s[k]:.4f})" for k, v in stage_s.items()),
          file=sys.stderr)
    for fault, count in tally.faults.items():
        print(f"known fault {fault}: {count} of {tally.attempted} operations",
              file=sys.stderr)
    for message in tally.errors:
        print(f"WRONG: {message}", file=sys.stderr)

    if args.trace:
        metrics = {m["name"]: {"value": layer_value(wl.stages, run, m["name"]),
                               "unit": m["unit"]} for m in spec["per_layer"]}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": run["rounds"], "stage_s": stage_s})
    else:
        e2e = {"setup_s": float(statistics.median(setup)),
               "wall_s": sum(stage_s.values()),
               "peak_rss_mb": run["peak_mb"]}
        for i, name in enumerate(wl.REPORTED, start=1):
            e2e[f"stage{i}_s"] = stage_s[name]
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not tally.errors, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
