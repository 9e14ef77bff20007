"""In-memory spans and counters around dyadicbump's public functions.

The tracer replaces a function by a wrapper under every module name that
refers to it, so a caller that imported the name (``from .bellman import
master_bellman_eval`` in ``sparse``) is traced as well as the defining
module.  Methods are replaced on their class.

Two kinds of entries are kept:

* spans: one record per call (name, start, end, parent span id), for the
  coarse functions a workload calls a few times per round;
* kernels: hot functions called thousands of times per round.  They keep
  only a call count, inclusive time and self time, so tracing them costs
  two clock reads and a few additions per call.

Every entry, span or kernel, sits on one frame stack, so a span's self time
is its duration minus the time its child spans and kernels cover.  Nothing
is written until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

MODULES = ("dyadic", "bumps", "bellman", "sparse", "obstruction", "reports",
           "cli")


def _dir_bytes(path) -> int:
    path = Path(path)
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _files_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _depth_nodes(args, kwargs) -> int:
    T = args[2] if len(args) > 2 else kwargs["T"]
    return 2 ** (T.depth + 1) - 1


# (metric prefix, module, attribute, span or kernel, sized counter, size fn)
# A size fn gets (args, kwargs, result) and returns the amount of work.
TARGETS = (
    ("dyadic.step_distribution", "dyadic", "StepDistribution.of", "kernel",
     None, None),
    ("bellman.master_eval", "bellman", "master_bellman_eval", "kernel",
     None, None),
    ("bellman.value_quad", "bellman", "B2.value_quad", "kernel", None, None),
    ("bellman.b2_hessian", "bellman", "B2.hessian", "kernel", None, None),
    ("bellman.b1_property", "bellman", "b1_property_check", "span",
     None, None),
    ("bellman.b2_property", "bellman", "b2_property_check", "span",
     "points", lambda a, k, out: out["points"]),
    ("bumps.inverse", "bumps", "EpsilonModel.inverse", "kernel",
     "points", lambda a, k, out: int(np.size(a[1] if len(a) > 1 else k["y"]))),
    ("bumps.quad", "bumps", "quad", "kernel", None, None),
    ("bumps.luxemburg", "bumps", "orlicz_norm_def", "kernel",
     "rows", lambda a, k, out: 1),
    ("bumps.luxemburg", "bumps", "orlicz_norm_def_batch", "kernel",
     "rows", lambda a, k, out: int(np.shape(a[0] if a else k["rows"])[0])),
    ("sparse.green_induction", "sparse", "green_induction", "span",
     "nodes", lambda a, k, out: _depth_nodes(a, k)),
    ("sparse.random_instance", "sparse", "random_instance", "span",
     None, None),
    ("sparse.glav_check", "sparse", "glav_check", "span", None, None),
    ("sparse.testing_condition", "sparse", "testing_condition", "span",
     None, None),
    ("sparse.apply_sparse", "sparse", "apply_sparse", "kernel", None, None),
    ("sparse.instance_io", "sparse", "save_instance", "span",
     "bytes", lambda a, k, out: _dir_bytes(a[0] if a else k["path"])),
    ("sparse.instance_io", "sparse", "load_instance", "span",
     "bytes", lambda a, k, out: _dir_bytes(a[0] if a else k["path"])),
    ("obstruction.report", "obstruction", "obstruction_report", "span",
     None, None),
    ("obstruction.b0_probe", "obstruction", "b0_probe", "span", None, None),
    ("obstruction.b0_point", "obstruction", "_b0_point", "kernel",
     None, None),
    ("reports.write", "reports", "write_report", "span",
     "bytes", lambda a, k, out: _files_bytes(out.values())),
    ("reports.write", "reports", "emit_plotdata", "span",
     "bytes", lambda a, k, out: _files_bytes(out)),
    ("cli.main", "cli", "main", "span", None, None),
)


class Stat:
    __slots__ = ("calls", "total", "self_time", "sized")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.sized = 0

    def as_dict(self, sized_name):
        out = {"calls": self.calls, "s": self.total, "self_s": self.self_time}
        if sized_name:
            out[sized_name] = self.sized
        return out


class Tracer:
    """Spans and counters kept in memory; ``active`` gates the wrappers so
    a workload's own checks run untraced."""

    def __init__(self):
        self.active = False
        self.origin = time.perf_counter()
        self.stats: dict[str, Stat] = {}
        self.sized_names: dict[str, str | None] = {}
        self.spans: list[list] = []   # [id, name, start, end, parent id]
        self._stack: list[list] = []  # [name, start, child_time, span_id]
        self._replaced: list[tuple] = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _stat(self, name: str, sized_name: str | None = None) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
            self.sized_names[name] = sized_name
        return stat

    def _enter(self, name: str, is_span: bool) -> list:
        span_id = len(self.spans) if is_span else None
        if is_span:
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] is not None), None)
            self.spans.append([span_id, name, None, None, parent])
        frame = [name, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        stat = self.stats[name]
        stat.calls += 1
        stat.total += dur
        stat.self_time += dur - child
        if span_id is not None:
            rec = self.spans[span_id]
            rec[2], rec[3] = start - self.origin, end - self.origin
        return dur

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                if tracer.active:
                    tracer._stat(name)
                    self.frame = tracer._enter(name, True)
                return self

            def __exit__(self, *exc):
                if tracer.active:
                    tracer._exit(self.frame)
                return False

        return _Span()

    def wrap(self, name: str, fn, is_span: bool, sized_name, size_fn):
        self._stat(name, sized_name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, is_span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if size_fn is not None:
                tracer.stats[name].sized += size_fn(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target in ``TARGETS``."""
        modules = {m: getattr(package, m) for m in MODULES}
        for name, mod, attr, kind, sized_name, size_fn in TARGETS:
            is_span = kind == "span"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[mod], cls_name)
                raw = cls.__dict__[meth]
                self._replaced.append((cls, meth, raw))
                if isinstance(raw, classmethod):
                    wrapped = self.wrap(name, raw.__func__, is_span,
                                        sized_name, size_fn)
                    setattr(cls, meth, classmethod(wrapped))
                else:
                    setattr(cls, meth, self.wrap(name, raw, is_span,
                                                 sized_name, size_fn))
                continue
            orig = getattr(modules[mod], attr)
            wrapped = self.wrap(name, orig, is_span, sized_name, size_fn)
            # replace the name in every module that imported this object
            for module in modules.values():
                if getattr(module, attr, None) is orig:
                    self._replaced.append((module, attr, orig))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        """Put back every original that ``install`` replaced."""
        for owner, attr, orig in reversed(self._replaced):
            setattr(owner, attr, orig)
        self._replaced.clear()

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {name: stat.as_dict(self.sized_names[name])
                for name, stat in self.stats.items()}

    def write(self, path, extra: dict) -> None:
        spans = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                  "parent": s[4]} for s in self.spans]
        by_module: dict[str, float] = {}
        for name, stat in self.stats.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + stat.self_time
        doc = dict(extra)
        doc.update({"counters": self.snapshot(), "self_s_by_module": by_module,
                    "spans": spans})
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n")
