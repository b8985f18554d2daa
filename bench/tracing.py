"""Span tracer that wraps normalflat's functions from outside the package.

Each wrapped function is a layer boundary.  A span records its name,
start, end and the span that was open when it started; a layer's self
time is its span's duration minus the time its direct child spans cover.

The wrappers cover the public functions of every normalflat module plus
the module-level names that another normalflat module imports (the grid
stencils, for example).  Calls made inside the package resolve those
names in the calling module's namespace -- ``integrator`` binds
``assemble_connection`` at import, and ``integrate_frame`` imports
``compatibility_defect`` lazily from ``frames`` -- so ``install`` patches
every module namespace that holds the function, and ``uninstall`` puts
the originals back.  Nothing under ``src/`` is edited.

Counters are computed from a wrapped call's inputs and outputs at the
same boundary (grid cells stepped, bytes a connection array occupies),
so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

MODULES = ("spaceform", "grid", "expressions", "frames", "gcr", "families",
           "riccati", "integrator", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_rk4_cells(counts, args, kwargs, result, exc):
    nu, nv = _arg(args, kwargs, 0, "coeffs").spec.shape
    counts["integrator.rk4_cells"] += (nu - 1) + (nv - 1) * nu


def _count_riccati_cells(counts, args, kwargs, result, exc):
    spec = _arg(args, kwargs, 0, "forms").spec
    nu, nv = spec.shape
    counts["riccati.solves_attempted"] += 1
    sweep = (nu - 1) + (nv - 1) * nu
    if exc is None:
        counts["riccati.solves_completed"] += 1
        counts["riccati.cells"] += 2 * sweep  # row-first and column-first sweeps
        return
    u, v = getattr(exc, "location", (None, None))
    if v is None:
        return  # range/degeneracy errors carry no cell location
    # cells stepped by the row-first sweep up to and including the failing one
    if u is not None:
        counts["riccati.cells"] += round((u - spec.u0) / spec.du) + 1
    else:
        counts["riccati.cells"] += (nu - 1) + (round((v - spec.v0) / spec.dv) + 1) * nu


def _count_connection_bytes(counts, args, kwargs, result, exc):
    nu, nv = _arg(args, kwargs, 0, "coeffs").spec.shape
    counts["frames.connection_bytes"] += 2 * nu * nv * 25 * 8  # S and T, float64


def _count_bytes_written(counts, args, kwargs, result, exc):
    if exc is None:
        counts["grid.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_bytes_read(counts, args, kwargs, result, exc):
    if exc is None:
        counts["grid.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_certificates(counts, args, kwargs, result, exc):
    counts["families.certificates"] += 1
    if exc is None and result.get("passed"):
        counts["families.certificates_passed"] += 1


COUNTERS = {
    "integrator.integrate_frame": _count_rk4_cells,
    "riccati.solve_riccati": _count_riccati_cells,
    "frames.assemble_connection": _count_connection_bytes,
    "grid.save_fields": _count_bytes_written,
    "grid.load_fields": _count_bytes_read,
    "families.certify": _count_certificates,
}

# derived per-pass counts: name -> (numerator, denominator)
RATIOS = {
    "riccati.useful_ratio": ("riccati.solves_completed", "riccati.solves_attempted"),
    "families.cert_pass_ratio": ("families.certificates_passed", "families.certificates"),
}


class Tracer:
    """In-memory spans and counters of one pass at a time."""

    def __init__(self):
        self.recording = False
        self.spans = []  # (span_id, parent_id, name, start_ns, end_ns)
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []  # (module, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if counter is not None:
                    counter(self.counts, args, kwargs, None, exc)
                raise
            finally:
                end = clock()
                self._stack.pop()
                self.spans[sid] = (sid, parent, name, start, end)
            if counter is not None:
                counter(self.counts, args, kwargs, result, None)
            return result

        traced.bench_span = name
        return traced

    def install(self) -> list[str]:
        """Wrap every target in every namespace that holds it; returns span names."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"normalflat.{m}") for m in MODULES}
        names = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                imported = any(vars(other).get(attr) is obj
                               for other in modules.values() if other is not mod)
                if not attr.startswith("_") or imported:
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        namespaces = [importlib.import_module("normalflat"), *modules.values()]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return sorted(names.values())

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- passes -------------------------------------------------------------

    def begin_pass(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self.recording = True

    def end_pass(self) -> dict:
        """Stop recording; per-span-name self time and calls, and the counts."""
        self.recording = False
        child_ns = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        layers = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
        for sid, _, name, start, end in self.spans:
            layers[name]["self_s"] += (end - start - child_ns[sid]) * 1e-9
            layers[name]["calls"] += 1
        counts = dict(self.counts)
        for ratio, (num, den) in RATIOS.items():
            # 0 where the workload never reaches the layer
            counts[ratio] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        return {"layers": dict(layers), "counts": counts}


def installed_wrappers() -> list[str]:
    """Names in normalflat namespaces that are currently span wrappers."""
    found = []
    for short in ("", *MODULES):
        mod = importlib.import_module(f"normalflat.{short}" if short else "normalflat")
        found += [f"{mod.__name__}.{attr}" for attr, obj in vars(mod).items()
                  if hasattr(obj, "bench_span")]
    return found
