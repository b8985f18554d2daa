"""Run one workload for a fixed time and summarise it.

One caller runs passes back to back (a closed loop).  A warm-up pass
comes first and is checked but not timed.  Tracing is off in every pass
of a ``trace=False`` run; a ``trace=True`` run alternates untraced and
traced passes in the same window, takes the per-layer numbers from the
traced ones and the tracing overhead from the difference.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from envinfo import ROOT, SRC
from tracing import MODULES, Tracer
from workloads import WORKLOADS

WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 7

# Named layer metrics reported by a traced run, besides the per-module totals.
KEY_FUNCTIONS = (
    "grid.save_fields", "grid.load_fields",
    "grid._diff_along", "grid._diff_along4", "grid._diff2_along",
    "frames.assemble_connection", "frames.compatibility_defect",
    "gcr.gcr_residuals", "gcr.detect_parallel_normal", "gcr.dependence_report",
    "families.certify", "families.build_notld_family", "families.build_phi_family",
    "integrator.integrate_frame", "integrator.reconstruct_coefficients",
    "integrator.save_mesh", "integrator.load_mesh", "integrator.export_mesh",
    "riccati.build_forms", "riccati.solve_riccati", "riccati.riccati_residual",
    "riccati.obstruction_verdict",
    "expressions.compile_expr",
    "cli.main",
)
COUNTS = (
    "integrator.rk4_cells", "riccati.cells", "riccati.useful_ratio",
    "frames.connection_bytes", "grid.bytes_written", "grid.bytes_read",
    "families.cert_pass_ratio",
)

_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import normalflat, normalflat.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def measure_setup(probe, repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """Fresh-process import time of normalflat and normalflat.cli, in seconds.

    Returns one (wall, speed-normalised) pair per import; the first
    import compiles bytecode and is discarded.
    """
    times = []
    before = probe()
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        wall = float(done.stdout.strip())
        after = probe()
        times.append((wall, wall * probe.REF_S / (0.5 * (before + after))))
        before = after
    return times[1:]


def high_percentile(samples) -> tuple[str, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    p = int(100 * (1 - 10 / n))
    return f"p{p}", statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


class Ledger:
    """Attempted and failed checked operations, with the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, failures: dict):
        for op, msgs in failures.items():
            self.attempted += 1
            if msgs:
                self.failed += 1
                if len(self.messages) < 20:
                    self.messages.append(f"{op}: {'; '.join(msgs)}")


class SpeedProbe:
    """A fixed slice of interpreter, numpy and memory-streaming work,
    timed between operations.

    The reference machine's speed drifts by up to ±25% over seconds to
    minutes: a fixed pure-Python loop took between 0.22 s and 0.40 s, and
    the same frame-roundtrip pass between 3.1 s and 4.7 s, with every
    operation of a pass slowing together.  The probe's time right before
    and right after an operation estimates the speed it ran at; dividing
    by it rescales the operation to ``REF_S``, the probe's time on the
    reference machine at rest.  The probe mixes the kinds of work the
    workloads do (interpreted loops, small batched matmuls, whole-array
    passes over more than the L2 cache, JSON encoding) and uses no
    normalflat code, so a change to the package cannot move it.
    """

    REF_S = 0.05

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = rng.standard_normal((64, 64, 5, 5))
        self.big = rng.standard_normal(2_000_000)  # 16 MB
        self.out = np.empty_like(self.big)
        self.floats = rng.standard_normal(20_000).tolist()
        self()  # first touch of the buffers pays page faults; keep it out of the samples

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(120_000):
            total += i * i
        for _ in range(3):
            np.matmul(self.mats, self.mats)
            np.einsum("ijak,ijal->ijkl", self.mats, self.mats)
        for _ in range(4):
            np.multiply(self.big, 1.0001, out=self.out)
            np.add(self.out, self.big, out=self.out)
        json.dumps(self.floats)
        return time.perf_counter() - start


def _call(fn):
    try:
        return fn()
    except Exception as exc:  # the workload's check reports it; the pass goes on
        return exc


def run_pass(workload, ledger, probe, tracer=None):
    """One pass: each operation timed between two probes, then the checks.

    Returns (wall seconds, speed-normalised seconds, figures, layers).
    The checks run untimed and untraced.
    """
    ops = workload.operations()
    results, wall, scaled = {}, 0.0, 0.0
    before = probe()
    if tracer is not None:
        tracer.begin_pass()
    for name, fn in ops:
        start = time.perf_counter()
        results[name] = _call(fn)
        elapsed = time.perf_counter() - start
        after = probe()
        wall += elapsed
        scaled += elapsed * probe.REF_S / (0.5 * (before + after))
        before = after
    layers = tracer.end_pass() if tracer is not None else None
    failures, figures = workload.check(results)
    ledger.record(failures)
    return wall, scaled, figures, layers


def run(name: str, seed: int, seconds: float, trace: bool, spans_out: Path | None = None):
    """Run a workload; returns (summary dict, ledger).

    ``setup_s``, ``pass_s`` and ``traced_pass_s`` hold (wall, normalised) pairs.
    """
    probe = SpeedProbe()
    setup = measure_setup(probe)
    ledger = Ledger()
    plain, traced, layer_passes, figure_passes = [], [], [], []
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        workload = WORKLOADS[name](seed, Path(tmp))
        figure_passes.append(run_pass(workload, ledger, probe)[2])  # warm-up
        # later passes repeat the same work; their occasional extra growth
        # (186 -> 198 MB on cli-pipeline) is heap fragmentation, not the program
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = Tracer() if trace else None
        k = 0
        # the window counts timed work only, so slow checks do not thin the sample
        while (sum(w for w, _ in plain + traced) < seconds
               or not plain or (trace and not traced)):
            if trace and k % 2 == 1:
                tracer.install()
                try:
                    wall, scaled, figures, layers = run_pass(workload, ledger, probe, tracer)
                finally:
                    tracer.uninstall()
                traced.append((wall, scaled))
                layer_passes.append(layers)
                if spans_out is not None:
                    _write_spans(spans_out, tracer.spans)
            else:
                wall, scaled, figures, _ = run_pass(workload, ledger, probe)
                plain.append((wall, scaled))
            figure_passes.append(figures)
            k += 1
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another run still uses it, or it holds a spans file

    # every pass ran the same inputs, so every figure must repeat exactly
    for figures in figure_passes[1:]:
        if figures != figure_passes[0]:
            ledger.failed += 1
            ledger.messages.append("accuracy figures differ between passes of one seed")
            break
    summary = {
        "pass_s": plain,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "figures": figure_passes[0],
    }
    if trace:
        summary["traced_pass_s"] = traced
        summary["layers"] = _layer_metrics(layer_passes)
        summary["layers"]["trace.overhead_s"] = (statistics.median(s for _, s in traced)
                                                 - statistics.median(s for _, s in plain))
        summary["all_layers"] = _all_layers(layer_passes)
    return summary, ledger


def _write_spans(path: Path, spans):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for sid, parent, name, start, end in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start_ns": start, "end_ns": end}) + "\n")


def _median_of(layer_passes, pick):
    return statistics.median(pick(p) for p in layer_passes)


def _layer_metrics(layer_passes) -> dict:
    """Per-pass medians of the named per-layer metrics (0 where a layer is idle)."""
    out = {}
    for module in MODULES:
        out[f"{module}.self_s"] = _median_of(layer_passes, lambda p: sum(
            v["self_s"] for k, v in p["layers"].items() if k.split(".")[0] == module))
    for fn in KEY_FUNCTIONS:
        out[f"{fn}.self_s"] = _median_of(
            layer_passes, lambda p: p["layers"].get(fn, {}).get("self_s", 0.0))
        out[f"{fn}.calls"] = _median_of(
            layer_passes, lambda p: p["layers"].get(fn, {}).get("calls", 0))
    for count in COUNTS:
        out[count] = _median_of(layer_passes, lambda p: p["counts"].get(count, 0))
    return out


def _all_layers(layer_passes) -> dict:
    names = sorted({n for p in layer_passes for n in p["layers"]})
    return {n: (_median_of(layer_passes, lambda p: p["layers"].get(n, {}).get("self_s", 0.0)),
                _median_of(layer_passes, lambda p: p["layers"].get(n, {}).get("calls", 0)))
            for n in names}
