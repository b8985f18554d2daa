"""Self-tests of the benchmark's harness.

    python3 bench/selftest.py

Checks, on the real workloads at their real sizes (about a minute):

1. span nesting: in a traced frame-roundtrip pass every
   ``frames.compatibility_defect`` span is a child of an
   ``integrator.integrate_frame`` span (the lazy import inside the
   integrator is seen), and every ``frames.assemble_connection`` span sits
   under the integrator (bound at import) or under the defect;
2. untraced passes run with no wrapper installed in any normalflat
   namespace, and ``uninstall`` leaves none behind;
3. determinism: two fresh instances of each workload with the same seed
   give identical computed counts and bitwise-identical accuracy figures;
4. the metric names and units the runs print match ``BENCHMARK.json``.

Exit code 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import envinfo

envinfo.pin_threads()
envinfo.use_source_tree()

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
FAILURES = []


def expect(cond, message):
    print(f"{'ok  ' if cond else 'FAIL'} {message}")
    if not cond:
        FAILURES.append(message)


def traced_pass(workload):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, figures, layers = harness.run_pass(workload, harness.Ledger(),
                                                 harness.SpeedProbe(), tracer)
    finally:
        tracer.uninstall()
    return tracer.spans, figures, layers


def test_nesting(workdir):
    spans, _, _ = traced_pass(WORKLOADS["frame-roundtrip"](SEED, workdir))
    names = {sid: name for sid, _, name, _, _ in spans}
    parents = {name: set() for name in names.values()}
    for _, parent, name, _, _ in spans:
        parents[name].add(names.get(parent))
    expect(parents.get("frames.compatibility_defect") == {"integrator.integrate_frame"},
           "compatibility_defect spans are children of integrate_frame "
           f"(parents {parents.get('frames.compatibility_defect')})")
    expect(parents.get("frames.assemble_connection")
           == {"integrator.integrate_frame", "frames.compatibility_defect"},
           "assemble_connection spans sit under integrate_frame and compatibility_defect "
           f"(parents {parents.get('frames.assemble_connection')})")
    expect(tracing.installed_wrappers() == [], "uninstall leaves no wrapper behind")


def test_untraced_has_no_wrapper(workdir):
    workload = WORKLOADS["verify-riccati"](SEED, workdir)
    seen = []
    operations = workload.operations

    def watched():
        return [(name, lambda fn=fn: (seen.append(tracing.installed_wrappers()), fn())[1])
                for name, fn in operations()]

    workload.operations = watched
    ledger = harness.Ledger()
    harness.run_pass(workload, ledger, harness.SpeedProbe())
    expect(seen and all(s == [] for s in seen),
           f"no wrapper is installed during any operation of an untraced pass ({len(seen)} ops)")
    expect(ledger.failed == 0, "the untraced pass passes its checks")


def test_determinism(workdir):
    for name, cls in WORKLOADS.items():
        runs = []
        for k in range(2):
            sub = Path(workdir) / f"{name}-{k}"
            sub.mkdir()
            _, figures, layers = traced_pass(cls(SEED, sub))
            runs.append((figures, layers["counts"]))
        (fig_a, counts_a), (fig_b, counts_b) = runs
        expect(counts_a == counts_b and counts_a,
               f"{name}: identical computed counts ({len(counts_a)} counters)")
        same = fig_a.keys() == fig_b.keys() and all(
            float(fig_a[k]).hex() == float(fig_b[k]).hex() for k in fig_a)
        expect(same and fig_a, f"{name}: bitwise-identical figures {sorted(fig_a)}")


def test_benchmark_json(workdir):
    with open(envinfo.ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    expect(e2e == run.END_TO_END_UNITS, "end-to-end names and units match BENCHMARK.json")
    printed = {k: run._layer_unit(k) for k in harness._layer_metrics(
        [{"layers": {}, "counts": {}}])}
    printed["trace.overhead_s"] = "s"
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expect(printed == listed, "per-layer names and units match BENCHMARK.json "
           f"(only printed: {sorted(printed.keys() - listed.keys())}, "
           f"only listed: {sorted(listed.keys() - printed.keys())})")


def main() -> int:
    harness.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK_DIR) as tmp:
        for test in (test_benchmark_json, test_nesting, test_untraced_has_no_wrapper,
                     test_determinism):
            sub = Path(tmp) / test.__name__
            sub.mkdir()
            test(sub)
    try:
        harness.WORK_DIR.rmdir()
    except OSError:
        pass
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
