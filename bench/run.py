"""The normalflat benchmark: one workload, one seed, a fixed time.

    python3 bench/run.py --workload frame-roundtrip --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  The exit code is 0 when every
checked operation passed, 1 when one failed and 2 when the benchmark
could not run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import envinfo

envinfo.pin_threads()  # before anything loads numpy
envinfo.use_source_tree()

import harness  # noqa: E402  (needs the pinned environment and src on the path)
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "accuracy_ratio": "ratio"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    env = envinfo.describe()
    if env["os_threads"] != 1:
        print(f"bench: expected one OS thread after pinning, found {env['os_threads']}",
              file=sys.stderr)
        return 2
    spans_out = (harness.WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
                 if args.trace else None)
    summary, ledger = harness.run(args.workload, args.seed, args.seconds,
                                  bool(args.trace), spans_out)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps({**env, "seed": args.seed}, sort_keys=True))
    passes = [scaled for _, scaled in summary["pass_s"]]
    walls = [wall for wall, _ in summary["pass_s"]]
    hi = harness.high_percentile(passes)
    tail = f"{hi[0]} {hi[1]:.4f} s" if hi else "no percentile has 10 samples beyond it"
    print(f"pass_s          median {statistics.median(passes):.4f} s  {tail}  "
          f"n={len(passes)}  min {min(passes):.4f}  max {max(passes):.4f}  "
          "(speed-normalised)")
    print(f"pass wall       median {statistics.median(walls):.4f} s  "
          f"n={len(walls)}  min {min(walls):.4f}  max {max(walls):.4f}")
    setups = [scaled for _, scaled in summary["setup_s"]]
    print(f"setup_s         median {statistics.median(setups):.4f} s  n={len(setups)}  "
          f"(speed-normalised; wall median "
          f"{statistics.median(w for w, _ in summary['setup_s']):.4f} s)")
    print(f"peak_rss_mb     {summary['peak_rss_mb']:.1f} MB  n=1")
    frac = ledger.failed / ledger.attempted
    print(f"fail_frac       {frac:g}  ({ledger.failed} of {ledger.attempted} "
          f"checked operations)")
    for name, value in sorted(summary["figures"].items()):
        print(f"{name:<15} {value:.6g}  n=1 (same inputs every pass)")
    for msg in ledger.messages:
        print(f"FAILED {msg}")

    if args.trace:
        traced = [scaled for _, scaled in summary["traced_pass_s"]]
        print(f"traced pass_s   median {statistics.median(traced):.4f} s  "
              f"n={len(traced)}  untraced n={len(passes)}")
        for name, (self_s, calls) in summary["all_layers"].items():
            print(f"  span {name:<40} self {self_s:.4f} s  calls {calls:g}")
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in summary["layers"].items()}
    else:
        values = {
            "pass_s": statistics.median(passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": summary["peak_rss_mb"],
            "accuracy_ratio": summary["figures"].get("accuracy_ratio"),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    correct = ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or ".bytes_" in name:
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
