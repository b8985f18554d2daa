"""Paired benchmark runs of a parent checkout and this one.

    python ci/ab.py PARENT_CHECKOUT --workload cli-pipeline --pairs 10 --seconds 10

Pair k runs ``bench/run.py --workload W --seed FIRST+k --seconds S
--trace 0`` from the root of each checkout, one after the other, the
parent first in even pairs and this checkout first in odd ones.  For
each end-to-end metric of BENCHMARK.json it prints both medians, the
parent's quartiles, the pairs the change wins (ties count for neither),
whether that is a gain (wins in at least nine tenths of the pairs and
medians further apart than the parent's interquartile range), the change
of the median against the metric's bound, and every pair.  It flags an
``accuracy_ratio`` that is not bit-equal within a pair, a failed
operation and a run that did not finish.

Exit code 0 when nothing is flagged, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="root of the parent checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-seed", type=int, default=1)
    return p.parse_args(argv)


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one benchmark run, with its exit code."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        doc = {"correct": False, "metrics": {}, "error": proc.stderr.strip()[-500:]}
    doc["returncode"] = proc.returncode
    return doc


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else [values[0]] * 3


def report(pairs, end_to_end) -> list[str]:
    """The summary lines of pairs [(seed, parent_doc, change_doc)]."""
    lines = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        got = [(seed, p["metrics"][name]["value"], c["metrics"][name]["value"])
               for seed, p, c in pairs
               if name in p["metrics"] and name in c["metrics"]]
        got = [(s, a, b) for s, a, b in got if a is not None and b is not None]
        if not got:
            lines.append(f"{name}: no values")
            continue
        unit = pairs[0][1]["metrics"][name]["unit"]
        par, chg = [a for _, a, _ in got], [b for _, _, b in got]
        q1, med_p, q3 = quartiles(par)
        med_c = statistics.median(chg)
        wins = sum((b < a) if lower else (b > a) for _, a, b in got)
        rel = (med_c - med_p) / med_p if med_p else float("nan")
        worse = rel if lower else -rel
        gain = wins >= 0.9 * len(got) and abs(med_c - med_p) > q3 - q1
        lines.append(
            f"{name}: parent median {med_p:.6g} {unit} (quartiles {q1:.6g}-{q3:.6g}, "
            f"IQR {q3 - q1:.3g}) -> change median {med_c:.6g} {unit} ({rel:+.2%}); "
            f"change better in {wins}/{len(got)} pairs; gain: {'yes' if gain else 'no'}; "
            f"{'BEYOND' if worse > spec['bound'] else 'within'} bound {spec['bound']:g}")
        lines.append("  pairs (seed parent/change): " + ", ".join(
            f"{s} {a:.6g}/{b:.6g}" for s, a, b in got))
    return lines


def flags(pairs) -> list[str]:
    out = []
    for seed, p, c in pairs:
        for side, doc in (("parent", p), ("change", c)):
            if doc["returncode"] != 0 or not doc.get("correct") or doc.get("failed"):
                out.append(f"seed {seed}: {side} failed {doc.get('failed', '?')} of "
                           f"{doc.get('attempted', '?')} operations, exit code "
                           f"{doc['returncode']} {doc.get('error', '')}".rstrip())
        acc = [d["metrics"].get("accuracy_ratio", {}).get("value") for d in (p, c)]
        if acc[0] != acc[1]:
            out.append(f"seed {seed}: accuracy_ratio not bit-equal: "
                       f"parent {acc[0]!r}, change {acc[1]!r}")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    end_to_end = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = [("parent", args.parent), ("change", HERE)]
        if k % 2:
            order.reverse()
        docs = {side: run(root, args.workload, seed, args.seconds) for side, root in order}
        pairs.append((seed, docs["parent"], docs["change"]))
        print(f"pair {k + 1}/{args.pairs} seed {seed} ({order[0][0]} first): "
              + "  ".join(f"{side} pass_s "
                          f"{docs[side]['metrics'].get('pass_s', {}).get('value')}"
                          for side, _ in order), flush=True)
    print(f"workload {args.workload}  pairs {args.pairs}  seconds {args.seconds:g}  "
          f"seeds {args.first_seed}-{args.first_seed + args.pairs - 1}")
    for line in report(pairs, end_to_end):
        print(line)
    problems = flags(pairs)
    for line in problems:
        print("FLAG " + line)
    if not problems:
        print("no failed operation; accuracy_ratio bit-equal in every pair")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
