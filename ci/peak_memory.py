"""Peak resident memory of the command line at 1024^2, against fixed bounds.

Each scenario writes its descriptors, runs its preparing commands, then
runs its measured commands in a Python process of their own, which
reports its own peak RSS (``ru_maxrss``, KiB on Linux).  A scenario
fails when a command exits non-zero, the peak exceeds the bound or the
check on its output fails.  Each bound is the peak measured when it was
set plus 15%.

    python ci/peak_memory.py

normalflat is imported from the ``src`` of this checkout; the scenarios
run in a temporary directory each.  Exit code 0 when every scenario
passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a process of its own: every argv through main, then the peak in MiB
_CHILD = """
import json, resource, sys
from normalflat.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exit code != 0: {argv}")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def _grid(h):
    return {"u0": 0, "v0": 0, "du": h, "dv": h, "nu": 1024, "nv": 1024}


TORUS = {"family": "product", "case": "R", "l0": 0.0, "grid": _grid(0.0015),
         "params": {"radius1": 1.0, "radius2": 1.0}}
LIGHT = {"family": "light", "case": "NT", "l0": 0.0, "grid": _grid(0.0009765625),
         "params": {"gamma": "0.3*u - 0.2*v", "profile": "1 + 0.5*u"}}
CONSTRUCT_TORUS = ["construct", "--params", "torus.json", "--out", "coeffs.json"]


def _light_verdict(workdir: Path) -> str | None:
    verdicts = json.loads((workdir / "detect.json").read_text())["verdicts"]
    got = (verdicts["verdict"], verdicts["field_kind"])
    return None if got == ("parallel-exists", "light") else f"detect verdict {got}"


@dataclass
class Scenario:
    bound_mib: float
    measure: list  # argvs run through cli.main in one measured process
    prepare: list = field(default_factory=list)  # argvs run before, in a process of their own
    files: dict = field(default_factory=dict)  # name -> JSON document written first
    check: object = None  # workdir -> failure text or None


SCENARIOS = {
    # construct, integrate with its OBJ export and reconstruct in one
    # process: measured 199 MiB, against 223 MiB while field files were read
    # with json.load, 378 MiB while integrate held the whole (nu, nv, 4, 5)
    # frame and wrote the OBJ 65536 rows at a time, and 1370 MiB while the
    # connection was assembled whole-grid.  construct sets it: construct
    # alone peaks at 199 MiB, reconstruct at 180 and integrate at 175 (223
    # while its json.load of the coefficient file set it)
    "roundtrip": Scenario(229, [
        CONSTRUCT_TORUS,
        ["integrate", "--coeffs", "coeffs.json", "--case", "R", "--out", "mesh.json",
         "--export-obj", "mesh.obj"],
        ["reconstruct", "--mesh", "mesh.json", "--case", "R", "--out", "rec.json"],
    ], files={"torus.json": TORUS}),
    # measured 199 MiB, against 223 MiB while json.load's read of the
    # coefficient file (its text and every base64 str held at once) set it;
    # the streamed read holds the fields and one chunk, so what sets it now
    # is gcr_residuals' working set above the fields.  A defect from whole-grid S and T would add
    # over 400 MB; its closed form over the whole grid as one slab measured
    # 271 MiB, so tier-1's test_defect_peak_memory guards the slabs
    "verify": Scenario(229, [
        ["verify", "--coeffs", "coeffs.json", "--case", "R", "--out", "verify.json"],
    ], [CONSTRUCT_TORUS], {"torus.json": TORUS}),
    # the angle system of an NS potential: measured 207 MiB, against 223 MiB
    # while the solve assembled whole-grid S and T, and 327 MiB while the
    # obstruction 2-forms were read off whole-grid 2x2 curvatures
    "riccati": Scenario(239, [
        ["riccati", "--fminus", "u + 0.3*v^2", "--xi", "0.2", "--case", "NS", "--t0", "0.05",
         "--grid", "0.1:0.1:0.0009765625:0.0009765625:1024:1024", "--out", "t.json"],
    ]),
    # the light family on NT, its variant read off the data: measured
    # 167 MiB, against 223 MiB while json.load's read of the coefficient file
    # set it and 239 MiB while the classification stacked the rows'
    # components to pick one pair per point
    "detect": Scenario(192, [
        ["detect", "--coeffs", "coeffs.json", "--case", "NT", "--out", "detect.json"],
    ], [["construct", "--params", "light.json", "--out", "coeffs.json"]],
        {"light.json": LIGHT}, _light_verdict),
}


def _run(argvs, workdir: Path) -> float:
    """Peak RSS in MiB of one process running argvs; raises on a failed command."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], cwd=workdir,
                         env=env, capture_output=True, text=True)
    if run.returncode != 0:
        raise RuntimeError(run.stderr.strip() or f"exit code {run.returncode}")
    return float(run.stdout.split()[-1])


def measure(name: str, sc: Scenario) -> str | None:
    """Run one scenario; print its peak and return a failure text or None."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for fname, doc in sc.files.items():
            (workdir / fname).write_text(json.dumps(doc))
        try:
            if sc.prepare:
                _run(sc.prepare, workdir)
            peak = _run(sc.measure, workdir)
        except RuntimeError as exc:
            return str(exc)
        print(f"{name}: peak RSS {peak:.0f} MiB (bound {sc.bound_mib} MiB)", flush=True)
        if not peak <= sc.bound_mib:
            return f"peak RSS {peak:.0f} MiB exceeds {sc.bound_mib} MiB"
        return sc.check(workdir) if sc.check else None


def main() -> int:
    failed = 0
    for name, sc in SCENARIOS.items():
        failure = measure(name, sc)
        if failure:
            print(f"{name}: FAILED: {failure}", file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
