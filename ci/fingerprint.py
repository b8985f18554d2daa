"""Fingerprints of the program's outputs: "same bytes" as a script.

    python ci/fingerprint.py OUT.json
    python ci/fingerprint.py OUT.json --compare OLD.json

Runs a fixed list of producers on this checkout's ``src``, with every
BLAS pool pinned to one thread:

- the ``cli-pipeline`` workload's files and exit codes at seeds 0, 1, 2 and 23;
- README's command-line chain, its files and exit codes;
- the ``frame-roundtrip`` frames, drift reports, recovered fields and
  gauge reports at seeds 0-2;
- ``verify-riccati`` at seeds 0-2: the GCR residual and compatibility
  defect fields, the detect reports, the phi family, and the Riccati
  ``t``, residuals and ``path_defect`` (or the blow-up);
- the Riccati ``t`` and ``path_defect`` of ``tests/test_kernel.py``'s
  ``RICCATI`` table: R, NS and the four NT (eps, delta) branches;
- a detect sweep: 22 coefficient sets in all five cases at L0 = 0 and 1;
- the command line's ``integrate --export-obj --report``, with and without
  ``--frame0 FILE``, on the L0 = 1 sphere and the notld NT, LS and LT sets;
- the workloads' accuracy figures.

OUT.json holds ``env`` (Python, numpy, BLAS, threads), ``hashes``
({name: sha256} of each array or file) and ``figures`` ({name: repr} of
each scalar).  Each JSON file is also walked: every value inside it is
an entry of its own, named by the file and its JSON path, such as
``cli-pipeline/seed0/integrate.json:metrics.gram_max.max`` (a figure)
or ``...mesh.json:fields.x0`` (a long string, hashed).  ``--compare
OLD.json`` prints each entry that moved, with its old and new value (and,
for two floats, their distance in ulps), and exits 1 when anything
moved, so a moved report names the figures inside it that moved.  Bits
depend on the BLAS and the numpy build: compare two runs on one
machine, such as a parent checkout against a change, not runs on two
machines.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import shlex
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import envinfo  # noqa: E402  (imports nothing heavy)

envinfo.pin_threads()  # before anything loads numpy
envinfo.use_source_tree()

import numpy as np  # noqa: E402

from normalflat import cli, gcr, riccati  # noqa: E402
from normalflat.families import build_nt_light_family  # noqa: E402
from normalflat.frames import CoefficientSet, compatibility_defect  # noqa: E402
from normalflat.grid import FieldGrid, GridSpec  # noqa: E402
from normalflat.integrator import canonical_frame0  # noqa: E402
from normalflat.spaceform import CASES, CaseSpec  # noqa: E402
from workloads import CliPipeline, FrameRoundtrip, VerifyRiccati  # noqa: E402


# a JSON string longer than this is recorded by its hash, not its repr
_LONG_STRING = 200


class Record:
    """Named outputs: arrays and bytes as sha256, scalars as their repr."""

    def __init__(self):
        self.hashes, self.figures = {}, {}

    def add(self, name: str, value):
        if isinstance(value, CoefficientSet):
            value = value.arrays()
        if isinstance(value, FieldGrid):
            value = value.values
        if isinstance(value, dict):
            for key, item in value.items():
                self.add(f"{name}/{key}", item)
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                self.add(f"{name}/{i}", item)
        elif isinstance(value, bytes):
            self.hashes[name] = hashlib.sha256(value).hexdigest()
        elif isinstance(value, np.ndarray) and value.ndim:
            a = np.ascontiguousarray(value)
            self.hashes[name] = hashlib.sha256(
                f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()
        else:  # a scalar, as a Python object so that its repr is the plain one
            self.figures[name] = repr(value.item() if isinstance(value, (np.generic, np.ndarray))
                                      else value)

    def add_files(self, name: str, directory: Path):
        """Each file's hash, and for a JSON document every value inside it,
        keyed by file and JSON path (``integrate.json:metrics.gram_max.max``):
        scalars as figures, long strings (a field's base64 data) as hashes."""
        for path in sorted(directory.iterdir()):
            data = path.read_bytes()
            self.add(f"{name}/{path.name}", data)
            if path.suffix == ".json":
                self._add_json(f"{name}/{path.name}", json.loads(data))

    def _add_json(self, name: str, doc, path: str = ""):
        if isinstance(doc, dict):
            for key, item in doc.items():
                self._add_json(name, item, f"{path}.{key}" if path else key)
        elif isinstance(doc, list):
            for i, item in enumerate(doc):
                self._add_json(name, item, f"{path}[{i}]")
        elif isinstance(doc, str) and len(doc) > _LONG_STRING:
            self.add(f"{name}:{path}", doc.encode())
        else:
            self.figures[f"{name}:{path}"] = repr(doc)


def _results(operations) -> dict:
    """Each named operation's return value, or the exception it raised."""
    out = {}
    for name, fn in operations:
        try:
            out[name] = fn()
        except Exception as exc:  # an exception is the operation's result
            out[name] = exc
    return out


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}", **(
        {"location": exc.location} if isinstance(exc, riccati.RiccatiBlowUpError) else {})}


@contextmanager
def _workdir():
    """A temporary directory, also the working directory while in use."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(cwd)


# ---------------------------------------------------------------------------
# producers
# ---------------------------------------------------------------------------

def cli_pipeline(rec: Record):
    for seed in (0, 1, 2, 23):
        name = f"cli-pipeline/seed{seed}"
        with _workdir() as tmp:
            w = CliPipeline(seed, tmp)
            results = {step: cli.main(argv) for step, argv in w.steps()}
            rec.add(f"{name}/exit", results)
            rec.add_files(name, tmp)
            rec.add(f"{name}/check", dict(zip(("failures", "figures"), w.check(results))))


def _readme_block(text: str, after: str, lang: str) -> str:
    start = text.index(f"```{lang}\n", text.index(after)) + len(lang) + 4
    return text[start:text.index("```", start)]


def readme_chain(rec: Record):
    text = (ROOT / "README.md").read_text()
    with _workdir() as tmp:
        (tmp / "product.json").write_text(_readme_block(text, "the flat-torus descriptor", "json"))
        chain = _readme_block(text, "the subcommands chain as", "sh").replace("\\\n", " ")
        argvs = [shlex.split(line)[1:] for line in chain.splitlines() if line.strip()]
        rec.add("readme/exit", [cli.main(argv) for argv in argvs])
        rec.add_files("readme", tmp)


def frame_roundtrip(rec: Record):
    for seed in (0, 1, 2):
        name = f"frame-roundtrip/seed{seed}"
        with _workdir() as tmp:
            w = FrameRoundtrip(seed, tmp)
            results = _results(w.operations())
        for op, result in results.items():
            if isinstance(result, Exception):
                rec.add(f"{name}/{op}", _error(result))
                continue
            field, drift, coeffs, gauge = result
            rec.add(f"{name}/{op}", {"frame": field.values, "drift": drift,
                                     "recovered": coeffs, "gauge": gauge})
        rec.add(f"{name}/check", dict(zip(("failures", "figures"), w.check(results))))


def verify_riccati(rec: Record):
    for seed in (0, 1, 2):
        name = f"verify-riccati/seed{seed}"
        with _workdir() as tmp:
            w = VerifyRiccati(seed, tmp)
            results = _results(w.operations())
        for op, result in results.items():
            if isinstance(result, Exception):
                rec.add(f"{name}/{op}", _error(result))
            elif op.startswith("random-"):
                res_max, defect_max, rep = result
                case, coeffs = w.random_sets[op]
                res = gcr.gcr_residuals(coeffs, case)
                rec.add(f"{name}/{op}", {
                    "residual_max": res_max, "defect_max": defect_max,
                    "detect": rep.verdict_json(), "gauss": res.gauss, "codazzi": res.codazzi,
                    "ricci": res.ricci, "flatness": res.flatness,
                    "defect": compatibility_defect(coeffs, case)})
            elif op == "phi-family":
                built, rep = result
                rec.add(f"{name}/{op}", {"coeffs": built.coeffs,
                                         "certificate": built.certificate,
                                         "detect": rep.verdict_json()})
            else:
                sol, residuals = result
                rec.add(f"{name}/{op}", {"t": sol.t, "path_defect": sol.path_defect,
                                         "residuals": residuals})
        rec.add(f"{name}/check", dict(zip(("failures", "figures"), w.check(results))))


def cli_integrate(rec: Record):
    """``integrate --export-obj --report`` through the command line, with the
    canonical frame0 and with one from a file (the first ambient axis
    reflected), on the frame-roundtrip sets the cli-pipeline misses: the
    L0 = 1 sphere (dim 5) and the notld NT, LS and LT sets, at seed 0."""
    with _workdir() as tmp:
        inputs = FrameRoundtrip(0, tmp).inputs
    for set_name in ("sphere", "notld-NT", "notld-LS", "notld-LT"):
        case, coeffs, _ = inputs[set_name]
        frame0 = canonical_frame0(case, float(coeffs.lam.values[0, 0]))
        frame0[0] = -frame0[0]
        with _workdir() as tmp:
            coeffs.save("coeffs.json")
            (tmp / "frame0.json").write_text(json.dumps({"frame0": frame0.tolist()}))
            common = ["integrate", "--coeffs", "coeffs.json", "--case", case.case_id,
                      "--l0", repr(case.l0)]
            rec.add(f"cli-integrate/{set_name}/exit", [
                cli.main(common + ["--out", "mesh.json", "--export-obj", "mesh.obj",
                                   "--report", "report.json"]),
                cli.main(common + ["--frame0", "frame0.json", "--out", "mesh-frame0.json",
                                   "--export-obj", "mesh-frame0.obj", "--obj-axes", "2,-1,0",
                                   "--report", "report-frame0.json"])])
            rec.add_files(f"cli-integrate/{set_name}", tmp)


# (case, box, shape, k, xi, t0) of dt = w0 + t w1 + t^2 w2 for f_- = u + k v^2:
# the RICCATI table of tests/test_kernel.py, R, NS and the four NT (eps,
# delta) branches
_SHORT, _UNIT = ((0.1, 0.6), (0.1, 0.5)), ((0.1, 1.1), (0.1, 1.1))
RICCATI = [(CaseSpec("R"), _UNIT, (65, 33), 0.3, 0.4, 0.2),
           (CaseSpec("NS"), _UNIT, (33, 33), 0.5, 0.5, 0.1),
           (CaseSpec("NT", eps=1, delta=1), _UNIT, (65, 33), 0.3, 0.4, 0.2),
           (CaseSpec("NT", eps=1, delta=-1), _SHORT, (65, 33), 0.3, 0.4, 0.5),
           (CaseSpec("NT", eps=-1, delta=1), _UNIT, (65, 33), 0.3, 0.4, -0.3),
           (CaseSpec("NT", eps=-1, delta=-1), _SHORT, (65, 33), 0.3, 0.4, 0.2)]


def riccati_table(rec: Record):
    """The angle system's t and path defect (or the error) on each row of
    ``RICCATI``."""
    for case, box, shape, k, xi, t0 in RICCATI:
        spec = GridSpec.over_box(*box, *shape)
        U, V = spec.mesh()
        name = f"riccati-table/{case.case_id}{case.eps:+d}{case.delta:+d}"
        try:
            sol = riccati.solve_riccati(
                riccati.build_forms(FieldGrid(spec, U + k * V**2), xi, case), t0, case)
        except Exception as exc:  # an exception is the solve's result
            rec.add(name, _error(exc))
            continue
        rec.add(name, {"t": sol.t, "path_defect": sol.path_defect})


def sweep_sets() -> dict:
    """22 coefficient sets: beta = c alpha with and without a normal
    connection, and sets with a known dependence verdict in some case."""
    spec = GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 65, 65)
    U, V = spec.mesh()
    s = 1.0 + 0.3 * U
    sets = {}
    for c in (-2.0, -1.03, -1.0, -0.97, -0.5, 1.04):
        sets[f"c={c:g},mu=0"] = CoefficientSet.from_arrays(spec, alpha1=s, beta1=c * s)
        sets[f"c={c:g},mu=u"] = CoefficientSet.from_arrays(spec, alpha1=s, beta1=c * s,
                                                          mu1=0.5 + 0.2 * U)
    sets["torus"] = CoefficientSet.from_arrays(spec, alpha1=-1.0, beta3=-1.0)
    lam = np.log(2.0 / (1.0 + U**2 + V**2))
    sets["sphere-hyperplane"] = CoefficientSet.from_arrays(spec, lam=lam, alpha1=np.exp(lam),
                                                           alpha3=np.exp(lam))
    sets["zero"] = CoefficientSet.from_arrays(spec)
    sets["mixed-curvature"] = CoefficientSet.from_arrays(spec, alpha1=U - 0.5, alpha3=1.0)
    for seed in (5, 11):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-0.4, 0.4, size=(9, 4))
        p = rng.uniform(0, 2 * np.pi, size=(9, 3))
        sets[f"random{seed}"] = CoefficientSet(*(FieldGrid(spec, (
            a[k, 0] + a[k, 1] * np.sin(U + p[k, 0]) + a[k, 2] * np.cos(V + p[k, 1])
            + a[k, 3] * np.sin(U + V + p[k, 2]))) for k in range(9)))
    for kind, t in (("space", 1.0 + 0.3 * V), ("time", 0.5 + 0.3 * V)):
        m = (np.sinh(t) if kind == "space" else np.cosh(t)) * (1 + 0.1 * U**2)
        ratio = np.cosh(t) / np.sinh(t) if kind == "space" else np.tanh(t)
        sets[f"hyperbolic-{kind}"] = CoefficientSet.from_arrays(spec, alpha1=m, beta1=-ratio * m,
                                                                mu2=0.3)
    sets["light-family"] = build_nt_light_family(spec, FieldGrid(spec, 0.3 * U),
                                                 lambda u: 1 + 0.1 * u, CaseSpec("NT", 0.0)).coeffs
    t = 3 * U + 2 * V
    x = (1 + 0.2 * U, 0.5 + 0 * U, 0.3 + V)
    sets["generic-rows"] = CoefficientSet.from_arrays(
        spec, **{f"alpha{k + 1}": -np.sin(t) * x[k] for k in range(3)},
        **{f"beta{k + 1}": np.cos(t) * x[k] for k in range(3)})
    return sets


def detect_sweep(rec: Record):
    for set_name, coeffs in sweep_sets().items():
        for case_id in CASES:
            for l0 in (0.0, 1.0):
                rep = gcr.detect_parallel_normal(coeffs, CaseSpec(case_id, l0))
                rec.add(f"detect-sweep/{set_name}/{case_id}/l0={l0:g}",
                        {**rep.verdict_json(), "eps": rep.ld.eps})


PRODUCERS = (cli_pipeline, readme_chain, frame_roundtrip, verify_riccati, riccati_table,
             detect_sweep, cli_integrate)


# ---------------------------------------------------------------------------

def _ulps(old: str, new: str) -> str:
    """'  (n ulp)' between two float reprs of one sign, else ''."""
    try:
        a, b = ast.literal_eval(old), ast.literal_eval(new)
    except (ValueError, SyntaxError):
        return ""
    if not (type(a) is type(b) is float and a * b > 0):
        return ""
    bits = np.array([a, b]).view(np.int64)  # monotone in the magnitude for one sign
    return f"  ({abs(int(bits[0]) - int(bits[1]))} ulp)"


def compare(new: dict, old: dict) -> int:
    """Print each moved entry; the count of moved entries."""
    if new["env"] != old["env"]:
        print(f"note: environments differ: {old['env']} -> {new['env']}")
    moved = 0
    for kind in ("hashes", "figures"):
        for key in sorted(set(new[kind]) | set(old[kind])):
            a, b = old[kind].get(key, "<absent>"), new[kind].get(key, "<absent>")
            if a != b:
                moved += 1
                print(f"moved {key}: {a} -> {b}" + (_ulps(a, b) if kind == "figures" else ""))
    total = sum(len(set(new[kind]) | set(old[kind])) for kind in ("hashes", "figures"))
    print(f"{moved} of {total} entries moved")
    return moved


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", help="fingerprint JSON to write")
    p.add_argument("--compare", metavar="OLD.json", help="a fingerprint to compare against")
    args = p.parse_args(argv)
    rec = Record()
    for producer in PRODUCERS:
        start = time.perf_counter()
        producer(rec)
        print(f"{producer.__name__}: {time.perf_counter() - start:.1f} s", flush=True)
    env = envinfo.describe()
    del env["os_threads"], env["nproc"]  # the process and the machine, not the build
    doc = {"env": env, "hashes": rec.hashes, "figures": rec.figures}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(rec.hashes)} hashes, {len(rec.figures)} figures -> {args.out}")
    if args.compare:
        with open(args.compare) as fh:
            return 1 if compare(doc, json.load(fh)) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
