"""Command-line front end.

Subcommands: verify, construct, integrate, reconstruct, detect, riccati.
Every run writes a deterministic JSON report with the schema
{tool_version, case, grid, metrics{name -> {max, mean}}, verdicts{...}}.
Exit codes: 0 success, 1 usage/configuration error, 2 verification
failure (residuals above tolerance or a failed certificate) or a
computation that left the finite floating-point range.

The environment variable NORMALFLAT_TOL replaces the default tolerance
of verify (the residual level 10 h^2 (1 + s)) and of detect (the
quadratic level 10 h^2 (1 + s)^2), s the largest coefficient magnitude.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .expressions import compile_expr
from .families import (
    NotldPotentials,
    PhiFamilyInput,
    build_notld_family,
    build_nt_light_family,
    build_phi_family,
    build_product_family,
)
from .frames import CoefficientSet, compatibility_defect
from .gcr import detect_parallel_normal, gcr_residuals
from .grid import (FieldGrid, GridSpec, _float, load_fields, max_mean, residual_tolerance,
                   save_fields)
from .integrator import (
    _integrate_mesh,
    export_mesh,
    load_mesh,
    reconstruct_coefficients,
    save_mesh,
)
from .riccati import (
    RangeConstraintError,
    RiccatiBlowUpError,
    build_forms,
    obstruction_verdict,
    riccati_residual,
    solve_riccati,
)
from .spaceform import CASES, CaseSpec


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _report(path, case: CaseSpec, spec: GridSpec, metrics: dict, verdicts: dict):
    doc = {
        "tool_version": __version__,
        "case": case.to_json(),
        "grid": spec.to_json(),
        "metrics": metrics,
        "verdicts": verdicts,
    }
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return doc


# the case flags besides --case that each subcommand reads; it accepts no other
CASE_FLAGS = {"verify": ("l0",), "construct": ("l0", "eps", "delta"), "integrate": ("l0",),
              "reconstruct": ("l0",), "detect": ("l0",), "riccati": ("eps", "delta")}


def _case(args, doc=None) -> CaseSpec:
    """The command's case: its flags, over a descriptor's entries, over the
    defaults (case R)."""
    flags = {key: getattr(args, key) for key in ("case", *CASE_FLAGS[args.command])}
    return CaseSpec.from_json({"case": "R", **(doc or {}),
                               **{k: v for k, v in flags.items() if v is not None}})


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 6:
        raise UsageError("grid must be u0:v0:du:dv:nu:nv")
    return GridSpec.from_json(dict(zip(("u0", "v0", "du", "dv", "nu", "nv"), map(float, parts))))


def _one_variable(text, var: str):
    """A one-variable expression (or number) as a callable of one array;
    None stays None."""
    if text is None:
        return None
    fn = compile_expr(str(text), (var,))
    return lambda x: np.broadcast_to(fn(**{var: x}), np.shape(x))


def _env_tol(args_tol):
    """--tol, else NORMALFLAT_TOL, else None (the subcommand's default)."""
    tol = args_tol
    if tol is None:
        env = os.environ.get("NORMALFLAT_TOL")
        tol = float(env) if env else None
    if tol is not None and not (np.isfinite(tol) and tol >= 0):
        raise UsageError(f"tolerance must be finite and non-negative, got {tol}")
    return tol


def _sample(spec: GridSpec, source):
    """Expression string, constant, or '@file.json:field' reference; a
    referenced field must be real and live on spec."""
    if isinstance(source, (int, float)):
        return FieldGrid.constant(spec, float(source))
    if isinstance(source, str) and source.startswith("@"):
        ref = source[1:]
        path, _, name = ref.partition(":")
        fields = load_fields(path)
        if not name and len(fields) != 1:
            raise UsageError(f"{path} holds several fields; use @{path}:name")
        name = name or next(iter(fields))
        if name not in fields:
            raise UsageError(f"{path} holds no field {name!r}; its fields are "
                             + ", ".join(map(repr, sorted(fields))))
        if fields[name].kind != "real":
            raise UsageError(f"field {name!r} of {path} is complex; a real field is needed")
        if fields[name].spec != spec:
            raise UsageError(f"{path} lives on {fields[name].spec}, not on the command's {spec}")
        return fields[name]
    fn = compile_expr(source, ("u", "v"))
    return FieldGrid.from_function(spec, lambda U, V: fn(u=U, v=V))


def _frame0(path) -> np.ndarray:
    """The 'frame0' entry of a JSON object: a list of rows of 5 numbers, one
    row per ambient axis (integrate_frame checks their count)."""
    with open(path) as fh:
        doc = json.load(fh)
    rows = doc.get("frame0") if isinstance(doc, dict) else None
    if not (isinstance(rows, list) and rows
            and all(isinstance(row, list) and len(row) == 5 for row in rows)):
        raise UsageError(f"{path} must hold a JSON object whose 'frame0' is a list of "
                         f"rows of 5 numbers, got {json.dumps(rows)}")
    return np.array([[_float(x, f"frame0 entry [{i}][{j}]") for j, x in enumerate(row)]
                     for i, row in enumerate(rows)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    case = _case(args)
    tol = _env_tol(args.tol)
    coeffs = CoefficientSet.load(args.coeffs)
    res = gcr_residuals(coeffs, case)
    compat = compatibility_defect(coeffs, case)
    if tol is None:
        tol = residual_tolerance(coeffs.spec, coeffs.max_abs())
    metrics = {**res.metrics(), "flatness": max_mean(res.flatness.values),
               "compatibility": max_mean(compat.values)}
    verdicts = {"tolerance": tol, "passed": res.passed(tol)}
    _report(args.out, case, coeffs.spec, metrics, verdicts)
    return 0 if verdicts["passed"] else 2


def _cmd_construct(args) -> int:
    with open(args.params) as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and isinstance(doc.get("params", {}), dict)):
        raise UsageError("a family descriptor and its params must be JSON objects")
    family = args.family or doc.get("family")
    case = _case(args, doc)
    spec = GridSpec.from_json(doc.get("grid"))
    p = dict(doc.get("params", {}))  # each param is popped once; what is left is read by none
    for key, value in p.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"param {key!r} must be a string or a number, "
                             f"got {json.dumps(value)}")

    def field(key):
        return _sample(spec, p.pop(key)) if key in p else None

    def needed(key):
        if key not in p:
            raise UsageError(f"family {family!r} needs param {key!r}")
        return _sample(spec, p.pop(key))

    if family == "product":
        result = build_product_family(float(p.pop("radius1", 1.0)),
                                      float(p.pop("radius2", 1.0)), case, spec)
    elif family == "phi":
        inp = PhiFamilyInput(lam=_sample(spec, p.pop("lambda", 0.0)),
                             phi=needed("phi"), theta=needed("theta"),
                             xi=_one_variable(p.pop("xi", None), "s"))
        result = build_phi_family(inp, case)
    elif family == "light":
        result = build_nt_light_family(spec, _sample(spec, p.pop("gamma", 0.0)),
                                       _one_variable(p.pop("profile", "1"), "u"), case)
    elif family == "notld":
        # each case pops only the params its constructor reads
        pot = NotldPotentials()
        if case.parity < 0:  # LS, LT
            pot.sigma = field("sigma")
            pot.xi_tilde = _one_variable(p.pop("xi_tilde", None), "s")
            if "f_re" in p:
                f_re = field("f_re")
                pot.f = FieldGrid(spec, f_re.values + 1j * needed("f_im").values)
        else:
            pot.f_minus, pot.angle = field("f_minus"), field("angle")
            if case.kappa > 0:  # R, NS
                pot.theta_minus = field("theta_minus")
            else:  # NT
                pot.t_minus = field("t_minus")
                eps_prime = p.pop("eps_prime", 1)
                if isinstance(eps_prime, bool) or eps_prime not in (1, -1):
                    raise UsageError(f"param 'eps_prime' must be 1 or -1, "
                                     f"got {json.dumps(eps_prime)}")
                pot.eps_prime = int(eps_prime)
        pot.lam = field("lambda")
        result = build_notld_family(pot, case)
    else:
        raise UsageError(f"unknown family {family!r}")
    if p:
        raise UsageError(f"family {family!r} reads no param {min(p)!r}")

    result.coeffs.save(args.out)
    cert_path = args.cert or (args.out + ".cert.json")
    with open(cert_path, "w") as fh:
        json.dump(result.certificate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    metrics = {"residual_max": max_mean(result.certificate["residual_max"])}
    _report(args.report, case, spec, metrics,
            {"family": family, "certificate_passed": result.certificate["passed"]})
    return 0 if result.certificate["passed"] else 2


def _cmd_integrate(args) -> int:
    case = _case(args)
    coeffs = CoefficientSet.load(args.coeffs)
    frame0 = _frame0(args.frame0) if args.frame0 and args.frame0 != "auto" else None
    mesh, drift = _integrate_mesh(coeffs, case, frame0)
    tol = drift.pop("compatibility_tolerance")  # a verdict level, not a metric
    save_mesh(args.out, mesh)
    if args.export_obj:
        export_mesh(mesh, args.export_obj, "obj3d",
                    tuple(int(a) for a in args.obj_axes.split(",")))
    metrics = {k: max_mean(v) for k, v in drift.items() if isinstance(v, float)}
    notes = [drift["compatibility_warning"]] if "compatibility_warning" in drift else []
    _report(args.report, case, coeffs.spec, metrics,
            {"frame0": drift["frame0"], "notes": notes, "substeps": drift["substeps"],
             "tolerance": tol})
    return 0


def _cmd_reconstruct(args) -> int:
    case = _case(args)
    mesh = load_mesh(args.mesh)
    coeffs, gauge = reconstruct_coefficients(mesh, case)
    coeffs.save(args.out)
    metrics = {"isothermality": max_mean(gauge["isothermality_defect"])}
    _report(args.report, case, mesh.spec, metrics, {"gauge": gauge})
    return 0


def _cmd_detect(args) -> int:
    case = _case(args)
    coeffs = CoefficientSet.load(args.coeffs)
    tol = _env_tol(args.tol)
    rep = detect_parallel_normal(coeffs, case, tol=tol)
    metrics = {
        "dependence_defect": max_mean(rep.ld.defect.values),
        "k_minus_l0": max_mean(rep.k_equals_l0_defect),
        "gamma_angle_spread": max_mean(rep.gamma_angle_defect),
    }
    _report(args.out, case, coeffs.spec, metrics, {**rep.verdict_json(), "tolerance": rep.ld.tol})
    return 0


def _cmd_riccati(args) -> int:
    case = _case(args)
    if not np.isfinite(args.t0):
        raise UsageError(f"--t0 must be finite, got {args.t0}")
    spec = _parse_grid(args.grid)
    fminus = _sample(spec, args.fminus)
    forms = build_forms(fminus, _one_variable(args.xi, "s") if args.xi else 0.0, case)
    verdict, norms = obstruction_verdict(forms)
    verdicts = {"obstruction": verdict, "tolerance": forms.obstruction_tolerance()}
    metrics = {name: max_mean(val) for name, val in norms.items()}
    try:
        sol = solve_riccati(forms, args.t0, case)
    except (RiccatiBlowUpError, RangeConstraintError) as exc:
        _report(args.report, case, spec, metrics, {**verdicts, "error": str(exc)})
        print(f"riccati: {exc}", file=sys.stderr)
        return 2
    save_fields(args.out, {"t": sol.t})
    ru, rv = riccati_residual(forms, sol.t)
    metrics["residual_u"] = max_mean(ru.values)
    metrics["residual_v"] = max_mean(rv.values)
    metrics["path_defect"] = max_mean(sol.path_defect)
    _report(args.report, case, spec, metrics, {**verdicts, "path_defect": sol.path_defect})
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="normalflat",
                description="flat-normal-connection surface toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        """A subparser with its case flags; construct's override the descriptor."""
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(fn=fn)
        sp.add_argument("--case", required=name != "construct", choices=CASES)
        for key in CASE_FLAGS[name]:
            sp.add_argument(f"--{key}", **({"type": float} if key == "l0"
                                           else {"type": int, "choices": [1, -1]}))
        return sp

    sp = command("verify", _cmd_verify, "Gauss/Codazzi/Ricci residual check")
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out", help="JSON report path")

    sp = command("construct", _cmd_construct, "build a coefficient family")
    sp.add_argument("--family", choices=["product", "phi", "notld", "light"])
    sp.add_argument("--params", required=True, help="family descriptor JSON")
    sp.add_argument("--out", required=True, help="coefficient field file")
    sp.add_argument("--cert", help="certificate JSON path")
    sp.add_argument("--report", help="JSON report path")

    sp = command("integrate", _cmd_integrate, "integrate the moving frame")
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--frame0", default="auto", help="'auto' or a JSON file")
    sp.add_argument("--out", required=True, help="mesh field file")
    sp.add_argument("--export-obj", help="also write an OBJ projection")
    sp.add_argument("--obj-axes", default="0,1,2")
    sp.add_argument("--report", help="JSON report path")

    sp = command("reconstruct", _cmd_reconstruct, "coefficients from a sampled mesh")
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report", help="JSON report path")

    sp = command("detect", _cmd_detect, "parallel normal vector field detector")
    sp.add_argument("--coeffs", required=True)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out", help="JSON report path")

    sp = command("riccati", _cmd_riccati, "solve the quadratic angle system")
    sp.add_argument("--fminus", required=True, help="expression or @file[:field]")
    sp.add_argument("--xi", help="one-variable expression in s")
    sp.add_argument("--t0", type=float, required=True)
    sp.add_argument("--grid", required=True, help="u0:v0:du:dv:nu:nv")
    sp.add_argument("--out", required=True, help="t field file")
    sp.add_argument("--report", help="JSON report path")

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # a non-finite intermediate fails the run instead of reaching a report
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.fn(args)
    # UsageError, FamilyInputError, NonIntegrableError and JSONDecodeError are ValueErrors
    except (OSError, KeyError, ValueError) as exc:
        print(f"normalflat: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the grid cap keeps out the sizes no machine holds
        print(f"normalflat: out of memory: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, FloatingPointError) as exc:
        print(f"normalflat: floating-point failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
