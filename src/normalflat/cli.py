"""Command-line front end.

Subcommands: verify, construct, integrate, reconstruct, detect, riccati.
Every run writes a deterministic JSON report with the schema
{tool_version, case, grid, metrics{name -> {max, mean}}, verdicts{...}}.
Exit codes: 0 success, 1 usage/configuration error, 2 verification
failure (residuals above tolerance or a failed certificate) or a
computation that left the finite floating-point range.

The environment variable NORMALFLAT_TOL overrides the default residual
tolerance of verify/detect.
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
    FamilyInputError,
    NotldPotentials,
    PhiFamilyInput,
    build_notld_family,
    build_nt_light_family,
    build_phi_family,
    build_product_family,
)
from .frames import CoefficientSet, compatibility_defect
from .gcr import (
    NonIntegrableError,
    default_tolerance,
    detect_parallel_normal,
    gcr_residuals,
    normal_flatness_defect,
)
from .grid import FieldGrid, GridSpec, load_fields, save_fields
from .integrator import (
    export_mesh,
    integrate_frame,
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
from .spaceform import CaseSpec


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _metric(values) -> dict:
    a = np.abs(np.asarray(values))
    return {"max": float(np.max(a)), "mean": float(np.mean(a))}


def _grid_json(spec: GridSpec) -> dict:
    return {"u0": spec.u0, "v0": spec.v0, "du": spec.du, "dv": spec.dv,
            "nu": spec.nu, "nv": spec.nv}


def _report(path, case: CaseSpec, spec: GridSpec, metrics: dict, verdicts: dict):
    doc = {
        "tool_version": __version__,
        "case": case.to_json(),
        "grid": _grid_json(spec),
        "metrics": metrics,
        "verdicts": verdicts,
    }
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return doc


def _case_from_args(args) -> CaseSpec:
    return CaseSpec(args.case, getattr(args, "l0", 0.0) or 0.0,
                    getattr(args, "eps", 1), getattr(args, "delta", 1))


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 6:
        raise UsageError("grid must be u0:v0:du:dv:nu:nv")
    return GridSpec(float(parts[0]), float(parts[1]), float(parts[2]),
                    float(parts[3]), int(parts[4]), int(parts[5]))


def _grid_from_doc(doc: dict) -> GridSpec:
    g = doc["grid"]
    return GridSpec(float(g.get("u0", 0.0)), float(g.get("v0", 0.0)),
                    float(g["du"]), float(g["dv"]), int(g["nu"]), int(g["nv"]))


def _env_tol(args_tol):
    if args_tol is not None:
        return args_tol
    env = os.environ.get("NORMALFLAT_TOL")
    return float(env) if env else None


def _sample(spec: GridSpec, source, variables=("u", "v")):
    """Expression string, constant, or '@file.json:field' reference."""
    if isinstance(source, (int, float)):
        return FieldGrid.constant(spec, float(source))
    if isinstance(source, str) and source.startswith("@"):
        ref = source[1:]
        path, _, name = ref.partition(":")
        fields = load_fields(path)
        if name:
            return fields[name]
        if len(fields) != 1:
            raise UsageError(f"{path} holds several fields; use @{path}:name")
        return next(iter(fields.values()))
    fn = compile_expr(source, variables)
    U, V = spec.mesh()
    return FieldGrid(spec, np.broadcast_to(fn(u=U, v=V), spec.shape).copy())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    case = _case_from_args(args)
    coeffs = CoefficientSet.load(args.coeffs)
    res = gcr_residuals(coeffs, case)
    flat = normal_flatness_defect(coeffs)
    compat = compatibility_defect(coeffs, case)
    tol = _env_tol(args.tol)
    if tol is None:
        tol = default_tolerance(coeffs.spec, coeffs.max_abs())
    metrics = res.metrics()
    metrics["flatness"] = _metric(flat.values)
    metrics["compatibility"] = _metric(compat.values)
    worst = max(res.max_abs(), flat.max_abs())
    verdicts = {"tolerance": tol, "passed": bool(worst <= tol)}
    _report(args.out, case, coeffs.spec, metrics, verdicts)
    return 0 if verdicts["passed"] else 2


def _cmd_construct(args) -> int:
    with open(args.params) as fh:
        doc = json.load(fh)
    family = args.family or doc.get("family")
    case = CaseSpec(args.case or doc.get("case", "R"), float(doc.get("l0", args.l0 or 0.0)),
                    int(doc.get("eps", args.eps)), int(doc.get("delta", args.delta)))
    spec = _grid_from_doc(doc)
    p = doc.get("params", {})

    if family == "product":
        result = build_product_family(float(p.get("radius1", 1.0)),
                                      float(p.get("radius2", 1.0)), case, spec)
    elif family == "phi":
        xi = compile_expr(p["xi"], ("s",)) if "xi" in p else None
        xi_fn = (lambda x: xi(s=x)) if xi else None
        inp = PhiFamilyInput(
            lam=_sample(spec, p.get("lambda", 0.0)),
            phi=_sample(spec, p["phi"]),
            theta=_sample(spec, p["theta"]),
            xi=xi_fn)
        result = build_phi_family(inp, case)
    elif family == "light":
        prof = compile_expr(p.get("profile", "1"), ("u",))
        result = build_nt_light_family(
            spec, _sample(spec, p.get("gamma", 0.0)),
            lambda U: np.broadcast_to(prof(u=U), U.shape), case)
    elif family == "notld":
        xi = compile_expr(p["xi_tilde"], ("s",)) if "xi_tilde" in p else None
        pot = NotldPotentials(
            f_minus=_sample(spec, p["f_minus"]) if "f_minus" in p else None,
            angle=_sample(spec, p["angle"]) if "angle" in p else None,
            theta_minus=_sample(spec, p["theta_minus"]) if "theta_minus" in p else None,
            t_minus=_sample(spec, p["t_minus"]) if "t_minus" in p else None,
            sigma=_sample(spec, p["sigma"]) if "sigma" in p else None,
            xi_tilde=(lambda x: xi(s=x)) if xi else None,
            gamma0=float(p.get("gamma0", 0.0)),
            eps_prime=int(p.get("eps_prime", 1)),
            lam=_sample(spec, p["lambda"]) if "lambda" in p else None)
        if "f_re" in p:
            fre = _sample(spec, p["f_re"])
            fim = _sample(spec, p["f_im"])
            pot.f = FieldGrid(spec, fre.values + 1j * fim.values)
        result = build_notld_family(pot, case)
    else:
        raise UsageError(f"unknown family {family!r}")

    result.coeffs.save(args.out)
    cert_path = args.cert or (args.out + ".cert.json")
    with open(cert_path, "w") as fh:
        json.dump(result.certificate, fh, indent=2, sort_keys=True)
        fh.write("\n")
    metrics = {"residual_max": {"max": result.certificate["residual_max"],
                                "mean": result.certificate["residual_max"]}}
    _report(args.report, case, spec, metrics,
            {"family": family, "certificate_passed": result.certificate["passed"]})
    return 0 if result.certificate["passed"] else 2


def _cmd_integrate(args) -> int:
    case = _case_from_args(args)
    coeffs = CoefficientSet.load(args.coeffs)
    frame0 = None
    if args.frame0 and args.frame0 != "auto":
        with open(args.frame0) as fh:
            frame0 = np.asarray(json.load(fh)["frame0"], dtype=float)
    field, drift = integrate_frame(coeffs, case, frame0,
                                   project_quadric=args.project_quadric)
    save_mesh(args.out, field.mesh())
    if args.export_obj:
        export_mesh(field.mesh(), args.export_obj, "obj3d",
                    tuple(int(a) for a in args.obj_axes.split(",")))
    metrics = {k: {"max": v, "mean": v} for k, v in drift.items() if isinstance(v, float)}
    notes = [drift["compatibility_warning"]] if "compatibility_warning" in drift else []
    _report(args.report, case, coeffs.spec, metrics, {"frame0": drift["frame0"], "notes": notes})
    return 0


def _cmd_reconstruct(args) -> int:
    case = _case_from_args(args)
    mesh = load_mesh(args.mesh)
    coeffs, gauge = reconstruct_coefficients(mesh, case)
    coeffs.save(args.out)
    metrics = {"isothermality": {"max": gauge["isothermality_defect"],
                                 "mean": gauge["isothermality_defect"]}}
    _report(args.report, case, mesh.spec, metrics, {"gauge": gauge})
    return 0


def _cmd_detect(args) -> int:
    case = _case_from_args(args)
    coeffs = CoefficientSet.load(args.coeffs)
    tol = _env_tol(args.tol)
    rep = detect_parallel_normal(coeffs, case, args.variant, tol)
    metrics = {
        "dependence_defect": _metric(rep.ld.defect.values),
        "k_minus_l0": {"max": rep.k_equals_l0_defect, "mean": rep.k_equals_l0_defect},
        "gamma_angle_spread": {"max": rep.gamma_angle_defect, "mean": rep.gamma_angle_defect},
    }
    _report(args.out, case, coeffs.spec, metrics, rep.verdict_json())
    return 0


def _cmd_riccati(args) -> int:
    case = _case_from_args(args)
    spec = _parse_grid(args.grid)
    fminus = _sample(spec, args.fminus)
    xi = compile_expr(args.xi, ("s",)) if args.xi else None
    forms = build_forms(fminus, (lambda x: xi(s=x)) if xi else 0.0, case)
    verdict, norms = obstruction_verdict(forms)
    try:
        sol = solve_riccati(forms, args.t0, case)
    except (RiccatiBlowUpError, RangeConstraintError) as exc:
        _report(args.report, case, spec,
                {name: {"max": val, "mean": val} for name, val in norms.items()},
                {"obstruction": verdict, "error": str(exc)})
        print(f"riccati: {exc}", file=sys.stderr)
        return 2
    save_fields(args.out, {"t": sol.t})
    ru, rv = riccati_residual(forms, sol.t)
    metrics = {name: {"max": val, "mean": val} for name, val in norms.items()}
    metrics["residual_u"] = _metric(ru.values)
    metrics["residual_v"] = _metric(rv.values)
    metrics["path_defect"] = {"max": sol.path_defect, "mean": sol.path_defect}
    _report(args.report, case, spec, metrics,
            {"obstruction": verdict, "path_defect": sol.path_defect})
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="normalflat",
                description="flat-normal-connection surface toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_case(sp, with_l0=True):
        sp.add_argument("--case", required=True, choices=["R", "NS", "NT", "LS", "LT"])
        if with_l0:
            sp.add_argument("--l0", type=float, default=0.0)
        sp.add_argument("--eps", type=int, default=1, choices=[1, -1])
        sp.add_argument("--delta", type=int, default=1, choices=[1, -1])

    sp = sub.add_parser("verify", help="Gauss/Codazzi/Ricci residual check")
    sp.add_argument("--coeffs", required=True)
    add_case(sp)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out", help="JSON report path")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("construct", help="build a coefficient family")
    sp.add_argument("--family", choices=["product", "phi", "notld", "light"])
    sp.add_argument("--case", choices=["R", "NS", "NT", "LS", "LT"])
    sp.add_argument("--l0", type=float)
    sp.add_argument("--eps", type=int, default=1, choices=[1, -1])
    sp.add_argument("--delta", type=int, default=1, choices=[1, -1])
    sp.add_argument("--params", required=True, help="family descriptor JSON")
    sp.add_argument("--out", required=True, help="coefficient field file")
    sp.add_argument("--cert", help="certificate JSON path")
    sp.add_argument("--report", help="JSON report path")
    sp.set_defaults(fn=_cmd_construct)

    sp = sub.add_parser("integrate", help="integrate the moving frame")
    sp.add_argument("--coeffs", required=True)
    add_case(sp)
    sp.add_argument("--frame0", default="auto", help="'auto' or a JSON file")
    sp.add_argument("--out", required=True, help="mesh field file")
    sp.add_argument("--project-quadric", action="store_true")
    sp.add_argument("--export-obj", help="also write an OBJ projection")
    sp.add_argument("--obj-axes", default="0,1,2")
    sp.add_argument("--report", help="JSON report path")
    sp.set_defaults(fn=_cmd_integrate)

    sp = sub.add_parser("reconstruct", help="coefficients from a sampled mesh")
    sp.add_argument("--mesh", required=True)
    add_case(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report", help="JSON report path")
    sp.set_defaults(fn=_cmd_reconstruct)

    sp = sub.add_parser("detect", help="parallel normal vector field detector")
    sp.add_argument("--coeffs", required=True)
    add_case(sp)
    sp.add_argument("--variant", default="auto",
                    choices=["auto", "generic", "space", "time", "light"])
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out", help="JSON report path")
    sp.set_defaults(fn=_cmd_detect)

    sp = sub.add_parser("riccati", help="solve the quadratic angle system")
    sp.add_argument("--fminus", required=True, help="expression or @file[:field]")
    sp.add_argument("--xi", help="one-variable expression in s")
    add_case(sp)
    sp.add_argument("--t0", type=float, required=True)
    sp.add_argument("--grid", required=True, help="u0:v0:du:dv:nu:nv")
    sp.add_argument("--out", required=True, help="t field file")
    sp.add_argument("--report", help="JSON report path")
    sp.set_defaults(fn=_cmd_riccati)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # a non-finite intermediate fails the run instead of reaching a report
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.fn(args)
    except UsageError as exc:
        print(f"normalflat: {exc}", file=sys.stderr)
        return 1
    except (FamilyInputError, NonIntegrableError, FileNotFoundError,
            KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"normalflat: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, FloatingPointError) as exc:
        print(f"normalflat: floating-point failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
