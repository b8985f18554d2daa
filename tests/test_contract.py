"""The public contract, pinned: each module's ``__all__`` and the CLI's
subcommands and flags.  A change to any of them is a deliberate edit of
this file, not a side effect of a refactor."""

import argparse
import importlib

import pytest

from normalflat.cli import _build_parser

ALL = {
    "normalflat": [
        "__version__",
        "GridSpec", "FieldGrid", "diff_u", "diff_v", "field_map",
        "save_fields", "load_fields",
        "CaseSpec", "ambient_signature", "ambient_inner", "quadric_defect",
        "CoefficientSet", "assemble_connection", "compatibility_defect",
        "gauss_residual", "ricci_residual", "gcr_residuals",
        "normal_flatness_defect", "gamma_potential",
        "dependence_report", "detect_parallel_normal",
        "build_forms", "solve_riccati", "obstruction_verdict",
        "integrate_frame", "reconstruct_coefficients",
    ],
    "normalflat.expressions": ["compile_expr", "ParseError", "EvalError"],
    "normalflat.families": [
        "PhiFamilyInput", "NotldPotentials", "FamilyResult",
        "build_product_family", "build_phi_family", "build_nt_light_family",
        "build_notld_family", "angle_link", "rotation_angle",
    ],
    "normalflat.frames": ["CoefficientSet", "assemble_connection", "compatibility_defect"],
    "normalflat.gcr": [
        "GcrResiduals", "DependenceReport", "ParallelNormalReport",
        "gauss_residual", "codazzi_residual", "ricci_residual", "gcr_residuals",
        "normal_flatness_defect", "curvature_minus_l0", "gamma_potential",
        "integrate_gradient", "dependence_report", "detect_parallel_normal",
        "second_form_pseudo_norm",
    ],
    "normalflat.grid": [
        "GridSpec", "FieldGrid", "diff_u", "diff_v", "grad", "hessian",
        "second_derivatives", "curl", "wedge", "field_map", "save_fields", "load_fields",
    ],
    "normalflat.integrator": [
        "FrameField", "SurfaceMesh", "canonical_frame0", "integrate_frame",
        "reconstruct_coefficients", "export_mesh", "load_mesh", "save_mesh",
    ],
    "normalflat.riccati": [
        "OneForm", "RiccatiForms", "build_forms", "solve_riccati", "obstruction_verdict",
        "riccati_residual", "RiccatiBlowUpError", "RangeConstraintError",
    ],
    "normalflat.spaceform": [
        "CASES", "CaseSpec", "AmbientSignature", "ambient_signature", "ambient_inner",
        "quadric_defect",
    ],
}

CASE = ["--case", "--l0"]
FLAGS = {
    "verify": CASE + ["--coeffs", "--tol", "--out"],
    "construct": CASE + ["--eps", "--delta", "--family", "--params", "--out", "--cert",
                         "--report"],
    "integrate": CASE + ["--coeffs", "--frame0", "--out", "--report", "--export-obj",
                         "--obj-axes"],
    "reconstruct": CASE + ["--mesh", "--out", "--report"],
    "detect": CASE + ["--coeffs", "--tol", "--out"],
    "riccati": ["--case", "--eps", "--delta", "--grid", "--fminus", "--xi", "--t0", "--out",
                "--report"],
}


@pytest.mark.parametrize("module", sorted(ALL))
def test_all_is_pinned_and_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__ == ALL[module]
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ lists {name!r}, which it lacks"


def test_cli_subcommands_and_flags():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(FLAGS)
    for name, sp in sub.choices.items():
        flags = {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == set(FLAGS[name]), name
