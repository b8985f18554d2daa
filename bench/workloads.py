"""The benchmark's three workloads: seeded inputs, one pass, its checks.

A workload is one caller in a closed loop.  ``operations`` lists one
pass as named zero-argument calls, which the harness times one by one;
an exception raised by an operation is its result.  ``check`` then gates
every operation's result, outside the timed region, and returns the
failures and the accuracy figures.

The seed perturbs amplitudes and phases by a few parts in a thousand; it
never changes the expected outcome of an instance (a verdict, a
completed solve, a blow-up).  Library calls go through the module
objects (``integrator.integrate_frame``), so the tracer's wrappers see
them.
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path

import numpy as np

from normalflat import cli, families, frames, gcr, grid, integrator, riccati
from normalflat.spaceform import CaseSpec

# relative size of the seeded perturbations
JITTER = 0.005


class Gate:
    """NaN-strict checks of one operation: a NaN or an exception never passes."""

    def __init__(self):
        self.failures = []

    def le(self, what, value, limit):
        if not (value <= limit):
            self.failures.append(f"{what} = {value!r}, limit {limit!r}")

    def ge(self, what, value, limit):
        if not (value >= limit):
            self.failures.append(f"{what} = {value!r}, floor {limit!r}")

    def equal(self, what, value, expected):
        if value != expected:
            self.failures.append(f"{what} = {value!r}, expected {expected!r}")

    def ok(self, result):
        """False (and a failure recorded) when the operation raised."""
        if isinstance(result, BaseException):
            self.failures.append(f"raised {type(result).__name__}: {result}")
            return False
        return True


def _jitter(rng, base):
    return float(base * (1.0 + rng.uniform(-JITTER, JITTER)))


def roundtrip_ratio(coeffs, rec, case) -> float:
    """Worst gauge-invariant round-trip deviation over 10 h^2 (1 + scale)^2."""
    spec = coeffs.spec
    tol = 10 * spec.hmax**2 * (1.0 + coeffs.max_abs()) ** 2
    devs = [
        np.max(np.abs(rec.lam.values - coeffs.lam.values)),
        np.max(np.abs(gcr.curvature_minus_l0(rec, case).values
                      - gcr.curvature_minus_l0(coeffs, case).values)),
        gcr.normal_flatness_defect(rec).max_abs(),
        np.max(np.abs(gcr.dependence_minors(rec).values
                      - gcr.dependence_minors(coeffs).values)),
        np.max(np.abs(gcr.second_form_pseudo_norm(rec, case).values
                      - gcr.second_form_pseudo_norm(coeffs, case).values)),
    ]
    return float(max(devs)) / tol


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

class CliPipeline:
    """In-process ``normalflat.cli.main``: construct (notld, case R), verify,
    detect, integrate with OBJ export, reconstruct, riccati on a 256^2 grid,
    every field file in a scratch directory."""

    name = "cli-pipeline"
    N = 256

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.dir = Path(workdir)
        n = self.N
        h = 1.0 / (n - 1)
        grid_doc = {"u0": 0.0, "v0": 0.0, "du": h, "dv": h, "nu": n, "nv": n}
        params = {
            "family": "notld", "case": "R", "l0": 0.0, "grid": grid_doc,
            "params": {
                "f_minus": "u",
                "angle": _jitter(rng, 1.2),
                "theta_minus": f"0.5 + {_jitter(rng, 0.2)!r}*sin(u + {_jitter(rng, 0.05)!r})",
            },
        }
        with open(self.p("params.json"), "w") as fh:
            json.dump(params, fh)
        self.h = h
        self.riccati_grid = f"0.1:0.1:{h!r}:{h!r}:{n}:{n}"
        self.fminus = f"u + {_jitter(rng, 0.5)!r}*v*v"
        self.t0 = _jitter(rng, 0.1)

    def p(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def steps(self):
        p = self.p
        return [
            ("construct", ["construct", "--family", "notld", "--case", "R",
                           "--params", p("params.json"), "--out", p("coeffs.json"),
                           "--cert", p("cert.json"), "--report", p("construct.json")]),
            ("verify", ["verify", "--coeffs", p("coeffs.json"), "--case", "R",
                        "--out", p("verify.json")]),
            ("detect", ["detect", "--coeffs", p("coeffs.json"), "--case", "R",
                        "--out", p("detect.json")]),
            ("integrate", ["integrate", "--coeffs", p("coeffs.json"), "--case", "R",
                           "--out", p("mesh.json"), "--export-obj", p("mesh.obj"),
                           "--report", p("integrate.json")]),
            ("reconstruct", ["reconstruct", "--mesh", p("mesh.json"), "--case", "R",
                             "--out", p("rec.json"), "--report", p("reconstruct.json")]),
            ("riccati", ["riccati", "--fminus", self.fminus, "--case", "R",
                         "--t0", repr(self.t0), "--grid", self.riccati_grid,
                         "--out", p("t.json"), "--report", p("riccati.json")]),
        ]

    def operations(self):
        return [(name, partial(self._main, argv)) for name, argv in self.steps()]

    @staticmethod
    def _main(argv):
        return cli.main(argv)  # looked up per call, so a traced pass sees the wrapper

    def _doc(self, name):
        with open(self.p(name)) as fh:
            return json.load(fh)

    def check(self, results: dict):
        gates = {name: Gate() for name in results}
        figures = {}
        for name, rc in results.items():
            if gates[name].ok(rc):
                gates[name].equal("exit code", rc, 0)
        failed = {name for name, g in gates.items() if g.failures}

        if "construct" not in failed:
            gates["construct"].equal("certificate passed",
                                     self._doc("cert.json")["passed"], True)
        if "verify" not in failed:
            gates["verify"].equal("verify passed",
                                  self._doc("verify.json")["verdicts"]["passed"], True)
        if "detect" not in failed:
            v = self._doc("detect.json")["verdicts"]
            gates["detect"].equal("verdict", v["verdict"], "none")
            gates["detect"].equal("dependence satisfied", v["dependence_satisfied"], False)
            gates["detect"].equal("curvature regime", v["curvature_regime"], "equal")
        if "integrate" not in failed:
            m = self._doc("integrate.json")["metrics"]
            gates["integrate"].le("gram drift", m["gram_max"]["max"], 1e-10)
            with open(self.p("mesh.obj"), "rb") as fh:
                lines = fh.read().count(b"\n")
            n = self.N
            gates["integrate"].equal("OBJ lines", lines, n * n + (n - 1) ** 2)
        if "reconstruct" not in failed:
            case = CaseSpec("R", 0.0)
            ratio = roundtrip_ratio(frames.CoefficientSet.load(self.p("coeffs.json")),
                                    frames.CoefficientSet.load(self.p("rec.json")), case)
            gates["reconstruct"].le("round-trip ratio", ratio, 1.0)
            figures["roundtrip_ratio"] = ratio
        if "riccati" not in failed:
            # a non-integrable instance: the path-ordered solution is returned
            # with its swap defect, so only its range is gated
            m = self._doc("riccati.json")["metrics"]
            t = grid.load_fields(self.p("t.json"))["t"].values
            gates["riccati"].le("max |t|", float(np.max(np.abs(t))), 1e6)
            gates["riccati"].le("path defect", m["path_defect"]["max"], 1e6)
        if "roundtrip_ratio" in figures:
            figures["accuracy_ratio"] = figures["roundtrip_ratio"]
        # no stale output may stand in for a step that fails next pass
        for path in self.dir.iterdir():
            if path.name != "params.json":
                path.unlink()
        return {name: g.failures for name, g in gates.items()}, figures


# ---------------------------------------------------------------------------
# frame-roundtrip
# ---------------------------------------------------------------------------

def _torus_frame0(r):
    """Exact frame of r (cos u, sin u, cos v, sin v) at (0, 0)."""
    return r * np.array([
        [0.0, 0, 1, 0, 1],
        [1.0, 0, 0, 0, 0],
        [0.0, 0, 0, 1, 1],
        [0.0, 1, 0, 0, 0]])


class FrameRoundtrip:
    """``integrate_frame`` + ``reconstruct_coefficients`` on the notld sets
    R/NT/LS/LT at 160^2, the conformal sphere in the quadric model
    (R, L0 = 1) at 160^2 and the product torus at 512^2."""

    name = "frame-roundtrip"
    N = 160
    N_TORUS = 512

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        GridSpec, FieldGrid = grid.GridSpec, grid.FieldGrid
        NP = families.NotldPotentials
        spec = GridSpec.over_box((0, 1), (0, 1), self.N, self.N)
        U, V = spec.mesh()
        s2 = np.sqrt(2.0)
        self.inputs = {}  # name -> (case, coeffs, frame0)

        def notld(name, case, pot):
            res = families.build_notld_family(pot, case)
            if not res.certificate["passed"]:
                raise RuntimeError(f"{name}: input certificate failed")
            self.inputs[name] = (case, res.coeffs, None)

        notld("notld-R", CaseSpec("R", 0.0), NP(
            f_minus=FieldGrid(spec, U), angle=FieldGrid.constant(spec, _jitter(rng, 1.2)),
            theta_minus=FieldGrid(spec, 0.5 + _jitter(rng, 0.2) * np.sin(U + _jitter(rng, 0.05)))))
        notld("notld-NT", CaseSpec("NT", 0.0, eps=1), NP(
            f_minus=FieldGrid(spec, U), angle=FieldGrid.constant(spec, _jitter(rng, 0.7)),
            t_minus=FieldGrid(spec, 0.4 + _jitter(rng, 0.1) * np.cos(V + _jitter(rng, 0.05))),
            eps_prime=1))
        notld("notld-LS", CaseSpec("LS", 0.0), NP(
            f=FieldGrid(spec, _jitter(rng, 1.0) * ((1 + 1j) * U + (s2 - 1j / s2) * V)),
            sigma=FieldGrid.constant(spec, _jitter(rng, np.pi / 2))))
        notld("notld-LT", CaseSpec("LT", 0.0), NP(
            f=FieldGrid(spec, _jitter(rng, 1.0) * ((1 + 1j) * U + (s2 + 1j / s2) * V)),
            sigma=FieldGrid.constant(spec, _jitter(rng, np.pi / 2))))

        sphere_spec = GridSpec.over_box((-0.5, 0.5), (-0.5, 0.5), self.N, self.N)
        Us, Vs = sphere_spec.mesh()
        c1, c2 = rng.uniform(-JITTER, JITTER, size=2)
        lam = np.log(2.0 / (1.0 + (Us - c1) ** 2 + (Vs - c2) ** 2))
        self.inputs["sphere"] = (CaseSpec("R", 1.0),
                                 frames.CoefficientSet.from_arrays(sphere_spec, lam=lam), None)

        self.radius = _jitter(rng, 1.0)
        torus_spec = GridSpec.over_box((0, np.pi / 2), (0, np.pi / 2),
                                       self.N_TORUS, self.N_TORUS)
        torus = families.build_product_family(self.radius, self.radius,
                                              CaseSpec("R", 0.0), torus_spec).coeffs
        self.inputs["torus"] = (CaseSpec("R", 0.0), torus, _torus_frame0(self.radius))

    def operations(self):
        return [(name, partial(self._roundtrip, *inp)) for name, inp in self.inputs.items()]

    @staticmethod
    def _roundtrip(case, coeffs, frame0):
        field, drift = integrator.integrate_frame(coeffs, case, frame0)
        rec, gauge = integrator.reconstruct_coefficients(field.mesh(), case)
        return field, drift, rec, gauge

    def check(self, results: dict):
        gates = {name: Gate() for name in results}
        ratios = {}
        figures = {}
        for name, result in results.items():
            g = gates[name]
            if not g.ok(result):
                continue
            case, coeffs, _ = self.inputs[name]
            field, drift, rec, gauge = result
            g.le("gram drift", drift["gram_max"], 1e-6)
            g.le("isothermality defect", gauge["isothermality_defect"], 1e-2)
            ratios[name] = roundtrip_ratio(coeffs, rec, case)
            g.le("round-trip ratio", ratios[name], 1.0)
            if name == "sphere":
                figures["quadric_drift"] = drift["quadric_max"]
                g.le("quadric drift", drift["quadric_max"], 1e-6)
            if name == "torus":
                U, V = coeffs.spec.mesh()
                exact = self.radius * np.stack(
                    [np.cos(U), np.sin(U), np.cos(V), np.sin(V)], axis=-1)
                err = float(np.max(np.abs(field.column(4) - exact)))
                g.le("torus ambient error", err, 1e-6)
        if ratios:
            figures["roundtrip_ratio"] = max(ratios.values())
            figures["accuracy_ratio"] = figures["roundtrip_ratio"]
        return {name: g.failures for name, g in gates.items()}, figures


# ---------------------------------------------------------------------------
# verify-riccati
# ---------------------------------------------------------------------------

COEFF_ARGS = ("lam", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2")


class VerifyRiccati:
    """Checks on seeded smooth random sets in all five cases (L0 != 0) at
    384^2 plus the phi family; the angle system at 257^2 on an integrable
    instance, non-integrable NS and NT instances and an R blow-up."""

    name = "verify-riccati"
    N = 384
    N_RICCATI = 257

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        GridSpec, FieldGrid = grid.GridSpec, grid.FieldGrid
        spec = GridSpec.over_box((0, 1), (0, 1), self.N, self.N)
        U, V = spec.mesh()

        def smooth(amplitude=0.2):
            a = rng.uniform(-amplitude, amplitude, size=4)
            p = rng.uniform(0, 2 * np.pi, size=3)
            return (a[0] + a[1] * np.sin(U + p[0]) + a[2] * np.cos(V + p[1])
                    + a[3] * np.sin(U + V + p[2]))

        # alpha2 carries an offset of 1, so the Gauss quadratic keeps one sign:
        # K - L0 is nowhere zero and the detector's verdict is "none" for any seed
        self.random_sets = {}
        for cid, l0 in (("R", 1.5), ("NS", -1.5), ("NT", 1.5), ("LS", -1.5), ("LT", 1.5)):
            fields = {n: smooth() for n in COEFF_ARGS}
            fields["alpha2"] = fields["alpha2"] + 1.0
            self.random_sets[f"random-{cid}"] = (
                CaseSpec(cid, l0), frames.CoefficientSet.from_arrays(spec, **fields))

        self.phi_input = families.PhiFamilyInput(
            lam=FieldGrid.constant(spec, 0.0), phi=FieldGrid(spec, _jitter(rng, 1.0) * U),
            theta=FieldGrid.constant(spec, _jitter(rng, np.pi / 4)), xi=lambda s: s)

        rspec = GridSpec.over_box((0.1, 1.1), (0.1, 1.1), self.N_RICCATI, self.N_RICCATI)
        self.rspec = rspec
        Ur, Vr = rspec.mesh()
        a, b, c = _jitter(rng, 0.3), _jitter(rng, 0.2), _jitter(rng, 0.1)
        self.psi = a * Ur * Vr + b * Ur - c * Vr
        self.dpsi = (a * Vr + b, a * Ur - c)
        self.t0_integrable = _jitter(rng, 0.2)

        def potential(k):
            return FieldGrid(rspec, Ur + k * Vr**2)

        # (case, f_minus, xi, t0, expected outcome)
        self.angle_instances = {
            "angle-NS": (CaseSpec("NS", 0.0), potential(_jitter(rng, 0.5)),
                         _jitter(rng, 0.5), _jitter(rng, 0.1), "solved"),
            "angle-NT": (CaseSpec("NT", 0.0, eps=1), potential(_jitter(rng, 0.3)),
                         _jitter(rng, 0.5), _jitter(rng, 0.3), "solved"),
            "angle-R-blowup": (CaseSpec("R", 0.0), potential(_jitter(rng, 0.5)),
                               _jitter(rng, 1.0), _jitter(rng, 2.0), "blow-up"),
        }

    def operations(self):
        ops = [(name, partial(self._checks, *inp)) for name, inp in self.random_sets.items()]
        ops.append(("phi-family", self._phi))
        ops.append(("angle-integrable", self._integrable))
        ops += [(name, partial(self._angle, *inp[:4]))
                for name, inp in self.angle_instances.items()]
        return ops

    @staticmethod
    def _checks(case, coeffs):
        res = gcr.gcr_residuals(coeffs, case).max_abs()
        defect = frames.compatibility_defect(coeffs, case).max_abs()
        return res, defect, gcr.detect_parallel_normal(coeffs, case)

    def _phi(self):
        built = families.build_phi_family(self.phi_input, CaseSpec("R", 0.0))
        return built, gcr.detect_parallel_normal(built.coeffs, CaseSpec("R", 0.0))

    def _integrable(self):
        z = np.zeros(self.rspec.shape)
        forms = riccati.forms_from_vectors(self.rspec, self.dpsi, (z, z), self.dpsi)
        riccati.obstruction_verdict(forms)
        sol = riccati.solve_riccati(forms, self.t0_integrable)
        return sol, riccati.riccati_residual(forms, sol.t)

    @staticmethod
    def _angle(case, f, xi, t0):
        forms = riccati.build_forms(f, xi, case)
        riccati.obstruction_verdict(forms)
        sol = riccati.solve_riccati(forms, t0, case)
        return sol, riccati.riccati_residual(forms, sol.t)

    def check(self, results: dict):
        gates = {name: Gate() for name in results}
        figures = {}
        h2 = self.random_sets["random-R"][1].spec.hmax ** 2
        for name, (case, coeffs) in self.random_sets.items():
            g = gates[name]
            if not g.ok(results[name]):
                continue
            res, defect, rep = results[name]
            # the residuals and the defect measure one incompatibility two ways
            slack = h2 * (1.0 + coeffs.max_abs())
            g.le("defect / (residual + h^2 scale)", defect / (res + slack), 10.0)
            g.le("residual / (defect + h^2 scale)", res / (defect + slack), 10.0)
            g.equal("verdict", rep.verdict, "none")
            g.equal("curvature regime", rep.curvature_regime, "nowhere-equal")

        g = gates["phi-family"]
        if g.ok(results["phi-family"]):
            built, rep = results["phi-family"]
            g.equal("certificate passed", built.certificate["passed"], True)
            g.equal("verdict", rep.verdict, "none")
            g.equal("dependence satisfied", rep.ld.satisfied, True)
            g.ge("gamma + theta spread", rep.gamma_angle_defect, 0.5)

        g = gates["angle-integrable"]
        if g.ok(results["angle-integrable"]):
            sol, (ru, rv) = results["angle-integrable"]
            t = sol.t.values
            tol = 20 * self.rspec.hmax**2 * (1 + float(np.max(np.abs(t))) ** 2)
            ratio = max(ru.max_abs(), rv.max_abs()) / tol
            exact = np.tan(self.psi - self.psi[0, 0] + np.arctan(self.t0_integrable))
            g.le("Riccati residual / 20 h^2 scale", ratio, 1.0)
            g.le("error against tan(psi)", float(np.max(np.abs(t - exact))), 1e-6)
            g.le("path defect", sol.path_defect, 1e-8)
            figures["riccati_residual_ratio"] = ratio
            figures["accuracy_ratio"] = ratio

        for name, (case, _, _, _, expected) in self.angle_instances.items():
            g = gates[name]
            result = results[name]
            if expected == "blow-up":
                if isinstance(result, riccati.RiccatiBlowUpError):
                    g.le("blow-up v location", result.location[1], self.rspec.v_axis()[-1])
                else:
                    g.failures.append(f"expected RiccatiBlowUpError, got {result!r:.200}")
                continue
            if not g.ok(result):
                continue
            sol, (ru, rv) = result
            g.le("max |t|", float(np.max(np.abs(sol.t.values))), 1.0 if case.case_id == "NT" else 1e6)
            g.le("path defect", sol.path_defect, 1e6)
            g.le("residual", max(ru.max_abs(), rv.max_abs()), 1e6)
        return {name: g.failures for name, g in gates.items()}, figures


WORKLOADS = {w.name: w for w in (CliPipeline, FrameRoundtrip, VerifyRiccati)}
