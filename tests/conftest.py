import json

import numpy as np
import pytest

from normalflat import CaseSpec, CoefficientSet, FieldGrid, GridSpec, load_fields


@pytest.fixture
def unit_spec():
    return GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 33, 33)


@pytest.fixture
def case_r():
    return CaseSpec("R", 0.0)


@pytest.fixture
def flat_torus(unit_spec):
    """Product of two unit circles: lambda = 0, alpha1 = beta3 = -1."""
    return CoefficientSet.from_arrays(unit_spec, alpha1=-1.0, beta3=-1.0)


@pytest.fixture
def sphere_hyperplane():
    """Round sphere in a hyperplane E^3 of E^4: beta = mu = 0, K = 1."""
    spec = GridSpec.over_box((0.0, 1.0), (0.0, 1.0), 33, 33)
    U, V = spec.mesh()
    lam = np.log(2.0 / (1.0 + U**2 + V**2))
    el = np.exp(lam)
    return CoefficientSet.from_arrays(spec, lam=lam, alpha1=el, alpha3=el)


def random_smooth_field(rng, spec, amplitude=0.4):
    """Low-frequency trigonometric field with bounded amplitude."""
    U, V = spec.mesh()
    a = rng.uniform(-amplitude, amplitude, size=4)
    p = rng.uniform(0, 2 * np.pi, size=3)
    vals = (a[0] + a[1] * np.sin(U + p[0]) + a[2] * np.cos(V + p[1])
            + a[3] * np.sin(U + V + p[2]))
    return FieldGrid(spec, vals)


def random_coefficients(rng, spec, amplitude=0.4):
    names = ["lam", "alpha1", "alpha2", "alpha3", "beta1", "beta2", "beta3", "mu1", "mu2"]
    return CoefficientSet.from_arrays(
        spec, **{n: random_smooth_field(rng, spec, amplitude).values for n in names})


def text_document(path) -> dict:
    """The field file at path as a text-encoded document (no "encoding" key,
    each field a flat list of doubles, complex ones interleaved [re, im, ...]),
    for tests that edit a field file as lists."""
    with open(path) as fh:
        doc = json.load(fh)
    del doc["encoding"]
    dtype = complex if doc["kind"] == "complex" else float
    doc["fields"] = {name: f.values.astype(dtype).view(float).ravel().tolist()
                     for name, f in load_fields(path).items()}
    return doc
