import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normalflat import CaseSpec, ambient_inner, ambient_signature, quadric_defect
from normalflat.spaceform import CASES


def test_case_spec_validation():
    with pytest.raises(ValueError):
        CaseSpec("Q", 0.0)
    with pytest.raises(ValueError):
        CaseSpec("R", 0.0, eps=2)
    spec = CaseSpec.from_json({"case": "NT", "l0": -1.0, "eps": -1, "delta": 1})
    assert spec.case_id == "NT" and spec.l0 == -1.0 and spec.eps == -1
    assert CaseSpec.from_json(spec.to_json()) == spec
    assert CaseSpec.from_json({"case": "LS", "l0": 2, "eps": 1.0}).to_json() == {
        "case": "LS", "l0": 2.0, "eps": 1, "delta": 1}
    for doc, entry in (([], "a case must be a JSON object"), ({"case": "R", "l0": "0"}, "'l0'"),
                       ({"case": "R", "l0": True}, "'l0'"), ({"case": "R", "eps": 1.5}, "'eps'"),
                       ({"case": "R", "delta": True}, "'delta'"), ({"l0": 0.0}, "unknown case")):
        with pytest.raises(ValueError, match=entry):
            CaseSpec.from_json(doc)


def test_case_has_only_its_branch_signs():
    # eps picks a branch of NT alone, delta the sign of the hyperbolic
    # rotation of NT and LT; any other -1 is refused, naming its entry
    accepted = set()
    for case_id in CASES:
        for eps in (1, -1):
            for delta in (1, -1):
                try:
                    CaseSpec(case_id, 0.0, eps, delta)
                except ValueError as exc:
                    key = "eps" if eps == -1 and case_id != "NT" else "delta"
                    assert str(exc) == f"case entry {key!r} must be 1 in case {case_id}, got -1"
                else:
                    accepted.add((case_id, eps, delta))
    assert accepted == {("R", 1, 1), ("NS", 1, 1), ("LS", 1, 1), ("LT", 1, 1), ("LT", 1, -1),
                        ("NT", 1, 1), ("NT", 1, -1), ("NT", -1, 1), ("NT", -1, -1)}


@pytest.mark.parametrize("case_id,l0,dim,signs", [
    ("R", 1.0, 5, (1, 1, 1, 1, 1)),
    ("R", 0.0, 4, (1, 1, 1, 1)),
    ("R", -1.0, 5, (1, 1, 1, 1, -1)),
    ("NS", 0.0, 4, (1, 1, -1, -1)),
    ("NT", 0.0, 4, (1, 1, -1, -1)),
    ("NS", 2.0, 5, (1, 1, 1, -1, -1)),
    ("NT", -0.5, 5, (1, 1, -1, -1, -1)),
    ("LS", 0.0, 4, (1, 1, 1, -1)),
    ("LT", 0.0, 4, (1, 1, 1, -1)),
    ("LS", 1.0, 5, (1, 1, 1, 1, -1)),
    ("LT", -1.0, 5, (1, 1, 1, -1, -1)),
])
def test_ambient_signature_table(case_id, l0, dim, signs):
    sig = ambient_signature(CaseSpec(case_id, l0))
    assert sig.dim == dim
    assert sig.signs == signs


def test_case_sign_table():
    cases = {c: CaseSpec(c) for c in ("R", "NS", "NT", "LS", "LT")}
    assert cases["R"].g_signs == (1, 1) and cases["R"].n_signs == (1, 1)
    assert cases["NS"].n_signs == (-1, -1)
    assert cases["NT"].g_signs == (1, -1) and cases["NT"].n_signs == (1, -1)
    assert cases["LS"].g_signs == (1, 1) and cases["LS"].n_signs == (1, -1)
    assert cases["LT"].g_signs == (1, -1) and cases["LT"].n_signs == (1, 1)
    # the angle pipelines' selectors: Lorentzian tangent plane, Lorentzian ambient
    assert [c for c in cases if cases[c].kappa == -1] == ["NT", "LT"]
    assert [c for c in cases if cases[c].parity == -1] == ["LS", "LT"]


def test_ambient_inner_examples():
    sig = ambient_signature(CaseSpec("R", 0.0))
    e1 = np.array([1.0, 0, 0, 0])
    assert ambient_inner(e1, e1, sig) == 1.0

    sig_n = ambient_signature(CaseSpec("NT", 0.0))
    e3 = np.array([0.0, 0, 1, 0])
    assert ambient_inner(e3, e3, sig_n) == -1.0

    sig_l = ambient_signature(CaseSpec("LS", 0.0))
    null = np.array([1.0, 0, 0, 1])
    assert ambient_inner(null, null, sig_l) == 0.0


def test_ambient_inner_shape_error():
    sig = ambient_signature(CaseSpec("R", 0.0))
    with pytest.raises(ValueError):
        ambient_inner(np.ones(5), np.ones(5), sig)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4),
       st.lists(st.floats(-10, 10), min_size=8, max_size=8),
       st.floats(-3, 3), st.floats(-3, 3))
def test_ambient_inner_symmetric_bilinear(case_idx, coords, a, b):
    case = CaseSpec(["R", "NS", "NT", "LS", "LT"][case_idx], 0.0)
    sig = ambient_signature(case)
    x = np.array(coords[:4])
    y = np.array(coords[4:])
    assert ambient_inner(x, y, sig) == pytest.approx(ambient_inner(y, x, sig), abs=1e-9)
    lhs = ambient_inner(a * x + b * y, y, sig)
    rhs = a * ambient_inner(x, y, sig) + b * ambient_inner(y, y, sig)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_quadric_defect():
    case = CaseSpec("R", 1.0)
    e1 = np.array([1.0, 0, 0, 0, 0])
    assert quadric_defect(e1, case) == 0.0
    assert quadric_defect(2 * e1, case) == 3.0

    case_neg = CaseSpec("R", -1.0)
    e5 = np.array([0.0, 0, 0, 0, 1.0])  # time-like axis of the L0 < 0 model
    assert quadric_defect(e5, case_neg) == 0.0

    with pytest.raises(ValueError):
        quadric_defect(e1, CaseSpec("R", 0.0))
