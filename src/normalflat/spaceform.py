"""Signature bookkeeping for the five ambient/surface cases.

A case is one of:

====  ========================  ==============  =====================
id    ambient space form        surface type    normal normalizations
====  ========================  ==============  =====================
R     Riemannian                space-like      <N1,N1> = <N2,N2> = +e^{2L}
NS    neutral (2,2)             space-like      <N1,N1> = <N2,N2> = -e^{2L}
NT    neutral (2,2)             time-like       <N1,N1> = -<N2,N2> = +e^{2L}
LS    Lorentzian                space-like      <N1,N1> = -<N2,N2> = +e^{2L}
LT    Lorentzian                time-like       <N1,N1> = <N2,N2> = +e^{2L}
====  ========================  ==============  =====================

The sign table ``_METRIC`` is the single source of every per-case sign,
and :class:`CaseSpec` carries them: ``g_signs`` (g1, g2) are the signs of
<T_i, T_i>, ``n_signs`` (n1, n2) those of <N_i, N_i>, ``kappa`` is k and
``parity`` k p.  With k = g1 g2, p = n1 n2, q = L0 e^{2 lambda}, l =
lambda, a = alpha, b = beta:

* S (frames): S02 = -g1 n1 a1, S03 = -g1 n2 b1, S12 = -g2 n1 a2, S13 = -g2 n2 b2,
  S10 = -k l_v, S23 = -p mu1, S40 = -g1 q; T the same with the a, b, mu
  indices raised by one, T01 = -k l_u, T41 = -g2 q;
* Gauss, Codazzi and Ricci: written once, in ``frames.gcr_equations``
  (the Gauss line alone: ``frames.gauss_equation``).  ``gcr``'s residuals
  and the compatibility defect's six middle terms are that function fed
  different lambda derivatives: the grid's second-order ones, or the
  frame connection's fourth-order gradient and its ``grad``;
* frame Gram target diag(g1, g2, n1, n2) e^{2 lambda}; the flat model has
  one minus sign per -1 among (g1, g2, n1, n2);
* angle pipelines (families, riccati): the parity k p = -1 takes the
  complex potential; otherwise one real pipeline, inside which k picks
  the trigonometric (+1) or hyperbolic (-1) rotation.

For curvature L0 = 0 the model is the flat 4-space of the matching
signature; for L0 != 0 it is the quadric <x, x> = 1/L0 inside a flat
5-space.  Flat-space sign patterns are (+,...,+,-,...,-) with the minus
signs trailing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grid import _float

__all__ = [
    "CASES",
    "CaseSpec",
    "AmbientSignature",
    "ambient_signature",
    "ambient_inner",
    "quadric_defect",
]

CASES = ("R", "NS", "NT", "LS", "LT")

_METRIC = {
    #        g-signs    n-signs
    "R": ((1, 1), (1, 1)),
    "NS": ((1, 1), (-1, -1)),
    "NT": ((1, -1), (1, -1)),
    "LS": ((1, 1), (1, -1)),
    "LT": ((1, -1), (1, 1)),
}


@dataclass(frozen=True)
class CaseSpec:
    """Which signature case is active, plus branch switches.

    eps: +-1 branch of the NT constructions and angle system (the detector
    fits a set's light-like sign itself); delta: +-1 of the hyperbolic
    rotation of NT and LT.  Every other case takes 1 for both.
    """

    case_id: str
    l0: float = 0.0
    eps: int = 1
    delta: int = 1

    def __post_init__(self):
        if self.case_id not in CASES:
            raise ValueError(f"unknown case {self.case_id!r}, expected one of {CASES}")
        for key, branch in (("eps", self.case_id == "NT"), ("delta", self.kappa < 0)):
            if getattr(self, key) not in ((1, -1) if branch else (1,)):
                raise ValueError(f"case entry {key!r} must be 1{' or -1' if branch else ''} in "
                                 f"case {self.case_id}, got {getattr(self, key)!r}")
        if not np.isfinite(self.l0):
            raise ValueError("l0 must be finite")

    def to_json(self) -> dict:
        return {"case": self.case_id, "l0": self.l0, "eps": self.eps, "delta": self.delta}

    @classmethod
    def from_json(cls, doc) -> "CaseSpec":
        """The case of a JSON object {case, l0, eps, delta}, l0 0 and the signs
        +1 by default; a ValueError names the first malformed entry."""
        if not isinstance(doc, dict):
            raise ValueError(f"a case must be a JSON object, got {json.dumps(doc)}")
        l0 = _float(doc.get("l0", 0.0), "case entry 'l0'")
        eps, delta = doc.get("eps", 1), doc.get("delta", 1)
        for key, x in (("eps", eps), ("delta", delta)):
            if isinstance(x, bool) or x not in (1, -1):
                raise ValueError(f"case entry {key!r} must be 1 or -1, got {json.dumps(x)}")
        return cls(doc.get("case"), l0, int(eps), int(delta))

    @property
    def g_signs(self) -> tuple:
        """Signs of <T1, T1> and <T2, T2> relative to e^{2 lambda}."""
        return _METRIC[self.case_id][0]

    @property
    def n_signs(self) -> tuple:
        """Signs of <N1, N1> and <N2, N2> relative to e^{2 lambda}."""
        return _METRIC[self.case_id][1]

    @property
    def frame_signs(self) -> tuple:
        """Signs of the Gram diagonal of (T1, T2, N1, N2)."""
        return (*self.g_signs, *self.n_signs)

    @property
    def kappa(self) -> int:
        """g1 g2: -1 exactly for a Lorentzian tangent plane (NT, LT)."""
        return self.g_signs[0] * self.g_signs[1]

    @property
    def parity(self) -> int:
        """g1 g2 n1 n2: -1 exactly for a Lorentzian ambient space (LS, LT)."""
        return self.kappa * self.n_signs[0] * self.n_signs[1]


@dataclass(frozen=True)
class AmbientSignature:
    dim: int
    signs: tuple

    def array(self) -> np.ndarray:
        return np.asarray(self.signs, dtype=float)


def ambient_signature(case: CaseSpec) -> AmbientSignature:
    """Model space of the case: dimension and metric sign pattern."""
    k = case.frame_signs.count(-1)
    if case.l0 == 0:
        dim = 4
    else:
        dim = 5
        if case.l0 < 0:
            k += 1
    signs = (1,) * (dim - k) + (-1,) * k
    return AmbientSignature(dim, signs)


def ambient_inner(x, y, sig: AmbientSignature):
    """Indefinite inner product sum_i signs[i] * x[i] * y[i].

    Accepts single vectors or arrays whose last axis has length sig.dim;
    broadcasting applies over the leading axes.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[-1] != sig.dim or y.shape[-1] != sig.dim:
        raise ValueError(f"vectors must have length {sig.dim}")
    return np.einsum("...a,a,...a->...", x, sig.array(), y)


def quadric_defect(point, case: CaseSpec):
    """<x, x> - 1/L0 for the curved models; rejects L0 = 0."""
    if case.l0 == 0:
        raise ValueError("flat model (L0 = 0) has no quadric constraint")
    sig = ambient_signature(case)
    return ambient_inner(point, point, sig) - 1.0 / case.l0
