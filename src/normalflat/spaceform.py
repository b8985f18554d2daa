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

The sign table ``_METRIC`` is the single source of every per-case sign:
(g1, g2) are the signs of <T_i, T_i>, (n1, n2) those of <N_i, N_i>.  With
k = g1 g2, p = n1 n2, q = L0 e^{2 lambda}, l = lambda, a = alpha, b = beta:

* S (frames): S02 = -g1 n1 a1, S03 = -g1 n2 b1, S12 = -g2 n1 a2, S13 = -g2 n2 b2,
  S10 = -k l_v, S23 = -p mu1, S40 = -g1 q; T the same with the a, b, mu
  indices raised by one, T01 = -k l_u, T41 = -g2 q;
* Gauss (gcr): l_uu + k l_vv + q = -k n1 (a1 a3 - a2^2) - k n2 (b1 b3 - b2^2);
* Codazzi: a1_v - a2_u = a2 l_u + k a3 l_v - p b2 mu1 + p b1 mu2,
  a2_v - a3_u = -k a1 l_u - a2 l_v - p b3 mu1 + p b2 mu2,
  b1_v - b2_u = b2 l_u + k b3 l_v + a2 mu1 - a1 mu2,
  b2_v - b3_u = -k b1 l_u - b2 l_v + a3 mu1 - a2 mu2;
* Ricci: mu1_v - mu2_u = n1 (a1 b2 - a2 b1 + k (a2 b3 - a3 b2));
* frame Gram target diag(g1, g2, n1, n2) e^{2 lambda}; the flat model has
  one minus sign per -1 among (g1, g2, n1, n2).

For curvature L0 = 0 the model is the flat 4-space of the matching
signature; for L0 != 0 it is the quadric <x, x> = 1/L0 inside a flat
5-space.  Flat-space sign patterns are (+,...,+,-,...,-) with the minus
signs trailing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CASES",
    "CaseSpec",
    "AmbientSignature",
    "MetricConventions",
    "metric_conventions",
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

    eps is the +-1 branch of the time-like/neutral pipelines (and the
    light-like dependence sign); delta the +-1 of the hyperbolic rotation.
    """

    case_id: str
    l0: float = 0.0
    eps: int = 1
    delta: int = 1

    def __post_init__(self):
        if self.case_id not in CASES:
            raise ValueError(f"unknown case {self.case_id!r}, expected one of {CASES}")
        if self.eps not in (1, -1) or self.delta not in (1, -1):
            raise ValueError("eps and delta must be +1 or -1")
        if not np.isfinite(self.l0):
            raise ValueError("l0 must be finite")

    def to_json(self) -> dict:
        return {"case": self.case_id, "l0": self.l0, "eps": self.eps, "delta": self.delta}

    @classmethod
    def from_json(cls, doc: dict) -> "CaseSpec":
        return cls(doc["case"], float(doc.get("l0", 0.0)),
                   int(doc.get("eps", 1)), int(doc.get("delta", 1)))


@dataclass(frozen=True)
class AmbientSignature:
    dim: int
    signs: tuple

    def array(self) -> np.ndarray:
        return np.asarray(self.signs, dtype=float)


@dataclass(frozen=True)
class MetricConventions:
    """Signs of <T_i, T_i> and <N_i, N_i> relative to e^{2*lambda}."""

    g_signs: tuple
    n_signs: tuple

    @property
    def frame_signs(self) -> tuple:
        """Signs of the Gram diagonal of (T1, T2, N1, N2)."""
        return (*self.g_signs, *self.n_signs)


def metric_conventions(case: CaseSpec | str) -> MetricConventions:
    cid = case if isinstance(case, str) else case.case_id
    g, n = _METRIC[cid]
    return MetricConventions(g, n)


def ambient_signature(case: CaseSpec) -> AmbientSignature:
    """Model space of the case: dimension and metric sign pattern."""
    k = metric_conventions(case).frame_signs.count(-1)
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
    return np.sum(sig.array() * x * y, axis=-1)


def quadric_defect(point, case: CaseSpec):
    """<x, x> - 1/L0 for the curved models; rejects L0 = 0."""
    if case.l0 == 0:
        raise ValueError("flat model (L0 = 0) has no quadric constraint")
    sig = ambient_signature(case)
    return ambient_inner(point, point, sig) - 1.0 / case.l0
