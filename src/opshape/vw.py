"""Axial (sign-blind) dispersion comparator on the quotient of antipodes.

Each axis x is embedded as the rank-one projector x x' / ||x||^2; the sample
mean J of these projectors is symmetric, positive semidefinite, with unit
trace. The comparator dispersion is 2 * (1 - lambda_1(J)); for tightly
concentrated samples it approaches twice the oriented dispersion index, and
unlike the oriented index it cannot see mirror (antipodal) disagreement.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DegeneratePoint, EmptySample, FocalWarning
from .geometry import canonical_axis, _freeze

# off-diagonal Frobenius target for the Jacobi sweep, relative to ||J||_F
JACOBI_RTOL = 1e-13
_JACOBI_MAX_SWEEPS = 60
# eigengap below this makes the leading axis unstable
EIGENGAP_TOL = 1e-10


def vw_mean(axes) -> np.ndarray:
    """Mean projector of n axes, shape (d, d); symmetric PSD with trace 1."""
    arr = np.asarray(axes, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise EmptySample("need a nonempty (n, d) array of axes")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms <= 1e-12):
        raise DegeneratePoint("cannot embed a zero axis")
    unit = arr / norms[:, None]
    return unit.T @ unit / arr.shape[0]


def jacobi_eigh(matrix, rtol: float = JACOBI_RTOL) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate away each off-diagonal entry in turn until the
    off-diagonal Frobenius norm falls to rtol * ||input||_F.

    Returns:
        (values, vectors): eigenvalues descending, vectors in columns.
    """
    a = np.array(matrix, dtype=np.float64)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + float(np.abs(a).max(initial=0.0)))):
        raise ValueError("matrix must be symmetric")
    a = (a + a.T) / 2.0
    fnorm = float(np.linalg.norm(a))
    v = np.eye(d)
    if fnorm == 0.0 or d == 1:
        return np.diag(a).copy(), v

    off_mask = ~np.eye(d, dtype=bool)
    for _ in range(_JACOBI_MAX_SWEEPS):
        # norm of the off-diagonal part taken entrywise; the subtraction
        # ||A||_F^2 - sum(diag^2) cannot resolve it near convergence
        off = float(np.linalg.norm(a[off_mask]))
        if off <= rtol * fnorm:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= (rtol * fnorm) / (d * d):
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                for k in range(d):
                    if k == p or k == q:
                        continue
                    akp, akq = a[k, p], a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[p, k] = a[k, p]
                    a[k, q] = s * akp + c * akq
                    a[q, k] = a[k, q]
                vk_p = v[:, p].copy()
                vk_q = v[:, q].copy()
                v[:, p] = c * vk_p - s * vk_q
                v[:, q] = s * vk_p + c * vk_q

    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order].copy(), v[:, order]


def top_eigenpair(matrix) -> Tuple[float, np.ndarray, float]:
    """Leading eigenvalue, its axis (canonical sign), and the eigengap.

    Warns with FocalWarning when the gap is below EIGENGAP_TOL: the value
    is still well defined, but the reported axis is an arbitrary member of
    the leading eigenspace.
    """
    values, vectors = jacobi_eigh(matrix)
    gap = float(values[0] - values[1]) if values.size > 1 else math.inf
    if gap < EIGENGAP_TOL:
        warnings.warn(
            f"leading eigenvalues nearly tied (gap={gap:.3e}); "
            "the top axis is unstable",
            FocalWarning,
            stacklevel=2,
        )
    return float(values[0]), canonical_axis(vectors[:, 0]), gap


@dataclass(frozen=True)
class VwSummary:
    """Axial comparator summary for one block of axes."""

    n: int
    mean_matrix: np.ndarray
    top_eigenvalue: float
    top_axis: np.ndarray
    eigengap: float
    total_variance: float
    focal: bool

    def __post_init__(self):
        object.__setattr__(self, "mean_matrix", _freeze(self.mean_matrix))
        object.__setattr__(self, "top_axis", _freeze(self.top_axis))


def total_variance_ps(axes) -> VwSummary:
    """Axial dispersion 2 * (1 - lambda_1) of a block of axes.

    Warns with FocalWarning (and flags the summary) when the top two
    eigenvalues are within EIGENGAP_TOL, in which case the reported axis is
    an arbitrary member of the leading eigenspace.
    """
    arr = np.asarray(axes, dtype=np.float64)
    j = vw_mean(arr)
    lam1, axis, gap = top_eigenpair(j)  # warns on a near-tied spectrum
    focal = gap < EIGENGAP_TOL
    return VwSummary(
        n=arr.shape[0],
        mean_matrix=j,
        top_eigenvalue=lam1,
        top_axis=axis,
        eigengap=gap,
        total_variance=max(2.0 * (1.0 - lam1), 0.0),
        focal=focal,
    )
