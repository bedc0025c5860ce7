"""Shared linear-algebra helpers.

Internal module: thin wrappers around LAPACK that expose exactly what the
rest of the package needs: the one banded LU (solves and determinant signs
from its pivots, with the one singularity criterion), smallest singular
pairs, orthonormal complements and polar orthonormalization.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import NumericallySingular, SingularJacobian

# Relative pivot threshold below which a factorization is reported singular.
PIVOT_RTOL = 1e-12


def smallest_singular_pair(j: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Return (smin, right singular vector of smin, smax) of a dense matrix."""
    _, s, vt = np.linalg.svd(np.asarray(j, dtype=float))
    return float(s[-1]), vt[-1].copy(), float(s[0])


def orth_complement(q: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(q).

    q is d x k with orthonormal columns; returns d x (d-k).
    """
    q = np.asarray(q, dtype=float)
    d, k = q.shape
    if k == 0:
        return np.eye(d)
    if k == d:
        return np.zeros((d, 0))
    # Full SVD of q: the trailing left singular vectors span the complement.
    u, _, _ = np.linalg.svd(q, full_matrices=True)
    return u[:, k:].copy()


def polar_orthonormalize(b: np.ndarray) -> np.ndarray:
    """Closest orthonormal frame to b (polar factor via SVD).

    Unlike QR this is continuous in b and does not introduce arbitrary
    column sign flips, which the frame-transport determinant bookkeeping
    relies on.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[1] == 0:
        return b.copy()
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    if s[-1] <= 1e-13 * max(1.0, s[0]):
        raise NumericallySingular("frame lost rank during orthonormalization")
    return u @ vt


class BandedLU:
    """LU factorization of a banded matrix via LAPACK gbtrf/gbtrs.

    The matrix is supplied in the LAPACK band layout with kl extra rows of
    workspace on top: ab[kl + ku + i - j, j] = A[i, j].  The 1-norm of A is
    taken from the band before factoring; a pivot below PIVOT_RTOL times it
    is the package's one criterion for a numerically singular matrix.
    """

    def __init__(self, ab: np.ndarray, kl: int, ku: int):
        self.norm_1 = float(np.max(np.sum(np.abs(ab[kl:]), axis=0)))
        lu, ipiv, info = lapack.dgbtrf(ab, kl=kl, ku=ku)
        if info < 0:
            raise ValueError(f"dgbtrf: illegal argument {-info}")
        self._lu = lu
        self._ipiv = ipiv
        self.kl = kl
        self.ku = ku
        self.n = ab.shape[1]
        self.exact_singular = info > 0
        # U diagonal lives in row kl + ku of the factored band storage.
        self._udiag = lu[kl + ku]

    def det_sign(self) -> int:
        """Pivot signs times the row-interchange parity; raises
        NumericallySingular when a pivot falls below PIVOT_RTOL * ||A||_1."""
        if self.exact_singular or np.min(np.abs(self._udiag)) < PIVOT_RTOL * self.norm_1:
            raise NumericallySingular(
                f"LU pivot below {PIVOT_RTOL:.0e} * ||A||_1 = {PIVOT_RTOL * self.norm_1:.3e}"
            )
        # scipy returns the gbtrf pivot indices 0-based.
        swaps = int(np.sum(self._ipiv != np.arange(self.n)))
        sign = 1 if swaps % 2 == 0 else -1
        sign *= int(np.prod(np.sign(self._udiag)))
        return sign

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.exact_singular:
            raise SingularJacobian("banded LU is exactly singular")
        x, info = lapack.dgbtrs(self._lu, self.kl, self.ku, b, self._ipiv)
        if info != 0:
            raise SingularJacobian(f"dgbtrs failed with info={info}")
        return x
