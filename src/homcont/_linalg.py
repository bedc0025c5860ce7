"""Frame-size linear-algebra helpers.

Internal module: orthonormal complements and polar orthonormalization of
the small d x k frames that splittings and transport pass around.  Every
window-matrix question (the banded LU, its determinant sign and singularity
criterion, the singular values) lives in truncation.
"""
from __future__ import annotations

import numpy as np

from .errors import RankDrop


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
        raise RankDrop("frame lost rank during orthonormalization")
    return u @ vt

