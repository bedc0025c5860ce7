"""Frame-size linear-algebra helpers.

Internal module: polar orthonormalization of a small d x k frame, which
analytic_kernel_basis needs for its averaged intersection directions.
Splitting frames and their orthogonal complements need none: they are
Schur columns (spectral.HyperbolicSplitting) or the SVD factors of
stacked stable projectors (spectral.splitting_stack), orthonormal by
construction, and bundles.transport_frames takes its polar factors from
one stacked SVD of its own.  Every window-matrix
question (the banded LU, its determinant sign and singularity criterion,
the singular values) lives in truncation.
"""
from __future__ import annotations

import numpy as np

from .errors import RankDrop


def polar_orthonormalize(b: np.ndarray) -> np.ndarray:
    """Closest orthonormal frame to b (polar factor via SVD).

    Unlike QR this is continuous in b and does not introduce arbitrary
    column sign flips.
    """
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    if s[-1] <= 1e-13 * max(1.0, s[0]):
        raise RankDrop("frame lost rank during orthonormalization")
    return u @ vt

