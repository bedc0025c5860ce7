"""Hyperbolic linear algebra.

Spectral splittings of hyperbolic matrices into stable/unstable invariant
subspaces, half-line solves against the Green kernel of
x_{n+1} - a x_n = y_n, and the analytic kernel basis of piecewise-constant
two-sided systems.

All subspaces are carried as column-orthonormal frames.  Matrix powers are
always taken in the restricted stable/unstable coordinates so that the
complementary growing modes never enter the computation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from ._linalg import polar_orthonormalize
from .errors import NotHyperbolic, Singular

DEFAULT_GAP_TOL = 1e-6

# Relative tail threshold for truncating half-line solutions.
_GREEN_TRUNC = 1e-14
# Cosine threshold above which two principal directions count as a true
# intersection direction (see analytic_kernel_basis).
_INTERSECT_COS = 1.0 - 1e-8


@dataclass(frozen=True, eq=False)
class HyperbolicSplitting:
    """Stable/unstable invariant splitting of a hyperbolic matrix.

    stable_schur / unstable_schur are the orthogonal factors of the ordered
    real Schur decompositions of a with the eigenvalues inside / outside the
    unit circle leading, each computed when first read (most callers need
    one).  Their leading d_s / d_u columns, stable_frame / unstable_frame,
    span the invariant subspace; the trailing columns span its orthogonal
    complement.  gap is the smallest distance of any |eigenvalue| to 1.
    """

    a: np.ndarray
    d_s: int
    d_u: int
    gap: float

    @property
    def d(self) -> int:
        return self.d_s + self.d_u

    @cached_property
    def stable_schur(self) -> np.ndarray:
        return self._schur_factor("iuc", self.d_s)

    @cached_property
    def unstable_schur(self) -> np.ndarray:
        return self._schur_factor("ouc", self.d_u)

    @property
    def stable_frame(self) -> np.ndarray:
        return self.stable_schur[:, : self.d_s]

    @property
    def unstable_frame(self) -> np.ndarray:
        return self.unstable_schur[:, : self.d_u]

    def _schur_factor(self, sort: str, dim: int) -> np.ndarray:
        """Schur factor of a ordered by sort (complex pairs are never
        separated), the identity when dim = 0; NotHyperbolic if the
        ordering's count disagrees with dim, taken from the moduli."""
        if dim == 0:
            return np.eye(self.d)
        _, z, sdim = sla.schur(self.a, output="real", sort=sort)
        if sdim != dim:
            raise NotHyperbolic("ordered Schur decomposition disagrees with eigenvalue count")
        return z

    def restricted_stable(self) -> np.ndarray:
        """d_s x d_s matrix of a acting on the stable subspace (contraction)."""
        return self.stable_frame.T @ self.a @ self.stable_frame

    def restricted_unstable(self) -> np.ndarray:
        """d_u x d_u matrix of a acting on the unstable subspace (expansion)."""
        return self.unstable_frame.T @ self.a @ self.unstable_frame


def hyperbolic_splitting(a: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL) -> HyperbolicSplitting:
    """Split a hyperbolic matrix into stable and unstable invariant subspaces.

    The frames come from ordered real Schur decompositions, grouping
    eigenvalues by |mu| < 1 versus |mu| > 1, taken when first read.

    Raises NotHyperbolic if a has a non-finite entry, Singular if a is not
    invertible, NotHyperbolic if any eigenvalue modulus is within gap_tol
    of 1 (or, when a frame is read, if its Schur ordering disagrees with
    the eigenvalue count).
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("expected a square matrix")
    if not gap_tol > 0:
        raise ValueError("gap_tol must be positive")
    if not np.all(np.isfinite(a)):
        raise NotHyperbolic("matrix has non-finite entries")

    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 1e-14 * max(1.0, sv[0]):
        raise Singular("matrix is numerically singular")

    mods = np.abs(np.linalg.eigvals(a))
    gap = float(np.min(np.abs(mods - 1.0)))
    if gap < gap_tol:
        raise NotHyperbolic(
            f"eigenvalue modulus within {gap:.3e} of the unit circle (tol {gap_tol:.1e})"
        )

    d_s = int(np.sum(mods < 1.0))
    return HyperbolicSplitting(a=a.copy(), d_s=d_s, d_u=d - d_s, gap=gap)


def _restricted_rows(split: HyperbolicSplitting) -> tuple[np.ndarray, np.ndarray]:
    """Row maps R_s, R_u with P_s = Q_s R_s and P_u = Q_u R_u."""
    m = np.hstack([split.stable_frame, split.unstable_frame])
    rows = np.linalg.solve(m, np.eye(split.d))
    return rows[: split.d_s], rows[split.d_s:]


def halfline_green_solve(
    a: np.ndarray, y: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL
) -> np.ndarray:
    """Solve x_{n+1} - a x_n = y_n on n >= 0 by Green-kernel convolution.

    y is the finitely supported right-hand side, shape (n_max+1,) for d = 1
    or (n_max+1, d).  The convolution kernel is a^{n-1} (1_{n>=1} I - P_u);
    its stable part is accumulated by a forward recursion in stable
    coordinates and its unstable part by a backward recursion in unstable
    coordinates, so no growing matrix power is ever formed.

    The returned solution is sampled on n = 0, 1, ... and truncated once the
    tail falls below 1e-14 * max |y_n| past the support of y.
    """
    y = np.asarray(y, dtype=float)
    flat = y.ndim == 1
    if flat:
        y = y[:, None]
    n_max = y.shape[0] - 1
    d = y.shape[1]

    split = hyperbolic_splitting(np.asarray(a, dtype=float).reshape(d, d), gap_tol)
    r_s, r_u = _restricted_rows(split)
    a_s = split.restricted_stable()
    a_u = split.restricted_unstable()
    a_u_inv = np.linalg.inv(a_u) if split.d_u else a_u
    q_s, q_u = split.stable_frame, split.unstable_frame

    y_scale = float(np.max(np.linalg.norm(y, axis=1))) if y.size else 0.0
    if y_scale == 0.0:
        out = np.zeros_like(y)
        return out[:, 0] if flat else out

    # Backward sweep: u_n = sum_{m>=n} A_u^{n-1-m} R_u y_m.
    u_coef = np.zeros((n_max + 2, split.d_u))
    for n in range(n_max, -1, -1):
        u_coef[n] = a_u_inv @ (u_coef[n + 1] + r_u @ y[n])

    xs: list[np.ndarray] = []
    s = np.zeros(split.d_s)
    tol = _GREEN_TRUNC * y_scale
    cap = n_max + 2 + 100_000
    n = 0
    while n < cap:
        u = u_coef[n] if n <= n_max + 1 else np.zeros(split.d_u)
        x_n = q_s @ s - q_u @ u
        xs.append(x_n)
        if n > n_max and np.linalg.norm(x_n) < tol:
            break
        s = a_s @ s + (r_s @ y[n] if n <= n_max else 0.0)
        n += 1

    out = np.array(xs)
    return out[:, 0] if flat else out


def analytic_kernel_basis(
    a_plus: np.ndarray,
    a_minus: np.ndarray,
    horizon: int,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> list[np.ndarray]:
    """Kernel sequences of the piecewise-constant system a_plus (n>=0) / a_minus (n<0).

    Bounded two-sided solutions are generated by unit vectors in
    E^s(a_plus) & E^u(a_minus); each basis vector v yields the sequence
    x_n = a_plus^n v for n >= 0 and x_n = a_minus^n v for n <= 0, sampled
    on [-horizon, horizon] (shape (2*horizon+1, d) per sequence).

    The intersection is found from the principal angles between the stable
    and unstable frames; a direction counts only if its cosine exceeds
    1 - 1e-8.
    """
    split_p = hyperbolic_splitting(np.asarray(a_plus, dtype=float), gap_tol)
    split_m = hyperbolic_splitting(np.asarray(a_minus, dtype=float), gap_tol)
    if split_p.d != split_m.d:
        raise ValueError("a_plus and a_minus must have equal dimension")
    d = split_p.d

    u_frame = split_p.stable_frame
    v_frame = split_m.unstable_frame
    if u_frame.shape[1] == 0 or v_frame.shape[1] == 0:
        return []

    w, cosines, zt = np.linalg.svd(u_frame.T @ v_frame)
    k = int(np.sum(cosines >= _INTERSECT_COS))
    if k == 0:
        return []

    # Average the paired principal directions and re-orthonormalize.
    basis = u_frame @ w[:, :k] + v_frame @ zt[:k].T
    basis = polar_orthonormalize(basis)

    a_s = split_p.restricted_stable()
    a_u_inv = np.linalg.inv(split_m.restricted_unstable())
    q_s, q_u = split_p.stable_frame, split_m.unstable_frame

    sequences = []
    for j in range(k):
        v = basis[:, j]
        seq = np.zeros((2 * horizon + 1, d))
        c = q_s.T @ v
        for n in range(horizon + 1):
            seq[horizon + n] = q_s @ c
            c = a_s @ c
        c = q_u.T @ v
        for n in range(1, horizon + 1):
            c = a_u_inv @ c
            seq[horizon - n] = q_u @ c
        sequences.append(seq)
    return sequences
