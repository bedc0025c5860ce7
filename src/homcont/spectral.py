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

import logging
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import _linalg as lapack
from .errors import IndexMismatch, NotHyperbolic, RankDrop, Singular

log = logging.getLogger(__name__)

DEFAULT_GAP_TOL = 1e-6

# Relative tail threshold for truncating half-line solutions.
_GREEN_TRUNC = 1e-14
# Cosine threshold above which two principal directions count as a true
# intersection direction (see analytic_kernel_basis).
_INTERSECT_COS = 1.0 - 1e-8
# symbol_smin: |z| within _CIRCLE_TOL of 1 is a crossing (a spurious one adds a midpoint).
_CIRCLE_TOL = 1e-4
_SYMBOL_PASSES = 50
# splitting_stack keeps an eigenvector frame F of a only if its invariance
# residual ||a F - F (F^T a F)||_F is at most _INVARIANCE_TOL ||a||_F (225
# eps): 44 times the largest residual measured on the benchmark's predict
# stacks, and a quarter of the least at which a near-defective block's
# projector left test_splitting_stack_against_schur's bound ("jordan").
_INVARIANCE_TOL = 5e-14
# _checked: a is regular when sigma_min > 1e-14 max(1, sigma_max).  As
# sigma_min >= |det a| / sigma_max^(d-1) and sigma_max <= F = ||a||_F, that
# holds when |det a| > 1e-14 max(1, F) F^(d-1).  The product of the moduli
# LAPACK computes (geev, gees) is |det(a + E)| (up to balancing's
# similarity) with ||E|| <= c eps ||a||, which moves det a by at most about
# d c eps F^d (and, by Weyl's inequality, sigma_min by ||E||_2).  Asking
# the product for 16 times the bound covers any d c up to 675, far above
# the backward error of LAPACK's eigenvalue routines at d <= 6.
_REGULAR_MARGIN = 16.0


@dataclass(frozen=True, eq=False)
class HyperbolicSplitting:
    """Stable/unstable invariant splitting of a hyperbolic matrix.

    stable_schur / unstable_schur are the orthogonal factors of the real
    Schur decompositions of a with the eigenvalues inside / outside the unit
    circle leading, each computed when first read (most callers need one) by
    LAPACK trsen from hyperbolic_splitting's unsorted real Schur form of a
    (gees), bit for bit those of scipy.linalg.schur(a, output="real",
    sort="iuc" / "ouc").  Their leading d_s / d_u columns, stable_frame /
    unstable_frame, span the invariant subspace; the trailing columns,
    stable_complement / unstable_complement, span its orthogonal
    complement, as the parts of the same names in SplittingStack.
    """

    a: np.ndarray
    d_s: int
    # (t, z, moduli): gees's Schur form of a, its orthogonal factor and the
    # eigenvalue moduli, by hypot as abs(complex) in scipy's sort predicates
    _schur_form: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    @property
    def d(self) -> int:
        return len(self.a)

    @property
    def d_u(self) -> int:
        return self.d - self.d_s

    @cached_property
    def stable_schur(self) -> np.ndarray:
        return self._schur_factor(False, self.d_s)

    @cached_property
    def unstable_schur(self) -> np.ndarray:
        return self._schur_factor(True, self.d_u)

    @property
    def stable_frame(self) -> np.ndarray:
        return self.stable_schur[:, : self.d_s]

    @property
    def unstable_frame(self) -> np.ndarray:
        return self.unstable_schur[:, : self.d_u]

    @property
    def stable_complement(self) -> np.ndarray:
        return self.stable_schur[:, self.d_s:]

    @property
    def unstable_complement(self) -> np.ndarray:
        return self.unstable_schur[:, self.d_u:]

    def _schur_factor(self, outside: bool, dim: int) -> np.ndarray:
        """Schur factor of a with the eigenvalues outside (else inside) the
        unit circle leading, by scipy's "ouc" / "iuc" predicates (complex
        pairs are never separated); the identity when dim = 0.
        NotHyperbolic if the selected count disagrees with dim, taken from
        the validator's moduli, or if trsen cannot reorder."""
        if dim == 0:
            return np.eye(self.d)
        t, z, moduli = self._schur_form
        select = moduli > 1.0 if outside else moduli <= 1.0
        _, q, _, _, count, _, _, info = lapack.dtrsen(select, t, z, job="N")
        if info:
            raise NotHyperbolic(f"Schur reordering failed (trsen info {info})")
        if count != dim:
            raise NotHyperbolic("ordered Schur decomposition disagrees with eigenvalue count")
        return q

    def restricted_stable(self) -> np.ndarray:
        """d_s x d_s matrix of a acting on the stable subspace (contraction)."""
        return self.stable_frame.T @ self.a @ self.stable_frame

    def restricted_unstable(self) -> np.ndarray:
        """d_u x d_u matrix of a acting on the unstable subspace (expansion)."""
        return self.unstable_frame.T @ self.a @ self.unstable_frame


def _no_sort(wr: float, wi: float) -> int:
    """gees's selection callback, never called without sorting."""
    return 0


@cache
def _gees_lwork(d: int) -> int:
    """gees's optimal workspace for a d x d matrix, the size that
    scipy.linalg.schur queries before every call, queried once per d."""
    return int(lapack.dgees(_no_sort, np.eye(d), lwork=-1)[-2][0])


def hyperbolic_splitting(a: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL) -> HyperbolicSplitting:
    """Split a hyperbolic matrix into stable and unstable invariant subspaces.

    The frames are the leading columns of orthogonal Schur factors ordered
    by |mu| <= 1 versus |mu| > 1 (see HyperbolicSplitting), computed when
    first read.  The eigenvalue moduli come from the Schur form (gees) they
    reorder, and also decide regularity (see _checked).

    Raises ValueError unless a is a nonempty square matrix, NotHyperbolic
    if gees fails or a has a non-finite entry, Singular if a is not
    invertible, NotHyperbolic if any eigenvalue modulus is within gap_tol
    of 1 (or, when a frame is read, if trsen or its count fails).  The
    checks after gees are those of splitting_stack, by the same function.
    """
    a = np.array(a, dtype=float)
    finite = _checked_input(a[None], gap_tol)
    b = a if finite[0] else np.eye(len(a))
    t, _, wr, wi, z, _, info = lapack.dgees(_no_sort, b, lwork=_gees_lwork(len(a)))
    if info:
        raise NotHyperbolic(f"real Schur decomposition failed (gees info {info})")
    moduli = np.hypot(wr, wi)
    d_s = _checked(b[None], finite, moduli[None], gap_tol)
    return HyperbolicSplitting(a=a, d_s=d_s, _schur_form=(t, z, moduli))


def _checked_input(a: np.ndarray, gap_tol: float) -> np.ndarray:
    """Shape and gap_tol checks of an (n, d, d) stack (ValueError); returns
    which matrices have only finite entries."""
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a square matrix")
    if not a.size:
        raise ValueError("expected a nonempty stack of nonempty matrices")
    if not gap_tol > 0:
        raise ValueError("gap_tol must be positive")
    return np.isfinite(a).all(axis=(1, 2))


def _checked(b: np.ndarray, finite: np.ndarray, mods: np.ndarray, gap_tol: float) -> int:
    """The one validator of every splitting, given an (n, d, d) stack b (a
    non-finite matrix read as the identity), each matrix's finiteness and
    its eigenvalue moduli: returns the stable dimension d_s, which must be
    the same for every matrix (IndexMismatch otherwise).  The first matrix
    in stack order that fails a check raises, for the first check it
    fails: a non-finite entry (NotHyperbolic), numerical singularity,
    sigma_min <= 1e-14 max(1, sigma_max) (Singular), a gap below gap_tol
    or NaN (NotHyperbolic).

    Regularity is read from the moduli: a matrix whose product of moduli
    exceeds _REGULAR_MARGIN 1e-14 max(1, F) F^(d-1), F = ||b_i||_F, is
    regular.  When some matrix fails a check, the matrices that bound
    leaves unsure (a product or a norm that over- or underflows too) get
    their singular values (LAPACK gesdd) before any error is raised, so
    every matrix gets the verdict of the singular-value test."""
    with np.errstate(all="ignore"):
        norms = np.sqrt((b * b).sum(axis=(1, 2)))
        regular = mods.prod(axis=1) > (
            _REGULAR_MARGIN * 1e-14 * np.maximum(1.0, norms) * norms ** (b.shape[1] - 1))
    gap = np.abs(mods - 1.0).min(axis=1)
    good = finite & regular & (gap >= gap_tol)
    if not good.all():
        unsure = ~regular
        if unsure.any():
            sv = np.linalg.svd(b[unsure], compute_uv=False)
            regular[unsure] = sv[:, -1] > 1e-14 * np.maximum(1.0, sv[:, 0])
            good = finite & regular & (gap >= gap_tol)
        if not good.all():
            i = int(np.argmin(good))
            if not finite[i]:
                raise NotHyperbolic("matrix has non-finite entries")
            if not regular[i]:
                raise Singular("matrix is numerically singular")
            raise NotHyperbolic(
                f"eigenvalue modulus within {gap[i]:.3e} of the unit circle (tol {gap_tol:.1e})"
            )
    dims = (mods < 1.0).sum(axis=1)
    if len(dims) > 1 and dims.min() != dims.max():
        raise IndexMismatch(
            f"stable dimension varies over the stack: {sorted(set(dims.tolist()))}")
    return int(dims[0])


@dataclass(frozen=True, eq=False)
class SplittingStack:
    """Stable/unstable splittings of an (n, d, d) stack of hyperbolic
    matrices of one stable dimension d_s, as orthonormal frames.

    u is each matrix's orthogonal factor with E^s in its leading d_s
    columns and E^s perp in the rest; vt is the transpose of its factor
    with E^u leading, rolled so that the d_s rows of E^u perp come first.
    splitting_stack takes the factors from a QR of eigenvectors, or, for a
    matrix that took the Schur fallback, from its Schur factors.
    """

    d_s: int
    u: np.ndarray
    vt: np.ndarray

    @property
    def stable_frames(self) -> np.ndarray:
        """(n, d, d_s): E^s."""
        return self.u[:, :, : self.d_s]

    @property
    def stable_complements(self) -> np.ndarray:
        """(n, d, d_u): E^s perp."""
        return self.u[:, :, self.d_s:]

    @property
    def unstable_complements(self) -> np.ndarray:
        """(n, d, d_s): E^u perp."""
        return self.vt[:, : self.d_s].transpose(0, 2, 1)


def splitting_stack(a: np.ndarray, gap_tol: float = DEFAULT_GAP_TOL) -> SplittingStack:
    """Split every matrix of an (n, d, d) stack in one stacked computation.

    One stacked eig (LAPACK geev, a non-finite matrix read as the
    identity) gives the eigenvalue moduli that feed the checks of _checked (those of hyperbolic_splitting), and the
    eigenvectors.  A real basis of them (Re v where Im mu >= 0, else Im v,
    so a conjugate pair spans its real invariant plane), ordered by
    modulus, has the d_s stable columns first; a complete QR of those gives
    u, and of the d_u unstable ones E^u and E^u perp.  geev's eigenpairs
    are backward stable one by one, but a near-defective block gives an
    ill-conditioned basis, so each of E^s and E^u must pass the invariance
    test of _INVARIANCE_TOL; a matrix that fails (NaN fails) takes the
    Schur splitting of hyperbolic_splitting instead, logged at INFO.

    A stack of n bitwise-equal finite matrices (a limit that does not
    depend on theta) is split once: u and vt are then read-only views of
    that one matrix's factors, repeated n times.  LAPACK splits each matrix
    of a stack on its own, so the factors are those the matrix gets inside
    any other stack.
    """
    a = np.asarray(a, dtype=float)
    finite = _checked_input(a, gap_tol)
    n, d = a.shape[:2]
    if finite[0] and (a.view(np.uint64) == a[:1].view(np.uint64)).all():
        a, finite = a[:1], finite[:1]
    b = a if finite.all() else np.where(finite[:, None, None], a, np.eye(d))
    mu, vec = np.linalg.eig(b)
    moduli = np.abs(mu)
    d_s = _checked(b, finite, moduli, gap_tol)
    order = np.argsort(moduli, axis=1, kind="stable")
    vec = np.take_along_axis(vec, order[:, None, :], axis=2)
    upper = np.take_along_axis(mu.imag, order, axis=1) >= 0
    basis = np.where(upper[:, None, :], vec.real, vec.imag)
    u = np.linalg.qr(basis[:, :, :d_s], mode="complete")[0]
    z = np.linalg.qr(basis[:, :, d_s:], mode="complete")[0]
    scale = _INVARIANCE_TOL * np.linalg.norm(a, axis=(1, 2))
    ok = (_invariance_residual(a, u[:, :, :d_s]) <= scale) & (
        _invariance_residual(a, z[:, :, : d - d_s]) <= scale)
    bad = np.flatnonzero(~ok)
    if bad.size:
        log.info("splitting_stack: %d of %d matrices took the Schur splitting (first at index %d)",
                 bad.size * n // len(a), n, bad[0])
    for i in bad:
        split = hyperbolic_splitting(a[i], gap_tol)
        u[i], z[i] = split.stable_schur, split.unstable_schur
    vt = np.roll(z, d_s, axis=2).transpose(0, 2, 1)
    if len(a) < n:
        u, vt = np.broadcast_to(u, (n, d, d)), np.broadcast_to(vt, (n, d, d))
    return SplittingStack(d_s=d_s, u=u, vt=vt)


def _invariance_residual(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """||a F - F (F^T a F)||_F of each orthonormal frame F of a stack."""
    af = a @ f
    return np.linalg.norm(af - f @ (f.transpose(0, 2, 1) @ af), axis=(1, 2))


def symbol_smin(a: np.ndarray) -> float:
    """min over |z| = 1 of sigma_min(zI - a), a finite invertible real: the
    smallest singular value of x -> (x_{n+1} - a x_n) on l2(Z; R^d).  sigma
    is a singular value of zI - a at some |z| = 1 exactly when the pencil
    [[a, sigma I], [0, I]] - z [[I, 0], [sigma I, a^T]] has an eigenvalue on
    the circle (Byers; Boyd & Balakrishnan).  Each pass takes the least
    sigma_min at w = 0, pi and the midpoints of the last level's crossing
    angles, first |arg lambda(a)|, until it stops falling (w in [0, pi])."""
    a = np.asarray(a, dtype=float)
    eye, zero = np.eye(len(a)), np.zeros_like(a)
    sigma, w = np.inf, np.abs(np.angle(np.linalg.eigvals(a)))
    for _ in range(_SYMBOL_PASSES):
        z = np.exp(1j * np.concatenate([[0.0, np.pi], w]))
        lowest = float(np.min(np.linalg.svd(z[:, None, None] * eye - a, compute_uv=False)[:, -1]))
        if not lowest < sigma:
            break
        sigma = lowest
        z = _pencil_eigvals(np.block([[a, sigma * eye], [zero, eye]]),
                            np.block([[eye, zero], [sigma * eye, a.T]]))
        w = np.sort(np.concatenate([[0.0, np.pi], np.abs(np.angle(z[abs(abs(z) - 1) < _CIRCLE_TOL]))]))
        w = 0.5 * (w[1:] + w[:-1])
    return sigma


def _pencil_eigvals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of the real pencil a - z b by LAPACK ggev, bit for bit
    those of scipy.linalg.eigvals(a, b): alpha/beta, inf where only beta is
    0, and nan where both are (complex nan when some alpha is not real)."""
    a, b = np.asarray_chkfinite(a, dtype=float), np.asarray_chkfinite(b, dtype=float)
    lwork = int(lapack.dggev(a, b, lwork=-1)[-2][0])
    alphar, alphai, beta, _, _, _, info = lapack.dggev(a, b, 0, 0, lwork)
    if info != 0:
        raise np.linalg.LinAlgError(f"generalized eigenvalue solver (ggev) failed, info={info}")
    alpha = alphar + 1j * alphai
    z = np.empty_like(alpha)
    finite = beta != 0
    z[finite] = alpha[finite] / beta[finite]
    z[~finite & (alpha != 0)] = np.inf
    z[~finite & (alpha == 0)] = np.nan if np.all(alphai == 0) else complex(np.nan, np.nan)
    return z


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


def polar_orthonormalize(b: np.ndarray) -> np.ndarray:
    """Closest orthonormal frame to b (polar factor via SVD).

    Unlike QR this is continuous in b and does not introduce arbitrary
    column sign flips.
    """
    u, s, vt = np.linalg.svd(b, full_matrices=False)
    if s[-1] <= 1e-13 * max(1.0, s[0]):
        raise RankDrop("frame lost rank during orthonormalization")
    return u @ vt


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
