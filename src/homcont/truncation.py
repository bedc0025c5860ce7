"""Finite-window discretization of the homoclinic equations.

The two-sided recurrence x_{n+1} = f_n(theta, x_n) is truncated to the
window [-N, N] with projection boundary conditions: the left endpoint is
constrained to the unstable subspace of a(theta, -inf) and the right
endpoint to the stable subspace of a(theta, +inf), written as orthonormal
rows annihilating those subspaces.  truncated_problem derives the rows at
one theta; every move along theta (the parity scan, bisection,
continuation) goes through TruncatedProblem.transported, which carries
them continuously, so determinant signs along a path are comparable.  The
unknown is the flat window vector X = (x_{-N}, ..., x_N), length
d*(2N+1); rows are ordered interior first (n = -N .. N-1), then the left
boundary rows, then the right ones.  That ordering is frozen because
determinant-sign bookkeeping depends on it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lapack

from .bundles import transport_along_path
from .errors import SingularJacobian, SizeMismatch, WindowOverflow
from .spectral import DEFAULT_GAP_TOL, hyperbolic_splitting
from .systems import dfdx_rows, f_rows

DEFAULT_N_MAX = 2 ** 12
TAIL_FRACTION = 0.25
THETA_STEP = 1e-7
# Relative pivot threshold below which a factorization is reported singular.
PIVOT_RTOL = 1e-12
# WindowLU.smallest_singular stops once the top Ritz pair's residual is below
# LANCZOS_RTOL times its Ritz value, and starts from a vector seeded by
# _LANCZOS_SEED so that reruns are byte-identical.
LANCZOS_RTOL = 1e-14
_LANCZOS_SEED = 2012
# Pivots below this fraction of ||J||_1 count as zero in smallest_singular.
_PIVOT_FLOOR = PIVOT_RTOL * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class TruncatedProblem:
    """Residual/Jacobian assembly data for one window and parameter value."""

    system: object
    theta: float
    N: int
    d: int
    left_rows: np.ndarray   # d_s x d, annihilates E^u(theta, -inf)
    right_rows: np.ndarray  # d_u x d, annihilates E^s(theta, +inf)
    gap_tol: float          # hyperbolicity gap of the splittings behind the rows

    def __post_init__(self):
        if self.left_rows.shape[0] + self.right_rows.shape[0] != self.d:
            raise SizeMismatch(
                "boundary rows must total d; stable dimensions at +inf/-inf disagree"
            )

    def transported(self, theta: float) -> "TruncatedProblem":
        """The same problem at theta, its boundary rows carried there from
        self.theta by bundles.transport_along_path, so that determinant
        signs along the path are those of one continuous family."""
        left, right = complement_families(self.system, self.gap_tol)
        return replace(
            self,
            theta=float(theta),
            left_rows=transport_along_path(left, self.left_rows.T, self.theta, theta).T,
            right_rows=transport_along_path(right, self.right_rows.T, self.theta, theta).T,
        )

    @property
    def size(self) -> int:
        return self.d * (2 * self.N + 1)

    @property
    def ns(self) -> np.ndarray:
        """Indices n = -N .. N-1 of the interior rows."""
        return np.arange(-self.N, self.N)

    def blocks(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.size,):
            raise SizeMismatch(f"expected window vector of length {self.size}, got {x.shape}")
        return x.reshape(2 * self.N + 1, self.d)


def complement_families(system, gap_tol: float = DEFAULT_GAP_TOL):
    """Frame functions of the boundary-condition subspace families.

    Returns (left, right): left(theta) spans E^u(theta,-inf)^perp and
    right(theta) spans E^s(theta,+inf)^perp, each the trailing columns of
    the splitting's Schur factor (orientation per call is arbitrary;
    transport for continuity).
    """

    def left(theta: float) -> np.ndarray:
        split = hyperbolic_splitting(system.a_minus(theta), gap_tol)
        return split.unstable_schur[:, split.d_u:]

    def right(theta: float) -> np.ndarray:
        split = hyperbolic_splitting(system.a_plus(theta), gap_tol)
        return split.stable_schur[:, split.d_s:]

    return left, right


def truncated_problem(system, theta: float, N: int,
                      gap_tol: float = DEFAULT_GAP_TOL) -> TruncatedProblem:
    """Build a window problem with boundary rows derived from the splittings
    at theta; TruncatedProblem.transported moves it along theta."""
    if N < 1:
        raise ValueError("window half-width N must be positive")
    left, right = complement_families(system, gap_tol)
    return TruncatedProblem(
        system=system,
        theta=float(theta),
        N=int(N),
        d=system.d,
        left_rows=left(theta).T,
        right_rows=right(theta).T,
        gap_tol=gap_tol,
    )


def assemble_residual(p: TruncatedProblem, x: np.ndarray) -> np.ndarray:
    """Interior rows x_{n+1} - f_n(theta, x_n), then the boundary rows."""
    blocks = p.blocks(x)
    interior = blocks[1:] - f_rows(p.system, p.ns, p.theta, blocks[:-1])
    return np.concatenate([interior.ravel(), p.left_rows @ blocks[0], p.right_rows @ blocks[-1]])


class WindowLU:
    """Banded LU of the window Jacobian (LAPACK gbtrf/gbtrs), presented in
    assembled ordering.

    Internally the rows are permuted to [left boundary, interior, right
    boundary] so the matrix is banded; solve() maps right-hand sides from
    the frozen assembled ordering [interior, left, right].  Moving the d_s
    left rows over the 2*N*d interior rows is an even permutation (2*N*d is
    even), so determinant signs agree with the assembled ordering.  The
    1-norm of J is taken from the band before factoring; a pivot below
    PIVOT_RTOL times it is the package's one criterion for a numerically
    singular matrix, and the same 1-norm scales the smin gates of detect.
    The unfactored band is kept for matvec.
    """

    def __init__(self, ab: np.ndarray, kl: int, ku: int, d_s: int, interior: int):
        self.norm_1 = float(np.max(np.sum(np.abs(ab[kl:]), axis=0)))
        lu, ipiv, info = lapack.dgbtrf(ab, kl=kl, ku=ku)
        if info < 0:
            raise ValueError(f"dgbtrf: illegal argument {-info}")
        self._ab = ab
        self._lu = lu
        self._ipiv = ipiv
        self._kl = kl
        self._ku = ku
        self._n = ab.shape[1]
        self._exact_singular = info > 0
        # U diagonal lives in row kl + ku of the factored band storage.
        self._udiag = lu[kl + ku]
        self._d_s = d_s
        self._interior = interior

    def _permute(self, rhs: np.ndarray) -> np.ndarray:
        m, ds = self._interior, self._d_s
        return np.concatenate([rhs[m:m + ds], rhs[:m], rhs[m + ds:]])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._exact_singular:
            raise SingularJacobian("banded LU is exactly singular")
        b = self._permute(np.asarray(rhs, dtype=float))
        x, info = lapack.dgbtrs(self._lu, self._kl, self._ku, b, self._ipiv)
        if info != 0:
            raise SingularJacobian(f"dgbtrs failed with info={info}")
        return x

    def det_sign(self) -> int:
        """Pivot signs times the row-interchange parity; 0 when the LU is
        exactly singular or a pivot falls below PIVOT_RTOL * ||J||_1."""
        if self._exact_singular or np.min(np.abs(self._udiag)) < PIVOT_RTOL * self.norm_1:
            return 0
        # scipy returns the gbtrf pivot indices 0-based.
        swaps = int(np.sum(self._ipiv != np.arange(self._n)))
        sign = 1 if swaps % 2 == 0 else -1
        sign *= int(np.prod(np.sign(self._udiag)))
        return sign

    def smallest_singular(self) -> tuple[float, np.ndarray]:
        """(smin, v): the smallest singular value of J and a unit right
        singular vector for it, in assembled column order, sign arbitrary.

        Lanczos with full reorthogonalization on (PJ)^-1 (PJ)^-T = (J^T J)^-1,
        P the banded row order: each step is two gbtrs solves (transposed,
        then plain) on the factors held here, O(n * bandwidth), plus the
        reorthogonalization against the k vectors so far, O(n * k).  The run
        starts from a fixed seeded vector (a structured one such as all-ones
        can be orthogonal to a symmetric kernel) and stops when the top Ritz
        pair (t, s) of the k x k tridiagonal has |beta_k * s_k| <=
        LANCZOS_RTOL * t, or at k = n, where the Krylov space is the whole
        space; then smin = t^(-1/2).  Convergence is tested on a growing
        schedule of k, and the Krylov buffer grows on demand.

        An exactly singular LU, or one with a pivot below PIVOT_RTOL * eps *
        ||J||_1, gives smin = 0; its tiny pivots are raised to PIVOT_RTOL *
        ||J||_1 for the solves, so v is still a unit kernel vector.
        """
        n, kl, ku = self._n, self._kl, self._ku
        lu = self._lu
        tiny = np.abs(self._udiag) < _PIVOT_FLOOR * self.norm_1
        singular = bool(np.any(tiny))
        if singular:
            lu = lu.copy()
            lu[kl + ku, tiny] = PIVOT_RTOL * self.norm_1
        basis = np.empty((min(n, 8), n))
        q = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
        q /= np.linalg.norm(q)
        alpha, beta = [], []
        k, check_at = 0, 1
        while True:
            if k == len(basis):
                basis = np.concatenate([basis, np.empty((min(n, 2 * k) - k, n))])
            basis[k] = q
            y, _ = lapack.dgbtrs(lu, kl, ku, q, self._ipiv, trans=1)
            w, _ = lapack.dgbtrs(lu, kl, ku, y, self._ipiv)
            k += 1
            krylov = basis[:k]
            h = krylov @ w
            w -= h @ krylov
            h2 = krylov @ w  # second Gram-Schmidt pass
            w -= h2 @ krylov
            alpha.append(h[-1] + h2[-1])
            beta.append(float(np.linalg.norm(w)))
            if k >= check_at or k == n or not beta[-1] > 0.0:
                t, s = _top_ritz_pair(alpha, beta[:-1])
                if k == n or abs(beta[-1] * s[-1]) <= LANCZOS_RTOL * t:
                    break
                check_at = k + max(1, k // 4)
            q = w / beta[-1]
        v = s @ krylov
        v /= np.linalg.norm(v)
        return (0.0 if singular else float(1.0 / np.sqrt(t))), v

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """J @ v in assembled ordering, from the unfactored band.  Diagonals
        are summed from kl down to -ku, so each row adds its entries in
        column order."""
        n, kl, ku = self._n, self._kl, self._ku
        out = np.zeros(n)
        for offset in range(kl, -ku - 1, -1):  # row i - column j
            diag = self._ab[kl + ku + offset]
            if offset >= 0:
                out[offset:] += diag[:n - offset] * v[:n - offset]
            else:
                out[:n + offset] += diag[-offset:] * v[-offset:]
        m, ds = self._interior, self._d_s
        return np.concatenate([out[ds:ds + m], out[:ds], out[ds + m:]])


def _top_ritz_pair(alpha, beta) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and its unit eigenvector of the symmetric
    tridiagonal matrix with diagonal alpha and off-diagonal beta: the LAPACK
    bisection and inverse iteration (stebz, stein) that
    eigh_tridiagonal(select="i") runs, without its per-call argument
    handling.  Non-finite entries raise ValueError."""
    d = np.asarray(alpha, dtype=float)
    e = np.asarray(beta, dtype=float)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("Lanczos tridiagonal has non-finite entries")
    k = d.size
    if k == 1:
        return float(d[0]), np.ones(1)
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info == 0:
        z, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"stebz/stein failed with info={info}")
    return float(w[0]), z[:, 0]


def banded_jacobian_lu(p: TruncatedProblem, x: np.ndarray) -> WindowLU:
    """Factor the window Jacobian in LAPACK band storage (see WindowLU).

    Band row kl + ku + i - j of column j holds J[i, j], i counted in the
    banded row order [left, interior, right]; kl rows of workspace sit on
    top.  Interior block row k puts -dfdx[k][r, c] on band row
    kl + ku + ds + r - c and its identity on band row kl + ku + ds - d; a
    boundary row is a short diagonal."""
    blocks = p.blocks(x)
    d, m = p.d, 2 * p.N * p.d
    ds = p.left_rows.shape[0]
    kl = d + ds - 1
    ku = 2 * d - 1 - ds
    top = kl + ku
    ab = np.zeros((2 * kl + ku + 1, p.size))
    dfdx = dfdx_rows(p.system, p.ns, p.theta, blocks[:-1])
    for r in range(d):
        for c in range(d):
            ab[top + ds + r - c, c:m:d] = -dfdx[:, r, c]
    ab[top + ds - d, d:] = 1.0
    cols = np.arange(d)
    ab[top + np.arange(ds)[:, None] - cols, cols] = p.left_rows
    ab[top + ds + np.arange(d - ds)[:, None] - cols, m + cols] = p.right_rows
    return WindowLU(ab, kl, ku, d_s=ds, interior=m)


def assemble_dresidual_dtheta(p: TruncatedProblem, x: np.ndarray) -> np.ndarray:
    """Central-difference derivative of the residual in theta, step THETA_STEP.

    Boundary rows are fixed data of the problem, so only the interior rows
    (-df_n/dtheta evaluated at x_n) contribute.
    """
    blocks = p.blocks(x)
    df = (
        f_rows(p.system, p.ns, p.theta + THETA_STEP, blocks[:-1])
        - f_rows(p.system, p.ns, p.theta - THETA_STEP, blocks[:-1])
    ) / (2.0 * THETA_STEP)
    return np.concatenate([-df.ravel(), np.zeros(p.d)])


def tail_mass(x: np.ndarray, fraction: float, d: int) -> float:
    """Largest block norm over the outer window fraction (|n| >= (1-fraction)*N)."""
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must lie in (0, 1)")
    x = np.asarray(x, dtype=float)
    if x.size % d != 0 or (x.size // d) % 2 != 1:
        raise SizeMismatch("window vector length must be d * (2N + 1)")
    blocks = x.reshape(-1, d)
    N = (blocks.shape[0] - 1) // 2
    if N == 0:
        return float(np.linalg.norm(blocks[0]))
    ns = np.arange(-N, N + 1)
    mask = np.abs(ns) >= (1.0 - fraction) * N - 1e-12
    if not np.any(mask):
        return 0.0
    return float(np.max(np.linalg.norm(blocks[mask], axis=1)))


def embed_window(x: np.ndarray, d: int, n_old: int, n_new: int) -> np.ndarray:
    """Zero-pad a window vector from half-width n_old to n_new >= n_old."""
    if n_new < n_old:
        raise ValueError("cannot shrink a window by embedding")
    blocks = np.asarray(x, dtype=float).reshape(2 * n_old + 1, d)
    out = np.zeros((2 * n_new + 1, d))
    out[n_new - n_old:n_new + n_old + 1] = blocks
    return out.ravel()


def _estimate_decay(blocks: np.ndarray, N: int) -> float:
    """Geometric decay ratio of the block norms, estimated per side from the
    outer half of the window; the slower side wins."""
    norms = np.linalg.norm(blocks, axis=1)
    rates = []
    for inner, outer in ((N + N // 2, 2 * N), (N - N // 2, 0)):
        span = abs(outer - inner)
        if span == 0 or norms[inner] <= 0.0 or norms[outer] <= 0.0:
            continue
        rates.append((norms[outer] / norms[inner]) ** (1.0 / span))
    if not rates:
        return 0.5
    return float(np.clip(max(rates), 1e-12, 1.0 - 1e-12))


def adapt_window(
    p: TruncatedProblem,
    x: np.ndarray,
    tail_tol: float,
    n_max: int = DEFAULT_N_MAX,
) -> tuple[TruncatedProblem, np.ndarray]:
    """Double the window until the predicted tail clears tail_tol.

    The vector is zero-padded (homoclinics decay, so the padding error is
    below the tolerance by construction) and the boundary rows are reused at
    the same theta.  The required width is predicted from the measured decay
    rate rho of the current data: the window N is accepted once
    A * rho^(0.75 * N) <= tail_tol, with A the peak block norm.  A tail that
    does not decay, or a width beyond n_max, raises WindowOverflow.
    """
    if not tail_tol > 0:
        raise ValueError("tail_tol must be positive")
    if tail_mass(x, TAIL_FRACTION, p.d) <= tail_tol:
        return p, np.asarray(x, dtype=float)

    blocks = p.blocks(x)
    amplitude = float(np.max(np.linalg.norm(blocks, axis=1)))
    rho = _estimate_decay(blocks, p.N)
    if rho >= 1.0 - 1e-9:
        raise WindowOverflow("window data does not decay; enlargement cannot help")

    n_new = p.N
    while True:
        n_new *= 2
        if n_new > n_max:
            raise WindowOverflow(
                f"window {n_new} exceeds the cap {n_max} before the tail "
                f"prediction {amplitude:.2e} * {rho:.4f}^(0.75 N) reaches {tail_tol:.1e}"
            )
        if amplitude * rho ** (0.75 * n_new) <= tail_tol:
            break

    return replace(p, N=n_new), embed_window(x, p.d, p.N, n_new)
