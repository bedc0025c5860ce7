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
# Relative kernel threshold of near_singular: an operator whose smallest
# singular value is not at least kernel_tol times its 1-norm is near-singular.
DEFAULT_KERNEL_TOL = 1e-8
# WindowLU.smallest_singular stops once the top Ritz pair's residual is below
# LANCZOS_RTOL times its Ritz value, and starts from a vector seeded by
# _LANCZOS_SEED so that reruns are byte-identical.
LANCZOS_RTOL = 1e-14
_LANCZOS_SEED = 2012
# A Lanczos run still unconverged at its first Ritz check at or past
# LANCZOS_MAX_STEPS steps tries the Gram path: when the Cholesky factor of
# J^T J - (GRAM_FLOOR * ||J||_1)^2 I exists, smin^2 is bisected by Cholesky
# tests of J^T J - mu I, at most _GRAM_TESTS of them.
LANCZOS_MAX_STEPS = 24
GRAM_FLOOR = 1e-2
_GRAM_TESTS = 64
# Divide-by-zero guard of smallest_singular, not a singularity criterion:
# pivots below _ZERO_PIVOT * ||J||_1 are raised to _RAISED_PIVOT * ||J||_1
# for its solves.
_RAISED_PIVOT = 1e-12
_ZERO_PIVOT = _RAISED_PIVOT * np.finfo(float).eps


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
    1-norm of J is taken from the band before factoring; it scales the
    package's one singularity criterion, smin against kernel_tol * ||J||_1
    in classify_window.  The unfactored band is kept for matvec and for the
    band of J^T J, which smallest_singular's Gram path bisects when
    shift-invert Lanczos stalls.
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
        """Pivot signs times the row-interchange parity; 0 only when the LU
        is exactly singular (dgbtrf met an exactly zero pivot).  Whether a
        window is near-singular is classify_window's question."""
        if self._exact_singular:
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

        Where the small singular values cluster, Lanczos converges slowly
        and its reorthogonalization dominates.  So a run still unconverged
        at its first Ritz check with k >= LANCZOS_MAX_STEPS tries the Gram
        path once (_gram_smallest): if no pivot was raised and J^T J -
        (GRAM_FLOOR * ||J||_1)^2 I has a Cholesky factor, smin >
        GRAM_FLOOR * ||J||_1, and smin^2 is bisected on the band of J^T J,
        O(n * (kl + ku)^2) per test and blind to clustering; v comes from
        inverse iteration started at the Ritz vector.  Otherwise Lanczos
        runs on.  Near-singular windows converge in a few steps and never
        reach the cap.

        An exactly singular LU, or one with a pivot below _ZERO_PIVOT *
        ||J||_1, gives smin = 0; its tiny pivots are raised to _RAISED_PIVOT
        * ||J||_1 for the solves, so v is still a unit kernel vector.
        """
        n, kl, ku = self._n, self._kl, self._ku
        lu = self._lu
        tiny = np.abs(self._udiag) < _ZERO_PIVOT * self.norm_1
        singular = bool(np.any(tiny))
        if singular:
            lu = lu.copy()
            lu[kl + ku, tiny] = _RAISED_PIVOT * self.norm_1
        basis = np.empty((min(n, 8), n))
        q = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
        q /= np.linalg.norm(q)
        alpha, beta = [], []
        k, check_at = 0, 1
        try_gram = not singular
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
                if try_gram and k >= LANCZOS_MAX_STEPS:
                    try_gram = False
                    gram = self._gram_smallest(t, s @ krylov)
                    if gram is not None:
                        return gram
                check_at = k + max(1, k // 4)
            q = w / beta[-1]
        v = s @ krylov
        v /= np.linalg.norm(v)
        return (0.0 if singular else float(1.0 / np.sqrt(t))), v

    def _gram_smallest(self, t: float, v: np.ndarray) -> tuple[float, np.ndarray] | None:
        """(smin, v) by Cholesky-inertia bisection on G = J^T J, or None when
        G - mu0 I, mu0 = (GRAM_FLOOR * ||J||_1)^2, is not finite and
        positive definite.  By Sylvester's inertia dpbtrf factors G - mu I
        exactly when mu < lambda_min(G), so [mu0, hi] brackets lambda_min
        with hi = min(1/t, min diag G), 1/t the Lanczos estimate from above
        (t the top Ritz value of G^-1); a diagonal entry is a Rayleigh
        quotient, so G - (min diag G) I never factors.  At most _GRAM_TESTS
        halvings bring the bracket to a relative width of 2 * eps; smin is
        the root of its midpoint.  Two inverse-iteration solves with the
        last positive-definite factor turn v, the Ritz vector, into the
        singular vector."""
        mu0 = (GRAM_FLOOR * self.norm_1) ** 2
        if not 1.0 / t > mu0:  # lambda_min <= 1/t: G - mu0 I cannot factor
            return None
        gram = self._gram_band()
        lo_factor = _shifted_cholesky(gram, mu0) if np.all(np.isfinite(gram)) else None
        if lo_factor is None:
            return None
        lo, diag_min = mu0, float(np.min(gram[-1]))
        hi = min(1.0 / t, diag_min)
        factor = _shifted_cholesky(gram, hi)
        if factor is not None:  # rounding left 1/t below lambda_min
            lo, lo_factor, hi = hi, factor, diag_min
        for _ in range(_GRAM_TESTS):
            if not hi - lo > 2.0 * np.finfo(float).eps * hi:
                break
            mid = 0.5 * (lo + hi)
            factor = _shifted_cholesky(gram, mid)
            if factor is None:
                hi = mid
            else:
                lo, lo_factor = mid, factor
        for _ in range(2):
            v, _ = lapack.dpbtrs(lo_factor, v)
            v /= np.linalg.norm(v)
        return float(np.sqrt(0.5 * (lo + hi))), v

    def _gram_band(self) -> np.ndarray:
        """J^T J in LAPACK upper band storage, half-bandwidth kd = kl + ku:
        row kd - o holds superdiagonal o, G[j, j + o] at column j + o.
        With B the unfactored band (B[r, j] = J[j + r - ku, j]),
        G[j, j + o] = sum over r = o .. kd of B[r, j] * B[r - o, j + o].
        The banded row order drops out, since (PJ)^T (PJ) = J^T J."""
        band = self._ab[self._kl:]
        kd, n = band.shape[0] - 1, self._n
        gram = np.zeros((kd + 1, n))
        for o in range(kd + 1):
            gram[kd - o, o:] = np.einsum("rj,rj->j", band[o:, :n - o], band[:kd + 1 - o, o:])
        return gram

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


def _shifted_cholesky(gram: np.ndarray, mu: float) -> np.ndarray | None:
    """Cholesky factor (dpbtrf, upper band storage) of gram - mu I, or None
    when that matrix is not positive definite."""
    shifted = gram.copy()
    shifted[-1] -= mu
    factor, info = lapack.dpbtrf(shifted, overwrite_ab=1)
    return factor if info == 0 else None


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


def classify_window(p: TruncatedProblem, kernel_tol: float):
    """The package's one singularity criterion, on the window linearization
    at X = 0: (smin, scale, sign, kernel vector), all from the one band of J
    that banded_jacobian_lu writes.  smin and its unit right singular vector
    come from WindowLU.smallest_singular: shift-invert Lanczos on the LU,
    or, once Lanczos stalls past LANCZOS_MAX_STEPS at a window with smin >
    GRAM_FLOOR * ||J||_1, Cholesky-inertia bisection on the band of J^T J.
    Windows below that floor, every near-singular one at the default
    kernel_tol among them, stay on Lanczos.  scale = ||J||_1, and sign is
    the determinant sign, or 0 exactly when the window is near-singular:
    when near_singular(smin, scale, kernel_tol)."""
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    smin, vec = lu.smallest_singular()
    sign = 0 if near_singular(smin, lu.norm_1, kernel_tol) else lu.det_sign()
    return smin, lu.norm_1, sign, vec


def near_singular(smin: float, scale: float, kernel_tol: float) -> bool:
    """not smin >= kernel_tol * scale (the operator's 1-norm): NaN is singular."""
    return not smin >= kernel_tol * scale


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
        if norms[inner] <= 0.0 or norms[outer] <= 0.0:
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
