"""Finite-window discretization of the homoclinic equations.

The two-sided recurrence x_{n+1} = f_n(theta, x_n) is truncated to the
window [-N, N] with projection boundary conditions: the left endpoint is
constrained to the unstable subspace of a(theta, -inf) and the right
endpoint to the stable subspace of a(theta, +inf), written as orthonormal
rows annihilating those subspaces.  The unknown is the flat window vector
X = (x_{-N}, ..., x_N), length d*(2N+1); rows are ordered interior first
(n = -N .. N-1), then the left boundary rows, then the right ones.  That
ordering is frozen because determinant-sign bookkeeping depends on it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import BandedLU, orth_complement
from .bundles import transport_along_path
from .errors import SizeMismatch, WindowOverflow
from .spectral import hyperbolic_splitting
from .systems import dfdx_rows, f_rows

DEFAULT_N_MAX = 2 ** 12
TAIL_FRACTION = 0.25


@dataclass(frozen=True, eq=False)
class TruncatedProblem:
    """Residual/Jacobian assembly data for one window and parameter value."""

    system: object
    theta: float
    N: int
    d: int
    left_rows: np.ndarray   # d_s x d, annihilates E^u(theta, -inf)
    right_rows: np.ndarray  # d_u x d, annihilates E^s(theta, +inf)

    def __post_init__(self):
        if self.left_rows.shape[0] + self.right_rows.shape[0] != self.d:
            raise SizeMismatch(
                "boundary rows must total d; stable dimensions at +inf/-inf disagree"
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


def complement_families(system, gap_tol: float = 1e-6):
    """Frame functions of the boundary-condition subspace families.

    Returns (left, right): left(theta) spans E^u(theta,-inf)^perp and
    right(theta) spans E^s(theta,+inf)^perp, each as a d x k orthonormal
    frame (orientation per call is arbitrary; transport for continuity).
    """

    def left(theta: float) -> np.ndarray:
        return orth_complement(hyperbolic_splitting(system.a_minus(theta), gap_tol).unstable_frame)

    def right(theta: float) -> np.ndarray:
        return orth_complement(hyperbolic_splitting(system.a_plus(theta), gap_tol).stable_frame)

    return left, right


class TransportedRows:
    """Boundary-condition rows carried continuously along theta.

    move() transports the rows to a new theta and keeps them there;
    problem() builds the window problem at any theta with the rows carried
    there from the current one, leaving the state unchanged.
    """

    def __init__(self, system, theta: float, gap_tol: float):
        self.system = system
        self.gap_tol = gap_tol
        self.left_fn, self.right_fn = complement_families(system, gap_tol)
        self.theta = float(theta)
        self.left = self.left_fn(self.theta)
        self.right = self.right_fn(self.theta)

    def _carried(self, theta: float):
        return (
            transport_along_path(self.left_fn, self.left, self.theta, theta),
            transport_along_path(self.right_fn, self.right, self.theta, theta),
        )

    def move(self, theta: float):
        self.left, self.right = self._carried(theta)
        self.theta = float(theta)

    def problem(self, theta: float, N: int) -> TruncatedProblem:
        left, right = self._carried(theta)
        return truncated_problem(
            self.system, theta, N, gap_tol=self.gap_tol, left_rows=left.T, right_rows=right.T
        )


def truncated_problem(
    system,
    theta: float,
    N: int,
    gap_tol: float = 1e-6,
    left_rows: np.ndarray | None = None,
    right_rows: np.ndarray | None = None,
) -> TruncatedProblem:
    """Build a window problem, deriving boundary rows from the splittings
    unless continuously transported rows are supplied by the caller."""
    if N < 1:
        raise ValueError("window half-width N must be positive")
    if left_rows is None or right_rows is None:
        left, right = complement_families(system, gap_tol)
        if left_rows is None:
            left_rows = left(theta).T
        if right_rows is None:
            right_rows = right(theta).T
    return TruncatedProblem(
        system=system,
        theta=float(theta),
        N=int(N),
        d=system.d,
        left_rows=np.asarray(left_rows, dtype=float),
        right_rows=np.asarray(right_rows, dtype=float),
    )


def assemble_residual(p: TruncatedProblem, x: np.ndarray) -> np.ndarray:
    """Interior rows x_{n+1} - f_n(theta, x_n), then the boundary rows."""
    blocks = p.blocks(x)
    interior = blocks[1:] - f_rows(p.system, p.ns, p.theta, blocks[:-1])
    return np.concatenate([interior.ravel(), p.left_rows @ blocks[0], p.right_rows @ blocks[-1]])


def _jacobian_entries(p: TruncatedProblem, x: np.ndarray):
    """(rows, cols, values) of every structural entry of the window Jacobian,
    rows in assembled ordering.  The dfdx blocks are evaluated in one call,
    as a (2N, d, d) array, and placed by array indexing."""
    blocks = p.blocks(x)
    d, N = p.d, p.N
    dfdx = dfdx_rows(p.system, p.ns, p.theta, blocks[:-1])
    ds = p.left_rows.shape[0]
    m = 2 * N * d
    start = d * np.arange(2 * N)[:, None, None]
    rows, cols, vals = [], [], []

    def place(r0, c0, block):
        """Scatter block(s) with top-left corner(s) (r0, c0)."""
        r, c = np.broadcast_arrays(
            r0 + np.arange(block.shape[-2])[:, None], c0 + np.arange(block.shape[-1])
        )
        rows.append(r.ravel())
        cols.append(c.ravel())
        vals.append(np.broadcast_to(block, r.shape).ravel())

    place(start, start, -dfdx)
    place(start, start + d, np.eye(d))
    place(m, 0, p.left_rows)
    place(m + ds, m, p.right_rows)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def assemble_jacobian(p: TruncatedProblem, x: np.ndarray) -> np.ndarray:
    """Dense window Jacobian: interior block rows [-dfdx(n, theta, x_n), I]
    plus the boundary rows.  Solves and determinant signs use
    banded_jacobian_lu; the dense matrix is the oracle for tests, the
    hypothesis checks and the singular value decompositions."""
    rows, cols, vals = _jacobian_entries(p, x)
    jac = np.zeros((p.size, p.size))
    jac[rows, cols] = vals
    return jac


class WindowLU:
    """Banded LU of the window Jacobian, presented in assembled ordering.

    Internally the rows are permuted to [left boundary, interior, right
    boundary] so the matrix is banded; solve() maps right-hand sides from
    the frozen assembled ordering [interior, left, right].  Moving the d_s
    left rows over the 2*N*d interior rows is an even permutation (2*N*d is
    even), so determinant signs agree with the assembled ordering.
    """

    def __init__(self, lu: BandedLU, d_s: int, interior: int, entries):
        self._lu = lu
        self._d_s = d_s
        self._interior = interior
        self._entries = entries
        self.norm_1 = lu.norm_1

    def _permute(self, rhs: np.ndarray) -> np.ndarray:
        m, ds = self._interior, self._d_s
        return np.concatenate([rhs[m:m + ds], rhs[:m], rhs[m + ds:]])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(self._permute(np.asarray(rhs, dtype=float)))

    def det_sign(self) -> int:
        return self._lu.det_sign()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """J @ v in assembled ordering."""
        rows, cols, vals = self._entries
        return np.bincount(rows, weights=vals * v[cols], minlength=self._lu.n)


def banded_jacobian_lu(p: TruncatedProblem, x: np.ndarray) -> WindowLU:
    """Factor the window Jacobian in LAPACK band storage (see WindowLU)."""
    entries = rows, cols, vals = _jacobian_entries(p, x)
    d, m = p.d, 2 * p.N * p.d
    ds = p.left_rows.shape[0]
    kl = d + ds - 1
    ku = 2 * d - 1 - ds
    banded_rows = np.where(rows < m, rows + ds, np.where(rows < m + ds, rows - m, rows))
    ab = np.zeros((2 * kl + ku + 1, p.size))
    ab[kl + ku + banded_rows - cols, cols] = vals
    return WindowLU(BandedLU(ab, kl=kl, ku=ku), d_s=ds, interior=m, entries=entries)


def assemble_dresidual_dtheta(p: TruncatedProblem, x: np.ndarray, eps: float = 1e-7) -> np.ndarray:
    """Central-difference derivative of the residual in theta.

    Boundary rows are fixed data of the problem, so only the interior rows
    (-df_n/dtheta evaluated at x_n) contribute.
    """
    blocks = p.blocks(x)
    df = (
        f_rows(p.system, p.ns, p.theta + eps, blocks[:-1])
        - f_rows(p.system, p.ns, p.theta - eps, blocks[:-1])
    ) / (2.0 * eps)
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
    if tail_tol <= 0:
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
