"""Finite-window discretization of the homoclinic equations.

The two-sided recurrence x_{n+1} = f_n(theta, x_n) is truncated to the
window [-N, N] with projection boundary conditions: the left endpoint is
constrained to the unstable subspace of a(theta, -inf) and the right
endpoint to the stable subspace of a(theta, +inf), written as orthonormal
rows annihilating those subspaces.  truncated_problem derives the rows at
one theta, and only the problem moves them, continuously, so determinant
signs along a path are comparable: TruncatedProblem.over carries them over
a whole circle grid (the parity scan), TruncatedProblem.transported to one
other theta (localization, continuation).  The unknown is the flat window
vector X = (x_{-N}, ..., x_N), length d*(2N+1).  The rows have one order,
in which the Jacobian is banded and which the residual, its theta
derivative and WindowLU all use: the d_s left boundary rows, the 2Nd
interior rows n = -N .. N-1, then the d_u right boundary rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import _linalg as lapack
from .bundles import (CircleGrid, limit_family, segment_nodes, transport_along_path,
                      transport_frames)
from .errors import SingularJacobian, SizeMismatch, WindowOverflow
from .spectral import DEFAULT_GAP_TOL
from .systems import dfdx_rows, f_rows

DEFAULT_N_MAX = 2 ** 12
TAIL_FRACTION = 0.25
THETA_STEP = 1e-7
# Kernel threshold of near_singular, absolute: an operator whose smallest
# singular value is not at least kernel_tol is near-singular.
DEFAULT_KERNEL_TOL = 1e-8
# Rounding floor of near_singular: an smin at or below ROUNDING_FLOOR times
# the operator's 1-norm is near-singular whatever kernel_tol is, since
# rounding alone can put it there.
ROUNDING_FLOOR = 64 * np.finfo(float).eps
# Constants of WindowLU.smallest_singular's two routes, described in its
# docstring and those of _gram_smallest and _lanczos_smallest.  Every cold
# start vector is seeded by _LANCZOS_SEED so that reruns are byte-identical.
LANCZOS_RTOL = 1e-14
_LANCZOS_SEED = 2012
GRAM_FLOOR = 1e-2
_GRAM_BRACKET_RTOL = 1e-3
_INVERSE_STEPS = 4
_RQI_STEPS = 4
_CERTIFY_ULPS = 64
# Margin of the warm start's shift e^2 (1 - _ESTIMATE_RTOL) below the
# square of an estimate e of smin: its Cholesky test fails, and the warm
# start falls back, when e^2 overshoots lambda_min by more than that.
_ESTIMATE_RTOL = 3.9e-3
# Divide-by-zero guard of smallest_singular, not a singularity criterion:
# pivots below _ZERO_PIVOT * ||J||_1 are raised to _RAISED_PIVOT * ||J||_1
# for its Lanczos solves.
_RAISED_PIVOT = 1e-12
_ZERO_PIVOT = _RAISED_PIVOT * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class TruncatedProblem:
    """Residual/Jacobian assembly data for one window and parameter value.

    families, the complement_families of system at gap_tol, is built with
    the first problem and handed on by dataclasses.replace (so by
    transported, over and adapt_window), so that every problem derived
    from one keeps the families' last splittings; a replace that changes
    system or gap_tol builds new ones."""

    system: object
    theta: float
    N: int
    left_rows: np.ndarray   # d_s x d, annihilates E^u(theta, -inf)
    right_rows: np.ndarray  # d_u x d, annihilates E^s(theta, +inf)
    gap_tol: float          # hyperbolicity gap of the splittings behind the rows
    # (system, gap_tol, left, right): the families and what they split
    _families: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.left_rows.shape[0] + self.right_rows.shape[0] != self.d:
            raise SizeMismatch(
                "boundary rows must total d; stable dimensions at +inf/-inf disagree"
            )
        if self._families is None or self._families[:2] != (self.system, self.gap_tol):
            families = complement_families(self.system, self.gap_tol)
            object.__setattr__(self, "_families", (self.system, self.gap_tol, *families))

    @property
    def families(self) -> tuple:
        """(left, right), the complement_families the rows are read from."""
        return self._families[2:]

    def transported(self, theta: float) -> "TruncatedProblem":
        """The same problem at theta, its boundary rows carried there from
        self.theta by bundles.transport_along_path on self.families, so
        that determinant signs along the path are those of one continuous
        family.

        A side whose limit matrix (a_minus for the left rows, a_plus for
        the right) is bitwise the same at every node of the path,
        self.theta included, keeps its rows as they are: parallel transport
        inside one fixed subspace is the identity, and the rows are a frame
        of that subspace already (the family's frame at self.theta, or
        carried onto it).  The limits are read only after
        bundles.segment_nodes has accepted the path (ValueError for a far
        or NaN theta), and reading one costs no split."""
        path = segment_nodes(self.theta, theta)
        left, right = self.families
        return replace(
            self,
            theta=float(theta),
            left_rows=_carried(self.system.a_minus, left, self.left_rows, path),
            right_rows=_carried(self.system.a_plus, right, self.right_rows, path),
        )

    def over(self, grid: CircleGrid) -> list["TruncatedProblem"]:
        """The same problem at every node of grid, its boundary rows
        carried there from its own: to grid.nodes[0] by transported (if not
        there already), then around the loop by one
        bundles.transport_frames call per side on the grid's
        complement_families.  Rows carried to 2*pi outside the row space
        they started in fail bundles.loop_closure (AlignmentFailure)."""
        theta0 = float(grid.nodes[0])
        start = self if self.theta == theta0 else self.transported(theta0)
        carried = []
        for rows, family in zip((start.left_rows, start.right_rows),
                                complement_families(self.system, self.gap_tol, grid)):
            def subspace_at(theta, rows=rows.T, family=family):
                return rows if theta == theta0 else family(theta)

            loop = transport_frames(subspace_at, grid)
            carried.append(loop.frames[np.searchsorted(loop.grid.nodes, grid.nodes)])
        return [replace(start, theta=float(theta), left_rows=left.T, right_rows=right.T)
                for theta, left, right in zip(grid.nodes, *carried)]

    @property
    def d(self) -> int:
        return self.system.d

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


def complement_families(system, gap_tol: float = DEFAULT_GAP_TOL,
                        grid: CircleGrid | None = None):
    """Frame functions of the boundary-condition subspace families.

    Returns (left, right): left(theta) spans E^u(theta,-inf)^perp and
    right(theta) spans E^s(theta,+inf)^perp, the bundles.limit_family
    parts "unstable_complement" of a_minus and "stable_complement" of
    a_plus, on grid if one is given (orientation per call is arbitrary;
    transport for continuity).
    """
    return (limit_family(system.a_minus, "unstable_complement", gap_tol, grid),
            limit_family(system.a_plus, "stable_complement", gap_tol, grid))


def _carried(limit_fn, family, rows: np.ndarray, path: list[float]) -> np.ndarray:
    """Boundary rows, a frame of family at path[0], carried along path
    (TruncatedProblem.transported): as they are when there are none or
    limit_fn is bitwise the same matrix at every node, else by
    transport_along_path on family."""
    if not len(rows):
        return rows
    first = np.asarray(limit_fn(path[0]), dtype=float)
    for theta in path[1:]:
        a = np.asarray(limit_fn(theta), dtype=float)
        if a.shape != first.shape or a.tobytes() != first.tobytes():
            return transport_along_path(family, rows.T, path[0], path[-1]).T
    return rows


def truncated_problem(system, theta: float, N: int,
                      gap_tol: float = DEFAULT_GAP_TOL) -> TruncatedProblem:
    """Build a window problem with boundary rows derived from the splittings
    at theta; TruncatedProblem.transported moves it along theta."""
    if N < 1:
        raise ValueError("window half-width N must be positive")
    left, right = families = complement_families(system, gap_tol)
    return TruncatedProblem(
        system=system,
        theta=float(theta),
        N=int(N),
        left_rows=left(theta).T,
        right_rows=right(theta).T,
        gap_tol=gap_tol,
        _families=(system, gap_tol, *families),
    )


def assemble_residual(p: TruncatedProblem, x: np.ndarray,
                      reuse: np.ndarray | None = None) -> np.ndarray:
    """The left boundary rows, the interior rows x_{n+1} - f_n(theta, x_n),
    then the right boundary rows.  reuse, a residual assembled at the same
    system, theta, N and x with other boundary rows, lends its interior
    rows: no f pass, only the two boundary blocks at p's rows."""
    blocks = p.blocks(x)
    if reuse is None:
        interior = (blocks[1:] - f_rows(p.system, p.ns, p.theta, blocks[:-1])).ravel()
    else:
        ds = p.left_rows.shape[0]
        interior = reuse[ds:ds + 2 * p.N * p.d]
    return np.concatenate([p.left_rows @ blocks[0], interior, p.right_rows @ blocks[-1]])


class WindowLU:
    """Banded LU of the window Jacobian (LAPACK gbtrf/gbtrs), its rows in
    the one order of the module docstring, so solve() takes right-hand
    sides and matvec() returns products as the residual lays them out.  The
    1-norm of J is taken from the band before factoring; it scales the
    rounding floor of the package's one singularity criterion
    (near_singular, in classify_window).  The unfactored band is kept for
    matvec and for the band of J^T J.  smallest_singular has two routes:
    a certified Gram route on that band, and Lanczos on these factors for
    the windows the Gram route turns away.
    """

    def __init__(self, ab: np.ndarray, kl: int, ku: int):
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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._exact_singular:
            raise SingularJacobian("banded LU is exactly singular")
        x, info = lapack.dgbtrs(self._lu, self._kl, self._ku, rhs, self._ipiv)
        if info != 0:
            raise SingularJacobian(f"dgbtrs failed with info={info}")
        return x

    def det_sign(self) -> int:
        """Pivot signs times the row-interchange parity; 0 only when the LU
        is exactly singular (dgbtrf met an exactly zero pivot) or a pivot
        is not finite.  Whether a window is near-singular is
        classify_window's question."""
        if self._exact_singular or not np.isfinite(self._udiag).all():
            return 0
        # every pivot is now finite and nonzero, so the sign is the parity
        # of the row interchanges (scipy returns the gbtrf pivot indices
        # 0-based) plus the negative pivots
        flips = (np.count_nonzero(self._ipiv != np.arange(self._n))
                 + np.count_nonzero(self._udiag < 0))
        return -1 if flips % 2 else 1

    def smallest_singular(self, estimate: float | None = None,
                          start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
        """(smin, v): the smallest singular value of J and a unit right
        singular vector for it, a window vector, sign arbitrary, by one of
        two routes, with G = J^T J and mu0 = (GRAM_FLOOR * ||J||_1)^2:
        1. _gram_smallest on the band of G, when it is finite, proves
           lambda_min(G) > mu0 by one Cholesky test and certifies smin, or
           returns None when that test fails;
        2. otherwise _lanczos_smallest runs on the LU's factors, its pivots
           below _ZERO_PIVOT * ||J||_1 (exact zeros among them) raised to
           _RAISED_PIVOT * ||J||_1, here and nowhere else.  A floored pivot
           gives smin = 0, and v is still a unit kernel vector of J.

        estimate, a guess of smin, and start, a guess of v such as a
        neighbouring window's singular vector, act together or not at all,
        and only in route 1, which certifies smin by the same two Cholesky
        tests whatever they are: they change the cost and the last bits of
        smin, never the eigenvalue returned or the route taken.
        """
        gram = self._gram_band()
        if np.all(np.isfinite(gram)):
            result = self._gram_smallest(gram, estimate, start)
            if result is not None:
                return result
        tiny = np.abs(self._udiag) < _ZERO_PIVOT * self.norm_1
        lu = self._lu.copy()
        lu[self._kl + self._ku, tiny] = _RAISED_PIVOT * self.norm_1
        smin, v = self._lanczos_smallest(lu)
        return (0.0 if np.any(tiny) else smin), v

    def _lanczos_smallest(self, lu: np.ndarray) -> tuple[float, np.ndarray]:
        """smallest_singular's route for windows below the Gram floor, on lu,
        the LU's factors with the pivot floor applied.

        Lanczos runs with full reorthogonalization on J^-1 J^-T = (J^T J)^-1:
        each step is two gbtrs solves (transposed, then plain) on lu,
        O(n * bandwidth), plus the reorthogonalization against the k vectors
        so far, O(n * k).  The run starts from the seeded vector q (a
        structured vector such as all-ones can be orthogonal to a symmetric
        kernel) and stops when the top Ritz pair (t, s) of the k x k
        tridiagonal has |beta_k * s_k| <= LANCZOS_RTOL * t, or at k = n,
        where the Krylov space is the whole space; then smin = t^(-1/2).
        Convergence is tested on a growing schedule of k, and the Krylov
        buffer grows on demand.  Near-singular windows converge in a few
        steps; the Gram route keeps clustered regular windows, where
        Lanczos is slow, off it."""
        n, kl, ku = self._n, self._kl, self._ku
        basis = np.empty((min(n, 8), n))
        q = _seeded_unit_vector(n)
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
        return float(1.0 / np.sqrt(t)), v

    def _gram_smallest(self, gram: np.ndarray, estimate: float | None,
                       start: np.ndarray | None) -> tuple[float, np.ndarray] | None:
        """(smin, v) from the band of G = J^T J, or None when G - mu0 I has
        no Cholesky factor.  By Sylvester's inertia dpbtrf factors G - mu I
        exactly when mu < lambda_min(G), so each test narrows one bracket
        (lo, hi] on lambda_min, from (mu0, min diag G] (a diagonal entry is
        a Rayleigh quotient, so G - (min diag G) I never factors), and the
        factor at lo is kept.  In order:

        1. warm start, only with a finite nonzero start and an estimate
           whose warm_shift lies below min diag G: one test at that shift.
           A factor makes the shift lo and start the vector of step 3; a
           failure makes the shift hi;
        2. otherwise one test at mu0 proves the route or returns None.  The
           bracket is then bisected by tests to a relative width of
           _GRAM_BRACKET_RTOL, and the seeded vector is step 3's vector;
        3. _INVERSE_STEPS inverse-iteration solves with the factor at lo
           turn the vector into v, and Rayleigh-quotient iteration refines
           v to a value mu.  mu is accepted only when mu > lo, G - mu (1 -
           c) I factors and G - mu (1 + c) I does not, c = _CERTIFY_ULPS *
           eps * max(1, min diag G / mu), so lambda_min lies in (mu (1 - c),
           mu (1 + c)]; the Cholesky test's rounding grows with the
           diagonal of G, hence the ratio.  (sqrt(mu), the RQI vector) is
           returned.

        A failed certificate (RQI found another eigenvalue of a clustered
        spectrum, or the tests disagree at rounding level) narrows the
        bracket by whichever of its two tests fell inside it.  A warm one
        then runs step 2's bisection and step 3 from that bracket; a cold
        one bisects on to a relative width of 2 * eps, the cost of a
        bisection from lo, smin is the root of the midpoint, and
        _INVERSE_STEPS more solves with the last factor turn step 3's
        inverse-iteration vector into v."""
        diag_min = float(np.min(gram[-1]))
        lo, hi, factor = (GRAM_FLOOR * self.norm_1) ** 2, diag_min, None
        shift = warm_shift(estimate, self.norm_1) if start is not None else None
        if shift is not None and shift < hi and 0.0 < np.linalg.norm(start) < np.inf:
            factor = _shifted_cholesky(gram, shift)
            if factor is None:
                hi = shift
            else:
                lo = shift
        if factor is None:
            factor, start = _shifted_cholesky(gram, lo), None
            if factor is None:
                return None
        for warm in (True, False) if start is not None else (False,):
            if not warm:
                lo, hi, factor = _bisect(gram, lo, hi, factor, _GRAM_BRACKET_RTOL)
            v = _inverse_iteration(factor, start if warm else _seeded_unit_vector(self._n),
                                   _INVERSE_STEPS)
            mu, rqi_v = self._rayleigh_quotient_iteration(gram, v, diag_min)
            if mu > lo:  # every Rayleigh quotient is >= lambda_min > lo
                c = _CERTIFY_ULPS * np.finfo(float).eps * max(1.0, diag_min / mu)
                below = _shifted_cholesky(gram, mu * (1.0 - c))
                above = _shifted_cholesky(gram, mu * (1.0 + c))
                if below is not None and above is None:
                    return float(np.sqrt(mu)), rqi_v
                for test, test_factor in ((mu * (1.0 - c), below), (mu * (1.0 + c), above)):
                    if lo < test < hi:
                        if test_factor is None:
                            hi = test
                        else:
                            lo, factor = test, test_factor
        lo, hi, factor = _bisect(gram, lo, hi, factor, 2.0 * np.finfo(float).eps)
        return float(np.sqrt(0.5 * (lo + hi))), _inverse_iteration(factor, v, _INVERSE_STEPS)

    def _rayleigh_quotient_iteration(self, gram: np.ndarray, v: np.ndarray,
                                     diag_min: float) -> tuple[float, np.ndarray]:
        """(mu, v) by Rayleigh-quotient iteration on G = J^T J from unit v:
        each step factors G - mu I as a general band (dgbtrf, kl = ku = kd;
        G - mu I is indefinite) and solves with v, mu = ||J v||^2 being the
        Rayleigh quotient (computed from J, whose condition number is the
        root of G's).  A step whose solve w has 1 / ||w||, the residual of
        w / ||w|| for the old mu, is at most _CERTIFY_ULPS * eps * max(mu,
        min diag G) is the last; so is an exactly singular factor, at which mu
        is an eigenvalue to working precision.  At most _RQI_STEPS steps;
        the caller certifies mu."""
        kd, n = gram.shape[0] - 1, self._n
        band = np.zeros((3 * kd + 1, n))
        band[kd:2 * kd + 1] = gram  # upper triangle, superdiagonal kd first
        for o in range(1, kd + 1):
            band[2 * kd + o, :n - o] = gram[kd - o, o:]  # G[j + o, j] = G[j, j + o]
        mu = self._rayleigh_quotient(v)
        for _ in range(_RQI_STEPS):
            shifted = band.copy()
            shifted[2 * kd] -= mu
            lu, ipiv, info = lapack.dgbtrf(shifted, kd, kd, overwrite_ab=1)
            if info != 0:
                break
            w, _ = lapack.dgbtrs(lu, kd, kd, v, ipiv)
            size = float(np.linalg.norm(w))
            if not np.isfinite(size):
                break
            v = w / size
            mu = self._rayleigh_quotient(v)
            if 1.0 / size <= _CERTIFY_ULPS * np.finfo(float).eps * max(mu, diag_min):
                break
        return mu, v

    def _rayleigh_quotient(self, v: np.ndarray) -> float:
        """v^T J^T J v = ||J v||^2 for unit v."""
        return float(np.sum(self.matvec(v) ** 2))

    def _gram_band(self) -> np.ndarray:
        """J^T J in LAPACK upper band storage, half-bandwidth kd = kl + ku:
        row kd - o holds superdiagonal o, G[j, j + o] at column j + o.
        With B the unfactored band (B[r, j] = J[j + r - ku, j]),
        G[j, j + o] = sum over r = o .. kd of B[r, j] * B[r - o, j + o]."""
        band = self._ab[self._kl:]
        kd, n = band.shape[0] - 1, self._n
        gram = np.zeros((kd + 1, n))
        for o in range(kd + 1):
            gram[kd - o, o:] = np.einsum("rj,rj->j", band[o:, :n - o], band[:kd + 1 - o, o:])
        return gram

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """J @ v from the unfactored band.  Diagonals are summed from kl
        down to -ku, so each row adds its entries in column order."""
        n, kl, ku = self._n, self._kl, self._ku
        out = np.zeros(n)
        for offset in range(kl, -ku - 1, -1):  # row i - column j
            diag = self._ab[kl + ku + offset]
            if offset >= 0:
                out[offset:] += diag[:n - offset] * v[:n - offset]
            else:
                out[:n + offset] += diag[-offset:] * v[-offset:]
        return out


def warm_shift(estimate: float | None, scale: float) -> float | None:
    """The shift smallest_singular's warm start tests for an estimate e of
    the smallest singular value of a window J with scale = ||J||_1: e^2 (1
    - _ESTIMATE_RTOL), or None when e is None, not finite or not positive,
    or when that shift is not above the Gram floor (GRAM_FLOOR * scale)^2."""
    if estimate is None or not 0.0 < estimate < np.inf:
        return None
    shift = float(estimate) * float(estimate) * (1.0 - _ESTIMATE_RTOL)
    return shift if shift > (GRAM_FLOOR * scale) ** 2 else None


def _shifted_cholesky(gram: np.ndarray, mu: float) -> np.ndarray | None:
    """Cholesky factor (dpbtrf, upper band storage) of gram - mu I, or None
    when that matrix is not positive definite."""
    shifted = gram.copy()
    shifted[-1] -= mu
    factor, info = lapack.dpbtrf(shifted, overwrite_ab=1)
    return factor if info == 0 else None


def _bisect(gram: np.ndarray, lo: float, hi: float, factor: np.ndarray,
            rtol: float) -> tuple[float, float, np.ndarray]:
    """Halve [lo, hi], which brackets lambda_min(gram), by Cholesky tests of
    gram - mid I until hi - lo <= rtol * hi; factor is the Cholesky factor at
    lo and is returned for the final lo.  rtol >= 2 * eps keeps every
    midpoint strictly inside, so the loop ends."""
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        mid_factor = _shifted_cholesky(gram, mid)
        if mid_factor is None:
            hi = mid
        else:
            lo, factor = mid, mid_factor
    return lo, hi, factor


def _inverse_iteration(factor: np.ndarray, v: np.ndarray, steps: int) -> np.ndarray:
    """steps normalized solves of v with a banded Cholesky factor."""
    for _ in range(steps):
        v, _ = lapack.dpbtrs(factor, v)
        v /= np.linalg.norm(v)
    return v


@lru_cache(maxsize=8)
def _seeded_unit_vector(n: int) -> np.ndarray:
    """The unit start vector of both smallest_singular routes, read-only and
    cached per n: seeding a generator costs more than a banded solve."""
    q = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
    q /= np.linalg.norm(q)
    q.flags.writeable = False
    return q


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

    Band row kl + ku + i - j of column j holds J[i, j], i in the window
    system's row order [left, interior, right]; kl rows of workspace sit on
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
    return WindowLU(ab, kl, ku)


def classify_window(p: TruncatedProblem, kernel_tol: float, estimate: float | None = None,
                    start: np.ndarray | None = None):
    """The package's one singularity criterion, on the window linearization
    at X = 0: (smin, scale, sign, kernel vector), all from the one band of J
    that banded_jacobian_lu writes.  smin and its unit right singular
    vector come from WindowLU.smallest_singular, whose docstring says which
    route it takes; estimate, a guess of smin, and start, a guess of the
    vector (a neighbouring window's), only move where its Gram route starts,
    and smin is certified whatever they are.  scale = ||J||_1, and sign is
    the determinant sign, or 0 exactly when the window is near-singular:
    when near_singular(smin, scale, kernel_tol)."""
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    smin, vec = lu.smallest_singular(estimate, start)
    sign = 0 if near_singular(smin, lu.norm_1, kernel_tol) else lu.det_sign()
    return smin, lu.norm_1, sign, vec


def near_singular(smin: float, scale: float, kernel_tol: float) -> bool:
    """The package's one singularity criterion: an operator with smallest
    singular value smin and 1-norm scale is near-singular unless smin >=
    kernel_tol and smin > ROUNDING_FLOOR * scale.  kernel_tol is absolute:
    smin is the 2-norm distance to the nearest singular operator
    (Eckart-Young); scale enters only the rounding floor, below which the
    LU's determinant sign is noise.  NaN is singular, and the product is
    taken in Python floats, which overflow to inf silently."""
    return not (smin >= kernel_tol and smin > ROUNDING_FLOOR * float(scale))


def assemble_dresidual_dtheta(p: TruncatedProblem, x: np.ndarray) -> np.ndarray:
    """Central-difference derivative of the residual in theta, step THETA_STEP.

    Boundary rows are fixed data of the problem, so only the interior rows
    (-df_n/dtheta evaluated at x_n) contribute; both boundary blocks are zero.
    """
    blocks = p.blocks(x)
    df = (
        f_rows(p.system, p.ns, p.theta + THETA_STEP, blocks[:-1])
        - f_rows(p.system, p.ns, p.theta - THETA_STEP, blocks[:-1])
    ) / (2.0 * THETA_STEP)
    ds = p.left_rows.shape[0]
    return np.concatenate([np.zeros(ds), -df.ravel(), np.zeros(p.d - ds)])


def tail_mass(x: np.ndarray, d: int) -> float:
    """Largest block norm over the outer TAIL_FRACTION of the window,
    |n| >= (1 - TAIL_FRACTION) * N."""
    x = np.asarray(x, dtype=float)
    if x.size % d != 0 or (x.size // d) % 2 != 1:
        raise SizeMismatch("window vector length must be d * (2N + 1)")
    blocks = x.reshape(-1, d)
    N = (blocks.shape[0] - 1) // 2
    # the integers |n| >= (1 - TAIL_FRACTION) * N - 1e-12 are |n| >= k:
    # blocks n = -N .. -k and n = k .. N
    k = int(np.ceil((1.0 - TAIL_FRACTION) * N - 1e-12))
    # np.linalg.norm's sums of squares; sqrt is monotone and correctly
    # rounded, so the root of the largest is bitwise the largest norm
    left, right = blocks[:N - k + 1], blocks[N + k:]
    return float(np.sqrt(np.maximum((left * left).sum(axis=1).max(),
                                    (right * right).sum(axis=1).max())))


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


def adapt_window(p: TruncatedProblem, x: np.ndarray,
                 tail_tol: float) -> tuple[TruncatedProblem, np.ndarray]:
    """Double the window until the predicted tail clears tail_tol.

    The vector is zero-padded (homoclinics decay, so the padding error is
    below the tolerance by construction) and the boundary rows are reused at
    the same theta.  The required width is predicted from the measured decay
    rate rho of the current data: the window N is accepted once
    A * rho^((1 - TAIL_FRACTION) * N) <= tail_tol, with A the peak block
    norm.  A tail that does not decay, or a width beyond DEFAULT_N_MAX
    (read at each call), raises WindowOverflow.
    """
    if not tail_tol > 0:
        raise ValueError("tail_tol must be positive")
    if tail_mass(x, p.d) <= tail_tol:
        return p, np.asarray(x, dtype=float)

    blocks = p.blocks(x)
    amplitude = float(np.max(np.linalg.norm(blocks, axis=1)))
    rho = _estimate_decay(blocks, p.N)
    if rho >= 1.0 - 1e-9:
        raise WindowOverflow("window data does not decay; enlargement cannot help")

    n_new = p.N
    while True:
        n_new *= 2
        if n_new > DEFAULT_N_MAX:
            raise WindowOverflow(
                f"window {n_new} exceeds the cap {DEFAULT_N_MAX} before the tail prediction "
                f"{amplitude:.2e} * {rho:.4f}^({1 - TAIL_FRACTION} N) reaches {tail_tol:.1e}"
            )
        if amplitude * rho ** ((1.0 - TAIL_FRACTION) * n_new) <= tail_tol:
            break

    return replace(p, N=n_new), embed_window(x, p.d, p.N, n_new)
