"""Newton correction and pseudo-arclength continuation of homoclinic branches.

The unknown is the pair (X, theta) with X a window vector; branch switching
replaces the parameter equation by an amplitude constraint <phi, X> = s0
against the kernel direction phi (the trivial branch violates it), and
continuation replaces it by the arclength constraint t . (z - z_pred) = 0
with secant tangents.  theta is carried as a lifted real, so branches wind
past 2*pi without seams.

Every linear solve and determinant sign goes through the banded window LU
of truncation.banded_jacobian_lu: fixed-theta systems directly, augmented
(X, theta) systems by block elimination on that LU with one refinement
step against the bordered residual.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .detect import BifurcationCandidate
from .errors import (
    DegenerateKernel,
    InvalidConfig,
    NoConvergence,
    SingularJacobian,
    StartInvalid,
    WindowOverflow,
)
from .spectral import DEFAULT_GAP_TOL
from .truncation import (
    ROUNDING_FLOOR,
    TruncatedProblem,
    adapt_window,
    assemble_dresidual_dtheta,
    assemble_residual,
    banded_jacobian_lu,
    embed_window,
    tail_mass,
    truncated_problem,
)

log = logging.getLogger(__name__)

DEFAULT_NEWTON_TOL = 1e-10
DEFAULT_MAX_ITER = 25
MAX_HALVINGS = 8


@dataclass(frozen=True)
class AffineConstraint:
    """Affine functional w_x . X + w_theta * theta = offset closing the
    augmented system when theta is freed."""

    w_x: np.ndarray
    w_theta: float
    offset: float

    def value(self, x: np.ndarray, theta: float) -> float:
        return float(self.w_x @ x + self.w_theta * theta - self.offset)


@dataclass(frozen=True, eq=False)
class BranchPoint:
    """One converged point of the homoclinic branch.

    problem is the window problem the point was corrected with; its rows
    belong to problem.theta, which differs from theta only where theta was
    freed with the rows held fixed (switch_branch's start keeps those of
    theta*).  continue_branch carries these rows on from point to point.
    det_sign is the determinant sign of the Newton system the point was
    corrected with (augmented when theta was freed), read from the
    corrector's own factorization (newton_correct, continue_branch).
    amplitude is <amplitude_ref, X>, or the l2 norm of X when amplitude_ref
    is None; sup_norm is the largest block norm of X.  All three norms are
    computed when read.
    """

    theta: float
    X: np.ndarray
    residual_norm: float
    det_sign: int
    problem: TruncatedProblem
    amplitude_ref: np.ndarray | None = None

    @property
    def N(self) -> int:
        return self.problem.N

    @property
    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.X))

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.problem.blocks(self.X), axis=1)))

    @property
    def amplitude(self) -> float:
        if self.amplitude_ref is None:
            return self.l2_norm
        return float(self.amplitude_ref @ self.X)


@dataclass(frozen=True)
class ContinuationControls:
    ds0: float = 1e-3
    ds_min: float = 1e-8
    ds_max: float = 0.01
    max_steps: int = 400
    amplitude_cap: float = 0.5
    tail_tol: float = 1e-8
    min_norm: float = 0.0

    def __post_init__(self):
        for name in ("ds0", "ds_min", "ds_max", "amplitude_cap", "tail_tol"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InvalidConfig(f"{name}: must be finite and positive, got {v!r}")
        if self.ds_min > self.ds_max:
            raise InvalidConfig(
                f"ds_min: must be at most ds_max = {self.ds_max!r}, got {self.ds_min!r}"
            )
        if not (isinstance(self.min_norm, (int, float)) and math.isfinite(self.min_norm)
                and self.min_norm >= 0):
            raise InvalidConfig(f"min_norm: must be finite and >= 0, got {self.min_norm!r}")
        if not self.max_steps >= 0:
            raise InvalidConfig(f"max_steps: must be at least 0, got {self.max_steps!r}")


@dataclass(frozen=True, eq=False)
class Branch:
    points: list[BranchPoint]
    stop_reason: str


def _schur(lu, col, constraint):
    """v = J^{-1} b and the Schur complement s = w_theta - w_x . v of the
    augmented Jacobian [[J, b], [w_x, w_theta]], whose determinant is
    det J * s; lu factors J and col is b = dR/dtheta."""
    v = lu.solve(col)
    return v, float(constraint.w_theta - constraint.w_x @ v)


def _solve_augmented(p, x, constraint, rhs):
    """Solve the augmented system by block elimination on the window LU,
    then one refinement step against the bordered residual (Govaerts and
    Pryce, BIT 30 (1990) 490-507), which restores accuracy when J itself is
    near-singular, as at a kernel crossing.  Returns the solution, the
    window LU it was solved with and the determinant sign of the augmented
    matrix, sign det J * sign s, read from that LU and Schur complement
    (never 0: an exactly singular J or a zero s raises SingularJacobian)."""
    lu = _finite_lu(p, x)
    col = assemble_dresidual_dtheta(p, x)
    v, schur = _schur(lu, col, constraint)
    if not (math.isfinite(schur) and schur != 0.0):
        raise SingularJacobian(f"bordered Schur complement is {schur!r}")
    w_x, w_theta = constraint.w_x, constraint.w_theta

    def eliminate(r):
        u = lu.solve(r[:-1])
        y = (r[-1] - w_x @ u) / schur
        return np.concatenate([u - y * v, [y]])

    z = eliminate(rhs)
    applied = np.concatenate([
        lu.matvec(z[:-1]) + z[-1] * col, [w_x @ z[:-1] + w_theta * z[-1]]
    ])
    return z + eliminate(rhs - applied), lu, lu.det_sign() if schur > 0 else -lu.det_sign()


def _augmented_det_sign(p, x, constraint) -> int:
    """Determinant sign of the augmented Jacobian, sign det J * sign s
    (Govaerts and Pryce), which needs no tolerance on J: near a kernel
    crossing J is near-singular while the bordered matrix is regular.  0
    only when J is exactly singular or s is zero or not finite."""
    lu = banded_jacobian_lu(p, x)
    sign = lu.det_sign()
    if sign == 0:
        return 0
    _, schur = _schur(lu, assemble_dresidual_dtheta(p, x), constraint)
    if not (math.isfinite(schur) and schur != 0.0):
        return 0
    return sign if schur > 0 else -sign


@np.errstate(all="ignore")
def _newton(p, guess, constraint, newton_tol, max_iter, residual=None):
    """Damped Newton on the (possibly augmented) truncated system.

    Returns (x, theta, residual_norm, iterations, r, det_sign), r the window
    residual at (x, theta) with p's rows; theta equals p.theta in
    fixed-theta mode.  det_sign is the determinant sign of the last system
    solved, the square J or the augmented matrix (_solve_augmented), read
    from the factorization the step was taken with; None when the guess had
    already converged and no system was solved.
    residual, when given, is assemble_residual(p, guess), already known to
    the caller, and is not assembled again.  The iteration has converged
    once the residual norm is at most newton_tol, or at most its rounding
    floor ROUNDING_FLOOR * ||J||_1 * max|x| (near_singular's floor), with
    ||J||_1 from the Jacobian last factored; the floor is reached before
    newton_tol when ||J||_1 is large.  Damping is a halving line search on the
    residual norm, at most MAX_HALVINGS halvings per step.  Floating-point
    overflow is not warned about: a residual at the guess that is not
    finite raises NoConvergence, a Jacobian that is not finite
    SingularJacobian, and a trial step whose residual is not finite is
    halved like any other that does not descend.
    """
    x = np.asarray(guess, dtype=float).copy()
    theta = p.theta

    def norms(x_, theta_, r=None):
        p_ = p if theta_ == p.theta else replace(p, theta=float(theta_))
        if r is None:
            r = assemble_residual(p_, x_)
        if constraint is None:
            return p_, r, float(np.linalg.norm(r))
        c = constraint.value(x_, theta_)
        return p_, np.concatenate([r, [c]]), max(float(np.linalg.norm(r)), abs(c))

    lu = sign = None  # the Jacobian last factored, the sign of the system solved

    def converged(rn_, x_):
        if rn_ <= newton_tol:
            return True
        floor = math.inf if lu is None else ROUNDING_FLOOR * lu.norm_1 * float(np.max(np.abs(x_)))
        return rn_ <= floor < math.inf

    p_cur, r, rn = norms(x, theta, residual)
    if not math.isfinite(rn):
        raise NoConvergence(f"residual at the Newton guess is not finite ({rn!r})")
    for it in range(max_iter):
        if converged(rn, x):
            return x, theta, float(np.linalg.norm(r[: p.size])), it, r[: p.size], sign
        if constraint is None:
            lu = _finite_lu(p_cur, x)
            dx, dtheta, sign = lu.solve(-r), 0.0, lu.det_sign()
        else:
            step, lu, sign = _solve_augmented(p_cur, x, constraint, -r)
            dx, dtheta = step[:-1], float(step[-1])
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            x_try = x + scale * dx
            theta_try = theta + scale * dtheta
            p_try, r_try, rn_try = norms(x_try, theta_try)
            if rn_try < rn or rn_try <= newton_tol:
                x, theta, p_cur, r, rn = x_try, theta_try, p_try, r_try, rn_try
                break
            scale *= 0.5
        else:
            raise NoConvergence(
                f"line search stalled at residual {rn:.3e} (iteration {it})"
            )
    if converged(rn, x):
        return x, theta, float(np.linalg.norm(r[: p.size])), max_iter, r[: p.size], sign
    raise NoConvergence(f"residual {rn:.3e} above {newton_tol:.1e} after {max_iter} iterations")


def _finite_lu(p, x):
    """banded_jacobian_lu(p, x), or SingularJacobian when the Jacobian has
    a non-finite entry (its 1-norm is not finite)."""
    lu = banded_jacobian_lu(p, x)
    if not math.isfinite(lu.norm_1):
        raise SingularJacobian(f"window Jacobian is not finite (1-norm {lu.norm_1!r})")
    return lu


def newton_correct(
    p,
    guess: np.ndarray,
    constraint: AffineConstraint | None = None,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    amplitude_ref: np.ndarray | None = None,
) -> BranchPoint:
    """Correct a guess to a converged branch point.

    With constraint = None theta is held at p.theta and the square window
    system is solved; otherwise theta is freed and the affine constraint
    closes the augmented system, solved by block elimination on the same
    window LU.  The recorded det_sign is that of the system actually solved:
    the corrector's last Newton system, from the factorization it already
    holds, so no window LU is made for it alone.  Only a guess that has
    already converged is factored once at the point for its sign (0 when
    that system is exactly singular).  The point keeps p, whose rows the
    system was solved with, and amplitude_ref, the direction its amplitude
    is measured along.
    """
    x, theta, rn, _, _, det = _newton(p, guess, constraint, newton_tol, DEFAULT_MAX_ITER)
    if det is None:
        p_final = p if theta == p.theta else replace(p, theta=float(theta))
        if constraint is None:
            det = banded_jacobian_lu(p_final, x).det_sign()
        else:
            det = _augmented_det_sign(p_final, x, constraint)
    return BranchPoint(theta=float(theta), X=x, residual_norm=rn, det_sign=det, problem=p,
                       amplitude_ref=amplitude_ref)


def switch_branch(
    system,
    cand: BifurcationCandidate,
    s0: float,
    N: int,
    newton_tol: float = DEFAULT_NEWTON_TOL,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> BranchPoint:
    """First nontrivial point off the trivial branch at a kernel crossing.

    Starts from X = s0 * phi with phi the candidate kernel vector, frees
    theta and imposes <phi, X> = s0, which every point of the trivial
    branch violates.  Any converged point therefore has l2 norm >= s0.
    A converged X at which the residual is exactly homogeneous,
    R(2 X) = 2 R(X) bit for bit (doubling is exact in floating point), lies
    on the kernel line of a family linear along X, which is no isolated
    homoclinic: DegenerateKernel.
    """
    if not (isinstance(s0, (int, float)) and math.isfinite(s0)) or s0 <= 0:
        raise InvalidConfig(f"s0: must be finite and positive, got {s0!r}")
    phi = np.asarray(cand.kernel_vector, dtype=float)
    size = system.d * (2 * N + 1)
    if phi.shape != (size,) or not np.all(np.isfinite(phi)):
        raise DegenerateKernel(
            f"kernel vector of length {phi.shape} unusable for window N={N} (need {size})"
        )
    nrm = np.linalg.norm(phi)
    if abs(nrm - 1.0) > 1e-8:
        raise DegenerateKernel(f"kernel vector norm {nrm:.3e} is not 1")

    p = truncated_problem(system, cand.theta_star, N, gap_tol=gap_tol)
    constraint = AffineConstraint(w_x=phi, w_theta=0.0, offset=float(s0))
    try:
        start = newton_correct(
            p, s0 * phi, constraint, newton_tol=newton_tol, amplitude_ref=phi
        )
    except NoConvergence as exc:
        raise NoConvergence(f"{exc}; try a smaller s0") from exc
    at_start = replace(p, theta=start.theta)
    if np.array_equal(assemble_residual(at_start, 2.0 * start.X),
                      2.0 * assemble_residual(at_start, start.X)):
        raise DegenerateKernel("linear family: no nonlinear branch (the kernel line is "
                               "not an isolated homoclinic)")
    return start


def _initial_tangent(p, x, orient_x):
    """Null tangent of the augmented Jacobian at (x, p.theta), oriented
    along orient_x."""
    constraint = AffineConstraint(w_x=orient_x, w_theta=0.0, offset=0.0)
    rhs = np.zeros(p.size + 1)
    rhs[-1] = 1.0
    t, _, _ = _solve_augmented(p, x, constraint, rhs)
    return t / np.linalg.norm(t)


def continue_branch(
    start: BranchPoint,
    controls: ContinuationControls,
    newton_tol: float = DEFAULT_NEWTON_TOL,
) -> Branch:
    """Pseudo-arclength continuation from a converged start point.

    Secant predictor (on the first step the augmented null tangent,
    oriented along the amplitude reference, so a start whose amplitude_ref
    is negated runs the branch backwards), Newton corrector with the
    arclength constraint; the step halves on corrector failure down to
    ds_min and doubles after four easy successes up to ds_max; the branch
    stops with "step_failure" once ds falls below ds_min.  Each rejected
    step is logged at INFO with its ds and the error that rejected it.

    The boundary rows are the start point's own, carried from
    start.problem.theta to start.theta and on to each accepted theta, and
    every accepted point is re-polished after its rows move, so the
    recorded residual always refers to the stored problem.  The re-polish
    starts from the corrector's final residual, whose interior rows are
    those at the new rows too; only the two boundary blocks are recomputed
    (assemble_residual's reuse), so a point that needs no further Newton
    step costs no f pass there.  A corrected point whose tail exceeds
    tail_tol is not accepted: the window is enlarged and the step retried
    with the same ds at the wider window.

    Each point records, as a fold/secondary-crossing diagnostic, the
    det_sign of the augmented Jacobian with the predictor tangent as its
    constraint row: the sign of the arclength corrector's last bordered
    system, read from the LU and Schur complement that solve already made
    (_solve_augmented).  That system lies within one Newton step of the
    point, on the rows of the last accepted theta; the signs differ only if
    the bordered matrix is singular in between.  A corrector that took no
    step factors once at the point instead (_augmented_det_sign).  All
    points share one continuous family of rows.  Amplitudes are measured
    along start.amplitude_ref (switch_branch's kernel direction), or along
    the start's own direction when it has none.
    """
    p = start.problem.transported(start.theta)
    d = p.d
    x = np.asarray(start.X, dtype=float).copy()
    r = assemble_residual(p, x)
    rn = float(np.linalg.norm(r))
    # A converged start may drift by rounding when its boundary rows are
    # moved to start.theta; absorb that, but reject anything genuinely
    # unconverged.
    if rn > 1e3 * newton_tol:
        raise StartInvalid(f"start point residual {rn:.3e} is not converged")
    if rn > newton_tol:
        try:
            x, _, rn, _, _, _ = _newton(p, x, None, newton_tol, 5, residual=r)
        except (NoConvergence, SingularJacobian) as exc:
            raise StartInvalid(f"start point does not satisfy its residual: {exc}") from exc

    amplitude_ref = start.amplitude_ref
    if amplitude_ref is None:
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            raise StartInvalid("start point is the trivial solution")
        amplitude_ref = x / nrm

    points = [BranchPoint(theta=start.theta, X=x, residual_norm=rn, det_sign=start.det_sign,
                          problem=p, amplitude_ref=amplitude_ref)]

    t = _initial_tangent(p, x, amplitude_ref)

    z = np.concatenate([x, [start.theta]])
    ds = controls.ds0
    streak = 0
    stop = None

    while True:
        if points[-1].l2_norm >= controls.amplitude_cap:
            stop = "amplitude_cap"
            break
        if len(points) - 1 >= controls.max_steps:
            stop = "max_steps"
            break

        z_pred = z + ds * t
        constraint = AffineConstraint(
            w_x=t[:-1], w_theta=float(t[-1]), offset=float(t @ z_pred)
        )
        p_step = replace(p, theta=float(z_pred[-1]))
        # A failed corrector, a fall back toward the trivial branch, a
        # failed re-polish and a step too small to move the point all reject
        # the step alike: halve ds and retry.
        try:
            x_new, theta_new, _, iters, r, det = _newton(
                p_step, z_pred[:-1], constraint, newton_tol, DEFAULT_MAX_ITER
            )
            if np.linalg.norm(x_new) < controls.min_norm:
                raise NoConvergence("corrector fell back below min_norm")
            # Carry the boundary rows to the new theta and re-polish there,
            # from the corrector's residual with the boundary blocks redone
            # at the new rows; p moves only once the step is accepted.
            p_new = p.transported(theta_new)
            x_new, _, rn, _, _, _ = _newton(p_new, x_new, None, newton_tol, 5,
                                            residual=assemble_residual(p_new, x_new, reuse=r))
            if theta_new == z[-1] and np.array_equal(x_new, z[:-1]):
                raise NoConvergence("the step did not move the point (zero secant)")
        except (NoConvergence, SingularJacobian) as exc:
            log.info("step rejected at ds=%.3e: %s: %s", ds, type(exc).__name__, exc)
            ds *= 0.5
            streak = 0
            if ds < controls.ds_min:
                stop = "step_failure"
                break
            continue

        if tail_mass(x_new, d) > controls.tail_tol:
            # The window is too narrow for the corrected point: widen it
            # (rows still at the last accepted theta) and retry the step
            # with the same ds, so every point comes out of the corrector.
            n_old = p.N
            try:
                p, _ = adapt_window(p, x_new, controls.tail_tol)
            except WindowOverflow:
                stop = "window_overflow"
                break
            log.info("window enlarged from N=%d to N=%d", n_old, p.N)
            amplitude_ref = embed_window(amplitude_ref, d, n_old, p.N)
            t = np.concatenate([embed_window(t[:-1], d, n_old, p.N), [t[-1]]])
            z = np.concatenate([embed_window(z[:-1], d, n_old, p.N), [z[-1]]])
            continue
        p = p_new

        if det is None:  # the corrector took no step: no bordered solve to read
            det = _augmented_det_sign(p, x_new, constraint)
        points.append(BranchPoint(theta=theta_new, X=x_new, residual_norm=rn, det_sign=det,
                                  problem=p, amplitude_ref=amplitude_ref))

        z_new = np.concatenate([x_new, [theta_new]])
        secant = z_new - z
        z = z_new
        t = secant / np.linalg.norm(secant)

        if iters <= 4:
            streak += 1
            if streak >= 4:
                ds = min(2.0 * ds, controls.ds_max)
                streak = 0
        else:
            streak = 0

    return Branch(points=points, stop_reason=stop)
