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
    DEFAULT_N_MAX,
    TAIL_FRACTION,
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
    """

    theta: float
    X: np.ndarray
    amplitude: float
    sup_norm: float
    l2_norm: float
    residual_norm: float
    det_sign: int
    problem: TruncatedProblem

    @property
    def N(self) -> int:
        return self.problem.N


@dataclass(frozen=True)
class ContinuationControls:
    ds0: float = 1e-3
    ds_min: float = 1e-8
    ds_max: float = 0.01
    max_steps: int = 200
    amplitude_cap: float = 0.5
    tail_tol: float = 1e-8
    min_norm: float = 0.0
    n_max: int = DEFAULT_N_MAX

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
        if not self.n_max >= 1:
            raise InvalidConfig(f"n_max: must be at least 1, got {self.n_max!r}")


@dataclass(frozen=True, eq=False)
class Branch:
    points: list[BranchPoint]
    stop_reason: str


def _block_sup_norm(x: np.ndarray, d: int) -> float:
    return float(np.max(np.linalg.norm(x.reshape(-1, d), axis=1)))


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
    near-singular, as at a kernel crossing."""
    lu = banded_jacobian_lu(p, x)
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
    return z + eliminate(rhs - applied)


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


def _newton(p, guess, constraint, newton_tol, max_iter):
    """Damped Newton on the (possibly augmented) truncated system.

    Returns (x, theta, residual_norm, iterations); theta equals p.theta in
    fixed-theta mode.  Damping is a halving line search on the residual
    norm, at most MAX_HALVINGS halvings per step.
    """
    x = np.asarray(guess, dtype=float).copy()
    theta = p.theta

    def norms(x_, theta_):
        p_ = p if theta_ == p.theta else replace(p, theta=float(theta_))
        r = assemble_residual(p_, x_)
        if constraint is None:
            return p_, r, float(np.linalg.norm(r))
        c = constraint.value(x_, theta_)
        return p_, np.concatenate([r, [c]]), max(float(np.linalg.norm(r)), abs(c))

    p_cur, r, rn = norms(x, theta)
    for it in range(max_iter):
        if rn <= newton_tol:
            return x, theta, float(np.linalg.norm(r[: p.size])), it
        if constraint is None:
            dx, dtheta = banded_jacobian_lu(p_cur, x).solve(-r), 0.0
        else:
            step = _solve_augmented(p_cur, x, constraint, -r)
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
    if rn <= newton_tol:
        return x, theta, float(np.linalg.norm(r[: p.size])), max_iter
    raise NoConvergence(f"residual {rn:.3e} above {newton_tol:.1e} after {max_iter} iterations")


def _make_point(p, x, theta, residual_norm, det, amplitude_ref):
    l2 = float(np.linalg.norm(x))
    amplitude = float(amplitude_ref @ x) if amplitude_ref is not None else l2
    return BranchPoint(
        theta=float(theta),
        X=x.copy(),
        amplitude=amplitude,
        sup_norm=_block_sup_norm(x, p.d),
        l2_norm=l2,
        residual_norm=residual_norm,
        det_sign=det,
        problem=p,
    )


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
    window LU.  The recorded det_sign is that of the system actually solved
    (0 when it is exactly singular); amplitude is measured against
    amplitude_ref, or falls back to the l2 norm.  The point keeps p, whose
    rows the system was solved with.
    """
    x, theta, rn, _ = _newton(p, guess, constraint, newton_tol, DEFAULT_MAX_ITER)
    p_final = p if theta == p.theta else replace(p, theta=float(theta))
    if constraint is None:
        det = banded_jacobian_lu(p_final, x).det_sign()
    else:
        det = _augmented_det_sign(p_final, x, constraint)
    return _make_point(p, x, theta, rn, det, amplitude_ref)


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
        return newton_correct(
            p, s0 * phi, constraint, newton_tol=newton_tol, amplitude_ref=phi
        )
    except NoConvergence as exc:
        raise NoConvergence(f"{exc}; try a smaller s0") from exc


def _initial_tangent(p, x, orient_x):
    """Null tangent of the augmented Jacobian at (x, p.theta), oriented
    along orient_x."""
    constraint = AffineConstraint(w_x=orient_x, w_theta=0.0, offset=0.0)
    rhs = np.zeros(p.size + 1)
    rhs[-1] = 1.0
    t = _solve_augmented(p, x, constraint, rhs)
    return t / np.linalg.norm(t)


def continue_branch(
    start: BranchPoint,
    controls: ContinuationControls,
    amplitude_ref: np.ndarray | None = None,
    initial_tangent: np.ndarray | None = None,
    newton_tol: float = DEFAULT_NEWTON_TOL,
) -> Branch:
    """Pseudo-arclength continuation from a converged start point.

    Secant predictor (augmented null tangent on the first step), Newton
    corrector with the arclength constraint; the step halves on corrector
    failure down to ds_min and doubles after four easy successes up to
    ds_max.  The boundary rows are the start point's own, carried from
    start.problem.theta to start.theta and on to each accepted theta, and
    accepted points are re-polished whenever the rows move or the window is
    enlarged, so the recorded residual always refers to the stored problem.
    det_sign of the augmented Jacobian (constraint row = predictor tangent)
    is recorded per point as a fold/secondary-crossing diagnostic; all
    points share one continuous family of rows.
    """
    p = start.problem.transported(start.theta)
    d = p.d
    x = np.asarray(start.X, dtype=float).copy()
    rn = float(np.linalg.norm(assemble_residual(p, x)))
    # A converged start may drift by rounding when its boundary rows are
    # moved to start.theta; absorb that, but reject anything genuinely
    # unconverged.
    if rn > 1e3 * newton_tol:
        raise StartInvalid(f"start point residual {rn:.3e} is not converged")
    if rn > newton_tol:
        try:
            x, _, rn, _ = _newton(p, x, None, newton_tol, 5)
        except (NoConvergence, SingularJacobian) as exc:
            raise StartInvalid(f"start point does not satisfy its residual: {exc}") from exc

    if amplitude_ref is None:
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            raise StartInvalid("start point is the trivial solution")
        amplitude_ref = x / nrm
    amplitude_ref = np.asarray(amplitude_ref, dtype=float).copy()

    start_pt = _make_point(p, x, start.theta, rn, start.det_sign, amplitude_ref)
    points = [start_pt]

    if initial_tangent is not None:
        t = np.asarray(initial_tangent, dtype=float).copy()
        t /= np.linalg.norm(t)
    else:
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
        # A failed corrector, a fall back toward the trivial branch and a
        # failed re-polish all reject the step alike: halve ds and retry.
        try:
            x_new, theta_new, _, iters = _newton(
                p_step, z_pred[:-1], constraint, newton_tol, DEFAULT_MAX_ITER
            )
            if np.linalg.norm(x_new) < controls.min_norm:
                raise NoConvergence("corrector fell back below min_norm")
            # Carry the boundary rows to the accepted theta and re-polish there.
            p = p.transported(theta_new)
            x_new, _, rn, _ = _newton(p, x_new, None, newton_tol, 5)
        except (NoConvergence, SingularJacobian):
            ds *= 0.5
            streak = 0
            if ds < controls.ds_min:
                stop = "step_failure"
                break
            continue

        if tail_mass(x_new, TAIL_FRACTION, d) > controls.tail_tol:
            try:
                n_old = p.N
                p, x_new = adapt_window(p, x_new, controls.tail_tol, controls.n_max)
                log.info("window enlarged from N=%d to N=%d", n_old, p.N)
                x_new, _, rn, _ = _newton(p, x_new, None, newton_tol, DEFAULT_MAX_ITER)
                amplitude_ref = embed_window(amplitude_ref, d, n_old, p.N)
                t = np.concatenate([embed_window(t[:-1], d, n_old, p.N), [t[-1]]])
                z = np.concatenate([embed_window(z[:-1], d, n_old, p.N), [z[-1]]])
            except WindowOverflow:
                stop = "window_overflow"
                break
            except (NoConvergence, SingularJacobian):
                stop = "step_failure"
                break

        det = _augmented_det_sign(
            p, x_new, AffineConstraint(w_x=t[:-1], w_theta=float(t[-1]), offset=0.0)
        )
        points.append(_make_point(p, x_new, theta_new, rn, det, amplitude_ref))

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
