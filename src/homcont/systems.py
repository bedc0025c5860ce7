"""Parametrized nonautonomous systems and assumption diagnostics.

A SystemFamily bundles the evaluation callables of a circle-parametrized
family f_n(theta, x) together with its asymptotic data: the limit matrices
a(theta, +/-inf) and the limit maps f_inf.  The built-in family is a
two-dimensional linear loop whose stable direction at +inf winds half a turn
per circuit (so its orientation invariant is -1) with an optional localized
quadratic perturbation; constructors for piecewise-constant linear families
and direct sums support building larger test systems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bundles import CircleGrid
from .errors import InvalidConfig, NoConvergence, SingularJacobian, SizeMismatch
from .spectral import DEFAULT_GAP_TOL, hyperbolic_splitting, symbol_smin


@dataclass(frozen=True, eq=False)
class SystemFamily:
    """Evaluation interface of a circle-parametrized nonautonomous system.

    f and dfdx evaluate rows: for an int array ns of shape (k,), a scalar
    theta and states X of shape (k, d), f(ns, theta, X) is the (k, d) array
    whose row i is f_{ns[i]}(theta, X[i]), and dfdx(ns, theta, X) the
    (k, d, d) array of the Jacobians in x.  a_plus/a_minus map theta to the
    d x d limit matrices and f_inf_plus/f_inf_minus(theta, x) evaluate the
    limit maps at one point.  All callables must be pure and 2*pi-periodic
    in theta, with f(ns, theta, 0) = 0 for every n and theta.
    """

    d: int
    f: Callable[[np.ndarray, float, np.ndarray], np.ndarray]
    dfdx: Callable[[np.ndarray, float, np.ndarray], np.ndarray]
    a_plus: Callable[[float], np.ndarray]
    a_minus: Callable[[float], np.ndarray]
    f_inf_plus: Callable[[float, np.ndarray], np.ndarray]
    f_inf_minus: Callable[[float, np.ndarray], np.ndarray]


def f_rows(system: SystemFamily, ns: np.ndarray, theta: float, X: np.ndarray) -> np.ndarray:
    """system.f at the rows (ns, X), checked to have shape (k, d)."""
    return _expect_shape(system.f(ns, theta, X), (len(ns), system.d), "f")


def dfdx_rows(system: SystemFamily, ns: np.ndarray, theta: float, X: np.ndarray) -> np.ndarray:
    """system.dfdx at the rows (ns, X), checked to have shape (k, d, d)."""
    return _expect_shape(system.dfdx(ns, theta, X), (len(ns), system.d, system.d), "dfdx")


def _expect_shape(values, shape: tuple, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise SizeMismatch(f"SystemFamily.{name} returned shape {values.shape}, expected {shape}")
    return values


@dataclass(frozen=True)
class Paper7Config:
    """Parameters of the built-in family.

    alpha/beta are the fixed stable/unstable eigenvalues of the rotating
    linear part; coupling scales the quadratic perturbation, whose strength
    decays like 1/(1 + (n/envelope_scale)^2) away from n = 0.
    """

    alpha: float = 0.5
    beta: float = 2.0
    coupling: float = 0.1
    envelope_scale: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig(f"alpha: must satisfy 0 < alpha < 1, got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > 1.0):
            raise InvalidConfig(f"beta: must be finite and greater than 1, got {self.beta!r}")
        if not (math.isfinite(self.coupling) and self.coupling >= 0.0):
            raise InvalidConfig(f"coupling: must be finite and >= 0, got {self.coupling!r}")
        if not (math.isfinite(self.envelope_scale) and self.envelope_scale > 0.0):
            raise InvalidConfig(
                f"envelope_scale: must be finite and positive, got {self.envelope_scale!r}"
            )


def rotating_matrix(theta: float, alpha: float, beta: float) -> np.ndarray:
    """diag(alpha, beta) conjugated by a rotation of theta/2.

    Eigenvalues are {alpha, beta} for every theta; the alpha-eigenvector is
    (cos(theta/2), sin(theta/2)), so the stable line winds half a turn as
    theta runs over [0, 2*pi].
    """
    s2 = math.sin(0.5 * theta) ** 2
    off = 0.5 * (alpha - beta) * math.sin(theta)
    return np.array(
        [
            [alpha + (beta - alpha) * s2, off],
            [off, alpha + (beta - alpha) * (1.0 - s2)],
        ]
    )


def paper7_family(cfg: Paper7Config) -> SystemFamily:
    """The built-in two-dimensional family with quadratic perturbation.

    Linear part: a_n(theta) = rotating_matrix(theta) for n >= 0 and the
    theta = 0 matrix diag(alpha, beta) for n < 0.  Perturbation:
    h_n(theta, x) = coupling / (1 + (n/tau)^2) * (x1^2 + x2^2, x1 x2),
    which vanishes to second order at x = 0 and decays as |n| grows, so the
    asymptotic maps are exactly the linear limits.  f and dfdx add the
    perturbation in place onto the per-row linear part (a_n x, a_n), the
    same floating-point operations as a_n x + h and a_n + dh/dx; a_minus
    does not depend on theta.
    """
    alpha, beta = cfg.alpha, cfg.beta
    c, tau = cfg.coupling, cfg.envelope_scale

    def a_of(theta: float) -> np.ndarray:
        return rotating_matrix(theta, alpha, beta)

    a_origin = a_of(0.0)

    def a_n(ns: np.ndarray, theta: float) -> np.ndarray:
        return _by_side(ns, a_of(theta), a_origin)

    def envelope(ns: np.ndarray) -> np.ndarray:
        return c / (1.0 + (ns / tau) ** 2)

    if tau < 1e-130:
        # (ns / tau)^2 can overflow to inf, which gives the exact limit 0;
        # for |ns| <= 2^53 and larger tau it stays below 1e292
        envelope = np.errstate(over="ignore")(envelope)

    def f(ns: np.ndarray, theta: float, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        x1, x2 = X[:, 0], X[:, 1]
        out = (a_n(ns, theta) @ X[..., None])[..., 0]
        env = envelope(ns)
        out[:, 0] += env * (x1 ** 2 + x2 ** 2)
        out[:, 1] += env * (x1 * x2)
        return out

    def dfdx(ns: np.ndarray, theta: float, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        x1, x2 = X[:, 0], X[:, 1]
        out = a_n(ns, theta)
        env = envelope(ns)
        out[:, 0, 0] += env * (2.0 * x1)
        out[:, 0, 1] += env * (2.0 * x2)
        out[:, 1, 0] += env * x2
        out[:, 1, 1] += env * x1
        return out

    return SystemFamily(
        d=2,
        f=f,
        dfdx=dfdx,
        a_plus=a_of,
        a_minus=lambda theta: a_origin.copy(),
        f_inf_plus=lambda theta, x: a_of(theta) @ np.asarray(x, dtype=float),
        f_inf_minus=lambda theta, x: a_origin @ np.asarray(x, dtype=float),
    )


def _by_side(ns: np.ndarray, plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Per-row stack of the d x d matrix plus where n >= 0 and minus where n < 0."""
    return np.where((np.asarray(ns) >= 0)[:, None, None], plus, minus)


def linear_family(
    d: int,
    a_plus_fn: Callable[[float], np.ndarray],
    a_minus_fn: Callable[[float], np.ndarray],
) -> SystemFamily:
    """Piecewise-constant linear family: a_plus(theta) for n >= 0, a_minus for n < 0."""

    def a_plus(theta: float) -> np.ndarray:
        return np.asarray(a_plus_fn(theta), dtype=float)

    def a_minus(theta: float) -> np.ndarray:
        return np.asarray(a_minus_fn(theta), dtype=float)

    def dfdx(ns: np.ndarray, theta: float, X: np.ndarray) -> np.ndarray:
        return _by_side(ns, a_plus(theta), a_minus(theta))

    return SystemFamily(
        d=d,
        f=lambda ns, theta, X: (dfdx(ns, theta, X) @ np.asarray(X, dtype=float)[..., None])[..., 0],
        dfdx=dfdx,
        a_plus=a_plus,
        a_minus=a_minus,
        f_inf_plus=lambda theta, x: a_plus(theta) @ np.asarray(x, dtype=float),
        f_inf_minus=lambda theta, x: a_minus(theta) @ np.asarray(x, dtype=float),
    )


def direct_sum(sys_a: SystemFamily, sys_b: SystemFamily) -> SystemFamily:
    """Block-diagonal composition of two families on R^(da+db)."""
    da = sys_a.d

    def split(x):
        x = np.asarray(x, dtype=float)
        return x[..., :da], x[..., da:]

    def f(ns, theta, X):
        xa, xb = split(X)
        return np.concatenate([sys_a.f(ns, theta, xa), sys_b.f(ns, theta, xb)], axis=-1)

    def dfdx(ns, theta, X):
        xa, xb = split(X)
        return _blockdiag(sys_a.dfdx(ns, theta, xa), sys_b.dfdx(ns, theta, xb))

    return SystemFamily(
        d=sys_a.d + sys_b.d,
        f=f,
        dfdx=dfdx,
        a_plus=lambda theta: _blockdiag(sys_a.a_plus(theta), sys_b.a_plus(theta)),
        a_minus=lambda theta: _blockdiag(sys_a.a_minus(theta), sys_b.a_minus(theta)),
        f_inf_plus=lambda theta, x: np.concatenate(
            [sys_a.f_inf_plus(theta, split(x)[0]), sys_b.f_inf_plus(theta, split(x)[1])]
        ),
        f_inf_minus=lambda theta, x: np.concatenate(
            [sys_a.f_inf_minus(theta, split(x)[0]), sys_b.f_inf_minus(theta, split(x)[1])]
        ),
    )


def _blockdiag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal [[a, 0], [0, b]] over the last two axes, stacks broadcast."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (ra + rb, ca + cb))
    out[..., :ra, :ca] = a
    out[..., ra:, ca:] = b
    return out


# ---------------------------------------------------------------------------
# Assumption diagnostics
# ---------------------------------------------------------------------------

@dataclass
class AssumptionCheck:
    name: str
    status: str  # "pass" | "warn" | "fail"
    evidence: dict = field(default_factory=dict)


@dataclass
class HypothesisReport:
    a1: AssumptionCheck
    a2: AssumptionCheck
    a3: AssumptionCheck
    a4: AssumptionCheck

    def checks(self) -> list[AssumptionCheck]:
        return [self.a1, self.a2, self.a3, self.a4]

    @property
    def any_fail(self) -> bool:
        return any(c.status == "fail" for c in self.checks())


def check_hypotheses(
    system: SystemFamily,
    grid: CircleGrid,
    N: int,
    M: float,
    seed: int = 0,
    gap_tol: float = DEFAULT_GAP_TOL,
    kernel_tol: float | None = None,
) -> HypothesisReport:
    """Numeric evidence for the standing assumptions on a system family.

    These are diagnostics, not proofs: equicontinuity (A1) and the
    trivial-kernel conditions (A3)/(A4) are semi-decidable, so the report
    records sampled moduli and smallest singular values.  A3's window and
    A4's bi-infinite limit operators fail when truncation.near_singular
    holds at kernel_tol (None: truncation.DEFAULT_KERNEL_TOL, the default
    of scan_parity and locate_bifurcation).  M must be finite and positive.
    """
    from . import truncation

    if kernel_tol is None:
        kernel_tol = truncation.DEFAULT_KERNEL_TOL
    if N < 10:
        raise ValueError("window N must be at least 10")
    if not 0 < M < math.inf:
        raise ValueError("radius M must be finite and positive")
    rng = np.random.default_rng(seed)
    a1 = _check_a1(system, grid, N, M, rng)
    a2 = _check_a2(system, grid, N, gap_tol)
    if a2.evidence.get("IndexMismatch"):
        # A3's window is not even square without the stable-dimension
        # balance; report A3 as a blocked failure.  A4 reads each limit
        # matrix on its own and needs no balance.
        a3 = AssumptionCheck("A3", "fail", {"blocked_by": "A2 stable-dimension mismatch"})
    else:
        a3 = _check_a3(system, N, gap_tol, kernel_tol)
    a4 = _check_a4(system, grid, M, rng, gap_tol, kernel_tol)
    return HypothesisReport(a1=a1, a2=a2, a3=a3, a4=a4)


def _sup_n_indices(N: int) -> np.ndarray:
    base = {-2 * N, -N, -N // 2, -5, -1, 0, 1, 5, N // 2, N, 2 * N}
    return np.array(sorted(base))


def _check_a1(system, grid, N, M, rng) -> AssumptionCheck:
    # Oscillation of dfdx over shrinking displacements on S^1 x B(0, M);
    # equicontinuity demands the modulus shrinks with the displacement.  A
    # non-finite dfdx sample makes its modulus inf, recorded as null, and
    # fails A1.
    thetas = grid.nodes[:: max(1, grid.m // 8)]
    ns = _sup_n_indices(N)

    def ball_point():
        v = rng.standard_normal(system.d)
        with np.errstate(all="ignore"):  # a radius near the float limit overflows
            return (M * rng.uniform(0.0, 1.0) / max(np.linalg.norm(v), 1e-300)) * v

    bases = [(float(t), ball_point()) for t in thetas for _ in range(2)]
    deltas = [0.4, 0.2, 0.1]
    moduli = []
    for delta in deltas:
        worst = 0.0
        for theta, x in bases:
            dtheta = delta * rng.choice([-1.0, 1.0])
            step = rng.standard_normal(system.d)
            dx = delta * step / max(np.linalg.norm(step), 1e-300)
            with np.errstate(all="ignore"):
                diff = (dfdx_rows(system, ns, theta + dtheta, np.tile(x + dx, (len(ns), 1)))
                        - dfdx_rows(system, ns, theta, np.tile(x, (len(ns), 1))))
            if np.all(np.isfinite(diff)):
                worst = max(worst, float(np.max(np.linalg.norm(diff, 2, axis=(1, 2)))))
            else:
                worst = math.inf
        moduli.append(worst)
    if not math.isfinite(max(moduli)):
        status = "fail"
    elif moduli[-1] <= 0.5 * moduli[0] + 1e-10:
        status = "pass"
    elif moduli[-1] <= moduli[0] + 1e-10:
        status = "warn"
    else:
        status = "fail"
    moduli = [m if math.isfinite(m) else None for m in moduli]
    return AssumptionCheck("A1", status, {"deltas": deltas, "moduli": moduli})


def _check_a2(system, grid, N, gap_tol) -> AssumptionCheck:
    # Distance of the linearization at zero from its limit at |n| = N/2,
    # then at |n| = N, on both sides.
    ns = np.array([N // 2, -(N // 2), N, -N])
    res_half, res_full = 0.0, 0.0
    dims = []
    for t in grid.nodes:
        a_plus, a_minus = system.a_plus(float(t)), system.a_minus(float(t))
        lin = dfdx_rows(system, ns, float(t), np.zeros((len(ns), system.d)))
        gaps = np.linalg.norm(lin - _by_side(ns, a_plus, a_minus), 2, axis=(1, 2))
        res_half = max(res_half, float(np.max(gaps[:2])))
        res_full = max(res_full, float(np.max(gaps[2:])))
        dims.append(
            (
                hyperbolic_splitting(a_plus, gap_tol).d_s,
                hyperbolic_splitting(a_minus, gap_tol).d_s,
            )
        )
    dim_set = set(dims)
    evidence = {
        "residual_at_half_window": res_half,
        "residual_at_window": res_full,
        "rate": res_full / res_half if res_half > 0 else 0.0,
        "stable_dims": sorted(dim_set),
    }
    if len(dim_set) != 1 or dims[0][0] != dims[0][1]:
        evidence["IndexMismatch"] = True
        return AssumptionCheck("A2", "fail", evidence)
    if res_full <= 1e-10 or res_full <= 0.75 * res_half:
        status = "pass"
    elif res_full <= res_half:
        status = "warn"
    else:
        status = "fail"
    return AssumptionCheck("A2", status, evidence)


def _check_a3(system, N, gap_tol, kernel_tol) -> AssumptionCheck:
    from . import continuation, truncation

    p = truncation.truncated_problem(system, 0.0, N, gap_tol=gap_tol)
    smin, _, sign, _ = truncation.classify_window(p, kernel_tol)
    # Nonlinear probe: the fixed-theta iteration of continuation's corrector
    # from small random starts at theta = 0 must fall back onto the trivial
    # solution.  A probe that does not converge or meets an exactly singular
    # LU has not returned: its norm counts as inf, recorded as null.
    rng = np.random.default_rng(12345)
    largest = 0.0
    for _ in range(3):
        x = 1e-2 * rng.standard_normal(p.size)
        try:
            x = continuation._newton(p, x, None, 1e-12, continuation.DEFAULT_MAX_ITER)[0]
            largest = max(largest, float(np.linalg.norm(x)))
        except (NoConvergence, SingularJacobian):
            largest = math.inf
    status = "pass" if (sign != 0 and largest < 1e-8) else "fail"
    return AssumptionCheck("A3", status, {
        "smin_theta0": smin,
        "largest_converged_norm": largest if math.isfinite(largest) else None,
    })


def _check_a4(system, grid, M, rng, gap_tol, kernel_tol) -> AssumptionCheck:
    """Each limit map's linearization a must pass the splitting's checks;
    x -> (x_{n+1} - a x_n) on l2(Z) has smallest singular value
    symbol_smin(a) and 1-norm 1 + ||a||_1: no window.  a is the exact limit
    matrix plus central differences of the nonlinear remainder
    f_inf(theta, x) - a(theta) x, so the differencing rounds with the
    remainder, not with ||a||; a limit map computed as a(theta) @ x gets a
    exactly."""
    from .truncation import near_singular

    def fd_matrix(limit_fn, a_fn, theta, x0):
        a0 = np.asarray(a_fn(theta), dtype=float)

        def remainder(x):
            return limit_fn(theta, x) - a0 @ x

        eps = 1e-6 * max(1.0, float(np.linalg.norm(x0)))
        return a0 + np.column_stack([(remainder(x0 + e) - remainder(x0 - e)) / (2 * eps)
                                     for e in np.diag(np.full(system.d, eps))])

    worst = np.inf
    singular = False
    nodes = grid.nodes[:: max(1, grid.m // 16)]
    for t in nodes:
        for limit_fn, a_fn in ((system.f_inf_plus, system.a_plus),
                               (system.f_inf_minus, system.a_minus)):
            with np.errstate(all="ignore"):
                probes = [np.zeros(system.d)] + [0.25 * M * rng.standard_normal(system.d)
                                                 for _ in range(2)]
            for x0 in probes:
                with np.errstate(all="ignore"):
                    a = fd_matrix(limit_fn, a_fn, float(t), x0)
                hyperbolic_splitting(a, gap_tol)
                smin = symbol_smin(a)
                worst = min(worst, smin)
                singular = singular or near_singular(smin, 1.0 + np.linalg.norm(a, 1), kernel_tol)
    status = "fail" if singular else "pass"
    return AssumptionCheck("A4", status, {"min_symbol_smin": worst, "nodes_scanned": len(nodes)})
