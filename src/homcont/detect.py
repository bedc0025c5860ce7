"""Parity scans and bifurcation localization along the parameter loop.

The truncated linearization at the trivial solution is assembled at every
grid node from one window problem walked node to node by
TruncatedProblem.transported, so its boundary rows vary continuously.  Its
determinant sign is then a well-defined function of theta whose flips
locate kernel crossings; the product of the endpoint signs (rows derived at
0 versus rows carried to 2*pi) is the loop parity, which must match
(-1)^(number of sign changes).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bundles import CircleGrid
from .errors import AlignmentFailure, InconsistentParity, MaxIterations, NoSignChange
from .spectral import DEFAULT_GAP_TOL
from .truncation import DEFAULT_KERNEL_TOL, classify_window, truncated_problem

# Iteration budget of the bisection and of the golden-section fallback.
MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class ParityScan:
    """Determinant signs of the truncated linearization along the loop.

    grid is the grid given to scan_parity (no nodes are added); det_signs
    holds +1/-1 per node, with 0 marking nodes that
    truncation.classify_window finds near-singular; excluded nodes do not
    enter the sign-change count but end up inside candidate intervals.
    smin holds each node's smallest singular value, from the same banded
    LU as its determinant sign (WindowLU.smallest_singular).
    dip_intervals brackets nodes whose smin dips four orders of magnitude
    below the grid median without a determinant sign change: candidate
    even-multiplicity crossings, which carry no parity certificate.
    """

    grid: CircleGrid
    det_signs: np.ndarray
    smin: np.ndarray
    sign_change_intervals: list[tuple[float, float]]
    dip_intervals: list[tuple[float, float]]
    loop_parity: int


@dataclass(frozen=True, eq=False)
class BifurcationCandidate:
    theta_star: float
    smin_at_star: float
    kernel_vector: np.ndarray
    bracket: tuple[float, float]


def scan_parity(
    system,
    grid: CircleGrid,
    N: int,
    gap_tol: float = DEFAULT_GAP_TOL,
    kernel_tol: float = DEFAULT_KERNEL_TOL,
) -> ParityScan:
    """Determinant-sign scan of the truncated linearization over the loop.

    One window problem is walked from node to node by
    TruncatedProblem.transported.  If the rows carried to 2*pi leave the
    row space they started in, the family is not 2*pi-periodic and
    AlignmentFailure is raised.  The loop parity is computed both as
    (-1)^(sign changes between consecutive non-excluded nodes) and as the
    product of the determinant signs at theta = 0 (rows derived there) and
    theta = 2*pi (rows carried there); InconsistentParity is raised if the
    two disagree or if either endpoint is itself near-singular.
    """
    n_nodes = grid.m + 1
    signs = np.zeros(n_nodes, dtype=int)
    smins = np.zeros(n_nodes)
    start = p = truncated_problem(system, float(grid.nodes[0]), N, gap_tol=gap_tol)
    for i in range(n_nodes):
        if i:
            p = p.transported(float(grid.nodes[i]))
        smins[i], _, signs[i], _ = classify_window(p, kernel_tol)
    for first, last in ((start.left_rows, p.left_rows), (start.right_rows, p.right_rows)):
        if np.linalg.norm(last @ first.T @ first - last) > 1e-8:
            raise AlignmentFailure(
                "boundary rows carried to 2*pi do not lie in the initial row space; "
                "the family is not 2*pi-periodic to tolerance"
            )

    if signs[0] == 0 or signs[-1] == 0:
        raise InconsistentParity(
            "endpoint linearization is near-singular; rotate the chart so the "
            "base point theta = 0 is regular"
        )

    intervals: list[tuple[float, float]] = []
    prev_idx = 0
    for i in range(1, n_nodes):
        if signs[i] == 0:
            continue
        if signs[i] != signs[prev_idx]:
            intervals.append((float(grid.nodes[prev_idx]), float(grid.nodes[i])))
        prev_idx = i

    # smin dips four orders below the grid median, without a sign change:
    # even-multiplicity suspects, bracketed by their neighbor nodes.
    dips: list[tuple[float, float]] = []
    median = float(np.median(smins))
    for i in range(1, n_nodes - 1):
        if smins[i] >= 1e-4 * median:
            continue
        lo, hi = float(grid.nodes[i - 1]), float(grid.nodes[i + 1])
        if any(a <= grid.nodes[i] <= b for a, b in intervals):
            continue
        if dips and dips[-1][1] >= lo:
            dips[-1] = (dips[-1][0], hi)
        else:
            dips.append((lo, hi))

    parity_count = -1 if len(intervals) % 2 else 1
    parity_endpoints = int(signs[0] * signs[-1])
    if parity_count != parity_endpoints:
        raise InconsistentParity(
            f"sign-change count gives parity {parity_count} but endpoint "
            f"determinants give {parity_endpoints}; refine the grid"
        )
    return ParityScan(
        grid=grid,
        det_signs=signs,
        smin=smins,
        sign_change_intervals=intervals,
        dip_intervals=dips,
        loop_parity=parity_count,
    )


def locate_bifurcation(
    system,
    bracket: tuple[float, float],
    N: int,
    tol_theta: float,
    gap_tol: float = DEFAULT_GAP_TOL,
    kernel_tol: float = DEFAULT_KERNEL_TOL,
) -> BifurcationCandidate:
    """Narrow a bracket onto a kernel crossing of the truncated linearization.

    Bisection on the determinant sign (every probe is the window problem
    at the lower end a, transported to the probe; a probe that becomes the
    new lower end keeps its problem) continues until the bracket is below
    tol_theta and the midpoint is near-singular by
    truncation.classify_window, so the returned candidate always carries a
    usable kernel vector.  Every probe factors its window once and reads the
    determinant sign, smin and the kernel vector from that LU; the
    candidate reuses its midpoint's probe.  Brackets without a sign change
    fall back to golden-section minimization of smin / ||J||_1; candidates
    found that way carry no parity certificate and are reported with a
    warning.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not b > a:
        raise ValueError("bracket must satisfy theta_lo < theta_hi")
    p_a = truncated_problem(system, a, N, gap_tol=gap_tol)  # follows a

    def probe(theta: float):
        """(problem at theta, its classify_window result)."""
        p = p_a.transported(theta)
        return p, classify_window(p, kernel_tol)

    def endpoint_sign(theta: float, inward: float) -> int:
        return probe(theta)[1][2] or probe(theta + inward * 1e-3 * (b - a))[1][2]

    s_a = endpoint_sign(a, +1.0)
    s_b = endpoint_sign(b, -1.0)
    if s_a * s_b != -1:  # no certified sign change
        return _golden_fallback(p_a, (a, b), tol_theta, kernel_tol)

    for _ in range(MAX_ITER):
        width = b - a
        mid = 0.5 * (a + b)
        p_mid, node = probe(mid)
        s_mid = node[2]
        if s_mid == s_a:
            a, p_a = mid, p_mid
        elif s_mid == s_b:
            b = mid
        elif width <= tol_theta:
            return _candidate(mid, (a, b), node)
        else:
            # Near-singular midpoint: shrink from both sides with off-center
            # probes, keeping the crossing inside.
            lo, hi = a + 0.35 * width, a + 0.65 * width
            p_lo, (_, _, s_lo, _) = probe(lo)
            s_hi = probe(hi)[1][2]
            if s_lo == s_a:
                a, p_a = lo, p_lo
            if s_hi == s_b:
                b = hi
            if s_lo == 0 and s_hi == 0:
                return _candidate(mid, (a, b), node)
    raise MaxIterations(f"bisection did not converge within {MAX_ITER} iterations")


def _golden_fallback(p_a, bracket, tol_theta, kernel_tol):
    """Golden-section search on the relative smallest singular value
    smin / ||J||_1, probing p_a transported along the bracket.

    Shrinks past tol_theta if needed until a probe is near-singular by
    truncation.classify_window, so a genuine (even-multiplicity) crossing
    yields a usable kernel vector; a dip that bottoms out above the kernel
    threshold is rejected with NoSignChange.
    """
    a, b = bracket
    phi = 0.5 * (3.0 - np.sqrt(5.0))

    def classify(theta: float):
        return classify_window(p_a.transported(theta), kernel_tol)

    def rel_smin(node) -> float:
        return node[0] / node[1]

    x1, x2 = a + phi * (b - a), b - phi * (b - a)
    c1, c2 = classify(x1), classify(x2)
    for _ in range(MAX_ITER):
        width = b - a
        if width <= tol_theta and (c1[2] == 0 or c2[2] == 0):
            break
        if width <= 1e-13 * max(1.0, abs(a)):
            break  # dip fully resolved; its sign decides below
        if rel_smin(c1) <= rel_smin(c2):
            b, x2, c2 = x2, x1, c1
            x1 = a + phi * (b - a)
            c1 = classify(x1)
        else:
            a, x1, c1 = x1, x2, c2
            x2 = b - phi * (b - a)
            c2 = classify(x2)
    else:
        raise MaxIterations("golden-section search exceeded its budget")
    mid, node = (x1, c1) if rel_smin(c1) <= rel_smin(c2) else (x2, c2)
    smin, scale, sign, _ = node
    if sign != 0:
        raise NoSignChange(
            f"no determinant sign change in the bracket and the smallest "
            f"singular-value dip stays above the kernel threshold (smallest "
            f"singular value {smin:.3e} exceeds {kernel_tol * scale:.3e})"
        )
    cand = _candidate(mid, (a, b), node)
    warnings.warn(
        "even-multiplicity crossing: candidate located by smin dip only, "
        "no parity certificate",
        stacklevel=2,
    )
    return cand


def _candidate(theta_star, bracket, node):
    """Candidate at theta_star from its classify_window result, which the
    caller has checked is near-singular.  Sign convention of the
    kernel vector: its largest-magnitude entry is positive."""
    smin, _, _, vec = node
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    return BifurcationCandidate(
        theta_star=float(theta_star),
        smin_at_star=float(smin),
        kernel_vector=vec,
        bracket=(float(bracket[0]), float(bracket[1])),
    )
