"""Parity scans and bifurcation localization along the parameter loop.

The truncated linearization at the trivial solution is assembled at every
grid node from one window problem whose boundary rows are carried over the
whole grid at once (truncation.TruncatedProblem.over), so they vary
continuously.  Its determinant sign is then a well-defined function of theta
whose flips locate kernel crossings; the product of the endpoint signs (rows
derived at 0 versus rows carried to 2*pi) is the loop parity.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bundles import CircleGrid
from .errors import InconsistentParity, MaxIterations, NoSignChange
from .spectral import DEFAULT_GAP_TOL
from .truncation import (DEFAULT_KERNEL_TOL, ROUNDING_FLOOR, classify_window, truncated_problem,
                         warm_shift)

# Iteration budget of the regula falsi and of the golden-section fallback.
MAX_ITER = 200

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ParityScan:
    """Determinant signs of the truncated linearization along the loop.

    grid is the grid given to scan_parity (no nodes are added); det_signs
    holds +1/-1 per node, with 0 marking nodes that
    truncation.classify_window finds near-singular; excluded nodes do not
    enter the sign-change count but end up inside candidate intervals.
    smin holds each node's smallest singular value, from the same band of
    J as its determinant sign (WindowLU.smallest_singular), certified
    whatever hints scan_parity handed to it (an estimate, and the previous
    node's singular vector as a warm start).
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

    The rows of one window problem, derived at grid.nodes[0], are carried
    over the whole grid first by TruncatedProblem.over, and the scan reads
    the problems it returns, one per node.  If the rows carried to 2*pi
    leave the row space they started in, bundles.loop_closure raises
    AlignmentFailure.  The loop parity is the product of the determinant
    signs at theta = 0 (rows derived there) and theta = 2*pi (rows carried
    there); InconsistentParity is raised if either endpoint is itself
    near-singular.  With both endpoints nonzero, (-1)^(sign changes between
    consecutive non-excluded nodes) telescopes to that same product, so the
    count is no independent check; the theory's check is loop parity =
    w1_index (verify-paper).

    Node i > 0 hands classify_window two hints: an estimate of its smin,
    the value at its theta of the polynomial through smin^2 at nodes i - 1,
    i - 2 and i - 3 (fewer at the start: linear at node 2, constant at
    node 1), and node i - 1's unit singular vector as a warm start.  They
    only decide where smallest_singular's Gram path starts (a warm node
    certifies smin with 3 Cholesky tests), and every smin is certified
    whatever they are, so the scan's signs and smin are those it would have
    without them, up to the last bits of smin.

    One INFO line on this module's logger summarizes the scan: the node
    count, the excluded nodes (det sign 0) by theta, the dip intervals,
    and the nodes whose warm start fell back to smallest_singular's cold
    path: those with a warm shift (truncation.warm_shift) not below
    smin^2, so that its Cholesky test failed.  A warm certificate that
    fails inside the bracket also falls back, on the Gram path; it is not
    listed.
    """
    n_nodes = grid.m + 1
    start = truncated_problem(system, float(grid.nodes[0]), N, gap_tol=gap_tol)
    signs = np.zeros(n_nodes, dtype=int)
    smins = np.zeros(n_nodes)
    vec, cold = None, []
    for i, p in enumerate(start.over(grid)):
        back = slice(max(0, i - 3), i)
        estimate = _extrapolated_smin(grid.nodes[back], smins[back], float(grid.nodes[i]))
        smins[i], scale, signs[i], vec = classify_window(p, kernel_tol, estimate=estimate,
                                                         start=vec)
        shift = warm_shift(estimate, scale)
        if shift is not None and shift >= smins[i] ** 2:
            cold.append(i)

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

    log.info(
        "parity scan of %d nodes at N = %d: excluded (det sign 0) at theta %s; "
        "dip intervals %s; warm start fell back at theta %s",
        n_nodes, N, *(np.round(np.asarray(t, dtype=float), 6).tolist()
                      for t in (grid.nodes[signs == 0], dips, grid.nodes[cold])),
    )
    return ParityScan(
        grid=grid,
        det_signs=signs,
        smin=smins,
        sign_change_intervals=intervals,
        dip_intervals=dips,
        loop_parity=int(signs[0] * signs[-1]),
    )


def _extrapolated_smin(thetas, smins, theta: float) -> float | None:
    """sqrt of the Lagrange polynomial through (thetas, smins^2) at theta,
    or None when there are no nodes or the polynomial is not positive."""
    value = 0.0
    for j, (t_j, s_j) in enumerate(zip(thetas, smins)):
        weight = 1.0
        for k, t_k in enumerate(thetas):
            if k != j:
                weight *= (theta - t_k) / (t_j - t_k)
        value += weight * float(s_j) * float(s_j)
    return math.sqrt(value) if value > 0.0 else None


def locate_bifurcation(
    system,
    bracket: tuple[float, float],
    N: int,
    tol_theta: float,
    gap_tol: float = DEFAULT_GAP_TOL,
    kernel_tol: float = DEFAULT_KERNEL_TOL,
) -> BifurcationCandidate:
    """Narrow a bracket onto a kernel crossing of the truncated linearization.

    Safeguarded regula falsi with the Illinois modification (Dowell and
    Jarratt, BIT 11, 1971) on the signed smallest singular value: g = +smin
    where a probe's determinant sign is the lower end's, -smin where it is
    the upper end's, both from the probe's truncation.classify_window.
    Every probe is the window problem at the lower end a, transported to
    the probe; a probe that becomes the new lower end keeps its problem.
    An iterate stays 1e-3 of the width, and at least one float, inside the
    bracket, and after two iterates in a row that did not halve the
    bracket the midpoint is taken, so the bracket at least halves every
    three iterates.  The candidate is a probe t that classify_window finds
    near-singular, so it carries a usable kernel vector; theta_star is t,
    not the bracket's midpoint.  t is returned at once when the bracket is
    at most tol_theta wide.  Otherwise probes at t -/+ 0.45 tol_theta move
    the bracket end whose sign they certify.  Across a near-singular
    plateau wider than that, the offset doubles until a probe is certified
    or would leave the bracket, the upper side starting from the offset
    that certified the lower, and the wider bracket is returned.  Every
    probe factors its window once and reads the
    determinant sign, smin and the kernel vector from that LU.  A bracket
    with no float strictly inside raises MaxIterations: no probe can then
    be near-singular.
    Brackets without a sign change fall back to golden-section
    minimization of smin / ||J||_1; candidates found that way carry no
    parity certificate and are reported with a warning.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not b > a:
        raise ValueError("bracket must satisfy theta_lo < theta_hi")
    p_a = truncated_problem(system, a, N, gap_tol=gap_tol)  # follows a

    def probe(theta: float):
        """(problem at theta, its classify_window result)."""
        p = p_a.transported(theta)
        return p, classify_window(p, kernel_tol)

    def endpoint(theta: float, inward: float):
        """(sign, smin) at theta, or just inside it when theta is near-singular."""
        node = probe(theta)[1]
        if node[2] == 0:
            node = probe(theta + inward * 1e-3 * (b - a))[1]
        return node[2], node[0]

    s_a, g_a = endpoint(a, +1.0)
    s_b, g_b = endpoint(b, -1.0)
    if s_a * s_b != -1:  # no certified sign change
        return _golden_fallback(p_a, (a, b), tol_theta, kernel_tol)
    g_b = -g_b
    moved = 0  # which end the last probe moved: -1 lower, +1 upper (Illinois)
    stalls = 0  # probes in a row that did not halve the bracket
    for _ in range(MAX_ITER):
        width = b - a
        lo, hi = math.nextafter(a, b), math.nextafter(b, a)
        if not lo < b:
            raise MaxIterations(
                f"the bracket [{a!r}, {b!r}] holds no float strictly inside and no probe "
                f"was near-singular at kernel_tol {kernel_tol!r}"
            )
        t = a + width * g_a / (g_a - g_b)
        if stalls == 2 or not a <= t <= b:  # NaN included
            t = 0.5 * (a + b)
        t = float(min(max(t, a + 1e-3 * width, lo), b - 1e-3 * width, hi))
        p_t, node = probe(t)
        if node[2] == s_a:
            a, p_a, g_a = t, p_t, node[0]
            if moved < 0:
                g_b *= 0.5
            moved = -1
        elif node[2] == s_b:
            b, g_b = t, -node[0]
            if moved > 0:
                g_a *= 0.5
            moved = +1
        elif width <= tol_theta:
            return _candidate(t, (a, b), node)
        else:
            # Certify the signs next to the near-singular probe t.
            offset = max(0.45 * tol_theta, math.ulp(t))
            for side in (-1.0, 1.0):
                while a < t + side * offset < b:
                    theta = t + side * offset
                    p_s, (smin, _, sign, _) = probe(theta)
                    if sign == s_a:
                        a, p_a, g_a = theta, p_s, smin
                    elif sign == s_b:
                        b, g_b = theta, -smin
                    else:
                        offset *= 2.0
                        continue
                    break
            if a <= t <= b:
                return _candidate(t, (a, b), node)
            moved = 0
        stalls = 0 if stalls == 2 or b - a <= 0.5 * width else stalls + 1
    raise MaxIterations(f"regula falsi did not converge within {MAX_ITER} iterations")


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
        threshold = max(kernel_tol, ROUNDING_FLOOR * scale)
        raise NoSignChange(
            f"no determinant sign change in the bracket and the smallest "
            f"singular-value dip stays above the kernel threshold (smallest "
            f"singular value {smin:.3e} exceeds {threshold:.3e})"
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
