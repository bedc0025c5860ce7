"""The paper's result on seeded loop families: a nonorientable stable
bundle (w1 = -1) forces a kernel crossing, and the branch of nontrivial
homoclinics that bifurcates there stays on its own side of the trivial
solution; an orientable one (w1 = +1) gives an even number of crossings.

f_n(theta, x) = a_n(theta) x + c / (1 + (n/tau)^2) h(x), with a_n the
half-turn loop a_plus(theta) for n >= 0 and the constant a_minus for n < 0,
and h cubic, |x|^2 x, or quadratic, (x^T B_i x)_i.  With k = 1 and
a_minus = a_plus(theta0) the linearization is singular exactly at
theta0 + pi, where the stable line of a_plus has turned a quarter turn
onto the unstable line of a_minus.  The cubic branches are vertical in
theta, so they also test that a window enlargement does not let the
continuation slide back through the trivial solution; the quadratic ones
are transcritical and run to the amplitude cap on both halves.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

import homcont as hc
from homcont.systems import SystemFamily, _by_side

from conftest import half_turn_loop, predictor_det_signs

N = 40
S0 = 5e-4
COUPLING, TAU = 0.5, 5.0


def loop_family(seed, theta0=0.0, k=1, quadratic=False):
    """f_n = a_n x + c / (1 + (n/tau)^2) h(x) on half_turn_loop(default_rng(seed),
    2 + seed % 3, k), with a_minus = a_plus(theta0) held constant: h is the
    cubic |x|^2 x, or the quadratic (x^T B_i x)_i with B_i seeded symmetric
    matrices drawn after the loop."""
    d = 2 + seed % 3
    rng = np.random.default_rng(seed)
    a_of, _ = half_turn_loop(rng, d, k)
    a_minus = a_of(theta0)

    if quadratic:
        b = rng.standard_normal((d, d, d))
        b = 0.5 * (b + b.transpose(0, 2, 1))

        def h(X):
            return np.einsum("ijk,...j,...k->...i", b, X, X)

        def dh(X):
            return 2.0 * np.einsum("ijk,...k->...ij", b, X)
    else:
        def h(X):
            return np.sum(X * X, axis=-1, keepdims=True) * X

        def dh(X):
            return np.sum(X * X, axis=-1)[:, None, None] * np.eye(d) + 2.0 * X[:, :, None] * X[:, None, :]

    def a_n(ns, theta):
        return _by_side(ns, a_of(theta), a_minus)

    def envelope(ns):
        return COUPLING / (1.0 + (np.asarray(ns) / TAU) ** 2)

    def f(ns, theta, X):
        X = np.asarray(X, dtype=float)
        return (a_n(ns, theta) @ X[..., None])[..., 0] + envelope(ns)[:, None] * h(X)

    def dfdx(ns, theta, X):
        X = np.asarray(X, dtype=float)
        return a_n(ns, theta) + envelope(ns)[:, None, None] * dh(X)

    return SystemFamily(
        d=d,
        f=f,
        dfdx=dfdx,
        a_plus=a_of,
        a_minus=lambda theta: a_minus.copy(),
        f_inf_plus=lambda theta, x: a_of(theta) @ np.asarray(x, dtype=float),
        f_inf_minus=lambda theta, x: a_minus @ np.asarray(x, dtype=float),
    )


def shifted_theta0(seed):
    return float(np.random.default_rng(1000 + seed).uniform(0.0, 2 * math.pi))


def halves(system, theta0=0.0):
    """Both halves of the branch at the crossing near theta0 + pi: the
    candidate and its copy with the kernel vector negated."""
    centre = theta0 + math.pi
    cand = hc.locate_bifurcation(system, (centre - 0.5, centre + 0.5), N, 1e-6)
    return [cand, replace(cand, kernel_vector=-cand.kernel_vector)]


def continued(system, cand):
    start = hc.switch_branch(system, cand, S0, N)
    return hc.continue_branch(start, hc.ContinuationControls(max_steps=10))


def assert_one_sided(branch):
    # the branch stays off the trivial solution: its amplitude along the
    # kernel direction it started from never changes sign, and neither
    # does the augmented determinant
    amplitudes = [pt.amplitude for pt in branch.points]
    assert all(a > 0 for a in amplitudes), amplitudes
    assert len({pt.det_sign for pt in branch.points}) == 1
    assert min(pt.l2_norm for pt in branch.points) >= 0.5 * S0


@pytest.mark.parametrize("seed", [0, 1, 9, 10])
def test_enlarged_cubic_branch_stays_on_its_half(seed):
    system = loop_family(seed)
    for cand in halves(system):
        branch = continued(system, cand)
        assert branch.stop_reason == "max_steps"
        assert any(pt.N == 80 for pt in branch.points)
        assert_one_sided(branch)


@pytest.mark.parametrize("seed", range(3, 9))
def test_shifted_cubic_loop_bifurcates_at_the_half_turn(seed):
    theta0 = shifted_theta0(seed)
    system = loop_family(seed, theta0)
    grid = hc.CircleGrid.uniform(64)
    assert hc.index_bundle_invariants(system, grid).w1_index == -1
    assert hc.scan_parity(system, grid, N).loop_parity == -1
    cands = halves(system, theta0)
    assert abs(cands[0].theta_star - (theta0 + math.pi)) <= 1e-6
    for half in cands:
        assert_one_sided(continued(system, half))


@pytest.mark.parametrize("seed", range(6))
def test_orientable_loop_has_even_parity(seed):
    # k = 2: the stable line makes a whole turn, w1 = +1, and the kernel
    # crosses twice (a quarter turn and three quarter turns from theta0)
    system = loop_family(seed, k=2)
    grid = hc.CircleGrid.uniform(64)
    assert hc.index_bundle_invariants(system, grid).w1_index == 1
    scan = hc.scan_parity(system, grid, N)
    assert scan.loop_parity == 1
    assert len(scan.sign_change_intervals) == 2


@pytest.mark.parametrize("seed", [2, 3, 4, 6])
def test_quadratic_branch_halves_reach_the_cap(seed):
    # a quadratic nonlinearity makes the crossing transcritical: both halves
    # reach the amplitude cap without returning to the trivial solution,
    # and theta leaves theta* in opposite directions on the two halves
    system = loop_family(seed, quadratic=True)
    moves = []
    for cand in halves(system):
        start = hc.switch_branch(system, cand, S0, N)
        branch = hc.continue_branch(start, hc.ContinuationControls())
        assert branch.stop_reason == "amplitude_cap"
        assert_one_sided(branch)
        assert min(pt.l2_norm for pt in branch.points) >= S0
        assert predictor_det_signs(branch) == [pt.det_sign for pt in branch.points[1:]]
        moves.append(branch.points[-1].theta - cand.theta_star)
    assert moves[0] * moves[1] < 0, moves



@pytest.mark.parametrize("seed", range(3, 9))
def test_shifted_cubic_theta_star_is_stable_under_grid_refinement(seed):
    # the scan finds one sign change at every m, and locating in it gives
    # theta0 + pi (mod 2 pi) to 1e-6 whatever the grid
    theta0 = shifted_theta0(seed)
    system = loop_family(seed, theta0)
    for m in (64, 128, 256):
        scan = hc.scan_parity(system, hc.CircleGrid.uniform(m), N)
        (interval,) = scan.sign_change_intervals
        cand = hc.locate_bifurcation(system, interval, N, 1e-6)
        assert abs(math.remainder(cand.theta_star - (theta0 + math.pi), 2 * math.pi)) <= 1e-6, m


def test_loop_parity_equals_w1_index_at_wide_window():
    # N = 640: the window is 16 times the other tests', and the parity scan
    # still reads the orientation product of the bundles
    seed = 4
    system = loop_family(seed, shifted_theta0(seed))
    grid = hc.CircleGrid.uniform(64)
    assert hc.index_bundle_invariants(system, grid).w1_index == -1
    assert hc.scan_parity(system, grid, 640).loop_parity == -1
