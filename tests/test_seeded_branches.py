"""The paper's result on seeded cubic loop families: a nonorientable stable
bundle (w1 = -1) forces a kernel crossing, and the branch of nontrivial
homoclinics that bifurcates there stays on its own side of the trivial
solution.

f_n(theta, x) = a_n(theta) x + c / (1 + (n/tau)^2) |x|^2 x, with a_n the
half-turn loop a_plus(theta) for n >= 0 and the constant a_minus for n < 0.
With a_minus = a_plus(theta0) the linearization is singular exactly at
theta0 + pi, where the stable line of a_plus has turned a quarter turn
onto the unstable line of a_minus.  The cubic branches are vertical in
theta, so they also test that a window enlargement does not let the
continuation slide back through the trivial solution.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

import homcont as hc
from homcont.systems import SystemFamily, _by_side

from conftest import half_turn_loop

N = 40
S0 = 5e-4
COUPLING, TAU = 0.5, 5.0


def cubic_loop(seed, theta0=0.0):
    """The cubic family on half_turn_loop(default_rng(seed), 2 + seed % 3, 1),
    with a_minus = a_plus(theta0) held constant."""
    d = 2 + seed % 3
    a_of, _ = half_turn_loop(np.random.default_rng(seed), d, 1)
    a_minus = a_of(theta0)

    def a_n(ns, theta):
        return _by_side(ns, a_of(theta), a_minus)

    def envelope(ns):
        return COUPLING / (1.0 + (np.asarray(ns) / TAU) ** 2)

    def f(ns, theta, X):
        X = np.asarray(X, dtype=float)
        cubic = np.sum(X * X, axis=-1, keepdims=True) * X
        return (a_n(ns, theta) @ X[..., None])[..., 0] + envelope(ns)[:, None] * cubic

    def dfdx(ns, theta, X):
        X = np.asarray(X, dtype=float)
        sq = np.sum(X * X, axis=-1)[:, None, None]
        dcubic = sq * np.eye(d) + 2.0 * X[:, :, None] * X[:, None, :]
        return a_n(ns, theta) + envelope(ns)[:, None, None] * dcubic

    return SystemFamily(
        d=d,
        f=f,
        dfdx=dfdx,
        a_plus=a_of,
        a_minus=lambda theta: a_minus.copy(),
        f_inf_plus=lambda theta, x: a_of(theta) @ np.asarray(x, dtype=float),
        f_inf_minus=lambda theta, x: a_minus @ np.asarray(x, dtype=float),
    )


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
    system = cubic_loop(seed)
    for cand in halves(system):
        branch = continued(system, cand)
        assert branch.stop_reason == "max_steps"
        assert any(pt.N == 80 for pt in branch.points)
        assert_one_sided(branch)


@pytest.mark.parametrize("seed", range(3, 9))
def test_shifted_cubic_loop_bifurcates_at_the_half_turn(seed):
    theta0 = float(np.random.default_rng(1000 + seed).uniform(0.0, 2 * math.pi))
    system = cubic_loop(seed, theta0)
    grid = hc.CircleGrid.uniform(64)
    assert hc.index_bundle_invariants(system, grid).w1_index == -1
    assert hc.scan_parity(system, grid, N).loop_parity == -1
    cands = halves(system, theta0)
    assert abs(cands[0].theta_star - (theta0 + math.pi)) <= 1e-6
    for half in cands:
        assert_one_sided(continued(system, half))
