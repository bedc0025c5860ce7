"""The paper's invariant on seeded loop families: the determinant-sign loop
parity of the truncated linearization equals the orientation index w1_index
of the asymptotic stable bundles, and both equal (-1)^(half-turns)."""
import math

import numpy as np
import pytest

import homcont as hc
from homcont.systems import rotating_matrix

N = 10
GRIDS = (8, 9, 11, 16, 64)


def assert_parity_law(system, m, expected):
    grid = hc.CircleGrid.uniform(m)
    inv = hc.index_bundle_invariants(system, grid)
    scan = hc.scan_parity(system, grid, N)
    assert (scan.loop_parity, inv.w1_index) == (expected, expected)


@pytest.mark.parametrize("m", GRIDS)
@pytest.mark.parametrize("k", range(1, 12))
def test_rotating_line_loops(k, m):
    # the stable line at +inf turns k half-turns per circuit, the one at
    # -inf stays put
    system = hc.linear_family(
        2, lambda t: rotating_matrix(k * t, 0.5, 2.0), lambda t: rotating_matrix(0.0, 0.5, 2.0)
    )
    assert_parity_law(system, m, (-1) ** k)


def half_turn_loop(rng, d, k):
    """a(theta) = Q G(k theta/2) D G(k theta/2)^T Q^T, 2*pi-periodic.

    D is block diagonal: a stable real eigenvalue on e_0, an unstable one
    on e_1 and a random hyperbolic rest (real, or at d = 4 possibly a
    complex pair); G rotates the (e_0, e_1) plane, so G(pi) = -1 there
    commutes with D.  The stable line of e_0 makes k half-turns per circuit
    while the rest of the stable space stays put: w1 = (-1)^k.  Q is a
    fixed seeded orthogonal matrix.  Returns (a, stable dimension).
    """
    def modulus(stable):
        return rng.uniform(0.2, 0.8) if stable else rng.uniform(1.25, 3.0)

    core = np.zeros((d, d))
    core[0, 0] = modulus(True) * rng.choice([-1.0, 1.0])
    core[1, 1] = modulus(False) * rng.choice([-1.0, 1.0])
    stable = [bool(rng.random() < 0.5) for _ in range(d - 2)]
    if d == 4 and rng.random() < 0.5:
        r, phi = modulus(stable[0]), rng.uniform(0.3, math.pi - 0.3)
        core[2:, 2:] = r * np.array([[math.cos(phi), -math.sin(phi)],
                                     [math.sin(phi), math.cos(phi)]])
        stable[1] = stable[0]
    else:
        for i, s in enumerate(stable):
            core[2 + i, 2 + i] = modulus(s) * rng.choice([-1.0, 1.0])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))

    def a(theta):
        g = np.eye(d)
        c, s = math.cos(0.5 * k * theta), math.sin(0.5 * k * theta)
        g[:2, :2] = [[c, -s], [s, c]]
        return q @ g @ core @ g.T @ q.T

    return a, 1 + sum(stable)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_half_turn_loops(seed):
    rng = np.random.default_rng(seed)
    d = 3 + seed % 4
    while True:
        k_plus, k_minus = (int(k) for k in rng.integers(0, 4, size=2))
        (a_plus, ds_plus), (a_minus, ds_minus) = (half_turn_loop(rng, d, k)
                                                  for k in (k_plus, k_minus))
        if ds_plus == ds_minus:
            break
    for a in (a_plus, a_minus):
        assert np.allclose(a(2 * math.pi), a(0.0), atol=1e-12)
    system = hc.linear_family(d, a_plus, a_minus)
    expected = (-1) ** (k_plus + k_minus)
    for m in GRIDS:
        assert_parity_law(system, m, expected)
