"""The paper's invariant on seeded loop families: the determinant-sign loop
parity of the truncated linearization equals the orientation index w1_index
of the asymptotic stable bundles, and both equal (-1)^(half-turns)."""
import math

import numpy as np
import pytest

import homcont as hc
from homcont.systems import rotating_matrix

from conftest import half_turn_loop

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
