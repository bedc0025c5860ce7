import math

import numpy as np
import pytest

import homcont as hc
from homcont._linalg import orth_complement
from homcont.errors import NotHyperbolic, Singular

from conftest import random_hyperbolic


def test_splitting_diagonal():
    s = hc.hyperbolic_splitting(np.diag([0.5, 2.0]))
    assert s.d_s == 1 and s.d_u == 1
    assert abs(abs(s.stable_frame[0, 0]) - 1.0) < 1e-14
    assert abs(s.stable_frame[1, 0]) < 1e-14
    assert abs(abs(s.unstable_frame[1, 0]) - 1.0) < 1e-14
    assert s.gap == pytest.approx(0.5)


def test_splitting_rotated_example():
    # rotating-family matrix at theta = pi/2, eigenvalues {0.5, 2}
    a = np.array([[1.25, -0.75], [-0.75, 1.25]])
    s = hc.hyperbolic_splitting(a)
    assert s.d_s == 1
    direction = s.stable_frame[:, 0]
    target = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert abs(abs(direction @ target) - 1.0) < 1e-12


def test_rotation_is_not_hyperbolic():
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    with pytest.raises(NotHyperbolic):
        hc.hyperbolic_splitting(np.array([[c, -s], [s, c]]))


def test_near_unit_eigenvalue_gate():
    with pytest.raises(NotHyperbolic):
        hc.hyperbolic_splitting(np.diag([1.0 + 1e-9, 2.0]), gap_tol=1e-6)


def test_singular_matrix_rejected():
    with pytest.raises(Singular):
        hc.hyperbolic_splitting(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_splitting_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        a = random_hyperbolic(rng, d)
        s = hc.hyperbolic_splitting(a)
        assert s.d_s + s.d_u == d
        # independent eigenvalue-count oracle
        assert s.d_s == int(np.sum(np.abs(np.linalg.eigvals(a)) < 1.0))
        for q in (s.stable_frame, s.unstable_frame):
            if q.shape[1] == 0:
                continue
            assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-12
            # invariance of the spanned subspace
            resid = (np.eye(d) - q @ q.T) @ a @ q
            assert np.linalg.norm(resid, 2) <= 1e-10
        if s.d_s:
            assert np.max(np.abs(np.linalg.eigvals(s.restricted_stable()))) < 1.0
        if s.d_u:
            assert np.max(np.abs(np.linalg.eigvals(np.linalg.inv(s.restricted_unstable())))) < 1.0


def test_projectors_diagonal():
    s = hc.hyperbolic_splitting(np.diag([0.5, 2.0]))
    p = hc.spectral_projectors(s)
    assert np.allclose(p.P_s, np.diag([1.0, 0.0]), atol=1e-14)


def test_projectors_sum_to_identity_exactly():
    rng = np.random.default_rng(3)
    a = random_hyperbolic(rng, 4)
    split = hc.hyperbolic_splitting(a)
    p = hc.spectral_projectors(split)
    assert np.array_equal(p.P_s + p.P_u, np.eye(4))
    assert np.linalg.norm(p.P_s @ p.P_s - p.P_s, 2) <= 1e-10
    assert np.linalg.norm(a @ p.P_s - p.P_s @ a, 2) <= 1e-10
    assert np.linalg.matrix_rank(p.P_s) == split.d_s


def test_projectors_rotating_family_at_pi():
    a = hc.systems.rotating_matrix(math.pi, 0.5, 2.0)  # = diag(beta, alpha) up to rounding
    p = hc.spectral_projectors(hc.hyperbolic_splitting(a))
    assert np.allclose(p.P_s, np.array([[0.0, 0.0], [0.0, 1.0]]), atol=1e-12)


def test_green_solve_scalar_delta():
    # x_{n+1} - 0.5 x_n = delta_0  =>  x = (0, 1, 0.5, 0.25, ...)
    x = hc.halfline_green_solve(np.array([[0.5]]), np.array([1.0, 0.0, 0.0]))
    assert x[0] == 0.0
    assert x[1] == pytest.approx(1.0, abs=1e-14)
    assert x[2] == pytest.approx(0.5, abs=1e-14)
    assert x[3] == pytest.approx(0.25, abs=1e-14)


def test_green_solve_zero_input():
    x = hc.halfline_green_solve(np.diag([0.5, 2.0]), np.zeros((5, 2)))
    assert np.all(x == 0.0)


def _green_residual(a, y, x):
    """Direct substitution oracle: sup_n |x_{n+1} - a x_n - y_n|."""
    worst = 0.0
    for n in range(len(x) - 1):
        rhs = y[n] if n < len(y) else np.zeros(a.shape[0])
        worst = max(worst, float(np.linalg.norm(x[n + 1] - a @ x[n] - rhs)))
    return worst


def test_green_solve_residual_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a = random_hyperbolic(rng, d, gap=0.1)
        y = rng.standard_normal((21, d))
        x = hc.halfline_green_solve(a, y)
        scale = float(np.max(np.linalg.norm(y, axis=1)))
        assert _green_residual(a, y, x) <= 1e-12 * scale


def test_analytic_kernel_rotating_family_at_pi(paper7_linear):
    alpha, beta = 0.5, 2.0
    a_plus = paper7_linear.a_plus(math.pi)
    a_minus = paper7_linear.a_minus(math.pi)
    seqs = hc.analytic_kernel_basis(a_plus, a_minus, 12)
    assert len(seqs) == 1
    seq = seqs[0]
    sign = 1.0 if seq[12][1] > 0 else -1.0
    for n in range(0, 13):
        assert np.allclose(sign * seq[12 + n], [0.0, alpha ** n], atol=1e-12)
    for n in range(1, 13):
        assert np.allclose(sign * seq[12 - n], [0.0, beta ** (-n)], atol=1e-12)


def test_analytic_kernel_empty_cases(paper7_linear):
    a_minus = paper7_linear.a_minus(0.0)
    assert hc.analytic_kernel_basis(paper7_linear.a_plus(0.0), a_minus, 10) == []
    a = np.diag([0.5, 2.0])
    assert hc.analytic_kernel_basis(a, a, 10) == []


def _pair_with_intersection(rng, d, dim):
    """Build (a_plus, a_minus) on R^d whose stable/unstable spaces meet in
    exactly `dim` known directions (via a common orthogonal eigenframe)."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    # a_plus stable on coordinates [0, k_p); a_minus unstable on [start, d);
    # the overlap [start, k_p) has exactly `dim` coordinates.
    k_p = dim + 1
    start = k_p - dim
    vals_p = [rng.uniform(0.2, 0.7) if i < k_p else rng.uniform(1.4, 3) for i in range(d)]
    vals_m = [rng.uniform(0.2, 0.7) if i < start else rng.uniform(1.4, 3) for i in range(d)]
    a_plus = q @ np.diag(vals_p) @ q.T
    a_minus = q @ np.diag(vals_m) @ q.T
    return a_plus, a_minus


def test_analytic_kernel_recurrence_and_decay():
    rng = np.random.default_rng(23)
    horizon = 15
    for dim in (0, 1, 2):
        for _ in range(5):
            d = int(rng.integers(max(2, dim + 1), 5))
            a_plus, a_minus = _pair_with_intersection(rng, d, dim)
            seqs = hc.analytic_kernel_basis(a_plus, a_minus, horizon)
            assert len(seqs) == dim
            sp = hc.hyperbolic_splitting(a_plus)
            sm = hc.hyperbolic_splitting(a_minus)
            rho = 0.05 + max(
                np.max(np.abs(np.linalg.eigvals(sp.restricted_stable()))) if sp.d_s else 0.0,
                np.max(np.abs(np.linalg.eigvals(np.linalg.inv(sm.restricted_unstable()))))
                if sm.d_u else 0.0,
            )
            for seq in seqs:
                for n in range(-horizon, horizon):
                    a = a_plus if n >= 0 else a_minus
                    err = np.linalg.norm(seq[horizon + n + 1] - a @ seq[horizon + n])
                    assert err <= 1e-12 * max(1.0, np.linalg.norm(seq[horizon + n]))
                for n in range(-horizon, horizon + 1):
                    assert np.linalg.norm(seq[horizon + n]) <= 2.0 * rho ** abs(n)


def test_intersection_dimension_matches_svd_oracle():
    rng = np.random.default_rng(29)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        dim = int(rng.integers(0, d - 1))
        a_plus, a_minus = _pair_with_intersection(rng, d, dim)
        seqs = hc.analytic_kernel_basis(a_plus, a_minus, 5)
        # brute-force oracle: nullity of the stacked complement frames
        sp = hc.hyperbolic_splitting(a_plus)
        sm = hc.hyperbolic_splitting(a_minus)
        stacked = np.hstack([
            orth_complement(sp.stable_frame),
            orth_complement(sm.unstable_frame),
        ])
        sv = np.linalg.svd(stacked.T, compute_uv=False) if stacked.size else np.zeros(0)
        nullity = d - int(np.sum(sv > 1e-8)) if stacked.size else d
        assert len(seqs) == nullity
