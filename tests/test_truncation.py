import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

import homcont as hc
from homcont.errors import SingularJacobian, SizeMismatch, WindowOverflow
from homcont.systems import SystemFamily
from homcont.truncation import (
    DEFAULT_KERNEL_TOL,
    TruncatedProblem,
    _RAISED_PIVOT,
    _top_ritz_pair,
    adapt_window,
    assemble_dresidual_dtheta,
    assemble_residual,
    banded_jacobian_lu,
    classify_window,
    embed_window,
    tail_mass,
    truncated_problem,
)

from conftest import assemble_jacobian, random_hyperbolic

ALPHA, BETA = 0.5, 2.0


def kernel_window(system, N):
    seq = hc.analytic_kernel_basis(system.a_plus(math.pi), system.a_minus(math.pi), N)[0]
    return seq.ravel()


def test_zero_residual_at_origin(paper7_perturbed):
    p = truncated_problem(paper7_perturbed, 1.3, 25)
    assert np.array_equal(assemble_residual(p, np.zeros(p.size)), np.zeros(p.size))


def test_problem_is_square(paper7_linear):
    for theta in (0.0, 1.0, math.pi):
        p = truncated_problem(paper7_linear, theta, 17)
        assert p.size == p.d * (2 * p.N + 1)
        assert p.left_rows.shape[0] + p.right_rows.shape[0] == p.d
        # boundary rows annihilate their subspaces
        split_m = hc.hyperbolic_splitting(paper7_linear.a_minus(theta))
        split_p = hc.hyperbolic_splitting(paper7_linear.a_plus(theta))
        assert np.linalg.norm(p.left_rows @ split_m.unstable_frame) <= 1e-10
        assert np.linalg.norm(p.right_rows @ split_p.stable_frame) <= 1e-10


def test_kernel_sequence_residual(paper7_linear):
    N = 40
    p = truncated_problem(paper7_linear, math.pi, N)
    r = assemble_residual(p, kernel_window(paper7_linear, N))
    interior, boundary = r[: 2 * N * p.d], r[2 * N * p.d:]
    assert np.max(np.abs(interior)) <= 1e-12
    assert np.max(np.abs(boundary)) <= ALPHA ** N + BETA ** (-N)


def test_scalar_delta_residual():
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    N = 6
    p = truncated_problem(system, 0.0, N)
    x = np.zeros(p.size)
    x[N] = 1.0  # unit block at n = 0
    r = assemble_residual(p, x)
    nonzero = np.nonzero(r)[0]
    # row for n = -1 sees x_0 arriving (+1); row for n = 0 sees -0.5 x_0
    assert list(nonzero) == [N - 1, N]
    assert r[N - 1] == 1.0
    assert r[N] == -0.5


def test_jacobian_blocks_at_origin(paper7_perturbed):
    N, theta = 8, 0.7
    p = truncated_problem(paper7_perturbed, theta, N)
    jac = assemble_jacobian(p, np.zeros(p.size))
    lin = paper7_perturbed.dfdx(np.arange(-N, N), theta, np.zeros((2 * N, 2)))
    for i in range(2 * N):
        block = jac[2 * i:2 * i + 2, 2 * i:2 * i + 2]
        assert np.array_equal(block, -lin[i])
        assert np.array_equal(jac[2 * i:2 * i + 2, 2 * i + 2:2 * i + 4], np.eye(2))


def test_jacobian_matches_finite_differences(paper7_perturbed):
    rng = np.random.default_rng(8)
    N, eps = 12, 1e-6
    for _ in range(50):
        theta = float(rng.uniform(0, 2 * math.pi))
        p = truncated_problem(paper7_perturbed, theta, N)
        x = 0.3 * rng.standard_normal(p.size)
        v = rng.standard_normal(p.size)
        jac = assemble_jacobian(p, x)
        fd = (assemble_residual(p, x + eps * v) - assemble_residual(p, x - eps * v)) / (2 * eps)
        denom = max(1.0, np.linalg.norm(jac @ v))
        assert np.linalg.norm(jac @ v - fd) <= 1e-6 * denom


def test_linear_system_has_constant_jacobian(paper7_linear):
    p = truncated_problem(paper7_linear, 2.0, 10)
    rng = np.random.default_rng(9)
    j0 = assemble_jacobian(p, np.zeros(p.size))
    j1 = assemble_jacobian(p, rng.standard_normal(p.size))
    assert np.array_equal(j0, j1)


def test_det_sign_matches_dense_oracle(paper7_linear):
    for N in (10, 20, 30, 40):
        p = truncated_problem(paper7_linear, 0.0, N)
        x = np.zeros(p.size)
        oracle_sign, _ = np.linalg.slogdet(assemble_jacobian(p, x))
        assert banded_jacobian_lu(p, x).det_sign() == int(oracle_sign) != 0
        # reproducible across repeated factorizations
        assert banded_jacobian_lu(p, x).det_sign() == int(oracle_sign)


def scalar_window(left_row):
    """A d = 1 window (x_{n+1} = x_n / 2) whose left boundary row is
    left_row.  N = 2 because partial pivoting doubles a small boundary
    pivot at every block row."""
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    return replace(truncated_problem(system, 0.0, 2), left_rows=np.array([[left_row]]))


def scalar_window_lu(left_row):
    p = scalar_window(left_row)
    return banded_jacobian_lu(p, np.zeros(p.size))


def test_det_sign_zero_when_exactly_singular():
    lu = scalar_window_lu(0.0)
    with pytest.raises(SingularJacobian):
        lu.solve(np.ones(5))
    assert lu.det_sign() == 0


def test_smallest_singular_when_exactly_singular():
    # a zero left boundary row: gbtrf reports an exact zero pivot, and the
    # Lanczos run on the floored factors still finds the unit kernel vector
    lu = scalar_window_lu(0.0)
    smin, v = lu.smallest_singular()
    assert smin == 0.0
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    kernel = 0.5 ** np.arange(5)  # x_{n+1} = x_n / 2 on n = -2 .. 2
    assert abs(v @ kernel) / np.linalg.norm(kernel) >= 1.0 - 1e-12
    assert np.linalg.norm(lu.matvec(v)) <= 2 * _RAISED_PIVOT * lu.norm_1


def test_near_singular_window_keeps_det_sign():
    # a left boundary row of 1e-14 leaves a pivot far below 1e-12 * ||J||_1:
    # the LU still gives the dense determinant sign, and only
    # classify_window calls the window singular
    p = scalar_window(1e-14)
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    assert np.all(np.isfinite(lu.solve(np.ones(5))))  # factored, not exactly singular
    oracle_sign, _ = np.linalg.slogdet(assemble_jacobian(p, np.zeros(p.size)))
    assert lu.det_sign() == int(oracle_sign) != 0
    smin, _, sign, _ = classify_window(p, DEFAULT_KERNEL_TOL)
    assert smin < DEFAULT_KERNEL_TOL * lu.norm_1
    assert sign == 0


@pytest.mark.parametrize("N", [10, 40, 160])
def test_classify_window_singular_where_pivots_are_not(paper7_linear, N):
    # at theta = pi the linear paper7 window has a kernel at every N, but its
    # smallest LU pivot grows with N: only the smin criterion sees it
    p = truncated_problem(paper7_linear, math.pi, N)
    smin, scale, sign, _ = classify_window(p, DEFAULT_KERNEL_TOL)
    assert smin < DEFAULT_KERNEL_TOL * scale
    assert sign == 0
    assert banded_jacobian_lu(p, np.zeros(p.size)).det_sign() != 0


def random_family(rng, d):
    """Seeded nonlinear family: random hyperbolic limits with equal stable
    dimensions, plus an n-dependent linear and quadratic part that decays
    away from n = 0."""
    def stable_dim(a):
        return int(np.sum(np.abs(np.linalg.eigvals(a)) < 1.0))

    while True:
        a_plus, a_minus = random_hyperbolic(rng, d), random_hyperbolic(rng, d)
        if stable_dim(a_plus) == stable_dim(a_minus):
            break
    b = 0.3 * rng.standard_normal((d, d))
    u = rng.standard_normal(d)

    def decay(ns):
        return np.exp(-np.abs(ns) / 3.0)

    def lin(ns):
        return np.where((ns >= 0)[:, None, None], a_plus, a_minus) + decay(ns)[:, None, None] * b

    def f(ns, t, X):
        return (lin(ns) @ X[..., None])[..., 0] + (decay(ns) * np.sum(X * X, axis=1))[:, None] * u

    def dfdx(ns, t, X):
        return lin(ns) + 2.0 * decay(ns)[:, None, None] * (u[:, None] * X[:, None, :])

    return hc.SystemFamily(
        d=d,
        f=f,
        dfdx=dfdx,
        a_plus=lambda t: a_plus,
        a_minus=lambda t: a_minus,
        f_inf_plus=lambda t, x: a_plus @ x,
        f_inf_minus=lambda t, x: a_minus @ x,
    )


def test_banded_factorization_agrees_with_dense(paper7_perturbed):
    rng = np.random.default_rng(10)
    families = [paper7_perturbed] + [random_family(rng, d) for d in (2, 3, 4) for _ in range(3)]
    for system in families:
        for theta, N in ((0.4, 9), (2.5, 21)):
            p = truncated_problem(system, theta, N)
            x = 0.2 * rng.standard_normal(p.size)
            jac = assemble_jacobian(p, x)
            lu = banded_jacobian_lu(p, x)
            rhs = rng.standard_normal(p.size)
            assert np.allclose(lu.solve(rhs), np.linalg.solve(jac, rhs), atol=1e-10)
            assert lu.det_sign() == int(np.linalg.slogdet(jac)[0])


def test_smin_geometric_decay_certificate(paper7_linear):
    # At theta = pi the boundary conditions align with the kernel exactly,
    # so smin saturates machine precision immediately; the geometric rate is
    # asserted as the one-sided certificate smin <= 10 * max(alpha, 1/beta)^N.
    rate = max(ALPHA, 1.0 / BETA)
    for N in (10, 20, 40):
        p = truncated_problem(paper7_linear, math.pi, N)
        smin = np.linalg.svd(assemble_jacobian(p, np.zeros(p.size)), compute_uv=False)[-1]
        assert smin <= 10.0 * rate ** N


def test_tail_mass_examples(paper7_linear):
    N = 40
    assert tail_mass(np.zeros(2 * (2 * N + 1)), 0.25, 2) == 0.0
    kern = kernel_window(paper7_linear, N)
    tm = tail_mass(kern, 0.25, 2)
    assert 0.0 < tm <= max(ALPHA ** 30, BETA ** (-30)) + 1e-15
    unit_edge = np.zeros(2 * (2 * N + 1))
    unit_edge[-2:] = [1.0, 0.0]  # unit block at n = N
    assert tail_mass(unit_edge, 0.25, 2) == 1.0


def test_tail_mass_validation():
    with pytest.raises(ValueError):
        tail_mass(np.zeros(10), 1.5, 2)
    with pytest.raises(SizeMismatch):
        tail_mass(np.zeros(11), 0.25, 2)


def geometric_window(rate, N, d=1):
    ns = np.arange(-N, N + 1)
    return (rate ** np.abs(ns)).repeat(d)


def test_adapt_window_already_fine(paper7_linear):
    N = 20
    p = truncated_problem(paper7_linear, math.pi, N)
    x = kernel_window(paper7_linear, N) * 1e-3
    p2, x2 = adapt_window(p, x, tail_tol=1e-2)
    assert p2.N == N
    assert np.array_equal(x2, x)


def test_adapt_window_doubles_to_predicted_width():
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    p = truncated_problem(system, 0.0, 20)
    x = geometric_window(0.5, 20)
    p2, x2 = adapt_window(p, x, tail_tol=1e-9)
    assert p2.N == 40
    assert x2.shape == (81,)
    assert np.array_equal(x2[20:61], x)
    assert np.all(x2[:20] == 0.0) and np.all(x2[61:] == 0.0)


def test_adapt_window_overflow_on_slow_decay():
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    p = truncated_problem(system, 0.0, 20)
    x = geometric_window(0.999, 20)
    with pytest.raises(WindowOverflow):
        adapt_window(p, x, tail_tol=1e-9)


def test_embed_window_roundtrip():
    x = np.arange(10.0)  # d=2, N=2
    out = embed_window(x, 2, 2, 4)
    assert out.shape == (18,)
    assert np.array_equal(out[4:14], x)


def test_size_mismatch_raised(paper7_linear):
    p = truncated_problem(paper7_linear, 0.0, 10)
    with pytest.raises(SizeMismatch):
        assemble_residual(p, np.zeros(p.size + 2))
    # a family whose row callables return the wrong shape
    wide_f = replace(paper7_linear, f=lambda ns, t, X: np.zeros((len(ns), 3)))
    p = truncated_problem(wide_f, 0.0, 10)
    with pytest.raises(SizeMismatch, match=r"\(20, 3\), expected \(20, 2\)"):
        assemble_residual(p, np.zeros(p.size))
    with pytest.raises(SizeMismatch):
        assemble_dresidual_dtheta(p, np.zeros(p.size))
    flat_dfdx = replace(paper7_linear, dfdx=lambda ns, t, X: np.zeros((len(ns), 2)))
    p = truncated_problem(flat_dfdx, 0.0, 10)
    with pytest.raises(SizeMismatch):
        banded_jacobian_lu(p, np.zeros(p.size))


def test_one_system_call_per_assembly(paper7_perturbed):
    calls = {"f": 0, "dfdx": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    system = replace(paper7_perturbed, f=counted("f", paper7_perturbed.f),
                     dfdx=counted("dfdx", paper7_perturbed.dfdx))
    p = truncated_problem(system, 0.7, 15)
    x = 0.1 * np.random.default_rng(11).standard_normal(p.size)
    for assemble, want in (
        (assemble_residual, {"f": 1, "dfdx": 0}),
        (banded_jacobian_lu, {"f": 0, "dfdx": 1}),
        (assemble_dresidual_dtheta, {"f": 2, "dfdx": 0}),
    ):
        calls.update(f=0, dfdx=0)
        assemble(p, x)
        assert calls == want, assemble.__name__


def random_window(d, ds, seed, N=5):
    """Window problem on R^d whose dfdx is a dense random block per row plus
    a state-dependent term, with ds random orthonormal left rows and d - ds
    right ones, and a random window vector."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((2 * N, d, d))
    slope = rng.standard_normal((d, d))

    def dfdx(ns, theta, X):
        return base[ns + N] + np.sum(X, axis=1)[:, None, None] * slope

    system = SystemFamily(d=d, f=None, dfdx=dfdx, a_plus=None, a_minus=None,
                          f_inf_plus=None, f_inf_minus=None)
    rows, _ = np.linalg.qr(rng.standard_normal((d, d)))
    p = TruncatedProblem(system=system, theta=0.0, N=N, d=d, left_rows=rows[:ds],
                         right_rows=rows[ds:], gap_tol=1e-6)
    return p, rng.standard_normal(p.size)


ROW_SPLITS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]


@pytest.mark.parametrize("d, ds", ROW_SPLITS)
def test_band_unpacks_to_dense_oracle(d, ds):
    p, x = random_window(d, ds, seed=10 * d + ds)
    lu = banded_jacobian_lu(p, x)
    kl, ku, n, m = lu._kl, lu._ku, p.size, 2 * p.N * d
    assembled_row = np.r_[m:m + ds, :m, m + ds:n]  # of each banded row
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            dense[assembled_row[i], j] = lu._ab[kl + ku + i - j, j]
    assert np.array_equal(dense, assemble_jacobian(p, x))


@pytest.mark.parametrize("d, ds", ROW_SPLITS)
def test_matvec_matches_assembled_order_sum(d, ds):
    # Entries of each row summed in column order, as a scatter of the
    # assembled Jacobian's nonzeros would.
    p, x = random_window(d, ds, seed=10 * d + ds)
    v = np.random.default_rng(d).standard_normal(p.size)
    jac = assemble_jacobian(p, x)
    rows, cols = np.nonzero(jac)
    reference = np.bincount(rows, weights=jac[rows, cols] * v[cols], minlength=p.size)
    assert np.array_equal(banded_jacobian_lu(p, x).matvec(v), reference)


@pytest.mark.parametrize("k", [1, 2, 8, 121])
def test_top_ritz_pair_matches_eigh_tridiagonal(k):
    rng = np.random.default_rng(k)
    alpha = list(rng.uniform(0.1, 2.0, k))
    beta = list(rng.uniform(0.01, 1.0, k - 1))
    t, s = _top_ritz_pair(alpha, beta)
    w, v = eigh_tridiagonal(alpha, beta, select="i", select_range=(k - 1, k - 1))
    assert t == w[0]
    assert np.array_equal(s, v[:, 0])


@pytest.mark.parametrize("alpha, beta", [([np.nan], []), ([1.0, 2.0], [np.nan]),
                                         ([1.0, np.inf], [0.5])])
def test_top_ritz_pair_rejects_non_finite(alpha, beta):
    with pytest.raises(ValueError):
        _top_ritz_pair(alpha, beta)


def test_short_transport_makes_one_schur_per_family(paper7_perturbed, monkeypatch):
    # Each family reads one Schur factor of its splitting, and a 0.1 rad move
    # is one transport step per family: two ordered Schur decompositions in
    # all.  The complement frame is that factor's trailing columns, used as
    # it is, so each family makes two SVDs: the splitting's singularity test
    # and the transport step's projection.
    p = truncated_problem(paper7_perturbed, 1.0, 10)
    calls = []
    svd_calls = []
    schur = scipy.linalg.schur
    svd = np.linalg.svd

    def counting_schur(*args, **kwargs):
        calls.append(kwargs.get("sort"))
        return schur(*args, **kwargs)

    def counting_svd(*args, **kwargs):
        svd_calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting_schur)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    p.transported(1.1)
    assert sorted(calls) == ["iuc", "ouc"]
    assert len(svd_calls) == 4


def test_adapt_window_rejects_nan_tail_tol():
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    p = truncated_problem(system, 0.0, 20)
    with pytest.raises(ValueError, match="tail_tol"):
        adapt_window(p, geometric_window(0.5, 20), tail_tol=math.nan)
