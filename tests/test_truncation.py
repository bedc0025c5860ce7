import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

import homcont as hc
from homcont.errors import SingularJacobian, SizeMismatch, WindowOverflow
from homcont.systems import SystemFamily
from homcont import _linalg, truncation
from homcont.truncation import (
    DEFAULT_KERNEL_TOL,
    GRAM_FLOOR,
    TruncatedProblem,
    _RAISED_PIVOT,
    _top_ritz_pair,
    adapt_window,
    assemble_dresidual_dtheta,
    assemble_residual,
    banded_jacobian_lu,
    classify_window,
    embed_window,
    near_singular,
    tail_mass,
    truncated_problem,
)

from conftest import (assemble_jacobian, estimate_trials, half_turn_loop, random_hyperbolic,
                      record_calls)

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
    ds, m = p.left_rows.shape[0], 2 * N * p.d
    interior, boundary = r[ds:ds + m], np.r_[r[:ds], r[ds + m:]]
    assert np.max(np.abs(interior)) <= 1e-12
    assert np.max(np.abs(boundary)) <= ALPHA ** N + BETA ** (-N)


def test_scalar_delta_residual():
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    N = 6
    p = truncated_problem(system, 0.0, N)
    x = np.zeros(p.size)
    x[N] = 1.0  # unit block at n = 0
    r = assemble_residual(p, x)
    ds = p.left_rows.shape[0]
    nonzero = np.nonzero(r)[0]
    # row for n = -1 sees x_0 arriving (+1); row for n = 0 sees -0.5 x_0
    assert list(nonzero) == [ds + N - 1, ds + N]
    assert r[ds + N - 1] == 1.0
    assert r[ds + N] == -0.5


def test_jacobian_blocks_at_origin(paper7_perturbed):
    N, theta = 8, 0.7
    p = truncated_problem(paper7_perturbed, theta, N)
    jac = assemble_jacobian(p, np.zeros(p.size))
    lin = paper7_perturbed.dfdx(np.arange(-N, N), theta, np.zeros((2 * N, 2)))
    ds = p.left_rows.shape[0]
    for i in range(2 * N):
        row = ds + 2 * i
        block = jac[row:row + 2, 2 * i:2 * i + 2]
        assert np.array_equal(block, -lin[i])
        assert np.array_equal(jac[row:row + 2, 2 * i + 2:2 * i + 4], np.eye(2))


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


def test_near_singular_is_absolute_with_a_rounding_floor():
    # kernel_tol compares smin itself; the 1-norm enters only the floor
    # ROUNDING_FLOOR * scale, which holds whatever kernel_tol is
    assert not near_singular(0.5, 1e8, DEFAULT_KERNEL_TOL)
    assert near_singular(0.5 * DEFAULT_KERNEL_TOL, 1.0, DEFAULT_KERNEL_TOL)
    floor = truncation.ROUNDING_FLOOR * 3.0
    assert near_singular(floor, 3.0, 5e-324)
    assert not near_singular(2.0 * floor, 3.0, 5e-324)
    assert near_singular(float("nan"), 3.0, DEFAULT_KERNEL_TOL)


def random_limits(rng, d):
    """Random hyperbolic limits (a_plus, a_minus) with equal stable dimensions."""
    def stable_dim(a):
        return int(np.sum(np.abs(np.linalg.eigvals(a)) < 1.0))

    while True:
        a_plus, a_minus = random_hyperbolic(rng, d), random_hyperbolic(rng, d)
        if stable_dim(a_plus) == stable_dim(a_minus):
            return a_plus, a_minus


def random_family(rng, d):
    """Seeded nonlinear family: random hyperbolic limits with equal stable
    dimensions, plus an n-dependent linear and quadratic part that decays
    away from n = 0."""
    a_plus, a_minus = random_limits(rng, d)
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


def test_gram_band_matches_dense_oracle():
    # J^T J from the unfactored band against the dense product, diagonal by
    # diagonal; the seeds cover d_s != d / 2 on both sides, so kl != ku.
    splits = set()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for d in (2, 3, 4):
            p = truncated_problem(random_family(rng, d), 0.4, 12)
            splits.add((d, p.left_rows.shape[0]))
            lu = banded_jacobian_lu(p, np.zeros(p.size))
            jac = assemble_jacobian(p, np.zeros(p.size))
            oracle = jac.T @ jac
            band = lu._gram_band()
            kd = band.shape[0] - 1
            assert kd == lu._kl + lu._ku
            assert np.array_equal(np.triu(oracle, kd + 1), np.zeros_like(oracle))
            for o in range(kd + 1):
                want = np.diagonal(oracle, o)
                assert np.max(np.abs(band[kd - o, o:] - want)) <= 1e-14 * np.max(np.abs(want))
    assert {(3, 1), (3, 2), (4, 1), (4, 3)} <= splits


def count_calls(monkeypatch, *names):
    """Count calls of the named LAPACK routines made through truncation."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(truncation.lapack, name, counted(name, getattr(truncation.lapack, name)))
    return calls


def count_lanczos_steps(monkeypatch):
    """Count Lanczos steps: each makes one plain dgbtrs solve on the LU of J
    after a transposed one on the same factors.  The Gram route makes no
    transposed solve, and its plain solves are on factors of J^T J - mu I."""
    steps, factors = [0], [None]
    solve = truncation.lapack.dgbtrs

    def counted(lu, *args, **kwargs):
        if kwargs.get("trans", 0) == 1:
            factors[0] = lu
        else:
            steps[0] += lu is factors[0]
        return solve(lu, *args, **kwargs)

    monkeypatch.setattr(truncation.lapack, "dgbtrs", counted)
    return steps


@pytest.mark.parametrize("theta", [0.0, 0.3, 2 * math.pi - 0.3, math.pi])
def test_stalled_lanczos_takes_gram_path(paper7_perturbed, monkeypatch, theta):
    # At N = 160 the small singular values of regular windows cluster near
    # 1 - alpha, where Lanczos would stall; those windows pass the mu0 test
    # and the Gram path gives smin and v without a single Lanczos step.  At
    # the kernel crossing theta = pi smin lies below the floor: one failed
    # mu0 test, and Lanczos converges in a few steps.
    p = truncated_problem(paper7_perturbed, theta, 160)
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    calls = count_calls(monkeypatch, "dpbtrf")
    steps = count_lanczos_steps(monkeypatch)
    smin, v = lu.smallest_singular()
    _, s, vt = np.linalg.svd(assemble_jacobian(p, np.zeros(p.size)))
    assert abs(smin - s[-1]) <= 1e-13 * s[0]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(v @ vt[-1]) >= 1.0 - 1e-10
    if theta == math.pi:
        assert calls["dpbtrf"] == 1
        assert steps[0] > 0
        assert smin < GRAM_FLOOR * lu.norm_1
    else:
        assert steps[0] == 0
        assert calls["dpbtrf"] > 0
        assert smin > GRAM_FLOOR * lu.norm_1


def test_lanczos_runs_on_below_gram_floor(monkeypatch):
    # beta = 200 puts ||J||_1 near 200 while the small singular values still
    # cluster near 1 - alpha = 0.5, below GRAM_FLOOR * ||J||_1: at most one
    # failed mu0 test, then Lanczos runs to convergence.
    system = hc.paper7_family(hc.Paper7Config(alpha=0.5, beta=200.0, coupling=0.0))
    p = truncated_problem(system, 0.0, 60)
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    calls = count_calls(monkeypatch, "dpbtrf")
    steps = count_lanczos_steps(monkeypatch)
    smin, _ = lu.smallest_singular()
    s = np.linalg.svd(assemble_jacobian(p, np.zeros(p.size)), compute_uv=False)
    assert calls["dpbtrf"] <= 1
    assert steps[0] > 0
    assert smin < GRAM_FLOOR * lu.norm_1
    assert abs(smin - s[-1]) <= 1e-13 * s[0]


def test_failed_certificate_falls_back_to_bisection(monkeypatch):
    # Two decoupled stable scalar recurrences with rates 0.5 and 0.5 + 1e-6
    # put two singular values 2e-6 apart (relative) at the bottom of the
    # window's spectrum.  The inverse iterations from the 1e-3 bracket
    # cannot separate them, RQI settles on the upper one, the two-Cholesky
    # certificate rejects it, and the bracket is bisected down to 2 * eps.
    a = np.diag([0.5, 0.5 + 1e-6])
    system = hc.linear_family(2, lambda t: a, lambda t: a)
    p = truncated_problem(system, 0.0, 40)
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    widths = []
    bisect = truncation._bisect

    def recording(*args):
        widths.append(args[-1])  # rtol, the relative width bisected to
        return bisect(*args)

    monkeypatch.setattr(truncation, "_bisect", recording)
    smin, v = lu.smallest_singular()
    _, s, vt = np.linalg.svd(assemble_jacobian(p, np.zeros(p.size)))
    assert widths == [truncation._GRAM_BRACKET_RTOL, 2.0 * np.finfo(float).eps]
    assert (s[-2] - s[-1]) / s[-1] < 1e-5
    assert abs(smin - s[-1]) <= 1e-13 * s[0]
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert abs(v @ vt[-1]) >= 1.0 - 1e-10


def test_warm_start_stays_certified_on_a_clustered_window(paper7_perturbed, monkeypatch):
    # At N = 160 and theta = 0.1 the two smallest singular values of the
    # paper7 window lie 3e-4 apart (relative).  Handed the exact estimate,
    # the dense smallest right singular vector certifies smin warm with
    # three Cholesky tests; the second one (RQI settles on sigma_2), a NaN
    # vector and a zero vector fall back, with more tests but a bounded
    # number, to the cold call's smin within the certificate width and the
    # dense SVD's.
    p = truncated_problem(paper7_perturbed, 0.1, 160)
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    _, s, vt = np.linalg.svd(assemble_jacobian(p, np.zeros(p.size)))
    assert s[-2] / s[-1] < 1.0004
    cold, _ = lu.smallest_singular()
    width = (truncation._CERTIFY_ULPS * np.finfo(float).eps
             * max(1.0, float(np.min(lu._gram_band()[-1])) / cold ** 2))
    calls = count_calls(monkeypatch, "dpbtrf")
    starts = {"first": vt[-1], "second": vt[-2], "nan": np.full(p.size, np.nan),
              "zero": np.zeros(p.size)}
    for name, start in starts.items():
        calls["dpbtrf"] = 0
        smin, v = lu.smallest_singular(s[-1], start)
        if name == "first":
            assert calls["dpbtrf"] == 3
        else:
            assert 3 < calls["dpbtrf"] <= 30
        assert abs(smin - cold) <= width * cold
        assert abs(smin - s[-1]) <= 1e-13 * s[0]
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert abs(v @ vt[-1]) >= 1.0 - 1e-10


@pytest.mark.parametrize("seed", [0, 3])
def test_smallest_singular_matches_svd_on_random_windows(seed, monkeypatch):
    # Seeded linear windows with random hyperbolic limits, d = 2 - 4, at
    # N = 40 and 160: smin and v against the dense SVD, and the LU's
    # determinant sign against slogdet.  Both seeds' d = 4 windows lie
    # below the Gram floor, so each seed covers both paths.  Every estimate
    # of smin, good, bad or meaningless, with no start vector, the dense
    # singular vector or a random one, gives the same answer on the same
    # path: the hints change the cost, not the result.
    rng = np.random.default_rng(seed)
    runs = []
    lanczos = truncation.WindowLU._lanczos_smallest

    def recording(lu, *args):
        runs.append(1)
        return lanczos(lu, *args)

    def path(estimate, start=None):
        runs.clear()
        smin, v = lu.smallest_singular(estimate, start)
        return smin, v, "lanczos" if runs else "gram"

    monkeypatch.setattr(truncation.WindowLU, "_lanczos_smallest", recording)
    taken = set()
    for d in (2, 3, 4):
        a_plus, a_minus = random_limits(rng, d)
        system = hc.linear_family(d, lambda t: a_plus, lambda t: a_minus)
        for N in (40, 160):
            p = truncated_problem(system, 0.0, N)
            lu = banded_jacobian_lu(p, np.zeros(p.size))
            smin, v, taken_here = path(None)
            taken.add(taken_here)
            jac = assemble_jacobian(p, np.zeros(p.size))
            _, s, vt = np.linalg.svd(jac)
            assert lu.det_sign() == int(np.linalg.slogdet(jac)[0])
            starts = [None, vt[-1], np.random.default_rng(N).standard_normal(p.size)]
            for estimate, start in itertools.product(
                    [None] + estimate_trials(s[-1], GRAM_FLOOR * lu.norm_1), starts):
                smin, v, taken_with = path(estimate, start)
                assert taken_with == taken_here
                assert abs(smin - s[-1]) <= 1e-13 * s[0]
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                assert abs(v @ vt[-1]) >= 1.0 - 1e-10
    assert taken == {"gram", "lanczos"}


def test_gram_path_call_counts(paper7_perturbed, monkeypatch):
    # Cost guard on a regular N = 160 window: one mu0 test, about a dozen
    # bisection tests to 1e-3, two certificate tests, no Lanczos step and at
    # most _RQI_STEPS Rayleigh-quotient factorizations.  Bisecting down to
    # 2 * eps, or Lanczos, would come back as over 50 Cholesky tests or as
    # Lanczos steps.
    p = truncated_problem(paper7_perturbed, 0.3, 160)
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    calls = count_calls(monkeypatch, "dpbtrf", "dgbtrf")
    steps = count_lanczos_steps(monkeypatch)
    lu.smallest_singular()
    assert steps[0] == 0
    assert calls["dpbtrf"] <= 30
    assert 1 <= calls["dgbtrf"] <= truncation._RQI_STEPS


def nan_window(system, theta, N):
    """Window of system at theta whose dfdx holds a NaN at n = 0."""
    def dfdx(ns, t, X):
        out = np.array(system.dfdx(ns, t, X), dtype=float)
        out[ns == 0, 0, 0] = np.nan
        return out

    return truncated_problem(replace(system, dfdx=dfdx), theta, N)


def test_nan_band_raises_without_spinning(paper7_perturbed, monkeypatch):
    # A NaN in the band makes the first Lanczos step non-finite: the Ritz
    # check raises after one step, before any Cholesky test.
    p = nan_window(paper7_perturbed, 0.0, 160)
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    calls = count_calls(monkeypatch, "dgbtrs", "dpbtrf")
    with pytest.raises(ValueError, match="non-finite"):
        lu.smallest_singular()
    assert calls == {"dgbtrs": 2, "dpbtrf": 0}


def test_non_finite_gram_band_leaves_lanczos_running(paper7_perturbed, monkeypatch):
    # dpbtrf factors a NaN matrix without complaint, so a Gram band that is
    # not finite (here a NaN put into the kept band after factoring) must
    # send the window to Lanczos without a mu0 test.
    p = truncated_problem(paper7_perturbed, 0.0, 160)
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    lu._ab[lu._kl + lu._ku, p.size // 2] = np.nan
    calls = count_calls(monkeypatch, "dpbtrf")
    smin, _ = lu.smallest_singular()
    s = np.linalg.svd(assemble_jacobian(p, np.zeros(p.size)), compute_uv=False)
    assert calls["dpbtrf"] == 0
    assert abs(smin - s[-1]) <= 1e-13 * s[0]


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
    assert tail_mass(np.zeros(2 * (2 * N + 1)), 2) == 0.0
    kern = kernel_window(paper7_linear, N)
    tm = tail_mass(kern, 2)
    assert 0.0 < tm <= max(ALPHA ** 30, BETA ** (-30)) + 1e-15
    unit_edge = np.zeros(2 * (2 * N + 1))
    unit_edge[-2:] = [1.0, 0.0]  # unit block at n = N
    assert tail_mass(unit_edge, 2) == 1.0
    assert tail_mass(np.array([3.0, 4.0]), 2) == 5.0  # N = 0: the one block


def test_tail_mass_validation():
    with pytest.raises(SizeMismatch):
        tail_mass(np.zeros(11), 2)


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


def test_adapt_window_overflow_without_decay():
    # constant block norms: no enlargement can bring the tail down
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    p = truncated_problem(system, 0.0, 20)
    with pytest.raises(WindowOverflow, match="does not decay"):
        adapt_window(p, np.ones(p.size), tail_tol=1e-9)


@pytest.mark.parametrize("zero_side", [slice(0, 20), slice(21, 41)])
def test_adapt_window_reads_one_sided_decay(zero_side):
    # data that vanishes on one side gives a rate from the other side only:
    # 0.7^(0.75 N) <= 1e-9 first holds at N = 80
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    p = truncated_problem(system, 0.0, 20)
    x = geometric_window(0.7, 20)
    x[zero_side] = 0.0
    assert truncation._estimate_decay(p.blocks(x), 20) == pytest.approx(0.7, rel=1e-12)
    p2, x2 = adapt_window(p, x, tail_tol=1e-9)
    assert p2.N == 80
    assert np.array_equal(x2[60:101], x)


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
    p = TruncatedProblem(system=system, theta=0.0, N=N, left_rows=rows[:ds],
                         right_rows=rows[ds:], gap_tol=1e-6)
    return p, rng.standard_normal(p.size)


ROW_SPLITS = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]


@pytest.mark.parametrize("d, ds", ROW_SPLITS)
def test_band_unpacks_to_dense_oracle(d, ds):
    p, x = random_window(d, ds, seed=10 * d + ds)
    lu = banded_jacobian_lu(p, x)
    kl, ku, n = lu._kl, lu._ku, p.size
    dense = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            dense[i, j] = lu._ab[kl + ku + i - j, j]
    assert np.array_equal(dense, assemble_jacobian(p, x))


@pytest.mark.parametrize("d, ds", ROW_SPLITS)
def test_matvec_matches_oracle_scatter_sum(d, ds):
    # Entries of each row summed in column order, as a scatter of the
    # dense oracle's nonzeros would.
    p, x = random_window(d, ds, seed=10 * d + ds)
    v = np.random.default_rng(d).standard_normal(p.size)
    jac = assemble_jacobian(p, x)
    rows, cols = np.nonzero(jac)
    reference = np.bincount(rows, weights=jac[rows, cols] * v[cols], minlength=p.size)
    assert np.array_equal(banded_jacobian_lu(p, x).matvec(v), reference)


# (d, seed) of random_family with d_s = 1, 2, 3, 0 (no left rows) and 2 = d
# (no right rows)
@pytest.mark.parametrize("d, seed", [(2, 3), (3, 2), (4, 2), (3, 0), (2, 0)])
def test_window_system_has_one_row_order(d, seed):
    # left boundary rows, interior rows, right boundary rows: the residual
    # and dR/dtheta are laid out as solve() takes and matvec() returns
    rng = np.random.default_rng(seed)
    p = truncated_problem(random_family(rng, d), 0.4, 12)
    x = 0.2 * rng.standard_normal(p.size)
    ds, m = p.left_rows.shape[0], 2 * p.N * d
    blocks = p.blocks(x)
    r = assemble_residual(p, x)
    assert np.array_equal(r[:ds], p.left_rows @ blocks[0])
    assert np.array_equal(r[ds + m:], p.right_rows @ blocks[-1])
    dr = assemble_dresidual_dtheta(p, x)
    assert not np.any(dr[:ds]) and not np.any(dr[ds + m:])
    lu = banded_jacobian_lu(p, x)
    assert np.linalg.norm(lu.matvec(lu.solve(r)) - r) <= 1e-12 * np.linalg.norm(r)


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
    # A 0.1 rad move is one transport step per family.  A family whose limit
    # matrix moves reads one Schur factor of its new splitting: one real
    # Schur form (gees) and one reordering of it (trsen).  paper7's a_minus
    # does not depend on theta, so its family reuses the splitting the
    # problem was built with and makes none; a family of two moving limits
    # makes one each.  The complement frame is the factor's trailing
    # columns, used as it is.  Regularity is read from the Schur form's
    # eigenvalue moduli, so the only SVDs are one projection per transport
    # step.
    rng = np.random.default_rng(4)
    a_of, _ = half_turn_loop(rng, 2, 1)
    both_move = hc.linear_family(2, a_of, lambda theta: a_of(theta + 0.5))
    for system, moving in ((paper7_perturbed, 1), (both_move, 2)):
        p = truncated_problem(system, 1.0, 10)
        schurs, svds = [], []
        with monkeypatch.context() as patch:
            record_calls(patch, scipy.linalg, "schur", schurs)
            record_calls(patch, _linalg, "dgees", schurs)
            record_calls(patch, _linalg, "dtrsen", schurs)
            record_calls(patch, np.linalg, "svd", svds)
            record_calls(patch, _linalg, "dgesdd", svds)
            p.transported(1.1)
        assert schurs == ["dgees", "dtrsen"] * moving
        assert svds == ["dgesdd"] * 2


@pytest.mark.parametrize("theta", [1e30, math.inf, math.nan, 1e8])
def test_far_transport_is_rejected_before_any_frame(paper7_perturbed, monkeypatch, theta):
    # a path that is not finite or longer than MAX_PATH_STEPS steps raises
    # before a single limit matrix is read or split; the same recorders see
    # the reads of a short finite path and its splitting of the moving
    # a_plus (a_minus is constant), so the empty records are not vacuous
    limits = []

    def counted(fn):
        def read(theta):
            limits.append(theta)
            return fn(theta)
        return read

    system = replace(paper7_perturbed, a_plus=counted(paper7_perturbed.a_plus),
                     a_minus=counted(paper7_perturbed.a_minus))
    p = truncated_problem(system, 1.0, 10)
    schurs = []
    record_calls(monkeypatch, _linalg, "dgees", schurs)
    limits.clear()
    with pytest.raises(ValueError, match="theta path from 1.0 to"):
        p.transported(theta)
    assert schurs == [] and limits == []
    p.transported(1.1)
    assert schurs == ["dgees"] and limits == [1.1, 1.1]


def test_adapt_window_rejects_nan_tail_tol():
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    p = truncated_problem(system, 0.0, 20)
    with pytest.raises(ValueError, match="tail_tol"):
        adapt_window(p, geometric_window(0.5, 20), tail_tol=math.nan)


def test_problem_families_survive_derivation(paper7_perturbed):
    # transported, over, adapt_window and replace hand the problem's
    # complement families on, so their splitting memos persist; a replace
    # that changes the system or gap_tol builds new ones
    p = truncated_problem(paper7_perturbed, 1.0, 10)
    left, right = p.families
    x = geometric_window(0.9, 10, d=2)
    derived = [p.transported(1.1), replace(p, theta=2.0), adapt_window(p, x, 1e-12)[0],
               *p.over(hc.CircleGrid.uniform(8))[:2]]
    for q in derived:
        assert q.families[0] is left and q.families[1] is right
    other = hc.paper7_family(hc.Paper7Config())
    for q in (replace(p, system=other), replace(p, gap_tol=1e-7)):
        assert q.families[0] is not left and q.families[1] is not right
        assert np.array_equal(q.transported(1.1).right_rows, p.transported(1.1).right_rows)


@pytest.mark.parametrize("d, seed", [(2, 3), (3, 2), (3, 0)])
def test_residual_reuse_equals_full_assembly(d, seed):
    # the interior rows of a residual at the same theta, N and x with other
    # boundary rows, plus the two boundary blocks at the new rows, are the
    # full assembly bit for bit, with no f pass
    rng = np.random.default_rng(seed)
    p = truncated_problem(random_family(rng, d), 0.4, 12)
    moved = p.transported(0.55)
    x = 0.2 * rng.standard_normal(p.size)
    other = assemble_residual(replace(p, theta=0.55), x)
    full = assemble_residual(moved, x)
    no_f = replace(moved, system=replace(moved.system, f=None))
    assert np.array_equal(assemble_residual(no_f, x, reuse=other), full)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tail_mass_equals_mask_definition(d):
    # the slice form reads the blocks |n| >= 0.75 N - 1e-12, the mask's
    rng = np.random.default_rng(40 + d)
    for N in range(1, 65):
        blocks = rng.standard_normal((2 * N + 1, d)) * rng.uniform(0.0, 2.0, (2 * N + 1, 1))
        ns = np.arange(-N, N + 1)
        mask = np.abs(ns) >= (1.0 - truncation.TAIL_FRACTION) * N - 1e-12
        want = float(np.max(np.linalg.norm(blocks[mask], axis=1)))
        assert tail_mass(blocks.ravel(), d) == want, N
    for size in (d * 2, d * 4 + (d > 1), 0):
        with pytest.raises(SizeMismatch):
            tail_mass(np.zeros(size), d)
