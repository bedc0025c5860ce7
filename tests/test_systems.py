import json
import math

import numpy as np
import pytest

import homcont as hc
from homcont import continuation, systems
from homcont.errors import InvalidConfig
from homcont.systems import _by_side, rotating_matrix


ALPHA, BETA = 0.5, 2.0


def test_rotating_matrix_endpoints():
    assert np.array_equal(rotating_matrix(0.0, ALPHA, BETA), np.diag([ALPHA, BETA]))
    assert np.allclose(rotating_matrix(math.pi, ALPHA, BETA), np.diag([BETA, ALPHA]), atol=1e-15)


def test_rotating_matrix_quarter_turn():
    assert np.allclose(
        rotating_matrix(math.pi / 2, ALPHA, BETA),
        np.array([[1.25, -0.75], [-0.75, 1.25]]),
        atol=1e-15,
    )


def test_config_validation():
    with pytest.raises(InvalidConfig):
        hc.Paper7Config(alpha=1.2)
    with pytest.raises(InvalidConfig):
        hc.Paper7Config(beta=0.9)
    with pytest.raises(InvalidConfig):
        hc.Paper7Config(coupling=-0.1)
    with pytest.raises(InvalidConfig):
        hc.Paper7Config(envelope_scale=0.0)


def a_n_pointwise(n, theta):
    return rotating_matrix(theta, ALPHA, BETA) if n >= 0 else np.diag([ALPHA, BETA])


def test_unperturbed_family_is_linear(paper7_linear):
    rng = np.random.default_rng(0)
    ns = np.arange(-30, 30)
    for _ in range(50):
        theta = float(rng.uniform(0, 2 * math.pi))
        X = rng.standard_normal((ns.size, 2))
        fx = paper7_linear.f(ns, theta, X)
        jac = paper7_linear.dfdx(ns, theta, X)
        assert fx.shape == (ns.size, 2) and jac.shape == (ns.size, 2, 2)
        for n, x, f_row, j_row in zip(ns, X, fx, jac):
            a_n = a_n_pointwise(n, theta)
            assert np.array_equal(f_row, a_n @ x)
            assert np.array_equal(j_row, a_n)


def test_zero_is_stationary(paper7_perturbed):
    rng = np.random.default_rng(1)
    zero = np.zeros((20, 2))
    for _ in range(50):
        ns = rng.integers(-100, 100, size=20)
        theta = float(rng.uniform(-10, 10))
        assert np.array_equal(paper7_perturbed.f(ns, theta, zero), zero)


def test_derivative_matches_finite_differences(paper7_perturbed):
    rng = np.random.default_rng(2)
    eps = 1e-6
    ns = np.arange(-20, 20)
    for _ in range(50):
        theta = float(rng.uniform(0, 2 * math.pi))
        X = rng.uniform(-2, 2, size=(ns.size, 2))
        jac = paper7_perturbed.dfdx(ns, theta, X)
        fd = np.zeros((ns.size, 2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = eps
            fd[:, :, j] = (
                paper7_perturbed.f(ns, theta, X + e) - paper7_perturbed.f(ns, theta, X - e)
            ) / (2 * eps)
        for jac_n, fd_n in zip(jac, fd):
            assert np.linalg.norm(jac_n - fd_n, 2) <= 1e-6 * max(1.0, np.linalg.norm(jac_n, 2))


def test_periodicity(paper7_perturbed):
    rng = np.random.default_rng(3)
    ns = np.arange(-20, 20)
    for _ in range(100):
        theta = float(rng.uniform(0, 2 * math.pi))
        X = rng.standard_normal((ns.size, 2))
        delta = paper7_perturbed.f(ns, theta, X) - paper7_perturbed.f(ns, theta + 2 * math.pi, X)
        assert np.max(np.linalg.norm(delta, axis=1)) <= 1e-12


def test_spectrum_is_theta_independent():
    for theta in np.linspace(0, 2 * math.pi, 101):
        a = rotating_matrix(theta, ALPHA, BETA)
        assert np.trace(a) == pytest.approx(ALPHA + BETA, abs=1e-12)
        assert np.linalg.det(a) == pytest.approx(ALPHA * BETA, abs=1e-12)


def test_perturbation_envelope_bound(paper7_perturbed):
    c, tau, m_radius = 0.1, 5.0, 2.0
    rng = np.random.default_rng(4)
    ns = np.arange(-60, 60)
    for _ in range(20):
        theta = float(rng.uniform(0, 2 * math.pi))
        X = rng.uniform(-1, 1, (ns.size, 2))
        X *= (m_radius / np.maximum(1.0, np.linalg.norm(X, axis=1)))[:, None]
        linear = paper7_perturbed.dfdx(ns, theta, np.zeros_like(X)) @ X[..., None]
        h = paper7_perturbed.f(ns, theta, X) - linear[..., 0]
        for n, h_n in zip(ns, h):
            assert np.linalg.norm(h_n) <= c * m_radius ** 2 * 2.0 / (1.0 + (n / tau) ** 2) + 1e-14


def test_asymptotic_maps(paper7_perturbed):
    x = np.array([0.3, -0.7])
    for theta in (0.0, 1.0, math.pi):
        assert np.allclose(
            paper7_perturbed.f_inf_plus(theta, x),
            rotating_matrix(theta, ALPHA, BETA) @ x,
        )
        assert np.allclose(paper7_perturbed.f_inf_minus(theta, x), np.diag([ALPHA, BETA]) @ x)


def test_linearization_at_zero(paper7_perturbed):
    ns = np.array([-5, -3, 0, 5, 7])
    zero = np.zeros((ns.size, 2))
    lin0 = paper7_perturbed.dfdx(ns, 0.0, zero)
    assert np.array_equal(lin0[1], np.diag([ALPHA, BETA]))  # n = -3
    lin_pi = paper7_perturbed.dfdx(ns, math.pi, zero)
    assert np.allclose(lin_pi[4], np.diag([BETA, ALPHA]), atol=1e-15)  # n = 7
    # quadratic perturbation does not touch the linearization at zero
    linear = hc.paper7_family(hc.Paper7Config(coupling=0.0))
    assert np.array_equal(lin_pi, linear.dfdx(ns, math.pi, zero))


def test_direct_sum_evaluations(paper7_linear):
    other = hc.linear_family(2, lambda t: np.diag([0.3, 3.0]), lambda t: np.diag([0.4, 2.5]))
    combined = hc.direct_sum(paper7_linear, other)
    assert combined.d == 4
    ns = np.array([-2, 2])
    X = np.array([[1.0, 2.0, 3.0, 4.0], [-1.0, 0.5, 2.0, -3.0]])
    out = combined.f(ns, 1.0, X)
    assert np.array_equal(out[:, :2], paper7_linear.f(ns, 1.0, X[:, :2]))
    assert np.array_equal(out[:, 2:], other.f(ns, 1.0, X[:, 2:]))
    assert np.array_equal(out[:, 2:], [np.diag([0.4, 2.5]) @ X[0, 2:], np.diag([0.3, 3.0]) @ X[1, 2:]])
    jac = combined.dfdx(ns, 1.0, X)
    assert np.array_equal(jac[:, :2, :2], paper7_linear.dfdx(ns, 1.0, X[:, :2]))
    assert np.array_equal(jac[:, 2:, 2:], other.dfdx(ns, 1.0, X[:, 2:]))
    assert np.all(jac[:, :2, 2:] == 0.0) and np.all(jac[:, 2:, :2] == 0.0)


def test_hypotheses_pass_on_builtin(paper7_perturbed, grid64):
    report = hc.check_hypotheses(paper7_perturbed, grid64, N=40, M=2.0, seed=0)
    assert [c.status for c in report.checks()] == ["pass"] * 4
    assert not report.any_fail


def test_hypotheses_a1_pass_unperturbed(paper7_linear, grid64):
    report = hc.check_hypotheses(paper7_linear, grid64, N=40, M=2.0, seed=0)
    assert report.a1.status == "pass"
    assert len(report.a1.evidence["moduli"]) == 3


NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("g, status", [
    # Hoelder-1/4 cusp at theta = 0: the modulus shrinks, but by less than half
    (lambda t: abs(math.sin(t)) ** 0.25, "warn"),
    # period 2*pi/16, just under delta = 0.4: the modulus grows as delta shrinks
    (lambda t: math.sin(16.0 * t), "fail"),
])
def test_hypotheses_a1_rough_theta_dependence(grid64, g, status):
    # dfdx = diag(0.5, 2) + g(theta) N with N nilpotent: every limit keeps
    # the eigenvalues 0.5 and 2, so only A1 sees the roughness of g
    a = lambda t: np.diag([0.5, 2.0]) + g(t) * NILPOTENT
    report = hc.check_hypotheses(hc.linear_family(2, a, a), grid64, N=40, M=1.0, seed=0)
    assert report.a1.status == status
    assert None not in report.a1.evidence["moduli"]
    assert report.a2.status == "pass"


def drifting_family(h):
    """Linear family diag(0.5, 2) + 0.1 h(n) N at step n, whose limit at
    both ends is taken to be diag(0.5, 2)."""
    lin = np.diag([0.5, 2.0])

    def dfdx(ns, t, X):
        return lin + 0.1 * h(np.abs(ns))[:, None, None] * NILPOTENT

    return hc.SystemFamily(
        d=2, f=lambda ns, t, X: (dfdx(ns, t, X) @ X[..., None])[..., 0], dfdx=dfdx,
        a_plus=lambda t: lin, a_minus=lambda t: lin,
        f_inf_plus=lambda t, x: lin @ x, f_inf_minus=lambda t, x: lin @ x,
    )


@pytest.mark.parametrize("h, status", [
    # (1 + |n|)^-0.1: from |n| = 20 to 40 the distance falls only to 0.94
    (lambda n: (1.0 + n) ** -0.1, "warn"),
    # |n|: the distance to the limit doubles
    (lambda n: n.astype(float), "fail"),
])
def test_hypotheses_a2_slow_convergence(grid64, h, status):
    report = hc.check_hypotheses(drifting_family(h), grid64, N=40, M=1.0, seed=0)
    assert report.a2.status == status
    assert "IndexMismatch" not in report.a2.evidence
    assert report.a1.status == "pass"


def test_hypotheses_detect_stable_dimension_mismatch(grid64):
    system = hc.linear_family(
        2, lambda t: np.diag([0.5, 2.0]), lambda t: np.diag([0.5, 0.4])
    )
    report = hc.check_hypotheses(system, grid64, N=20, M=1.0, seed=0)
    assert report.a2.status == "fail"
    assert report.a2.evidence.get("IndexMismatch") is True
    assert report.any_fail
    # A3's window needs the balance; A4 reads each limit matrix on its own
    assert report.a3.status == "fail"
    assert report.a3.evidence == {"blocked_by": "A2 stable-dimension mismatch"}
    assert report.a4.status == "pass"
    assert report.a4.evidence["min_symbol_smin"] == pytest.approx(0.5, abs=1e-9)


def test_hypotheses_argument_validation(paper7_linear, grid64):
    with pytest.raises(ValueError):
        hc.check_hypotheses(paper7_linear, grid64, N=5, M=1.0)
    with pytest.raises(ValueError):
        hc.check_hypotheses(paper7_linear, grid64, N=20, M=0.0)
    with pytest.raises(ValueError):
        hc.check_hypotheses(paper7_linear, grid64, N=20, M=math.nan)
    with pytest.raises(ValueError):
        hc.check_hypotheses(paper7_linear, grid64, N=20, M=math.inf)


def cubic_family(c):
    """x_{n+1} = diag(0.5, 2) x + c * exp(-|n|/3) * x^3, componentwise."""
    lin = np.diag([0.5, 2.0])

    def envelope(ns):
        return c * np.exp(-np.abs(ns) / 3.0)

    def f(ns, t, X):
        return X @ lin + envelope(ns)[:, None] * X ** 3

    def dfdx(ns, t, X):
        return lin + 3.0 * envelope(ns)[:, None, None] * (X ** 2)[:, :, None] * np.eye(2)

    return hc.SystemFamily(
        d=2, f=f, dfdx=dfdx, a_plus=lambda t: lin, a_minus=lambda t: lin,
        f_inf_plus=lambda t, x: lin @ x, f_inf_minus=lambda t, x: lin @ x,
    )


@pytest.mark.parametrize("c", [1e4, 1e10])
def test_a3_fails_when_newton_probe_does_not_return(grid64, c):
    # at c = 1e4 and 1e10 the line search of every probe's newton_correct
    # stalls (NoConvergence): no probe has returned to zero.
    report = hc.check_hypotheses(cubic_family(c), grid64, N=20, M=1.0, seed=0)
    assert report.a3.status == "fail"
    assert report.a3.evidence["largest_converged_norm"] is None
    json.dumps(report.a3.evidence, allow_nan=False)


def test_a3_probes_run_the_continuation_corrector(paper7_perturbed, grid64, monkeypatch):
    # A3 has no Newton loop of its own: each of its three probes is one
    # fixed-theta run of the corrector's iteration at theta = 0, which
    # factors no LU beyond its Newton steps (it reads no det sign)
    calls = []
    newton = continuation._newton

    def counted(p, guess, *args):
        calls.append((p.theta, args))
        return newton(p, guess, *args)

    monkeypatch.setattr(continuation, "_newton", counted)
    report = hc.check_hypotheses(paper7_perturbed, grid64, N=20, M=1.0, seed=0)
    assert calls == [(0.0, (None, 1e-12, continuation.DEFAULT_MAX_ITER))] * 3
    assert report.a3.status == "pass"
    assert report.a3.evidence["largest_converged_norm"] < 1e-8


def paper7_oracle(cfg):
    """f and dfdx of paper7_family written as stacked expressions, a_n x +
    h and a_n + dh/dx with a_n from _by_side: the lean in-place passes must
    equal them bit for bit."""
    a_origin = rotating_matrix(0.0, cfg.alpha, cfg.beta)

    def parts(ns, theta, X):
        a_n = _by_side(ns, rotating_matrix(theta, cfg.alpha, cfg.beta), a_origin)
        return a_n, cfg.coupling / (1.0 + (ns / cfg.envelope_scale) ** 2), X[:, 0], X[:, 1]

    def f(ns, theta, X):
        a_n, env, x1, x2 = parts(ns, theta, X)
        q = np.stack([x1 ** 2 + x2 ** 2, x1 * x2], axis=-1)
        return (a_n @ X[..., None])[..., 0] + env[:, None] * q

    def dfdx(ns, theta, X):
        a_n, env, x1, x2 = parts(ns, theta, X)
        dq = np.stack([np.stack([2.0 * x1, 2.0 * x2], -1), np.stack([x2, x1], -1)], -2)
        return a_n + env[:, None, None] * dq

    return f, dfdx


@pytest.mark.parametrize("seed", range(6))
def test_paper7_passes_equal_stacked_oracle_bitwise(seed):
    rng = np.random.default_rng(300 + seed)
    cfg = hc.Paper7Config(alpha=float(rng.uniform(0.1, 0.9)), beta=float(rng.uniform(1.1, 9.0)),
                          coupling=float(rng.uniform(0.0, 2.0)),
                          envelope_scale=float(rng.uniform(0.5, 20.0)))
    system = hc.paper7_family(cfg)
    oracle_f, oracle_dfdx = paper7_oracle(cfg)
    ns = rng.permutation(np.arange(-40, 40))  # unsorted, both signs
    for theta in (0.0, 1.0, math.pi, float(rng.uniform(-10.0, 10.0))):
        for scale in (0.0, 1e-8, 1e-3, 1.0, 1e2):  # X = 0 first
            X = scale * rng.standard_normal((ns.size, 2))
            assert np.array_equal(system.f(ns, theta, X), oracle_f(ns, theta, X))
            assert np.array_equal(system.dfdx(ns, theta, X), oracle_dfdx(ns, theta, X))


@pytest.mark.parametrize("envelope_scale", [5.0, 1e-200])
def test_paper7_n_only_data_are_bitwise_fresh(envelope_scale):
    # paper7 keeps the envelope and side mask of the last ns: f and dfdx on
    # alternating windows (N = 10, 20, 40, a non-contiguous ns, and one ns
    # array rewritten in place) equal, byte for byte, a fresh family's
    cfg = hc.Paper7Config(coupling=0.15, envelope_scale=envelope_scale)
    system = hc.paper7_family(cfg)
    rng = np.random.default_rng(37)
    reused = np.arange(-10, 10)
    windows = [np.arange(-N, N) for N in (10, 20, 40)] + [np.arange(-60, 60)[::3]]
    for i, ns in enumerate(windows * 3 + [reused] * 3):
        if ns is reused and i > len(windows) * 3:
            reused[:] = reused[::-1] + 3
        theta, X = float(rng.uniform(0.0, 7.0)), rng.standard_normal((len(ns), 2))
        fresh = hc.paper7_family(cfg)
        assert system.f(ns, theta, X).tobytes() == fresh.f(ns, theta, X).tobytes()
        assert system.dfdx(ns, theta, X).tobytes() == fresh.dfdx(ns, theta, X).tobytes()


def test_a4_reads_exact_limit_matrix_plus_remainder_jacobian(grid64, monkeypatch):
    # A4 differences only f_inf(theta, x) - a(theta) x: a limit map computed
    # as a @ x gives a itself, while one that is nonlinear away from 0 gives
    # a plus the finite-difference Jacobian of its remainder, c x1^2 in the
    # first component (2 c x1 at (0, 0) of the matrix, 0 elsewhere)
    a, c = np.diag([0.5, 2.0]), 0.1
    system = hc.SystemFamily(
        d=2, f=lambda ns, t, X: X @ a.T, dfdx=lambda ns, t, X: np.broadcast_to(a, (len(ns), 2, 2)),
        a_plus=lambda t: a.copy(), a_minus=lambda t: a.copy(),
        f_inf_plus=lambda t, x: a @ x + np.array([c * x[0] ** 2, 0.0]),
        f_inf_minus=lambda t, x: a @ x,
    )
    seen = []
    real = systems.symbol_smin

    def recorded(m):
        seen.append(np.array(m))
        return real(m)

    monkeypatch.setattr(systems, "symbol_smin", recorded)
    report = hc.check_hypotheses(system, grid64, N=20, M=1.0, seed=0)
    assert report.a4.status == "pass"
    # per node: three probes of f_inf_plus (x = 0 first), then three of f_inf_minus
    plus = [m for i, m in enumerate(seen) if i % 6 < 3]
    minus = [m for i, m in enumerate(seen) if i % 6 >= 3]
    assert all(np.array_equal(m, a) for m in minus)
    assert all(np.array_equal(m, a) for m in plus[::3])  # the probe at x = 0
    for m in plus:
        assert np.array_equal(np.delete(m.ravel(), 0), np.delete(a.ravel(), 0))
    assert max(abs(m[0, 0] - a[0, 0]) for m in plus) > 1e-3
