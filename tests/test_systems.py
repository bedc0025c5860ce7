import json
import math

import numpy as np
import pytest

import homcont as hc
from homcont import continuation
from homcont.errors import InvalidConfig
from homcont.systems import rotating_matrix


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
