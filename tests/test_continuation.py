import logging
import math
from dataclasses import replace

import numpy as np
import pytest

import homcont as hc
from homcont import continuation, truncation
from homcont.continuation import (
    AffineConstraint,
    _augmented_det_sign,
    _newton,
    _solve_augmented,
)
from homcont.errors import DegenerateKernel, InvalidConfig, NoConvergence, SingularJacobian, StartInvalid
from homcont.truncation import (
    assemble_dresidual_dtheta,
    assemble_residual,
    embed_window,
    tail_mass,
    truncated_problem,
)

from conftest import assemble_jacobian, predictor_det_signs, record_calls


@pytest.fixture(scope="module")
def candidate(paper7_perturbed):
    return hc.locate_bifurcation(paper7_perturbed, (math.pi - 0.5, math.pi + 0.5), 40, 1e-6)


@pytest.fixture(scope="module")
def long_branch(paper7_perturbed, candidate):
    s0 = 1e-3
    start = hc.switch_branch(paper7_perturbed, candidate, s0, 40)
    controls = hc.ContinuationControls(
        ds0=1e-3, ds_min=1e-8, ds_max=0.01, max_steps=200,
        amplitude_cap=0.5, tail_tol=1e-8, min_norm=0.5 * s0,
    )
    return hc.continue_branch(start, controls)


def test_newton_fixed_point_is_left_alone(paper7_linear):
    p = truncated_problem(paper7_linear, 0.3, 20)
    exact = np.zeros(p.size)
    pt = hc.newton_correct(p, exact)
    assert np.array_equal(pt.X, exact)
    assert pt.residual_norm <= 1e-10


def test_newton_converges_to_trivial_solution(paper7_linear):
    rng = np.random.default_rng(12)
    p = truncated_problem(paper7_linear, 0.0, 25)
    pt = hc.newton_correct(p, 1e-2 * rng.standard_normal(p.size))
    assert pt.residual_norm <= 1e-10
    assert pt.l2_norm <= 1e-10


def test_newton_out_of_iterations_raises(paper7_perturbed):
    rng = np.random.default_rng(12)
    p = truncated_problem(paper7_perturbed, 0.0, 25)
    with pytest.raises(NoConvergence, match="after 1 iterations"):
        _newton(p, 1e-2 * rng.standard_normal(p.size), None, 1e-10, 1)


def test_newton_with_amplitude_constraint(paper7_perturbed, candidate):
    phi = candidate.kernel_vector
    s0 = 1e-3
    p = truncated_problem(paper7_perturbed, candidate.theta_star, 40)
    pt = hc.newton_correct(
        p, s0 * phi, AffineConstraint(w_x=phi, w_theta=0.0, offset=s0), amplitude_ref=phi
    )
    assert pt.residual_norm <= 1e-10
    assert pt.amplitude == pytest.approx(s0, abs=1e-12)
    assert pt.l2_norm >= s0


def test_switch_branch_validation(paper7_perturbed, candidate):
    with pytest.raises(InvalidConfig):
        hc.switch_branch(paper7_perturbed, candidate, 0.0, 40)
    with pytest.raises(InvalidConfig):
        hc.switch_branch(paper7_perturbed, candidate, -1e-3, 40)
    broken = hc.BifurcationCandidate(
        theta_star=candidate.theta_star, smin_at_star=candidate.smin_at_star,
        kernel_vector=np.zeros_like(candidate.kernel_vector), bracket=candidate.bracket,
    )
    with pytest.raises(DegenerateKernel):
        hc.switch_branch(paper7_perturbed, broken, 1e-3, 40)


def test_switch_branch_rejects_linear_family(paper7_linear):
    # paper7's limits as a piecewise-constant linear family: the corrector
    # converges onto the kernel line, where the residual is exactly
    # homogeneous, so there is no isolated nonlinear branch to start
    system = hc.linear_family(2, paper7_linear.a_plus, paper7_linear.a_minus)
    cand = hc.locate_bifurcation(system, (math.pi - 0.5, math.pi + 0.5), 40, 1e-6)
    with pytest.raises(DegenerateKernel, match="linear family"):
        hc.switch_branch(system, cand, 5e-4, 40)


def test_switch_branch_too_large_s0_no_convergence(paper7_perturbed, candidate):
    with pytest.raises(NoConvergence, match="try a smaller s0"):
        hc.switch_branch(paper7_perturbed, candidate, 50.0, 40)


def test_switch_branch_lands_near_crossing(paper7_perturbed, candidate):
    s0 = 1e-3
    pt = hc.switch_branch(paper7_perturbed, candidate, s0, 40)
    assert pt.residual_norm <= 1e-10
    assert pt.amplitude == pytest.approx(s0, abs=1e-12)
    assert 1e-4 <= pt.l2_norm <= 1e-2
    assert abs(pt.theta - math.pi) <= 0.1


def test_continue_zero_steps(paper7_perturbed, candidate):
    start = hc.switch_branch(paper7_perturbed, candidate, 1e-3, 40)
    controls = hc.ContinuationControls(max_steps=0)
    branch = hc.continue_branch(start, controls)
    assert len(branch.points) == 1
    assert branch.stop_reason == "max_steps"


def test_continue_cap_below_start(paper7_perturbed, candidate):
    start = hc.switch_branch(paper7_perturbed, candidate, 1e-3, 40)
    controls = hc.ContinuationControls(amplitude_cap=0.5 * start.l2_norm)
    branch = hc.continue_branch(start, controls)
    assert len(branch.points) == 1
    assert branch.stop_reason == "amplitude_cap"


def test_min_norm_rejects_every_step(paper7_perturbed, candidate):
    # every corrected point lies below min_norm, so each step is rejected
    # until ds falls below ds_min
    start = hc.switch_branch(paper7_perturbed, candidate, 1e-3, 40)
    branch = hc.continue_branch(start, hc.ContinuationControls(min_norm=1.0))
    assert len(branch.points) == 1
    assert branch.stop_reason == "step_failure"


def _newton_failing_on(monkeypatch, fails):
    """Replace continuation._newton by one that raises NoConvergence on the
    calls fails(p, fixed_theta, max_iter, count) selects, count numbering
    from 1 the calls of that mode and max_iter; returns the thetas it failed
    at."""
    real, counts, raised = continuation._newton, {}, []

    def newton(p, guess, constraint, newton_tol, max_iter, residual=None):
        key = (constraint is None, max_iter)
        counts[key] = counts.get(key, 0) + 1
        if fails(p, *key, counts[key]):
            raised.append(p.theta)
            raise NoConvergence("forced")
        return real(p, guess, constraint, newton_tol, max_iter, residual=residual)

    monkeypatch.setattr(continuation, "_newton", newton)
    return raised


def test_rejected_step_leaves_rows_at_accepted_theta(paper7_perturbed, candidate, monkeypatch):
    # the third fixed-theta re-polish fails: its step is rejected, and the
    # rows are carried on from the last accepted theta, not the rejected one
    start = hc.switch_branch(paper7_perturbed, candidate, 5e-4, 40)
    raised = _newton_failing_on(
        monkeypatch, lambda p, fixed, max_iter, count: fixed and max_iter == 5 and count == 3)
    origins = []
    real = truncation.TruncatedProblem.transported

    def transported(self, theta):
        origins.append(self.theta)
        return real(self, theta)

    monkeypatch.setattr(truncation.TruncatedProblem, "transported", transported)
    branch = hc.continue_branch(start, hc.ContinuationControls(max_steps=6, min_norm=2.5e-4))
    assert len(raised) == 1 and len(branch.points) == 7
    accepted = {pt.theta for pt in branch.points}
    assert origins[0] == start.problem.theta
    assert raised[0] not in accepted
    assert all(theta in accepted for theta in origins[1:])


def test_failed_retry_after_enlargement_rejects_step(paper7_perturbed, candidate, monkeypatch):
    # the first corrector at the enlarged window fails: the step is rejected
    # like any other, and the branch goes on at the wider window (the
    # selector reads raised when called, so it fails one call only)
    s0 = 5e-4
    start = hc.switch_branch(paper7_perturbed, candidate, s0, 40)
    raised = _newton_failing_on(
        monkeypatch, lambda p, fixed, max_iter, count: not fixed and p.N == 80 and not raised)
    controls = hc.ContinuationControls(
        tail_tol=1e-12, max_steps=60, amplitude_cap=0.05, min_norm=0.5 * s0
    )
    branch = hc.continue_branch(start, controls)
    assert len(raised) == 1
    assert branch.stop_reason == "amplitude_cap"
    assert branch.points[1].N == 80


def test_repolish_starts_from_the_correctors_residual(paper7_perturbed, candidate, monkeypatch):
    # every re-polish after the rows move is handed the corrector's residual
    # with only the boundary blocks redone at the new rows: bit for bit the
    # residual a fresh assembly gives at its guess
    handed, real = [], continuation._newton

    def newton(p, guess, constraint, newton_tol, max_iter, residual=None):
        if residual is not None:
            handed.append(np.array_equal(residual, assemble_residual(p, guess)))
        return real(p, guess, constraint, newton_tol, max_iter, residual=residual)

    monkeypatch.setattr(continuation, "_newton", newton)
    start = hc.switch_branch(paper7_perturbed, candidate, 5e-4, 40)
    branch = hc.continue_branch(start, hc.ContinuationControls(max_steps=20))
    assert len(branch.points) == 21
    assert len(handed) >= 20 and all(handed)


def test_branch_reaches_large_amplitude(long_branch):
    pts = long_branch.points
    assert long_branch.stop_reason == "amplitude_cap"
    assert len(pts) >= 50
    l2s = [p.l2_norm for p in pts]
    assert l2s[0] <= 1.1e-3
    assert max(l2s) > 1e-1
    assert all(b >= a for a, b in zip(l2s, l2s[1:]))


def test_branch_points_satisfy_invariants(long_branch):
    s0 = 1e-3
    for pt in long_branch.points:
        assert pt.residual_norm <= 1e-9
        assert pt.l2_norm >= 0.5 * s0
        assert tail_mass(pt.X, 2) <= 1e-8
        assert pt.amplitude != 0.0


def test_branch_residuals_recheck(paper7_perturbed, long_branch):
    # recorded residuals must reproduce from the stored data, and from rows
    # derived afresh at the point's theta
    for pt in long_branch.points[:: max(1, len(long_branch.points) // 7)]:
        assert pt.problem.theta == pt.theta
        assert np.linalg.norm(hc.assemble_residual(pt.problem, pt.X)) == pt.residual_norm
        p = truncated_problem(paper7_perturbed, pt.theta, pt.N)
        r = hc.assemble_residual(p, pt.X)
        assert np.linalg.norm(r) <= 1e-9


def test_window_refinement_consistency(paper7_perturbed, long_branch):
    pt = long_branch.points[len(long_branch.points) // 2]
    p2 = truncated_problem(paper7_perturbed, pt.theta, 2 * pt.N)
    x2 = embed_window(pt.X, 2, pt.N, 2 * pt.N)
    refined = hc.newton_correct(p2, x2)
    assert abs(refined.l2_norm - pt.l2_norm) <= 1e-6 * pt.l2_norm


def test_reversibility(paper7_perturbed, candidate):
    s0 = 1e-3
    ds = 5e-4
    start = hc.switch_branch(paper7_perturbed, candidate, s0, 40)
    controls = hc.ContinuationControls(
        ds0=ds, ds_min=ds, ds_max=ds, max_steps=5, amplitude_cap=10.0,
        tail_tol=1e-7, min_norm=0.25 * s0,
    )
    fwd = hc.continue_branch(start, controls)
    assert len(fwd.points) == 6

    def z_of(pt):
        return np.concatenate([pt.X, [pt.theta]])

    # a negated amplitude reference orients the first tangent backwards
    end = fwd.points[-1]
    rev = hc.continue_branch(replace(end, amplitude_ref=-end.amplitude_ref), controls)
    assert len(rev.points) == 6
    for k in range(1, 6):
        dist = np.linalg.norm(z_of(rev.points[k]) - z_of(fwd.points[5 - k]))
        assert dist <= 1e-6


@pytest.mark.parametrize("config", [
    hc.Paper7Config(),
    hc.Paper7Config(alpha=0.55, beta=1.9, coupling=0.15, envelope_scale=6.0),
    hc.Paper7Config(alpha=0.7, beta=1.6, coupling=0.3, envelope_scale=3.0),
])
def test_det_sign_continuous_along_branch(config):
    # every point's rows are carried from the switch point's, so the
    # augmented det sign cannot flip for a change of row orientation alone,
    # neither on the first step nor on a restart from a recorded point
    system = hc.paper7_family(config)
    cand = hc.locate_bifurcation(system, (math.pi - 0.5, math.pi + 0.5), 40, 1e-6)
    s0 = 5e-4
    start = hc.switch_branch(system, cand, s0, 40)
    controls = hc.ContinuationControls(max_steps=10, min_norm=0.5 * s0)
    fwd = hc.continue_branch(start, controls)
    restart = hc.continue_branch(fwd.points[5], controls)
    for branch in (fwd, restart):
        assert len(branch.points) == 11
        assert [pt.det_sign for pt in branch.points] == [start.det_sign] * 11
        # the sign read from the corrector's last solve is the definition
        # at the accepted point
        assert predictor_det_signs(branch) == [pt.det_sign for pt in branch.points[1:]]
    switched = AffineConstraint(w_x=cand.kernel_vector, w_theta=0.0, offset=s0)
    at_start = replace(start.problem, theta=start.theta)
    assert start.det_sign == _augmented_det_sign(at_start, start.X, switched)


def test_converged_guess_factors_once_at_the_point(paper7_perturbed, candidate, monkeypatch):
    # a corrector that takes no Newton step has no factorization to read its
    # det sign from: it factors once at the point, fixed theta or freed
    s0 = 5e-4
    start = hc.switch_branch(paper7_perturbed, candidate, s0, 40)
    p = replace(start.problem, theta=start.theta)
    constraint = AffineConstraint(w_x=candidate.kernel_vector, w_theta=0.0, offset=s0)
    calls = []
    record_calls(monkeypatch, continuation, "banded_jacobian_lu", calls)
    again = hc.newton_correct(p, start.X, constraint)
    assert len(calls) == 1
    assert np.array_equal(again.X, start.X) and again.det_sign == start.det_sign
    fixed = truncated_problem(paper7_perturbed, 0.3, 20)
    trivial = hc.newton_correct(fixed, np.zeros(fixed.size))
    assert len(calls) == 2
    assert trivial.det_sign == truncation.banded_jacobian_lu(fixed, trivial.X).det_sign() != 0
    # from a rough guess the sign is the last Newton step's: one LU per step
    guess = 1e-3 * np.random.default_rng(3).standard_normal(fixed.size)
    steps = _newton(fixed, guess, None, 1e-10, continuation.DEFAULT_MAX_ITER)[3]
    del calls[:]
    rough = hc.newton_correct(fixed, guess)
    assert len(calls) == steps > 0
    assert rough.det_sign == trivial.det_sign


def test_branch_factors_once_per_newton_step(paper7_perturbed, candidate, monkeypatch):
    # every window LU of a branch is a Newton step's (corrector or
    # re-polish) or the initial tangent's: none is made for det_sign alone
    start = hc.switch_branch(paper7_perturbed, candidate, 5e-4, 40)
    lus, fallbacks, steps, real = [], [], [], continuation._newton

    def newton(p, guess, constraint, newton_tol, max_iter, residual=None):
        result = real(p, guess, constraint, newton_tol, max_iter, residual=residual)
        steps.append(result[3])
        return result

    monkeypatch.setattr(continuation, "_newton", newton)
    record_calls(monkeypatch, continuation, "banded_jacobian_lu", lus)
    record_calls(monkeypatch, continuation, "_augmented_det_sign", fallbacks)
    branch = hc.continue_branch(start, hc.ContinuationControls(max_steps=10))
    assert len(branch.points) == 11 and len(steps) == 20
    assert fallbacks == []
    assert len(lus) == sum(steps) + 1


def test_rejected_steps_are_logged_at_info(paper7_perturbed, candidate, monkeypatch, caplog):
    # the second arclength corrector fails: its step is logged with ds and
    # the error, then retried at half the step
    start = hc.switch_branch(paper7_perturbed, candidate, 5e-4, 40)
    _newton_failing_on(
        monkeypatch, lambda p, fixed, max_iter, count: not fixed and count == 2)
    with caplog.at_level(logging.INFO, logger="homcont.continuation"):
        branch = hc.continue_branch(start, hc.ContinuationControls(max_steps=3))
    assert len(branch.points) == 4
    assert [r.getMessage() for r in caplog.records] == [
        "step rejected at ds=1.000e-03: NoConvergence: forced"]
    assert caplog.records[0].levelno == logging.INFO


def test_window_adapts_mid_branch(paper7_perturbed, candidate):
    s0 = 5e-4
    start = hc.switch_branch(paper7_perturbed, candidate, s0, 40)
    controls = hc.ContinuationControls(
        tail_tol=1e-12, max_steps=60, amplitude_cap=0.05, min_norm=0.5 * s0
    )
    branch = hc.continue_branch(start, controls)
    ns = {pt.N for pt in branch.points}
    assert 80 in ns  # the window doubled along the way
    for pt in branch.points:
        assert pt.residual_norm <= 1e-10
        assert tail_mass(pt.X, 2) <= 1e-12
    # amplitude reference was re-embedded: amplitudes stay consistent
    assert all(pt.amplitude > 0 for pt in branch.points)


def test_window_overflow_stops_branch(paper7_perturbed, candidate, monkeypatch):
    s0 = 5e-4
    start = hc.switch_branch(paper7_perturbed, candidate, s0, 40)
    monkeypatch.setattr(truncation, "DEFAULT_N_MAX", 40)
    controls = hc.ContinuationControls(
        tail_tol=1e-14, max_steps=30, amplitude_cap=0.5, min_norm=0.5 * s0
    )
    branch = hc.continue_branch(start, controls)
    assert branch.stop_reason == "window_overflow"


def test_branch_crosses_chart_seam(paper7_perturbed):
    # same family, chart rotated so the crossing sits just above theta = 0;
    # the lifted angle must run through 0 without wrapping artifacts
    shift = math.pi - 0.02
    base = paper7_perturbed
    shifted = hc.SystemFamily(
        d=2,
        f=lambda ns, t, X: base.f(ns, t + shift, X),
        dfdx=lambda ns, t, X: base.dfdx(ns, t + shift, X),
        a_plus=lambda t: base.a_plus(t + shift),
        a_minus=lambda t: base.a_minus(t + shift),
        f_inf_plus=lambda t, x: base.f_inf_plus(t + shift, x),
        f_inf_minus=lambda t, x: base.f_inf_minus(t + shift, x),
    )
    cand = hc.locate_bifurcation(shifted, (-0.4, 0.4), 40, 1e-6)
    assert abs(cand.theta_star - 0.02) <= 1e-5
    s0 = 5e-4
    start = hc.switch_branch(shifted, cand, s0, 40)
    controls = hc.ContinuationControls(max_steps=200, amplitude_cap=0.5, min_norm=0.5 * s0)
    branch = hc.continue_branch(start, controls)
    thetas = [pt.theta for pt in branch.points]
    assert min(thetas) < 0.0  # wandered through the seam on the lifted line
    assert all(pt.residual_norm <= 1e-9 for pt in branch.points)


def dense_augmented(p, x, constraint):
    """Dense oracle of the augmented Jacobian [[J, dR/dtheta], [w_x, w_theta]]."""
    size = p.size
    aug = np.zeros((size + 1, size + 1))
    aug[:size, :size] = assemble_jacobian(p, x)
    aug[:size, size] = assemble_dresidual_dtheta(p, x)
    aug[size, :size] = constraint.w_x
    aug[size, size] = constraint.w_theta
    return aug


def test_bordered_solve_matches_dense_oracle(paper7_perturbed, candidate, long_branch):
    s0 = 1e-3
    phi = candidate.kernel_vector
    start = hc.switch_branch(paper7_perturbed, candidate, s0, 40)
    p_start = replace(start.problem, theta=start.theta)
    k = len(long_branch.points) // 2
    mid, nxt = long_branch.points[k], long_branch.points[k + 1]
    assert mid.N == nxt.N
    tangent = np.concatenate([nxt.X - mid.X, [nxt.theta - mid.theta]])
    tangent /= np.linalg.norm(tangent)
    p_mid = truncated_problem(paper7_perturbed, mid.theta, mid.N)
    cases = [
        # switch_branch start: J is near-singular next to the kernel crossing
        (p_start, start.X, AffineConstraint(w_x=phi, w_theta=0.0, offset=s0)),
        (p_mid, mid.X, AffineConstraint(w_x=tangent[:-1], w_theta=float(tangent[-1]), offset=0.0)),
        # a window beyond the half-width that used to switch solvers
        (
            truncated_problem(paper7_perturbed, mid.theta, 130),
            embed_window(mid.X, 2, mid.N, 130),
            AffineConstraint(
                w_x=embed_window(tangent[:-1], 2, mid.N, 130),
                w_theta=float(tangent[-1]), offset=0.0,
            ),
        ),
    ]
    sv = np.linalg.svd(assemble_jacobian(p_start, start.X), compute_uv=False)
    assert sv[-1] <= 1e-4 * sv[0]
    rng = np.random.default_rng(14)
    for p, x, constraint in cases:
        aug = dense_augmented(p, x, constraint)
        rhs = rng.standard_normal(p.size + 1)
        oracle = np.linalg.solve(aug, rhs)
        got, _, got_sign = _solve_augmented(p, x, constraint, rhs)
        assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)
        sign, _ = np.linalg.slogdet(aug)
        assert got_sign == _augmented_det_sign(p, x, constraint) == int(sign) != 0


def test_bordered_solve_exact_zero_pivot_raises():
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    # a zero boundary row makes J exactly singular
    p = replace(truncated_problem(system, 0.0, 6), left_rows=np.zeros((1, 1)))
    x = np.zeros(p.size)
    constraint = AffineConstraint(w_x=np.ones(p.size), w_theta=1.0, offset=0.0)
    with pytest.raises(SingularJacobian):
        _solve_augmented(p, x, constraint, np.ones(p.size + 1))
    assert _augmented_det_sign(p, x, constraint) == 0


def test_non_finite_jacobian_has_det_sign_zero():
    # a NaN dfdx gives NaN pivots: the window LU, the corrector's no-step
    # fallback at a converged guess and the bordered sign all read 0
    bad = replace(hc.paper7_family(hc.Paper7Config()),
                  dfdx=lambda ns, t, X: np.full((len(ns), 2, 2), np.nan))
    p = truncated_problem(bad, 0.3, 10)
    x = np.zeros(p.size)
    assert truncation.banded_jacobian_lu(p, x).det_sign() == 0
    assert hc.newton_correct(p, x).det_sign == 0
    constraint = AffineConstraint(w_x=np.ones(p.size), w_theta=1.0, offset=0.0)
    assert _augmented_det_sign(p, x, constraint) == 0
    with pytest.raises(SingularJacobian):
        _solve_augmented(p, x, constraint, np.ones(p.size + 1))


@pytest.mark.parametrize(
    "field, value",
    [
        ("ds0", float("nan")),
        ("ds0", -1e-3),
        ("ds0", 0.0),
        ("ds_min", float("inf")),
        ("ds_max", float("nan")),
        ("amplitude_cap", -0.5),
        ("tail_tol", 0.0),
        ("ds_min", 0.1),  # above ds_max
        ("max_steps", -1),
        ("min_norm", -1e-4),
    ],
)
def test_controls_reject_invalid_values(field, value):
    with pytest.raises(InvalidConfig, match=field):
        hc.ContinuationControls(**{field: value})


def test_nearly_converged_start_is_polished(paper7_perturbed, candidate):
    # a start residual in (newton_tol, 1e3 * newton_tol] is corrected at
    # fixed theta before the first step, not rejected
    start = hc.switch_branch(paper7_perturbed, candidate, 5e-4, 40)
    nudge = 1e-9 * np.random.default_rng(5).standard_normal(start.X.size)
    rough = replace(start, X=start.X + nudge)
    rn = np.linalg.norm(assemble_residual(start.problem.transported(start.theta), rough.X))
    assert 1e-10 < rn <= 1e-7
    branch = hc.continue_branch(rough, hc.ContinuationControls(max_steps=0))
    first = branch.points[0]
    assert first.residual_norm <= 1e-10
    assert not np.array_equal(first.X, rough.X)
    assert np.linalg.norm(first.X - start.X) <= 1e-7


def test_start_invalid_rejected(paper7_perturbed):
    rng = np.random.default_rng(13)
    p = truncated_problem(paper7_perturbed, 1.0, 30)
    bogus = hc.BranchPoint(
        theta=1.0, X=rng.standard_normal(p.size), residual_norm=1.0, det_sign=1, problem=p,
    )
    with pytest.raises(StartInvalid):
        hc.continue_branch(bogus, hc.ContinuationControls(max_steps=3))
