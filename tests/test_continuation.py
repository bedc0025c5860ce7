import math
from dataclasses import replace

import numpy as np
import pytest

import homcont as hc
from homcont.continuation import AffineConstraint, _augmented_det_sign, _solve_augmented
from homcont.errors import DegenerateKernel, InvalidConfig, NoConvergence, SingularJacobian, StartInvalid
from homcont.truncation import (
    assemble_dresidual_dtheta,
    embed_window,
    tail_mass,
    truncated_problem,
)

from conftest import assemble_jacobian


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
    return hc.continue_branch(start, controls, amplitude_ref=candidate.kernel_vector)


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
        assert tail_mass(pt.X, 0.25, 2) <= 1e-8
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
    fwd = hc.continue_branch(start, controls, amplitude_ref=candidate.kernel_vector)
    assert len(fwd.points) == 6

    def z_of(pt):
        return np.concatenate([pt.X, [pt.theta]])

    back_tangent = z_of(fwd.points[4]) - z_of(fwd.points[5])
    back_tangent /= np.linalg.norm(back_tangent)
    rev = hc.continue_branch(
        fwd.points[-1], controls,
        amplitude_ref=candidate.kernel_vector, initial_tangent=back_tangent,
    )
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


def test_window_adapts_mid_branch(paper7_perturbed, candidate):
    s0 = 5e-4
    start = hc.switch_branch(paper7_perturbed, candidate, s0, 40)
    controls = hc.ContinuationControls(
        tail_tol=1e-12, max_steps=60, amplitude_cap=0.05, min_norm=0.5 * s0
    )
    branch = hc.continue_branch(start, controls, amplitude_ref=candidate.kernel_vector)
    ns = {pt.N for pt in branch.points}
    assert 80 in ns  # the window doubled along the way
    for pt in branch.points:
        assert pt.residual_norm <= 1e-10
        assert tail_mass(pt.X, 0.25, 2) <= 1e-12
    # amplitude reference was re-embedded: amplitudes stay consistent
    assert all(pt.amplitude > 0 for pt in branch.points)


def test_window_overflow_stops_branch(paper7_perturbed, candidate):
    s0 = 5e-4
    start = hc.switch_branch(paper7_perturbed, candidate, s0, 40)
    controls = hc.ContinuationControls(
        tail_tol=1e-14, n_max=40, max_steps=30, amplitude_cap=0.5, min_norm=0.5 * s0
    )
    branch = hc.continue_branch(start, controls, amplitude_ref=candidate.kernel_vector)
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
    branch = hc.continue_branch(start, controls, amplitude_ref=cand.kernel_vector)
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
        got = _solve_augmented(p, x, constraint, rhs)
        assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)
        sign, _ = np.linalg.slogdet(aug)
        assert _augmented_det_sign(p, x, constraint) == int(sign) != 0


def test_bordered_solve_exact_zero_pivot_raises():
    system = hc.linear_family(1, lambda t: np.array([[0.5]]), lambda t: np.array([[0.5]]))
    # a zero boundary row makes J exactly singular
    p = replace(truncated_problem(system, 0.0, 6), left_rows=np.zeros((1, 1)))
    x = np.zeros(p.size)
    constraint = AffineConstraint(w_x=np.ones(p.size), w_theta=1.0, offset=0.0)
    with pytest.raises(SingularJacobian):
        _solve_augmented(p, x, constraint, np.ones(p.size + 1))
    assert _augmented_det_sign(p, x, constraint) == 0


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
        ("n_max", 0),
    ],
)
def test_controls_reject_invalid_values(field, value):
    with pytest.raises(InvalidConfig, match=field):
        hc.ContinuationControls(**{field: value})


def test_start_invalid_rejected(paper7_perturbed):
    rng = np.random.default_rng(13)
    p = truncated_problem(paper7_perturbed, 1.0, 30)
    bogus = hc.BranchPoint(
        theta=1.0, X=rng.standard_normal(p.size), amplitude=1.0, sup_norm=1.0,
        l2_norm=1.0, residual_norm=1.0, det_sign=1, problem=p,
    )
    with pytest.raises(StartInvalid):
        hc.continue_branch(bogus, hc.ContinuationControls(max_steps=3))
