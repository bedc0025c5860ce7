"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion; every tolerance is asserted at its stated value.
"""
import math
import time

import numpy as np

import homcont as hc
from homcont import cli
from homcont.systems import rotating_matrix
from homcont.truncation import assemble_residual, tail_mass, truncated_problem

from conftest import assemble_jacobian, random_hyperbolic

ALPHA, BETA = 0.5, 2.0


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_bundle_invariants(paper7_perturbed):
    t0 = time.perf_counter()
    inv = hc.index_bundle_invariants(paper7_perturbed, hc.CircleGrid.uniform(64))
    elapsed = time.perf_counter() - t0
    values_ok = (
        inv.index == 0 and inv.w1_plus == -1 and inv.w1_minus == 1 and inv.w1_index == -1
    )
    stable = all(
        hc.index_bundle_invariants(paper7_perturbed, hc.CircleGrid.uniform(m)) == inv
        for m in (128, 256)
    )
    report(
        1, values_ok and stable and elapsed < 1.0,
        f"bundle invariants index={inv.index}, w1=({inv.w1_plus},{inv.w1_minus},"
        f"{inv.w1_index}), stable under m=128/256: {stable}, runtime {elapsed:.3f}s < 1s",
    )


def _const_block(rng):
    phi = rng.uniform(0.1, 1.4)
    r = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    mat = r @ np.diag([rng.uniform(0.2, 0.8), rng.uniform(1.3, 3.0)]) @ r.T
    return (lambda theta, m=mat: m), 1


def _rot_block(rng, speed):
    a, b = rng.uniform(0.3, 0.7), rng.uniform(1.4, 2.8)
    return (lambda theta, a=a, b=b, k=speed: rotating_matrix(k * theta, a, b)), (-1) ** speed


def random_blockdiag_family(seed, plus_kinds, minus_kinds):
    """4-dimensional piecewise-constant family from two seeded 2x2 blocks
    per side; the orientation product of each side is known by construction."""
    rng = np.random.default_rng(seed)
    make = {
        "const": lambda: _const_block(rng),
        "rot1": lambda: _rot_block(rng, 1),
        "rot2": lambda: _rot_block(rng, 2),
    }

    def side(kinds):
        fns, w = [], 1
        for kind in kinds:
            fn, w1 = make[kind]()
            fns.append(fn)
            w *= w1
        def matrix(theta, fns=tuple(fns)):
            out = np.zeros((4, 4))
            out[:2, :2] = fns[0](theta)
            out[2:, 2:] = fns[1](theta)
            return out
        return matrix, w

    a_plus, w_plus = side(plus_kinds)
    a_minus, w_minus = side(minus_kinds)
    return hc.linear_family(4, a_plus, a_minus), w_plus * w_minus


BLOCK_COMBOS = [
    (("rot1", "const"), ("const", "const")),
    (("rot1", "rot1"), ("rot1", "const")),
    (("rot2", "const"), ("rot1", "rot1")),
    (("const", "const"), ("const", "rot2")),
    (("rot1", "rot2"), ("rot1", "rot2")),
]


def test_criterion_2_parity_law(paper7_perturbed, grid64):
    checks = []
    t0 = time.perf_counter()
    inv = hc.index_bundle_invariants(paper7_perturbed, grid64)
    scan = hc.scan_parity(paper7_perturbed, grid64, 40)
    elapsed = time.perf_counter() - t0
    checks.append(scan.loop_parity == inv.w1_index and elapsed < 10.0)
    for i, (plus_kinds, minus_kinds) in enumerate(BLOCK_COMBOS):
        system, predicted = random_blockdiag_family(100 + i, plus_kinds, minus_kinds)
        t0 = time.perf_counter()
        inv_i = hc.index_bundle_invariants(system, grid64)
        scan_i = hc.scan_parity(system, grid64, 40)
        elapsed = time.perf_counter() - t0
        checks.append(
            scan_i.loop_parity == inv_i.w1_index == predicted and elapsed < 10.0
        )
    report(
        2, all(checks),
        f"loop parity equals orientation product on the built-in family and "
        f"{len(BLOCK_COMBOS)} randomized block-diagonal families (exact sign match)",
    )


def test_criterion_3_bifurcation_localization(paper7_linear, grid64):
    scan = hc.scan_parity(paper7_linear, grid64, 40)
    unique = len(scan.sign_change_intervals) == 1
    cand = hc.locate_bifurcation(paper7_linear, scan.sign_change_intervals[0], 40, 1e-6)
    theta_ok = abs(cand.theta_star - math.pi) <= 1e-6
    seq = hc.analytic_kernel_basis(
        paper7_linear.a_plus(math.pi), paper7_linear.a_minus(math.pi), 40
    )[0].ravel()
    cosine = abs(float(seq / np.linalg.norm(seq) @ cand.kernel_vector))
    report(
        3, unique and theta_ok and cosine >= 1.0 - 1e-8,
        f"unique candidate, |theta*-pi|={abs(cand.theta_star - math.pi):.2e} <= 1e-6, "
        f"kernel |cos|={cosine:.12f} >= 1-1e-8",
    )


def test_criterion_4_green_solve_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a = random_hyperbolic(rng, d, gap=0.1)
        y = rng.standard_normal((int(rng.integers(1, 22)), d))
        x = hc.halfline_green_solve(a, y)
        scale = float(np.max(np.linalg.norm(y, axis=1)))
        resid = 0.0
        for n in range(len(x) - 1):
            rhs = y[n] if n < len(y) else np.zeros(d)
            resid = max(resid, float(np.linalg.norm(x[n + 1] - a @ x[n] - rhs)))
        worst = max(worst, resid / scale)
    report(4, worst <= 1e-12, f"half-line solve residual {worst:.2e} <= 1e-12 on 100 draws")


def test_criterion_5_jacobian_correctness(paper7_perturbed):
    rng = np.random.default_rng(505)
    eps, worst = 1e-6, 0.0
    for _ in range(50):
        theta = float(rng.uniform(0, 2 * math.pi))
        p = truncated_problem(paper7_perturbed, theta, 15)
        x = 0.4 * rng.standard_normal(p.size)
        v = rng.standard_normal(p.size)
        jv = assemble_jacobian(p, x) @ v
        fd = (assemble_residual(p, x + eps * v) - assemble_residual(p, x - eps * v)) / (2 * eps)
        worst = max(worst, float(np.linalg.norm(jv - fd) / max(1.0, np.linalg.norm(jv))))
    report(5, worst <= 1e-6, f"Jacobian finite-difference error {worst:.2e} <= 1e-6 on 50 draws")


def test_criterion_6_nonlinear_branch(tmp_path, capsys):
    t0 = time.perf_counter()
    code = cli.main(
        ["branch", "--theta-star", str(math.pi), "--out", str(tmp_path), "--window-n", "40"]
    )
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    lines = (tmp_path / "branch.csv").read_text().splitlines()[1:]
    l2s = [float(line.split(",")[2]) for line in lines]
    residuals = [float(line.split(",")[5]) for line in lines]
    ns = [int(line.split(",")[7]) for line in lines]

    # tail control is re-verified from the recorded data via the API run
    cand = hc.locate_bifurcation(
        hc.paper7_family(hc.Paper7Config()), (math.pi - 0.5, math.pi + 0.5), 40, 1e-6
    )
    system = hc.paper7_family(hc.Paper7Config())
    start = hc.switch_branch(system, cand, 5e-4, 40)
    controls = hc.ContinuationControls(min_norm=0.5 * 5e-4)
    branch = hc.continue_branch(start, controls)
    tails_ok = all(tail_mass(pt.X, 2) <= controls.tail_tol for pt in branch.points)

    ok = (
        code == 0
        and len(lines) >= 50
        and max(residuals) <= 1e-9
        and min(l2s) <= 1e-3
        and max(l2s) >= 1e-1
        and min(l2s) >= 0.5 * 5e-4
        and max(ns) <= 160
        and tails_ok
        and elapsed < 60.0
    )
    report(
        6, ok,
        f"{len(lines)} points, residual<= {max(residuals):.1e}, l2 in "
        f"[{min(l2s):.1e}, {max(l2s):.1e}], tails ok={tails_ok}, "
        f"runtime {elapsed:.1f}s < 60s at N<={max(ns)}",
    )


def test_criterion_7_property_suites(tmp_path, capsys, grid64):
    # w1 frame-choice invariance under 20 random rotations
    def plane(theta):
        return np.array(
            [[math.cos(theta / 2), 0.0], [math.sin(theta / 2), 0.0], [0.0, 1.0]]
        )

    rng = np.random.default_rng(707)
    w1_ok = True
    reference = hc.w1(hc.transport_frames(plane, grid64))
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = lambda theta, q=q: plane(theta) @ q if theta == 0.0 else plane(theta)
        w1_ok = w1_ok and hc.w1(hc.transport_frames(rotated, grid64)) == reference

    # direct-sum multiplicativity
    linear = hc.paper7_family(hc.Paper7Config(coupling=0.0))
    trivial = hc.linear_family(2, lambda t: np.diag([0.5, 2.0]), lambda t: np.diag([0.5, 2.0]))
    inv_sum = hc.index_bundle_invariants(hc.direct_sum(linear, trivial), grid64)
    inv_a = hc.index_bundle_invariants(linear, grid64)
    inv_b = hc.index_bundle_invariants(trivial, grid64)
    sum_ok = (
        inv_sum.w1_plus == inv_a.w1_plus * inv_b.w1_plus
        and inv_sum.w1_minus == inv_a.w1_minus * inv_b.w1_minus
    )

    # splitting invariants on 200 random hyperbolic matrices
    split_ok = True
    rng2 = np.random.default_rng(708)
    for _ in range(200):
        d = int(rng2.integers(1, 5))
        a = random_hyperbolic(rng2, d)
        s = hc.hyperbolic_splitting(a)
        split_ok = split_ok and s.d_s + s.d_u == d
        split_ok = split_ok and s.d_s == int(np.sum(np.abs(np.linalg.eigvals(a)) < 1.0))
        for q in (s.stable_frame, s.unstable_frame):
            if q.shape[1]:
                split_ok = split_ok and np.linalg.norm(q.T @ q - np.eye(q.shape[1])) <= 1e-12
                split_ok = split_ok and np.linalg.norm((np.eye(d) - q @ q.T) @ a @ q, 2) <= 1e-10

    # determinism: identical config + seed gives byte-identical outputs
    for sub in ("da", "db"):
        cli.main(["detect", "--seed", "3", "--out", str(tmp_path / sub)])
        cli.main(["bundles", "--seed", "3", "--out", str(tmp_path / sub)])
        cli.main(["branch", "--theta-star", "3.141592653589793", "--window-n", "20",
                  "--out", str(tmp_path / sub)])
        cli.main(["check", "--out", str(tmp_path / sub)])
    capsys.readouterr()
    det_ok = all(
        (tmp_path / "da" / name).read_bytes() == (tmp_path / "db" / name).read_bytes()
        for name in ("detect.json", "detect_nodes.csv", "bundles.json",
                     "branch.csv", "branch.json", "check.json")
    )

    report(
        7, w1_ok and sum_ok and split_ok and det_ok,
        f"frame invariance {w1_ok}, direct-sum multiplicativity {sum_ok}, "
        f"splitting invariants {split_ok}, determinism {det_ok}",
    )
