import logging
import math
from dataclasses import replace

import numpy as np
import pytest

import homcont as hc
from homcont import bundles, detect, truncation
from homcont.errors import AlignmentFailure, MaxIterations, NoSignChange
from homcont.systems import rotating_matrix
from homcont.truncation import banded_jacobian_lu, complement_families, truncated_problem

from conftest import assemble_jacobian, estimate_trials, half_turn_loop, random_hyperbolic


def test_public_names_resolve():
    for name in hc.__all__:
        assert getattr(hc, name) is not None, name


def test_kernel_vector_sign_convention_deterministic(paper7_linear):
    # the candidate's kernel vector: reruns give identical bytes, and its
    # largest-magnitude entry is positive
    bracket = (math.pi - 0.5, math.pi + 0.5)
    v1, v2 = (hc.locate_bifurcation(paper7_linear, bracket, 30, 1e-6).kernel_vector
              for _ in range(2))
    assert v1.tobytes() == v2.tobytes()
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
    assert v1[np.argmax(np.abs(v1))] > 0.0


def test_scan_parity_builtin(paper7_linear, grid64):
    scan = hc.scan_parity(paper7_linear, grid64, 40)
    assert scan.loop_parity == -1
    assert len(scan.sign_change_intervals) == 1
    lo, hi = scan.sign_change_intervals[0]
    assert lo < math.pi < hi
    # parity consistency: count and endpoint product agree by construction
    assert (-1) ** len(scan.sign_change_intervals) == scan.det_signs[0] * scan.det_signs[-1]


def test_scan_parity_constant_system(grid64):
    system = hc.linear_family(2, lambda t: np.diag([0.5, 2.0]), lambda t: np.diag([0.5, 2.0]))
    scan = hc.scan_parity(system, grid64, 20)
    assert scan.loop_parity == 1
    assert scan.sign_change_intervals == []
    assert np.all(scan.det_signs != 0)


def test_scan_parity_chart_shift(paper7_linear, grid64):
    shift = math.pi / 3

    def a_plus(theta):
        return paper7_linear.a_plus(theta + shift)

    shifted = hc.linear_family(2, a_plus, paper7_linear.a_minus)
    scan = hc.scan_parity(shifted, grid64, 40)
    assert scan.loop_parity == -1
    lo, hi = scan.sign_change_intervals[0]
    assert lo < math.pi - shift < hi


def test_scan_parity_grid_and_window_stability(paper7_linear):
    parities = set()
    for m in (64, 128, 256):
        parities.add(hc.scan_parity(paper7_linear, hc.CircleGrid.uniform(m), 40).loop_parity)
    for N in (20, 40, 80):
        parities.add(hc.scan_parity(paper7_linear, hc.CircleGrid.uniform(64), N).loop_parity)
    assert parities == {-1}


def test_locate_bifurcation_builtin(paper7_linear):
    cand = hc.locate_bifurcation(paper7_linear, (math.pi - 0.5, math.pi + 0.5), 40, 1e-6)
    assert abs(cand.theta_star - math.pi) <= 1e-6
    assert cand.smin_at_star <= 1e-8 * 3.0
    assert np.linalg.norm(cand.kernel_vector) == pytest.approx(1.0, abs=1e-12)


def test_located_kernel_matches_analytic_oracle(paper7_linear):
    N = 40
    cand = hc.locate_bifurcation(paper7_linear, (math.pi - 0.5, math.pi + 0.5), N, 1e-6)
    seq = hc.analytic_kernel_basis(
        paper7_linear.a_plus(math.pi), paper7_linear.a_minus(math.pi), N
    )[0].ravel()
    oracle = seq / np.linalg.norm(seq)
    assert abs(oracle @ cand.kernel_vector) >= 1.0 - 1e-8


def test_locate_bifurcation_no_crossing(paper7_linear):
    with pytest.raises(NoSignChange):
        hc.locate_bifurcation(paper7_linear, (0.5, 1.0), 30, 1e-4)


def test_locate_bifurcation_max_iterations(paper7_linear, monkeypatch):
    # with near_singular never holding, no probe can be the candidate:
    # locate gives up once the bracket holds no float strictly inside,
    # without probing any theta twice
    monkeypatch.setattr(truncation, "near_singular", lambda smin, scale, kernel_tol: False)
    thetas = []
    transported = truncation.TruncatedProblem.transported

    def recording(self, theta):
        thetas.append(float(theta))
        return transported(self, theta)

    monkeypatch.setattr(truncation.TruncatedProblem, "transported", recording)
    with pytest.raises(MaxIterations, match="holds no float strictly inside"):
        hc.locate_bifurcation(paper7_linear, (3.0, 3.3), 10, 1e-6)
    assert len(set(thetas)) == len(thetas)
    assert len(thetas) <= 60


def test_even_multiplicity_dip_detection():
    # two identical rotating blocks give a double kernel crossing: the
    # determinant does not change sign, but the smin dip flags the node
    phi = math.pi / 8
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    const = rot @ np.diag([0.4, 2.5]) @ rot.T
    theta_star = 2 * phi + math.pi  # stable(+) line parallel to unstable(-) line

    def a_plus(theta):
        out = np.zeros((4, 4))
        out[:2, :2] = rotating_matrix(theta, 0.5, 2.0)
        out[2:, 2:] = rotating_matrix(theta, 0.5, 2.0)
        return out

    def a_minus(theta):
        out = np.zeros((4, 4))
        out[:2, :2] = const
        out[2:, 2:] = const
        return out

    system = hc.linear_family(4, a_plus, a_minus)
    scan = hc.scan_parity(system, hc.CircleGrid.uniform(64), 30)
    assert scan.loop_parity == 1
    assert scan.sign_change_intervals == []
    assert len(scan.dip_intervals) == 1
    lo, hi = scan.dip_intervals[0]
    assert lo <= theta_star <= hi

    with pytest.warns(UserWarning, match="even-multiplicity"):
        cand = hc.locate_bifurcation(system, (lo, hi), 30, 1e-6)
    assert abs(cand.theta_star - theta_star) <= 1e-5


def test_adjacent_dips_merge_into_one_interval(caplog):
    # the double crossing of test_even_multiplicity_dip_detection, held for
    # a plateau of theta wider than two grid steps: the rotation angle psi
    # stops at the crossing angle on [c - w, c + w] and is stretched
    # elsewhere so that it still winds once.  The nodes on the plateau all
    # dip, and their brackets merge into one dip interval.  The scan's INFO
    # line names both.
    phi, w, grid = math.pi / 8, 0.15, hc.CircleGrid.uniform(64)
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    const = rot @ np.diag([0.4, 2.5]) @ rot.T
    stretch = 2 * math.pi / (2 * math.pi - 2 * w)
    c = (2 * phi + math.pi) / stretch + w

    def a_plus(theta):
        psi = stretch * (theta - min(max(theta - (c - w), 0.0), 2 * w))
        return np.kron(np.eye(2), rotating_matrix(psi, 0.5, 2.0))

    system = hc.linear_family(4, a_plus, lambda t: np.kron(np.eye(2), const))
    with caplog.at_level(logging.INFO, logger="homcont.detect"):
        scan = hc.scan_parity(system, grid, 30)
    plateau = np.flatnonzero(np.abs(grid.nodes - c) <= w)
    assert len(plateau) >= 3
    assert scan.sign_change_intervals == []
    assert np.all(scan.det_signs[plateau] == 0)
    assert scan.dip_intervals == [(float(grid.nodes[plateau[0] - 1]),
                                   float(grid.nodes[plateau[-1] + 1]))]
    [record] = caplog.records
    assert (f"excluded (det sign 0) at theta {np.round(grid.nodes[plateau], 6).tolist()}; "
            f"dip intervals {np.round(scan.dip_intervals, 6).tolist()}; ") in record.getMessage()


def test_scan_logs_one_info_line(paper7_linear, caplog, monkeypatch):
    # One INFO line per scan: the node count, the excluded nodes, no dips,
    # and the warm starts that fell back.  paper7 has none; on a seeded
    # d = 3 half-turn loop the extrapolated estimate overshoots smin past
    # the crossing, and the nodes listed are exactly those whose warm
    # start ran (shift above the Gram floor) and cost more than three
    # Cholesky tests or a transposed solve.  Nothing is logged at WARNING.
    grid = hc.CircleGrid.uniform(64)
    with caplog.at_level(logging.INFO, logger="homcont"):
        hc.scan_parity(paper7_linear, grid, 40)
    [record] = caplog.records
    assert (record.name, record.levelno) == ("homcont.detect", logging.INFO)
    assert record.getMessage() == (
        "parity scan of 65 nodes at N = 40: excluded (det sign 0) at theta [3.141593]; "
        "dip intervals []; warm start fell back at theta []")

    a_of, _ = half_turn_loop(np.random.default_rng(7), 3, 1)
    loop = hc.linear_family(3, a_of, lambda t, a=a_of(0.0): a)
    counts = {"cholesky": 0, "transposed": 0}
    cholesky, solve, classify = (truncation._shifted_cholesky, truncation.lapack.dgbtrs,
                                 detect.classify_window)
    costly = []

    def counting_cholesky(*args):
        counts["cholesky"] += 1
        return cholesky(*args)

    def counting_solve(*args, **kwargs):
        counts["transposed"] += kwargs.get("trans", 0) == 1
        return solve(*args, **kwargs)

    def recording(p, kernel_tol, estimate=None, start=None):
        before = dict(counts)
        node = classify(p, kernel_tol, estimate=estimate, start=start)
        if (truncation.warm_shift(estimate, node[1]) is not None
                and (counts["cholesky"] - before["cholesky"],
                     counts["transposed"] - before["transposed"]) != (3, 0)):
            costly.append(p.theta)
        return node

    monkeypatch.setattr(truncation, "_shifted_cholesky", counting_cholesky)
    monkeypatch.setattr(truncation.lapack, "dgbtrs", counting_solve)
    monkeypatch.setattr(detect, "classify_window", recording)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="homcont"):
        hc.scan_parity(loop, grid, 40)
    [record] = caplog.records
    assert len(costly) >= 5
    assert record.getMessage().endswith(
        f"warm start fell back at theta {np.round(costly, 6).tolist()}")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="homcont"):
        hc.scan_parity(paper7_linear, grid, 40)
        hc.scan_parity(loop, grid, 40)
    assert caplog.records == []


def test_scan_rejects_singular_base_point(paper7_linear):
    # chart rotated so the kernel crossing sits exactly at theta = 0: the
    # endpoint determinant is meaningless and the scan must say so
    from homcont.errors import InconsistentParity

    shifted = hc.linear_family(
        2, lambda t: paper7_linear.a_plus(t + math.pi), paper7_linear.a_minus
    )
    with pytest.raises(InconsistentParity, match="base point"):
        hc.scan_parity(shifted, hc.CircleGrid.uniform(64), 30)


def test_scan_excludes_near_singular_node(paper7_linear):
    # theta = pi lands exactly on a 64-node grid; that node must be flagged
    scan = hc.scan_parity(paper7_linear, hc.CircleGrid.uniform(64), 40)
    idx = int(np.argmin(np.abs(scan.grid.nodes - math.pi)))
    assert scan.grid.nodes[idx] == pytest.approx(math.pi, abs=1e-12)
    assert scan.det_signs[idx] == 0
    assert scan.smin[idx] < 1e-10


def test_scan_rejects_non_periodic_family():
    # the stable line at +inf turns a quarter per circuit, so the rows
    # carried to 2*pi leave the row space derived at 0
    system = hc.linear_family(
        2, lambda t: rotating_matrix(t / 2, 0.5, 2.0), lambda t: np.diag([0.5, 2.0])
    )
    with pytest.raises(AlignmentFailure, match="periodic"):
        hc.scan_parity(system, hc.CircleGrid.uniform(64), 20)


def test_locate_transports_each_segment_once(paper7_perturbed, monkeypatch):
    # A probe that becomes the new lower end keeps its problem: no segment
    # of theta is carried twice, and each probe's window is transported
    # once.  At least two endpoints, one iterate and the two probes that
    # certify the signs next to it.
    segments, probes = [], []
    transported, classify = truncation.TruncatedProblem.transported, detect.classify_window

    def recording(self, theta):
        segments.append((self.theta, float(theta)))
        return transported(self, theta)

    def counting(p, kernel_tol):
        probes.append(p.theta)
        return classify(p, kernel_tol)

    monkeypatch.setattr(truncation.TruncatedProblem, "transported", recording)
    monkeypatch.setattr(detect, "classify_window", counting)
    cand = hc.locate_bifurcation(paper7_perturbed, (math.pi - 0.3, math.pi + 0.2), 30, 1e-6)
    assert abs(cand.theta_star - math.pi) < 1e-3
    assert [to for _, to in segments] == probes
    assert len(segments) >= 5
    assert len(set(segments)) == len(segments)


def test_no_window_svds(paper7_linear, monkeypatch):
    # Every window singular-value question is answered from the banded LU:
    # no window-size SVD (either compute_uv) in the scan, the localization or
    # the hypothesis checks, and exactly one factorization of the window
    # Jacobian (one WindowLU) per scan node; smallest_singular's
    # Rayleigh-quotient steps factor J^T J - mu I, not J.  The scan derives
    # its rows once and carries them over the grid: two Schur splittings at
    # theta = 0, then one stacked splitting of the whole grid per family.
    N = 40
    svds, factorizations, splittings, stacks = [], [], [], []
    svd, window_lu = np.linalg.svd, truncation.WindowLU.__init__
    splitting, stack = bundles.hyperbolic_splitting, bundles.splitting_stack

    def counting_svd(a, *args, **kwargs):
        if np.shape(a)[0] >= 2 * N * paper7_linear.d:
            svds.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    def counting_window_lu(*args, **kwargs):
        factorizations.append(1)
        return window_lu(*args, **kwargs)

    def counting_splitting(*args, **kwargs):
        splittings.append(1)
        return splitting(*args, **kwargs)

    def counting_stack(a, *args, **kwargs):
        stacks.append(len(a))
        return stack(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(truncation.WindowLU, "__init__", counting_window_lu)
    monkeypatch.setattr(bundles, "hyperbolic_splitting", counting_splitting)
    monkeypatch.setattr(bundles, "splitting_stack", counting_stack)
    grid = hc.CircleGrid.uniform(64)
    scan = hc.scan_parity(paper7_linear, grid, N)
    assert scan.grid is grid
    assert len(factorizations) == grid.m + 1
    assert len(splittings) == 2
    assert stacks == [grid.m + 1] * 2
    hc.locate_bifurcation(paper7_linear, scan.sign_change_intervals[0], N, 1e-6)
    hc.check_hypotheses(paper7_linear, grid, N, 1.0)
    assert svds == []


def test_scan_estimates_cut_cholesky_tests(monkeypatch):
    # Cost guard without a wall clock: handing each node the smin
    # extrapolated from the nodes before it and its neighbour's singular
    # vector cuts the scan's Cholesky tests (the Gram path's bisection and
    # the mu0 test) to at most 0.2 of a scan without either hint, with no
    # bisection to 2 * eps and the same signs and smin to the last bits.
    system = hc.paper7_family(hc.Paper7Config())
    grid = hc.CircleGrid.uniform(64)
    tests, widths = [0], []
    cholesky, bisect, classify = truncation._shifted_cholesky, truncation._bisect, detect.classify_window

    def counting(*args):
        tests[0] += 1
        return cholesky(*args)

    def recording(*args):
        widths.append(args[-1])  # rtol, the relative width bisected to
        return bisect(*args)

    def without_estimate(p, kernel_tol, estimate=None, start=None):
        return classify(p, kernel_tol)

    monkeypatch.setattr(truncation, "_shifted_cholesky", counting)
    monkeypatch.setattr(truncation, "_bisect", recording)
    scan = hc.scan_parity(system, grid, 40)
    with_estimates, fallbacks = tests[0], widths.count(2.0 * np.finfo(float).eps)
    tests[0] = 0
    monkeypatch.setattr(detect, "classify_window", without_estimate)
    plain = hc.scan_parity(system, grid, 40)
    assert with_estimates <= 0.2 * tests[0]
    assert fallbacks == 0
    assert np.array_equal(scan.det_signs, plain.det_signs)
    assert np.max(np.abs(scan.smin - plain.smin) / plain.smin) <= 1e-15


def test_warm_scan_matches_cold_scan(monkeypatch):
    # The warm start changes the cost, not the scan: on nine seeded
    # half-turn loops (d = 2-4, k = 1 and 2, a_minus = a_plus(0)) and
    # paper7, signs, parity and intervals equal those of a scan whose
    # classify_window drops both hints, every smin agrees within its
    # certificate width, and every warm node (handed a start and an
    # estimate whose shift lies between the Gram floor and smin^2) makes
    # exactly three Cholesky tests and no transposed solve.
    N, grid = 40, hc.CircleGrid.uniform(64)
    systems = [hc.paper7_family(hc.Paper7Config())]
    for seed in range(9):
        a_of, _ = half_turn_loop(np.random.default_rng(seed), 2 + seed % 3, 1 + seed // 3 % 2)
        systems.append(hc.linear_family(2 + seed % 3, a_of, lambda t, a=a_of(0.0): a))
    counts = {"cholesky": 0, "transposed": 0}
    cholesky, solve, classify = (truncation._shifted_cholesky, truncation.lapack.dgbtrs,
                                 detect.classify_window)
    nodes = []  # (problem, warm, Cholesky tests, transposed solves) per warm-scan node

    def counting_cholesky(*args):
        counts["cholesky"] += 1
        return cholesky(*args)

    def counting_solve(*args, **kwargs):
        counts["transposed"] += kwargs.get("trans", 0) == 1
        return solve(*args, **kwargs)

    def recording(p, kernel_tol, estimate=None, start=None):
        before = dict(counts)
        node = smin, scale, _, _ = classify(p, kernel_tol, estimate=estimate, start=start)
        shift = truncation.warm_shift(estimate, scale)
        warm = start is not None and shift is not None and shift < smin ** 2
        nodes.append((p, warm, *(counts[k] - before[k] for k in counts)))
        return node

    def cold(p, kernel_tol, estimate=None, start=None):
        return classify(p, kernel_tol)

    monkeypatch.setattr(truncation, "_shifted_cholesky", counting_cholesky)
    monkeypatch.setattr(truncation.lapack, "dgbtrs", counting_solve)
    warm_nodes = 0
    for system in systems:
        nodes.clear()
        monkeypatch.setattr(detect, "classify_window", recording)
        warm = hc.scan_parity(system, grid, N)
        monkeypatch.setattr(detect, "classify_window", cold)
        plain = hc.scan_parity(system, grid, N)
        assert np.array_equal(warm.det_signs, plain.det_signs)
        assert warm.loop_parity == plain.loop_parity
        assert warm.sign_change_intervals == plain.sign_change_intervals
        assert warm.dip_intervals == plain.dip_intervals
        for (p, is_warm, tests, transposed), smin, cold_smin in zip(nodes, warm.smin, plain.smin):
            if is_warm:
                warm_nodes += 1
                assert (tests, transposed) == (3, 0)
            gram = banded_jacobian_lu(p, np.zeros(p.size))._gram_band()
            width = (truncation._CERTIFY_ULPS * np.finfo(float).eps
                     * max(1.0, float(np.min(gram[-1])) / cold_smin ** 2))
            assert abs(smin - cold_smin) <= width * cold_smin
    assert warm_nodes >= len(systems) * grid.m // 2


def test_below_floor_window_fails_one_gram_test_then_runs_lanczos(paper7_perturbed, monkeypatch):
    # At N = 160 and theta = pi smin lies below the Gram floor: the window
    # builds the band of J^T J once, fails its one mu0 test, and goes to
    # Lanczos, which makes its own first transposed solve, so the run is
    # the one Lanczos makes on the LU's factors, bit for bit.  A start
    # vector with an estimate at the floor changes none of this: its warm
    # shift lies below the floor, so it makes no test of its own.
    p = truncated_problem(paper7_perturbed, math.pi, 160)
    lu = banded_jacobian_lu(p, np.zeros(p.size))
    floor = truncation.GRAM_FLOOR * lu.norm_1
    want_smin, want_v = lu._lanczos_smallest(lu._lu)
    counts = {"bands": 0, "dpbtrf": 0, "failed": 0}
    gram_band, dpbtrf = truncation.WindowLU._gram_band, truncation.lapack.dpbtrf

    def recording(self):
        counts["bands"] += 1
        return gram_band(self)

    def counting(*args, **kwargs):
        factor, info = dpbtrf(*args, **kwargs)
        counts["dpbtrf"] += 1
        counts["failed"] += info != 0
        return factor, info

    monkeypatch.setattr(truncation.WindowLU, "_gram_band", recording)
    monkeypatch.setattr(truncation.lapack, "dpbtrf", counting)
    for start in (None, np.full(lu._n, lu._n ** -0.5)):
        counts.update(dict.fromkeys(counts, 0))
        smin, v = lu.smallest_singular(floor, start)
        assert counts == {"bands": 1, "dpbtrf": 1, "failed": 1}
        assert smin == want_smin < floor
        assert np.array_equal(v, want_v)


def _plane_rotation(d, theta):
    r = np.eye(d)
    r[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    return r


def _rotating_random_family(rng, d):
    """a(+inf) a seeded random hyperbolic matrix turned once around the loop
    in the first coordinate plane; a(-inf) a constant one of equal index."""
    def stable_dim(a):
        return int(np.sum(np.abs(np.linalg.eigvals(a)) < 1.0))

    while True:
        a_plus, a_minus = random_hyperbolic(rng, d), random_hyperbolic(rng, d)
        if stable_dim(a_plus) == stable_dim(a_minus):
            break
    return hc.linear_family(
        d,
        lambda t: _plane_rotation(d, t) @ a_plus @ _plane_rotation(d, t).T,
        lambda t: a_minus,
    )


def test_scan_matches_dense_oracles(paper7_linear):
    # smin against a full SVD of the same window matrix, det signs against
    # slogdet; the rows are carried around the scan's grid independently,
    # by transport_frames.
    rng = np.random.default_rng(11)
    families = [_rotating_random_family(rng, d) for d in (2, 3, 4)] + [paper7_linear]
    N = 15
    for system in families:
        scan = hc.scan_parity(system, hc.CircleGrid.uniform(32), N)
        left, right = complement_families(system)
        left_frames = hc.transport_frames(left, scan.grid).frames
        right_frames = hc.transport_frames(right, scan.grid).frames
        assert len(left_frames) == len(right_frames) == len(scan.grid.nodes)
        for i, theta in enumerate(scan.grid.nodes):
            p = replace(
                truncated_problem(system, float(theta), N),
                left_rows=left_frames[i].T, right_rows=right_frames[i].T,
            )
            jac = assemble_jacobian(p, np.zeros(p.size))
            s = np.linalg.svd(jac)[1]
            assert abs(scan.smin[i] - s[-1]) <= 1e-13 * s[0]
            if scan.det_signs[i] != 0:
                assert scan.det_signs[i] == int(np.linalg.slogdet(jac)[0])
        assert np.count_nonzero(scan.det_signs == 0) <= 1


def test_smallest_singular_matches_dense_svd(paper7_perturbed, monkeypatch):
    # smallest_singular against a full SVD at N = 60: regular nodes (the
    # small singular values cluster there; the Gram path), theta = pi and
    # pi - 1e-6 (Lanczos, which stops long before k = n), and every located
    # candidate, whose kernel vector must be the dense right singular vector
    # oriented by the same convention (largest-magnitude entry positive).
    # On paper7 every estimate of smin gives the same answer on the same
    # path as none.
    lanczos_runs = []
    lanczos = truncation.WindowLU._lanczos_smallest

    def recording(lu, *args):
        lanczos_runs.append(1)
        return lanczos(lu, *args)

    monkeypatch.setattr(truncation.WindowLU, "_lanczos_smallest", recording)
    rng = np.random.default_rng(11)
    families = [paper7_perturbed] + [_rotating_random_family(rng, d) for d in (2, 3, 4)]
    N = 60
    located = 0
    for system in families:
        scan = hc.scan_parity(system, hc.CircleGrid.uniform(32), N)
        candidates = [hc.locate_bifurcation(system, iv, N, 1e-6)
                      for iv in scan.sign_change_intervals]
        thetas = [0.0, 0.4, 1.3, 2.2, 4.5, math.pi - 1e-6, math.pi]
        for theta in dict.fromkeys(thetas + [c.theta_star for c in candidates]):
            p = truncated_problem(system, theta, N)
            lu = banded_jacobian_lu(p, np.zeros(p.size))
            smin, v = lu.smallest_singular()
            _, s, vt = np.linalg.svd(assemble_jacobian(p, np.zeros(p.size)))
            assert abs(smin - s[-1]) <= 1e-13 * s[0]
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            if smin <= 1e-8 * lu.norm_1:
                assert abs(v @ vt[-1]) >= 1.0 - 1e-12
            if system is paper7_perturbed:
                lanczos_runs.clear()
                lu.smallest_singular()
                path = len(lanczos_runs)
                for estimate in estimate_trials(s[-1], truncation.GRAM_FLOOR * lu.norm_1):
                    lanczos_runs.clear()
                    smin, v = lu.smallest_singular(estimate)
                    assert len(lanczos_runs) == path
                    assert abs(smin - s[-1]) <= 1e-13 * s[0]
                    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                    if smin <= 1e-8 * lu.norm_1:
                        assert abs(v @ vt[-1]) >= 1.0 - 1e-12
            for cand in candidates:
                if cand.theta_star == theta:
                    oracle = vt[-1] * np.sign(vt[-1][np.argmax(np.abs(vt[-1]))])
                    assert cand.kernel_vector @ oracle >= 1.0 - 1e-12
                    located += 1
    assert located >= 3


def test_locate_brackets_a_certified_crossing(paper7_perturbed, monkeypatch):
    # Seeded loops and paper7 on an asymmetric bracket: the returned bracket
    # holds theta*, its ends carry opposite certified signs with rows
    # carried from the start, theta* is near-singular by a dense SVD, and
    # regula falsi needs at most 12 probes (bisection needs over 20 on these
    # brackets).  The bracket is at most tol_theta wide unless the points
    # 0.45 tol_theta either side of theta* are near-singular too; then the
    # lower end is at most twice as far out as the plateau reaches (the
    # point halfway to it is near-singular), and the bracket stays within
    # 10 tol_theta.
    N, tol_theta, kernel_tol = 30, 1e-6, truncation.DEFAULT_KERNEL_TOL
    rng = np.random.default_rng(19)
    cases = [(paper7_perturbed, (math.pi - 0.3, math.pi + 0.2))]
    for d in (2, 3, 4, 2, 3, 4):
        system = _rotating_random_family(rng, d)
        scan = hc.scan_parity(system, hc.CircleGrid.uniform(32), N)
        cases += [(system, iv) for iv in scan.sign_change_intervals]
    assert len(cases) >= 7
    probes = []
    classify = detect.classify_window

    def counting(p, tol):
        probes.append(p.theta)
        return classify(p, tol)

    monkeypatch.setattr(detect, "classify_window", counting)
    plateaus = 0
    for system, bracket in cases:
        probes.clear()
        cand = hc.locate_bifurcation(system, bracket, N, tol_theta)
        assert len(probes) <= 12
        lo, hi, star = *cand.bracket, cand.theta_star
        assert lo <= star <= hi
        start = truncated_problem(system, bracket[0], N)

        def sign(theta):
            return truncation.classify_window(start.transported(theta), kernel_tol)[2]

        assert sign(lo) * sign(hi) == -1
        if hi - lo > tol_theta:
            plateaus += 1
            inner = (star - 0.45 * tol_theta, star + 0.45 * tol_theta, 0.5 * (lo + star))
            assert [sign(t) for t in inner] == [0, 0, 0]
            assert hi - lo <= 10 * tol_theta
        jac = assemble_jacobian(start.transported(star), np.zeros(start.size))
        assert np.linalg.svd(jac, compute_uv=False)[-1] <= kernel_tol * np.linalg.norm(jac, 1)
    assert plateaus < len(cases)
