import inspect
import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

import homcont as hc
from homcont import _linalg, bundles, spectral
from homcont.bundles import (MAX_PATH_STEP, LoopTransport, loop_closure, path_nodes,
                             transport_along_path)
from homcont.errors import AlignmentFailure, DegenerateClosure, IndexMismatch, RankDrop
from homcont.systems import rotating_matrix

from conftest import record_calls


def stable_line(theta):
    return np.array([[math.cos(theta / 2)], [math.sin(theta / 2)]])


def test_grid_validation():
    with pytest.raises(ValueError):
        hc.CircleGrid.uniform(4)
    with pytest.raises(ValueError):
        hc.CircleGrid(np.linspace(0.0, 1.0, 9))


@pytest.mark.parametrize("i, value", [(4, math.nan), (-1, math.nan), (-1, math.inf)])
def test_grid_rejects_non_finite_nodes(i, value):
    nodes = np.linspace(0.0, 2 * math.pi, 9)
    nodes[i] = value
    with pytest.raises(ValueError, match="grid"):
        hc.CircleGrid(nodes)


def test_grid_compares_by_identity():
    grid = hc.CircleGrid.uniform(8)
    assert grid == grid and grid != hc.CircleGrid.uniform(8)
    assert len({grid, hc.CircleGrid.uniform(8)}) == 2


def test_constant_subspace_transport():
    grid = hc.CircleGrid.uniform(16)
    tr = hc.transport_frames(lambda t: np.array([[1.0], [0.0]]), grid)
    assert tr.closure_matrix == pytest.approx(np.array([[1.0]]), abs=1e-12)
    assert hc.w1(tr) == 1


def test_rotating_stable_line_closes_with_minus_one(grid64):
    tr = hc.transport_frames(stable_line, grid64)
    assert tr.closure_matrix == pytest.approx(np.array([[-1.0]]), abs=1e-8)
    assert hc.w1(tr) == -1


def test_constant_plane_keeps_orientation():
    rng = np.random.default_rng(5)
    base, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    rot = np.array([[math.cos(1.1), -math.sin(1.1)], [math.sin(1.1), math.cos(1.1)]])
    tr = hc.transport_frames(lambda t: base @ rot, hc.CircleGrid.uniform(16))
    assert np.linalg.det(tr.closure_matrix) > 0


def test_w1_values(grid64):
    assert hc.w1(hc.transport_frames(stable_line, grid64)) == -1
    assert hc.w1(hc.transport_frames(lambda t: np.array([[1.0], [0.0]]), grid64)) == 1


def test_w1_frame_choice_invariance(grid64):
    def plane(theta):
        return np.array([
            [math.cos(theta / 2), 0.0],
            [math.sin(theta / 2), 0.0],
            [0.0, 1.0],
        ])

    reference = hc.w1(hc.transport_frames(plane, grid64))
    assert reference == -1
    rng = np.random.default_rng(17)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))

        def rotated(theta, q=q):
            return plane(theta) @ q if theta == 0.0 else plane(theta)

        assert hc.w1(hc.transport_frames(rotated, grid64)) == reference


def test_transported_frames_stay_orthonormal(grid64):
    tr = hc.transport_frames(stable_line, grid64)
    for frame in tr.frames:
        assert np.linalg.norm(frame.T @ frame - np.eye(frame.shape[1])) <= 1e-10


def test_w1_positive_iff_positive_determinant(grid64):
    for family, expected in ((stable_line, -1), (lambda t: np.array([[0.0], [1.0]]), 1)):
        tr = hc.transport_frames(family, grid64)
        det = float(np.linalg.det(tr.closure_matrix))
        assert (hc.w1(tr) == 1) == (det > 0)
        assert hc.w1(tr) == expected


def test_degenerate_closure_rejected(grid64):
    tr = hc.transport_frames(stable_line, grid64)
    broken = LoopTransport(
        grid=tr.grid, frames=tr.frames,
        closure_matrix=np.array([[1e-9]]),
    )
    with pytest.raises(DegenerateClosure):
        hc.w1(broken)


def test_rank_drop_detected():
    def family(theta):
        if theta < math.pi:
            return np.array([[1.0], [0.0]])
        return np.eye(2)

    with pytest.raises(RankDrop):
        hc.transport_frames(family, hc.CircleGrid.uniform(16))


@pytest.mark.parametrize("bad", [np.array([[2.0], [0.0]]), np.array([[np.nan], [0.0]])])
def test_non_orthonormal_frame_rejected(bad):
    # Frames are used as given, never re-orthonormalized: a scaled or NaN
    # frame is an error, not something to normalize silently.
    def family(theta):
        return bad if theta > 1.0 else np.array([[1.0], [0.0]])

    with pytest.raises(RankDrop, match="not orthonormal"):
        hc.transport_frames(family, hc.CircleGrid.uniform(16))
    with pytest.raises(RankDrop, match="not orthonormal"):
        transport_along_path(family, np.array([[1.0], [0.0]]), 0.0, 1.1)


def jump_family(calls):
    """A line that jumps by a right angle at pi/2 and back at 3*pi/2;
    appends every theta it is read at to calls."""
    def family(theta):
        calls.append(theta)
        if math.pi / 2 < theta < 3 * math.pi / 2:
            return np.array([[0.0], [1.0]])
        return np.array([[1.0], [0.0]])

    return family


def test_alignment_failure_on_subspace_jump():
    # each jump costs one midpoint read per refinement level, on top of
    # the path nodes' reads
    calls = []
    grid = hc.CircleGrid.uniform(8)
    with pytest.raises(AlignmentFailure, match="after 20 bisections"):
        hc.transport_frames(jump_family(calls), grid)
    assert len(calls) <= len(path_nodes(grid.nodes)) + 2 * bundles.MAX_REFINEMENTS


def test_segment_across_a_jump_fails_in_bounded_reads():
    calls = []
    with pytest.raises(AlignmentFailure, match="misaligned"):
        transport_along_path(jump_family(calls), np.array([[1.0], [0.0]]), 1.5, 1.6)
    assert len(calls) <= 2 + bundles.MAX_REFINEMENTS


def test_transport_rejects_nonperiodic_family():
    # period 4*pi: the subspace at 2*pi is orthogonal to the one at 0
    def family(theta):
        return np.array([[math.cos(theta / 4)], [math.sin(theta / 4)]])

    with pytest.raises(AlignmentFailure, match="periodic"):
        hc.transport_frames(family, hc.CircleGrid.uniform(64))


def test_adaptive_refinement_handles_fast_winding(paper7_linear):
    # winds two full turns: consecutive 64-node subspaces are fine, but at
    # m=8 the angle per interval is ~1.57 rad and the walk must refine.
    def fast(theta):
        return np.array([[math.cos(2 * theta)], [math.sin(2 * theta)]])

    def paper7_stable(theta):
        return hc.hyperbolic_splitting(paper7_linear.a_plus(theta)).stable_frame

    for family, expected in ((fast, 1), (paper7_stable, -1)):
        coarse = hc.transport_frames(family, hc.CircleGrid.uniform(8))
        assert coarse.grid.m > 8
        # path_nodes' step rule: no step longer than MAX_PATH_STEP
        assert np.max(np.diff(coarse.grid.nodes)) <= MAX_PATH_STEP
        assert hc.w1(coarse) == expected
        # a fine grid is carried as given, one step per interval
        fine = hc.transport_frames(family, hc.CircleGrid.uniform(64))
        assert fine.grid.m == 64
        assert hc.w1(fine) == expected


def test_transport_along_path_matches_loop():
    frame0 = stable_line(0.0)
    out = transport_along_path(stable_line, frame0, 0.0, 2 * math.pi)
    assert np.allclose(out, -frame0, atol=1e-9)


def test_misaligned_segment_is_bisected_like_the_loop():
    # the line turns 5 * 2*pi/32 = 0.98 rad over one step of a 32-node
    # grid, so both the segment and the loop must bisect that step
    def fast(theta):
        return np.array([[math.cos(5 * theta)], [math.sin(5 * theta)]])

    grid = hc.CircleGrid.uniform(32)
    loop = hc.transport_frames(fast, grid)
    assert loop.grid.m > 32
    at = int(np.flatnonzero(loop.grid.nodes == grid.nodes[1])[0])
    assert at > 1
    out = transport_along_path(fast, fast(0.0), 0.0, grid.nodes[1])
    assert np.abs(out - loop.frames[at]).max() <= 1e-14


def test_index_invariants_builtin(paper7_linear, grid64):
    inv = hc.index_bundle_invariants(paper7_linear, grid64)
    assert inv == hc.BundleInvariants(rank_plus=1, rank_minus=1, w1_plus=-1, w1_minus=1)
    assert (inv.w1_index, inv.index) == (-1, 0)


def test_index_invariants_constant_system(grid64):
    system = hc.linear_family(
        2, lambda t: np.diag([0.5, 2.0]), lambda t: np.diag([0.5, 2.0])
    )
    inv = hc.index_bundle_invariants(system, grid64)
    assert inv.index == 0 and inv.w1_index == 1


def test_index_invariants_refinement_stability(paper7_linear):
    invs = [
        hc.index_bundle_invariants(paper7_linear, hc.CircleGrid.uniform(m))
        for m in (64, 128, 256)
    ]
    assert invs[0] == invs[1] == invs[2]


def test_direct_sum_multiplicativity(paper7_linear, grid64):
    trivial = hc.linear_family(
        2, lambda t: np.diag([0.5, 2.0]), lambda t: np.diag([0.5, 2.0])
    )
    combined = hc.direct_sum(paper7_linear, trivial)
    inv = hc.index_bundle_invariants(combined, grid64)
    inv_a = hc.index_bundle_invariants(paper7_linear, grid64)
    inv_b = hc.index_bundle_invariants(trivial, grid64)
    assert inv.w1_plus == inv_a.w1_plus * inv_b.w1_plus == -1
    assert inv.w1_minus == inv_a.w1_minus * inv_b.w1_minus
    assert inv.index == inv_a.index + inv_b.index


def test_index_invariants_rank_mismatch(grid64):
    def varying(theta):
        return np.diag([0.5, 2.0]) if theta < math.pi else np.diag([0.5, 0.4])

    system = hc.linear_family(2, varying, lambda t: np.diag([0.5, 2.0]))
    with pytest.raises(IndexMismatch):
        hc.index_bundle_invariants(system, grid64)


def predict_style_loop(rng, d, fastest):
    """The benchmark's predict family: 2 x 2 rotating_matrix blocks turning
    at integer speeds (one of them fastest), conjugated by a seeded
    orthogonal matrix.  Returns (a, w1 = (-1)^(sum of speeds))."""
    blocks = d // 2
    speeds = rng.integers(0, fastest + 1, size=blocks)
    speeds[rng.integers(blocks)] = fastest
    alphas, betas = rng.uniform(0.3, 0.7, blocks), rng.uniform(1.5, 3.0, blocks)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))

    def a(theta):
        return q @ scipy.linalg.block_diag(*[rotating_matrix(int(k) * theta, al, be)
                                             for k, al, be in zip(speeds, alphas, betas)]) @ q.T

    return a, (-1) ** int(speeds.sum())


def reference_step(family, frame, lo, hi, visited, depth=0):
    """Carry frame from the subspace at lo to the one at hi the slow way:
    project onto the target, polar-correct, and bisect recursively while
    the smallest principal-angle cosine is below ALIGNMENT_FLOOR.  Appends
    every node reached to visited as (theta, frame)."""
    target = family(hi)
    u, s, vt = np.linalg.svd(target @ (target.T @ frame), full_matrices=False)
    if s[-1] < bundles.ALIGNMENT_FLOOR:
        assert depth < bundles.MAX_REFINEMENTS
        mid = 0.5 * (lo + hi)
        reference_step(family, frame, lo, mid, visited, depth + 1)
        reference_step(family, visited[-1][1], mid, hi, visited, depth + 1)
    else:
        visited.append((hi, u @ vt))


@pytest.mark.parametrize("m", [8, 9, 11, 64])
def test_stacked_transport_matches_node_walker(m):
    # transport_frames (one stacked SVD, a product of k x k polar factors)
    # against a recursive node-by-node walker, on predict-style loops;
    # speed 9 turns a stable line 0.88 rad per step of a coarse grid, so
    # those intervals are bisected
    assert list(inspect.signature(hc.transport_frames).parameters) == ["subspace_at", "grid"]
    rng = np.random.default_rng(m)
    grid = hc.CircleGrid.uniform(m)
    for d in (2, 4, 6):
        for fastest in (0, 1, 2, 3, 9):
            a, expected = predict_style_loop(rng, d, fastest)

            def family(theta):
                return hc.hyperbolic_splitting(a(theta)).stable_frame

            stacked = hc.transport_frames(family, grid)
            visited = [(0.0, family(0.0))]
            nodes = path_nodes(grid.nodes).tolist()
            for lo, hi in zip(nodes, nodes[1:]):
                reference_step(family, visited[-1][1], lo, hi, visited)
            assert stacked.grid.nodes.tolist() == [theta for theta, _ in visited]
            assert max(np.abs(frame - ref).max()
                       for frame, (_, ref) in zip(stacked.frames, visited)) <= 1e-10
            closure = loop_closure(visited[0][1], visited[-1][1])
            assert np.linalg.norm(stacked.closure_matrix - closure) <= 1e-10
            assert hc.w1(stacked) == expected
            invariants = hc.index_bundle_invariants(hc.linear_family(d, a, a), grid)
            assert invariants.w1_plus == invariants.w1_minus == expected
            if fastest == 9 and m < 64:
                assert stacked.grid.m > len(path_nodes(grid.nodes)) - 1


def test_zero_dimensional_family_is_a_value_error():
    system = hc.linear_family(0, lambda t: np.zeros((0, 0)), lambda t: np.zeros((0, 0)))
    with pytest.raises(ValueError, match="nonempty"):
        hc.index_bundle_invariants(system, hc.CircleGrid.uniform(8))


def test_invariants_take_one_schur_per_side(monkeypatch):
    # at m = 256 each side is one splitting_stack call whose eigenvector
    # frames all pass the invariance test: one real Schur form per side,
    # for the start frame
    forms = []
    record_calls(monkeypatch, scipy.linalg, "schur", forms)
    record_calls(monkeypatch, _linalg, "dgees", forms)
    rng = np.random.default_rng(3)
    for d in (2, 4, 6):
        a, expected = predict_style_loop(rng, d, 3)
        forms.clear()
        inv = hc.index_bundle_invariants(hc.linear_family(d, a, a), hc.CircleGrid.uniform(256))
        assert inv.w1_plus == expected
        assert forms == ["dgees"] * 2


@pytest.mark.parametrize("part", ["stable_frame", "stable_complement", "unstable_complement"])
def test_limit_family_splits_an_unchanged_matrix_once(monkeypatch, part):
    # a matrix bitwise equal to the last one split returns the memo's frame,
    # equal to a fresh splitting's and read-only; a changed matrix (even by
    # one ulp) is split again
    matrices = {0.0: rotating_matrix(1.0, 0.5, 2.0), 1.0: rotating_matrix(1.0, 0.5, 2.0)}
    matrices[2.0] = matrices[1.0].copy()
    matrices[2.0][0, 1] = np.nextafter(matrices[2.0][0, 1], 1.0)
    splits = []
    record_calls(monkeypatch, bundles, "hyperbolic_splitting", splits)
    family = bundles.limit_family(lambda t: matrices[t].copy(), part)
    first = family(0.0)
    assert np.array_equal(first, getattr(spectral.hyperbolic_splitting(matrices[0.0]), part))
    assert not first.flags.writeable
    assert family(1.0) is first and family(0.0) is first
    assert len(splits) == 1
    changed = family(2.0)
    assert len(splits) == 2
    assert np.array_equal(changed, getattr(spectral.hyperbolic_splitting(matrices[2.0]), part))
    family(1.0)
    assert len(splits) == 3


def test_limit_family_memo_is_per_family(monkeypatch):
    # two families of one limit map split independently; no cache is shared
    splits = []
    record_calls(monkeypatch, bundles, "hyperbolic_splitting", splits)
    a = rotating_matrix(0.3, 0.5, 2.0)
    families = [bundles.limit_family(lambda t: a, "stable_frame") for _ in range(2)]
    for family in families + families:
        family(0.3)
    assert len(splits) == 2


def test_limit_family_memo_under_threads():
    # threads sharing one family never see a frame of another matrix: the
    # memo's (matrix, frame) pair is replaced in one assignment
    thetas = (0.0, 0.7, 2.1)
    family = bundles.limit_family(lambda t: rotating_matrix(t, 0.5, 2.0), "stable_complement")
    want = {t: getattr(spectral.hyperbolic_splitting(rotating_matrix(t, 0.5, 2.0)),
                       "stable_complement") for t in thetas}
    wrong = []

    def worker(k):
        for i in range(300):
            t = thetas[(i + k) % len(thetas)]
            if not np.array_equal(family(t), want[t]):
                wrong.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
