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

from conftest import half_turn_loop, predict_style_loop, record_calls


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


_LINE = np.array([[1.0], [0.0]])


@pytest.mark.parametrize("bad, message", [
    (np.eye(2), "subspace rank changed to 2 (expected 1) at theta={:.6f}"),
    (np.array([1.0, 0.0]), "subspace at theta={:.6f} is not a d x k frame"),
    (np.zeros((1, 2, 1)), "subspace at theta={:.6f} is not a d x k frame"),
    (2.0 * _LINE, "frame at theta={:.6f} is not orthonormal (error 3.0e+00)"),
], ids=["rank", "vector", "3-d", "scaled"])
def test_read_frames_names_the_first_bad_theta(bad, message):
    # a frame of the wrong rank or shape, or not orthonormal, from the
    # first node past 1.0 on: the RankDrop names that node, whether the
    # frames are read one node at a time or stacked
    grid = hc.CircleGrid.uniform(16)

    def family(theta):
        return bad if theta > 1.0 else _LINE

    for read, nodes in ((lambda: hc.transport_frames(family, grid), grid.nodes),
                        (lambda: transport_along_path(family, _LINE, 0.0, 2.0), [0.0, 2.0])):
        with pytest.raises(RankDrop) as caught:
            read()
        first_bad = next(t for t in path_nodes(np.array(nodes)) if t > 1.0)
        assert str(caught.value) == message.format(first_bad)


def test_read_frames_of_one_wrong_shape():
    # every frame a vector, or every frame of the wrong k, raises for the
    # first theta; frames of different row counts are not a stack
    thetas = [0.5, 0.75, 1.0]
    with pytest.raises(RankDrop, match=r"^subspace at theta=0\.500000 is not a d x k frame$"):
        bundles._read_frames(lambda t: np.array([1.0, 0.0]), thetas, None)
    with pytest.raises(RankDrop, match=r"^subspace rank changed to 1 \(expected 2\) at theta=0\.500000$"):
        bundles._read_frames(lambda t: _LINE, thetas, 2)
    with pytest.raises(ValueError, match="same shape"):
        bundles._read_frames(lambda t: _LINE if t < 0.8 else np.eye(3)[:, :1], thetas, 1)
    assert bundles._read_frames(lambda t: _LINE, thetas, 1).shape == (3, 2, 1)

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


def transport_invariants(system, grid, gap_tol=spectral.DEFAULT_GAP_TOL):
    """index_bundle_invariants by polar transport, the oracle of its
    determinant signs: both sides' grid families first, then each side
    transported (transport_frames) and its w1 read, plus before minus."""
    plus = bundles.limit_family(system.a_plus, "stable_frame", gap_tol, grid)
    minus = bundles.limit_family(system.a_minus, "stable_frame", gap_tol, grid)
    loop_plus = hc.transport_frames(plus, grid)
    w1_plus = hc.w1(loop_plus)
    loop_minus = hc.transport_frames(minus, grid)
    w1_minus = hc.w1(loop_minus)
    invariants = hc.BundleInvariants(rank_plus=len(loop_plus.closure_matrix),
                                     rank_minus=len(loop_minus.closure_matrix),
                                     w1_plus=w1_plus, w1_minus=w1_minus)
    return invariants, (loop_plus.grid.nodes, loop_minus.grid.nodes)


def refined_invariants(monkeypatch, system, grid):
    """index_bundle_invariants and the nodes its refinement reached, side
    by side."""
    reached = []
    real = bundles._aligned

    def recorded(*args):
        out = real(*args)
        reached.append(out[0])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(bundles, "_aligned", recorded)
        return hc.index_bundle_invariants(system, grid), tuple(reached)


@pytest.mark.parametrize("m", [8, 9, 11, 64, 256])
def test_overlap_signs_match_transport(monkeypatch, m):
    # on seeded predict-style loops (speed 9 turns a stable line 0.88 rad
    # per step of a coarse grid, so those intervals are bisected), on
    # half-turn loops with unstable and complex directions beside the
    # turning line, and on direct sums of both: the ranks and w1 signs of
    # index_bundle_invariants are those of polar transport, and its
    # refinement reaches the same nodes
    rng = np.random.default_rng(100 + m)
    grid = hc.CircleGrid.uniform(m)
    bisected = 0
    systems = []
    for d in (2, 4, 6):
        for fastest in (0, 1, 2, 3, 9):
            a_plus, _ = predict_style_loop(rng, d, fastest)
            a_minus, _ = predict_style_loop(rng, d, int(rng.integers(4)))
            systems.append(hc.linear_family(d, a_plus, a_minus))
    for d in (3, 4, 5):
        a_plus, _ = half_turn_loop(rng, d, int(rng.integers(1, 4)))
        systems.append(hc.linear_family(d, a_plus, half_turn_loop(rng, d, 0)[0]))
    systems += [hc.direct_sum(systems[i], systems[j]) for i, j in ((4, 0), (8, 9), (15, 16))]
    for system in systems:
        expected, transported = transport_invariants(system, grid)
        got, reached = refined_invariants(monkeypatch, system, grid)
        assert got == expected
        assert all(np.array_equal(a, b) for a, b in zip(reached, transported))
        bisected += sum(len(nodes) > len(path_nodes(grid.nodes)) for nodes in reached)
    assert bisected >= (5 if m < 64 else 0)


def random_frame_pair(rng, d, k):
    """Orthonormal d x k frames F and G, G turned away from F by principal
    angles whose cosines lie near ALIGNMENT_FLOOR, the columns of each
    turned by a random rotation, each frame then perturbed within the
    1e-10 orthonormality tolerance."""
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    j = min(k, d - k)  # turned directions; the rest are shared
    cosines = np.ones(k)
    cosines[:j] = np.clip(bundles.ALIGNMENT_FLOOR + rng.choice([1e-12, 1e-3, 0.05]) *
                          rng.uniform(-1.0, 1.0, j), 0.0, 1.0)
    f = q[:, :k]
    g = f.copy()
    g[:, :j] = f[:, :j] * cosines[:j] + q[:, k:k + j] * np.sqrt(1.0 - cosines[:j] ** 2)
    turn = [np.linalg.qr(rng.standard_normal((k, k)))[0] for _ in range(2)]
    f, g = f @ turn[0], g @ turn[1]
    return [x + 2e-11 * rng.uniform(-1.0, 1.0, x.shape) / math.sqrt(x.size) for x in (f, g)]


def test_determinant_certifies_the_cosine_floor(monkeypatch):
    # seeded orthonormal frame pairs, d <= 6, k <= 3, cosines near the
    # floor: |det| at the certificate's bound proves sigma_min at least
    # ALIGNMENT_FLOOR, and the overlaps the determinant leaves unsure go to
    # the SVD, which decides them as the transport's SVD does
    rng = np.random.default_rng(36)
    svds = []
    real_svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        svds.append(len(a))
        return real_svd(a, *args, **kwargs)

    certified = sent = 0
    for d in range(1, 7):
        for k in range(1, min(d, 3) + 1):
            pairs = [random_frame_pair(rng, d, k) for _ in range(200)]
            frames = np.array([x for pair in pairs for x in pair])
            bundles._orthonormal(frames, np.zeros(len(frames)))
            overlaps = np.array([g.T @ f for f, g in pairs])
            sigma_min = real_svd(overlaps, compute_uv=False)[:, -1]
            proven = np.abs(np.linalg.det(overlaps)) >= (
                bundles.ALIGNMENT_FLOOR * bundles._DET_SLACK ** k)
            assert (sigma_min[proven] >= bundles.ALIGNMENT_FLOOR).all()
            svds.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", counted)
                cosines, dets = bundles._det_cosines(overlaps)
            assert svds == ([int((~proven).sum())] if (~proven).any() else [])
            exact = bundles._polar_cosines(overlaps)[0]
            assert np.array_equal(cosines >= bundles.ALIGNMENT_FLOOR,
                                  exact >= bundles.ALIGNMENT_FLOOR)
            assert np.array_equal(cosines[~proven], exact[~proven])
            assert np.array_equal(dets, np.linalg.det(overlaps))
            certified += int(proven.sum())
            sent += int((~proven & (exact >= bundles.ALIGNMENT_FLOOR)).sum())
    assert certified >= 500 and sent >= 100


def jump_system(theta):
    return np.diag([0.5, 2.0]) if theta < math.pi else np.diag([2.0, 0.5])


def quarter_turn_system(theta):
    # period 4*pi in span: the stable line at 2*pi is orthogonal to the one at 0
    return rotating_matrix(0.5 * theta, 0.5, 2.0)


@pytest.mark.parametrize("case, error, message", [
    ("nonperiodic", AlignmentFailure, "periodic"),
    ("jump", AlignmentFailure, "after 20 bisections"),
    ("undersampled", DegenerateClosure, "undersampled"),
    ("rank change", IndexMismatch, "stable dimension varies"),
    ("empty", ValueError, "nonempty"),
])
def test_overlap_route_raises_as_transport(monkeypatch, case, error, message):
    # the determinant route and polar transport on the same inputs raise
    # the same error class with the same message; both read the one
    # MIN_CLOSURE_DET, so raising it above 1 makes every loop undersampled
    fixed = hc.linear_family(2, lambda t: np.diag([0.5, 2.0]), lambda t: np.diag([0.5, 2.0]))
    systems = {
        "nonperiodic": hc.linear_family(2, lambda t: np.diag([0.5, 2.0]), quarter_turn_system),
        "jump": hc.linear_family(2, jump_system, jump_system),
        "undersampled": fixed,
        "rank change": hc.linear_family(
            2, lambda t: np.diag([0.5, 2.0]) if t < math.pi else np.diag([0.5, 0.4]),
            quarter_turn_system),
        "empty": hc.linear_family(0, lambda t: np.zeros((0, 0)), lambda t: np.zeros((0, 0))),
    }
    if case == "undersampled":
        monkeypatch.setattr(bundles, "MIN_CLOSURE_DET", 2.0)
    grid = hc.CircleGrid.uniform(16)
    with pytest.raises(error, match=message) as overlap:
        hc.index_bundle_invariants(systems[case], grid)
    with pytest.raises(error) as transport:
        transport_invariants(systems[case], grid)
    assert type(overlap.value) is type(transport.value)
    assert str(overlap.value) == str(transport.value)


def test_zero_dimensional_family_is_a_value_error():
    system = hc.linear_family(0, lambda t: np.zeros((0, 0)), lambda t: np.zeros((0, 0)))
    with pytest.raises(ValueError, match="nonempty"):
        hc.index_bundle_invariants(system, hc.CircleGrid.uniform(8))


def test_invariants_take_one_schur_per_side(monkeypatch):
    # at m = 256 each side is one splitting_stack call whose eigenvector
    # frames all pass the invariance test, and the start frame is the
    # stack's own (the cosines and the sign product do not change when F_0
    # turns): no real Schur form at all
    forms = []
    record_calls(monkeypatch, scipy.linalg, "schur", forms)
    record_calls(monkeypatch, _linalg, "dgees", forms)
    rng = np.random.default_rng(3)
    for d in (2, 4, 6):
        a, expected = predict_style_loop(rng, d, 3)
        forms.clear()
        inv = hc.index_bundle_invariants(hc.linear_family(d, a, a), hc.CircleGrid.uniform(256))
        assert inv.w1_plus == expected
        assert forms == []


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


@pytest.mark.parametrize("speed", [1, 0])
def test_grid_family_frames_are_read_only(speed):
    # every frame a limit family returns on a grid is read-only: the
    # stack's (speed 1), the broadcast one of a theta-independent limit
    # (speed 0) and the first node's Schur frame from the memo
    grid = hc.CircleGrid.uniform(16)
    for part in ("stable_frame", "unstable_frame", "stable_complement", "unstable_complement"):
        family = bundles.limit_family(lambda t: rotating_matrix(speed * t, 0.5, 2.0), part,
                                      grid=grid)
        for theta in path_nodes(grid.nodes)[:3]:
            frame = family(float(theta))
            with pytest.raises(ValueError, match="read-only"):
                frame[0, 0] = 1.0


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
