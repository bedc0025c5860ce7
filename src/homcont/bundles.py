"""Subspace families over the circle: orientation signs and frame transport.

A family of k-dimensional subspaces of R^d sampled over [0, 2*pi] is
orientable (w1 = +1) exactly when it admits a continuous frame that closes
up at 2*pi.  Given column-orthonormal frames F_0, ..., F_m at nodes from 0
to 2*pi, consecutive ones close (every principal-angle cosine of
M_i = F_i^T F_{i-1} at least ALIGNMENT_FLOOR, bisecting until it is), w1
is the product of the signs of the transition determinants,

    w1 = sign det(F_0^T F_m) * prod_i sign det(M_i)

(Milnor & Stasheff, Characteristic Classes, section 12): polar transport
would turn F_i by polar(M_i) ... polar(M_1), and sign det polar(M) =
sign det M.  index_bundle_invariants reads the ranks and these signs of
the asymptotic stable families, the index-bundle data of an
asymptotically hyperbolic linear family.  transport_frames carries one
frame around the loop by that polar transport: it is the row carrier of
the parity scan (truncation.TruncatedProblem.over), and sign det of its
closure matrix (w1) is the oracle of the determinant product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _linalg as lapack
from .errors import AlignmentFailure, DegenerateClosure, RankDrop
from .spectral import DEFAULT_GAP_TOL, hyperbolic_splitting, splitting_stack

TWO_PI = 2.0 * math.pi

ALIGNMENT_FLOOR = 0.9
MAX_REFINEMENTS = 20
MAX_PATH_STEP = 0.2
MAX_PATH_STEPS = 2 ** 16  # bounds the total width of a path (path_nodes)
# |det C| of a closure matrix below this leaves its sign untrusted
# (DegenerateClosure)
MIN_CLOSURE_DET = 1e-6
# Frames pass the orthonormality test F^T F = I to 1e-10 (Frobenius), so
# every singular value of an overlap F_i^T F_j is at most about 1 + 1e-10;
# a k x k overlap with |det| >= ALIGNMENT_FLOOR * _DET_SLACK^k then has
# smallest singular value at least ALIGNMENT_FLOOR, with room for the
# rounding of the product and of its determinant
_DET_SLACK = 1.0 + 1e-9


@dataclass(frozen=True, eq=False)
class CircleGrid:
    """Sample nodes 0 = theta_0 < ... < theta_m = 2*pi, endpoints identified."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if len(nodes) - 1 < 8:
            raise ValueError("grid needs at least 8 samples")
        if not (nodes[0] == 0.0 and abs(nodes[-1] - TWO_PI) <= 1e-12):
            raise ValueError("grid must run from 0 to 2*pi")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def m(self) -> int:
        return len(self.nodes) - 1

    @classmethod
    def uniform(cls, m: int) -> "CircleGrid":
        return cls(np.linspace(0.0, TWO_PI, m + 1))


@dataclass(frozen=True, eq=False)
class LoopTransport:
    """Frames of a subspace family polar-transported once around the circle
    (transport_frames): the parity scan's boundary rows, and the oracle of
    index_bundle_invariants' determinant signs.

    frames is an (n, d, k) array, n = len(grid.nodes): frames[i] is a
    d x k column-orthonormal basis at grid.nodes[i]; closure_matrix
    expresses frames[-1] in terms of frames[0].
    """

    grid: CircleGrid
    frames: np.ndarray
    closure_matrix: np.ndarray


@dataclass(frozen=True)
class BundleInvariants:
    """Rank and orientation data of the asymptotic stable families."""

    rank_plus: int
    rank_minus: int
    w1_plus: int
    w1_minus: int

    @property
    def w1_index(self) -> int:
        return self.w1_plus * self.w1_minus

    @property
    def index(self) -> int:
        return self.rank_plus - self.rank_minus


def _shaped_frame(frame, theta: float, k: int | None) -> np.ndarray:
    """frame, the output of a subspace family at theta, as a float array;
    RankDrop unless it is a d x k frame (k = None: any k)."""
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2:
        raise RankDrop(f"subspace at theta={theta:.6f} is not a d x k frame")
    if k is not None and frame.shape[1] != k:
        raise RankDrop(
            f"subspace rank changed to {frame.shape[1]} (expected {k}) at theta={theta:.6f}"
        )
    return frame


def _read_frames(subspace_at: Callable[[float], np.ndarray], thetas, k: int | None):
    """The frames subspace_at(theta) at thetas, stacked; RankDrop unless each
    is a d x k frame (k = None: any k) that is orthonormal to 1e-10.

    subspace_at is called at every theta first, and its outputs are read by
    one np.array; only when they do not stack to (n, d, k) are they walked
    in order, so that the first one of the wrong rank raises (frames of
    mixed row counts raise np.stack's ValueError)."""
    outputs = [subspace_at(float(t)) for t in thetas]
    try:
        frames = np.array(outputs, dtype=float)
    except ValueError:  # ragged
        frames = None
    if frames is None or frames.ndim != 3 or (k is not None and frames.shape[2] != k):
        frames = np.stack([_shaped_frame(f, float(t), k) for f, t in zip(outputs, thetas)])
    return _orthonormal(frames, thetas)


def _orthonormal(frames: np.ndarray, thetas) -> np.ndarray:
    """frames, an (n, d, k) stack read at thetas; RankDrop unless every one
    is orthonormal to 1e-10 (Frobenius error of F^T F - I)."""
    err = np.linalg.norm(frames.transpose(0, 2, 1) @ frames - np.eye(frames.shape[2]), axis=(1, 2))
    if not np.all(err <= 1e-10):
        i = int(np.flatnonzero(~(err <= 1e-10))[0])
        raise RankDrop(f"frame at theta={thetas[i]:.6f} is not orthonormal (error {err[i]:.1e})")
    return frames


def _aligned(subspace_at: Callable[[float], np.ndarray], nodes: np.ndarray, frames: np.ndarray,
             cosines_of: Callable[[np.ndarray], tuple]):
    """Bisect the read frames (nodes, frames) until consecutive ones are
    aligned; the one refinement loop of _carry and index_bundle_invariants.

    cosines_of(overlaps), given the k x k matrices M_i = F_i^T F_{i-1},
    returns (cosines, kept): each smallest principal-angle cosine, or a
    lower bound on it wherever that bound is at least ALIGNMENT_FLOOR, and
    what its caller keeps of the overlaps.  Every interval whose cosine is
    below ALIGNMENT_FLOOR (or NaN) gets its midpoint as a new node, its
    frame read from subspace_at, and the stacked pass runs again, for at
    most MAX_REFINEMENTS levels; an interval still misaligned then raises
    AlignmentFailure.  Returns (nodes, frames, kept) of the last pass.
    """
    k = frames.shape[2]
    for depth in range(MAX_REFINEMENTS + 1):
        cosines, kept = cosines_of(frames[1:].transpose(0, 2, 1) @ frames[:-1])
        bad = np.flatnonzero(~(cosines >= ALIGNMENT_FLOOR))
        if not len(bad):
            return nodes, frames, kept
        if depth == MAX_REFINEMENTS:
            i = bad[0]
            raise AlignmentFailure(
                f"subspaces misaligned (cos={cosines[i]:.3f}) on "
                f"[{nodes[i]:.6f}, {nodes[i + 1]:.6f}] after {depth} bisections"
            )
        mids = 0.5 * (nodes[bad] + nodes[bad + 1])
        frames = np.insert(frames, bad + 1, _read_frames(subspace_at, mids, k), axis=0)
        nodes = np.insert(nodes, bad + 1, mids)


def _polar_cosines(overlaps: np.ndarray):
    """One stacked SVD u s vt of the overlaps: (smallest cosines, (u, vt))."""
    u, s, vt = np.linalg.svd(overlaps)
    return np.min(s, axis=1, initial=1.0), (u, vt)  # 1 when k = 0


def _det_cosines(overlaps: np.ndarray):
    """(cosines, det M_i) of the overlaps: |det M| / _DET_SLACK^k, a lower
    bound on the smallest cosine, and the SVD's exact cosine (as in
    _polar_cosines) only for the overlaps where that bound is below
    ALIGNMENT_FLOOR or NaN."""
    dets = np.linalg.det(overlaps)
    cosines = np.abs(dets) / _DET_SLACK ** overlaps.shape[2]
    unsure = ~(cosines >= ALIGNMENT_FLOOR)
    if unsure.any():
        cosines[unsure] = np.min(np.linalg.svd(overlaps[unsure])[1], axis=1, initial=1.0)
    return cosines, dets


def _carry(subspace_at: Callable[[float], np.ndarray], nodes, first: np.ndarray):
    """Carry the orthonormal frame first, in the subspace at nodes[0], over
    nodes; returns (thetas, frames), every node reached and the frame
    carried to it.

    nodes are first cut by path_nodes, the frames F_i there are read
    (F_0 = first), and _aligned refines them, one stacked SVD of the
    overlaps M_i = F_i^T F_{i-1} per pass giving the cosines and the polar
    factors.  The frame reached at node i is F_i R_i with
    R_i = polar(M_i) ... polar(M_1) (polar transport commutes with turning
    the frame it starts from).
    """
    nodes = path_nodes(np.asarray(nodes, dtype=float))
    k = first.shape[1]
    frames = np.concatenate([first[None], _read_frames(subspace_at, nodes[1:], k)])
    nodes, frames, (u, vt) = _aligned(subspace_at, nodes, frames, _polar_cosines)
    # carries[i] = polar(M_i) @ ... @ polar(M_1), polar(M) = u vt, as a
    # prefix product: log2(n) stacked products, each multiplying in the
    # span `shift` back
    carries = np.concatenate([np.eye(k)[None], u @ vt])
    shift = 1
    while shift < len(carries):
        carries[shift:] = carries[shift:] @ carries[:-shift]
        shift *= 2
    return nodes, frames @ carries


def transport_frames(subspace_at: Callable[[float], np.ndarray], grid: CircleGrid) -> LoopTransport:
    """Transport a frame of subspace_at(0) around the circle by _carry: the
    row carrier of the parity scan (truncation.TruncatedProblem.over),
    and with w1 the parallel-transport oracle of index_bundle_invariants,
    which reads the same sign from overlap determinants instead.

    subspace_at(theta) must return a d x k column-orthonormal frame (to
    1e-10, else RankDrop), such as Schur columns; it is never
    re-orthonormalized.  Every node _carry reaches, the path_nodes of the
    grid and any midpoints it refines by, is part of the returned grid.
    """
    first = _read_frames(subspace_at, grid.nodes[:1], None)[0]
    thetas, frames = _carry(subspace_at, grid.nodes, first)
    return LoopTransport(
        grid=CircleGrid(thetas), frames=frames,
        closure_matrix=loop_closure(frames[0], frames[-1]),
    )


def path_nodes(nodes: np.ndarray) -> np.ndarray:
    """nodes with the interval from each node to the next cut into
    ceil(width / MAX_PATH_STEP) equal steps, start + j * width / pieces,
    each interval ending exactly on its own next node: the steps of every
    frame transport.  Principal-angle cosines cannot see a half turn of the
    subspace (an antipodal frame is perfectly "aligned"), so only small
    steps keep the transport in the right homotopy class.  A path whose
    total width is not finite or above MAX_PATH_STEPS * MAX_PATH_STEP
    raises ValueError."""
    widths = np.diff(nodes)
    if not np.sum(np.abs(widths)) <= MAX_PATH_STEPS * MAX_PATH_STEP:
        raise ValueError(f"theta path from {float(nodes[0])!r} to {float(nodes[-1])!r} is not "
                         f"finite or longer than {MAX_PATH_STEPS} steps of {MAX_PATH_STEP}")
    pieces = np.ceil(np.abs(widths) / MAX_PATH_STEP).astype(int)
    ends = np.cumsum(pieces)
    j = np.arange(1, ends[-1] + 1) - np.repeat(ends - pieces, pieces)
    out = np.repeat(nodes[:-1], pieces) + j * np.repeat(widths / pieces, pieces)
    out[ends - 1] = nodes[1:]
    return np.concatenate([nodes[:1], out])


def limit_family(limit_fn: Callable[[float], np.ndarray], part: str,
                 gap_tol: float = DEFAULT_GAP_TOL, grid: CircleGrid | None = None):
    """subspace_at(theta): one part of the splitting of limit_fn(theta),
    "stable_frame", "unstable_frame", "stable_complement" or
    "unstable_complement" (the parts HyperbolicSplitting and
    SplittingStack share), read from hyperbolic_splitting.  Given a grid,
    limit_fn is split at every node of path_nodes(grid.nodes), the nodes
    transport_frames reads on it, by one splitting_stack call (eigenvector
    frames, Schur for a matrix whose frames fail the invariance test;
    IndexMismatch unless the stable dimension is constant), which the
    nodes after the first are read from; the first node's frame is a Schur
    frame.  A limit that does not depend on theta gives a stack of
    bitwise-equal matrices, which splitting_stack splits once.  Every
    frame the family returns is read-only.

    The family keeps its last splitting: a matrix bitwise equal to the one
    it split last (a limit that does not depend on theta, or a theta read
    again) returns that frame without splitting again.  The memo is one
    (matrix bytes, frame) pair replaced in one assignment, so concurrent
    callers of one family see either pair, never a mix.
    """
    memo = (None, None)

    def split_at(theta: float) -> np.ndarray:
        nonlocal memo
        a = np.asarray(limit_fn(float(theta)), dtype=float)
        key = (a.shape, a.tobytes())
        last_key, frame = memo
        if key != last_key:
            frame = getattr(hyperbolic_splitting(a, gap_tol), part)
            frame.flags.writeable = False
            memo = (key, frame)
        return frame

    if grid is None:
        return split_at
    nodes = path_nodes(grid.nodes)
    table = dict(zip(nodes[1:].tolist(), _stack_part(limit_fn, part, gap_tol, nodes)[1:]))

    def subspace_at(theta: float) -> np.ndarray:
        frame = table.get(float(theta))
        return split_at(theta) if frame is None else frame

    return subspace_at


def _stack_part(limit_fn: Callable[[float], np.ndarray], part: str, gap_tol: float,
                nodes: np.ndarray) -> np.ndarray:
    """The read-only (n, d, k) stack of one part of the splittings of
    limit_fn at nodes, by one splitting_stack call."""
    return getattr(splitting_stack(np.array([limit_fn(float(t)) for t in nodes]), gap_tol), part)


def loop_closure(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Closure matrix C = first^T last of a frame carried from first at 0 to
    last at 2*pi; raises AlignmentFailure if last leaves the span of first.
    The one closure test of the bundles (index_bundle_invariants, where
    last is the frame read at 2*pi) and of the scan's rows
    (transport_frames, for truncation.TruncatedProblem.over)."""
    closure = first.T @ last
    if np.linalg.norm(first @ closure - last) > 1e-8:
        raise AlignmentFailure(
            "transported frame at 2*pi does not lie in the initial subspace; "
            "the family is not 2*pi-periodic to tolerance"
        )
    return closure


def segment_nodes(theta_from: float, theta_to: float) -> list[float]:
    """The nodes of a transport along one theta segment: [theta_from,
    theta_to] when it is at most MAX_PATH_STEP wide, else path_nodes of the
    two (ValueError for a segment that is not finite or too long)."""
    path = [float(theta_from), float(theta_to)]
    if not abs(theta_to - theta_from) <= MAX_PATH_STEP:  # NaN, to be rejected, too
        path = path_nodes(np.array(path)).tolist()
    return path


def transport_along_path(
    subspace_at: Callable[[float], np.ndarray],
    frame: np.ndarray,
    theta_from: float,
    theta_to: float,
) -> np.ndarray:
    """Transport an orthonormal frame along a theta segment, without closure.

    The segment is cut by segment_nodes; each step reads the frame F at
    its end (orthonormal to 1e-10, else RankDrop), projects onto it and
    polar-corrects: one SVD u s vt of F F^T current (LAPACK gesdd) gives
    the carried frame u vt, and s the principal-angle cosines.  A step
    whose smallest cosine is below ALIGNMENT_FLOOR (or NaN) is handed to
    _carry, which bisects it.  Step by step, so short segments pay no
    stacking overhead.  Its one caller is
    truncation.TruncatedProblem.transported (by truncation._carried),
    which keeps the boundary-condition rows continuous whenever theta
    moves, and calls it only for a side whose limit matrix moves on the
    segment: transport inside a fixed subspace carries a frame of it to
    itself.
    """
    current = np.asarray(frame, dtype=float)
    if current.shape[1] == 0 or theta_from == theta_to:
        return current.copy()
    path = segment_nodes(theta_from, theta_to)
    for t_from, t_to in zip(path, path[1:]):
        target = _shaped_frame(subspace_at(t_to), t_to, current.shape[1])
        err = np.linalg.norm(target.T @ target - np.eye(current.shape[1]))
        if not err <= 1e-10:
            raise RankDrop(f"frame at theta={t_to:.6f} is not orthonormal (error {err:.1e})")
        u, s, vt, info = lapack.dgesdd(target @ (target.T @ current), full_matrices=0)
        if info:
            raise np.linalg.LinAlgError("SVD did not converge")
        if s[-1] >= ALIGNMENT_FLOOR:
            current = u @ vt
        else:
            current = _carry(subspace_at, [t_from, t_to], current)[1][-1]
    return current


def w1(transport: LoopTransport) -> int:
    """Orientability sign of the transported family: sign det C, the
    parallel-transport oracle of index_bundle_invariants' determinant
    signs.

    +1 exactly when the family admits a closed frame (det C > 0).  Raises
    DegenerateClosure when |det C| is below MIN_CLOSURE_DET, too small to
    trust the sign.
    """
    return _closure_sign(transport.closure_matrix)


def _closure_sign(closure: np.ndarray) -> int:
    """sign det closure; DegenerateClosure if |det| < MIN_CLOSURE_DET.

    A closure matrix that passed loop_closure cannot raise: its frames are
    orthonormal to 1e-10 and close to 1e-8, so it is orthogonal to about
    1e-8 and |det| is about 1.  No seeded or constructed family has reached
    the error through index_bundle_invariants or w1 (undersampled loops are
    bisected by _aligned or fail loop_closure), so only a lowered
    MIN_CLOSURE_DET triggers it.  The check stays as a guard on the sign."""
    det = float(np.linalg.det(closure))
    if abs(det) < MIN_CLOSURE_DET:
        raise DegenerateClosure(f"|det C| = {abs(det):.3e}; loop is undersampled")
    return 1 if det > 0 else -1


def index_bundle_invariants(system, grid: CircleGrid,
                            gap_tol: float = DEFAULT_GAP_TOL) -> BundleInvariants:
    """Rank and w1 data of the stable families of a(theta, +inf) and a(theta, -inf).

    Each side's stable frames F_i at path_nodes(grid.nodes) are read from
    one splitting_stack call (both sides are split before either is
    read), and must be orthonormal to 1e-10 (RankDrop).  _aligned bisects
    them, each midpoint's frame read from its own hyperbolic_splitting.
    Each overlap M_i = F_i^T F_{i-1} whose |det| is at least
    ALIGNMENT_FLOOR * _DET_SLACK^k passes without an SVD, its smallest
    cosine proven at least the floor.  The rank is k, and w1 is
    sign det(F_0^T F_m) prod_i sign det(M_i), the sign of the closure
    matrix of polar transport (transport_frames) from F_0: loop_closure
    tests the frames at 0 and 2*pi (AlignmentFailure), and
    |det(F_0^T F_m)| below MIN_CLOSURE_DET raises DegenerateClosure.
    """
    nodes = path_nodes(grid.nodes)
    sides = [(limit_fn, _stack_part(limit_fn, "stable_frame", gap_tol, nodes))
             for limit_fn in (system.a_plus, system.a_minus)]
    ranks, signs = [], []
    for limit_fn, frames in sides:
        split_at = limit_family(limit_fn, "stable_frame", gap_tol)
        _, frames, dets = _aligned(split_at, nodes, _orthonormal(frames, nodes), _det_cosines)
        turns = int(np.count_nonzero(dets < 0))
        ranks.append(frames.shape[2])
        signs.append(_closure_sign(loop_closure(frames[0], frames[-1])) * (-1) ** turns)
    return BundleInvariants(rank_plus=ranks[0], rank_minus=ranks[1],
                            w1_plus=signs[0], w1_minus=signs[1])
