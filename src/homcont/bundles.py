"""Subspace families over the circle: frame transport and orientability.

A family of k-dimensional subspaces of R^d sampled over [0, 2*pi] is turned
into a continuously varying frame by project-then-orthonormalize transport.
Comparing the transported frame at 2*pi with the initial frame gives the
closure matrix C; the sign of det C is the orientability invariant of the
family, and the pair (rank difference, product of signs) captures the
index-bundle data of an asymptotically hyperbolic linear family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._linalg import polar_orthonormalize
from .errors import (
    AlignmentFailure,
    DegenerateClosure,
    IndexMismatch,
    NumericallySingular,
    RankDrop,
)
from .spectral import hyperbolic_splitting

TWO_PI = 2.0 * math.pi

DEFAULT_ALIGNMENT_FLOOR = 0.9
DEFAULT_MAX_REFINEMENTS = 20


@dataclass(frozen=True)
class CircleGrid:
    """Sample nodes 0 = theta_0 < ... < theta_m = 2*pi, endpoints identified."""

    m: int
    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if self.m < 8:
            raise ValueError("grid needs at least 8 samples")
        if len(nodes) != self.m + 1:
            raise ValueError("node count must be m + 1")
        if nodes[0] != 0.0 or abs(nodes[-1] - TWO_PI) > 1e-12:
            raise ValueError("grid must run from 0 to 2*pi")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, m: int) -> "CircleGrid":
        return cls(m=m, nodes=np.linspace(0.0, TWO_PI, m + 1))


@dataclass(frozen=True, eq=False)
class LoopTransport:
    """Frames of a subspace family transported once around the circle.

    frames[i] is a d x k column-orthonormal basis at grid.nodes[i];
    closure_matrix expresses frames[-1] in terms of frames[0];
    min_alignment is the smallest consecutive principal-angle cosine met.
    """

    grid: CircleGrid
    frames: list[np.ndarray]
    closure_matrix: np.ndarray
    min_alignment: float


@dataclass(frozen=True)
class BundleInvariants:
    """Rank and orientation data of the asymptotic stable families."""

    rank_plus: int
    rank_minus: int
    w1_plus: int
    w1_minus: int
    w1_index: int
    index: int


def _oriented_frame(subspace_at: Callable[[float], np.ndarray], theta: float, k: int | None):
    raw = np.asarray(subspace_at(theta), dtype=float)
    if raw.ndim != 2:
        raise RankDrop(f"subspace at theta={theta:.6f} is not a d x k frame")
    if k is not None and raw.shape[1] != k:
        raise RankDrop(
            f"subspace rank changed to {raw.shape[1]} (expected {k}) at theta={theta:.6f}"
        )
    try:
        return polar_orthonormalize(raw)
    except NumericallySingular as exc:
        raise RankDrop(f"frame at theta={theta:.6f} is rank deficient") from exc


def _transport_step(
    subspace_at: Callable[[float], np.ndarray],
    current: np.ndarray,
    theta_from: float,
    theta_to: float,
    alignment_floor: float,
    max_refinements: int,
    visited: list | None = None,
    depth: int = 0,
) -> np.ndarray:
    """Carry the orthonormal frame current from the subspace at theta_from
    to the one at theta_to: project onto the target, then polar-correct.

    While the smallest principal-angle cosine of consecutive subspaces is
    below alignment_floor the interval is bisected, up to max_refinements
    levels.  Each node reached is appended to visited as (theta, frame,
    cosine), in order.
    """
    k = current.shape[1]
    target = _oriented_frame(subspace_at, theta_to, k)
    cosine = float(np.linalg.svd(current.T @ target, compute_uv=False)[-1]) if k else 1.0
    if cosine < alignment_floor:
        if depth >= max_refinements:
            raise AlignmentFailure(
                f"subspaces misaligned (cos={cosine:.3f}) on "
                f"[{theta_from:.6f}, {theta_to:.6f}] after {depth} bisections"
            )
        mid = 0.5 * (theta_from + theta_to)
        rest = (alignment_floor, max_refinements, visited, depth + 1)
        halfway = _transport_step(subspace_at, current, theta_from, mid, *rest)
        return _transport_step(subspace_at, halfway, mid, theta_to, *rest)
    frame = polar_orthonormalize(target @ (target.T @ current))
    if visited is not None:
        visited.append((theta_to, frame, cosine))
    return frame


def transport_frames(
    subspace_at: Callable[[float], np.ndarray],
    grid: CircleGrid,
    alignment_floor: float = DEFAULT_ALIGNMENT_FLOOR,
    max_refinements: int = DEFAULT_MAX_REFINEMENTS,
) -> LoopTransport:
    """Transport a frame of subspace_at(0) around the circle.

    Each grid interval is one _transport_step (project, polar-correct,
    bisect while misaligned); the refined nodes become part of the
    returned grid.
    """
    visited = [(float(grid.nodes[0]), _oriented_frame(subspace_at, grid.nodes[0], None), 1.0)]
    for i in range(grid.m):
        _transport_step(subspace_at, visited[-1][1], float(grid.nodes[i]),
                        float(grid.nodes[i + 1]), alignment_floor, max_refinements, visited)
    nodes, frames, cosines = (list(column) for column in zip(*visited))

    closure = frames[0].T @ frames[-1]
    if np.linalg.norm(frames[0] @ closure - frames[-1]) > 1e-8:
        raise AlignmentFailure(
            "transported frame at 2*pi does not lie in the initial subspace; "
            "the family is not 2*pi-periodic to tolerance"
        )
    out_grid = CircleGrid(m=len(nodes) - 1, nodes=np.array(nodes))
    return LoopTransport(
        grid=out_grid, frames=frames, closure_matrix=closure, min_alignment=min(cosines)
    )


def transport_along_path(
    subspace_at: Callable[[float], np.ndarray],
    frame: np.ndarray,
    theta_from: float,
    theta_to: float,
    alignment_floor: float = DEFAULT_ALIGNMENT_FLOOR,
    max_refinements: int = DEFAULT_MAX_REFINEMENTS,
    max_step: float = 0.2,
) -> np.ndarray:
    """Transport an orthonormal frame along a theta segment (no closure).

    Same _transport_step as transport_frames.  Segments are also capped at
    max_step radians: principal-angle cosines cannot see a half turn of the
    subspace (an antipodal frame is perfectly "aligned"), so only small
    steps keep the transport in the right homotopy class.  Used to keep
    boundary-condition rows continuous when theta moves during bisection or
    continuation.
    """
    k = frame.shape[1]
    if k == 0 or theta_from == theta_to:
        return frame.copy()
    current = np.asarray(frame, dtype=float)
    pieces = max(1, int(math.ceil(abs(theta_to - theta_from) / max_step)))
    nodes = np.linspace(float(theta_from), float(theta_to), pieces + 1)
    for t_from, t_to in zip(nodes[:-1], nodes[1:]):
        current = _transport_step(subspace_at, current, float(t_from), float(t_to),
                                  alignment_floor, max_refinements)
    return current


def w1(transport: LoopTransport) -> int:
    """Orientability sign of the transported family: sign det C.

    +1 exactly when the family admits a closed frame (det C > 0).  Raises
    DegenerateClosure when |det C| is too small to trust the sign.
    """
    det = float(np.linalg.det(transport.closure_matrix))
    if abs(det) < 1e-6:
        raise DegenerateClosure(f"|det C| = {abs(det):.3e}; loop is undersampled")
    return 1 if det > 0 else -1


def index_bundle_invariants(system, grid: CircleGrid, gap_tol: float = 1e-6) -> BundleInvariants:
    """Rank and w1 data of the stable families of a(theta, +inf) and a(theta, -inf).

    Requires the stable dimension of each family to be constant over the
    grid (raises IndexMismatch otherwise).
    """

    def stable_family(limit_fn):
        cache: dict[float, np.ndarray] = {}

        def subspace(theta: float) -> np.ndarray:
            key = float(theta)
            if key not in cache:
                cache[key] = hyperbolic_splitting(limit_fn(key), gap_tol).stable_frame
            return cache[key]

        return subspace

    plus = stable_family(system.a_plus)
    minus = stable_family(system.a_minus)

    ranks_plus = {plus(t).shape[1] for t in grid.nodes}
    ranks_minus = {minus(t).shape[1] for t in grid.nodes}
    if len(ranks_plus) != 1 or len(ranks_minus) != 1:
        raise IndexMismatch(
            f"stable dimension varies over the grid: +inf {sorted(ranks_plus)}, "
            f"-inf {sorted(ranks_minus)}"
        )
    rank_plus = ranks_plus.pop()
    rank_minus = ranks_minus.pop()

    w1_plus = w1(transport_frames(plus, grid))
    w1_minus = w1(transport_frames(minus, grid))
    return BundleInvariants(
        rank_plus=rank_plus,
        rank_minus=rank_minus,
        w1_plus=w1_plus,
        w1_minus=w1_minus,
        w1_index=w1_plus * w1_minus,
        index=rank_plus - rank_minus,
    )
