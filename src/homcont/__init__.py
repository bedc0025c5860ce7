"""Bifurcation invariants and continuation of homoclinic trajectories.

Predicts bifurcation of homoclinic solutions of circle-parametrized
nonautonomous difference equations from the orientability of the asymptotic
stable subspace families, confirms the prediction by determinant-sign
parity scans of truncated linearizations, and follows the resulting
nontrivial branch by pseudo-arclength continuation.
"""

import os as _os

# The factorizations here are all small (a few hundred rows); threaded BLAS
# only adds synchronization overhead at that size.  Applied only if the user
# has not configured the thread count, and only if numpy is not loaded yet.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bundles import BundleInvariants, CircleGrid, LoopTransport, index_bundle_invariants, transport_frames, w1
from .continuation import (
    AffineConstraint,
    Branch,
    BranchPoint,
    ContinuationControls,
    continue_branch,
    newton_correct,
    switch_branch,
)
from .detect import BifurcationCandidate, ParityScan, det_sign, kernel_vector, locate_bifurcation, scan_parity
from .spectral import (
    HyperbolicSplitting,
    SpectralProjectors,
    analytic_kernel_basis,
    halfline_green_solve,
    hyperbolic_splitting,
    spectral_projectors,
)
from .systems import (
    HypothesisReport,
    Paper7Config,
    SystemFamily,
    check_hypotheses,
    direct_sum,
    linear_family,
    paper7_family,
)
from .truncation import (
    TruncatedProblem,
    adapt_window,
    assemble_jacobian,
    assemble_residual,
    tail_mass,
    truncated_problem,
)

__version__ = "0.1.0"

__all__ = [
    "AffineConstraint",
    "BifurcationCandidate",
    "Branch",
    "BranchPoint",
    "BundleInvariants",
    "CircleGrid",
    "ContinuationControls",
    "HyperbolicSplitting",
    "HypothesisReport",
    "LoopTransport",
    "Paper7Config",
    "ParityScan",
    "SpectralProjectors",
    "SystemFamily",
    "TruncatedProblem",
    "adapt_window",
    "analytic_kernel_basis",
    "assemble_jacobian",
    "assemble_residual",
    "check_hypotheses",
    "continue_branch",
    "det_sign",
    "direct_sum",
    "halfline_green_solve",
    "hyperbolic_splitting",
    "index_bundle_invariants",
    "kernel_vector",
    "linear_family",
    "locate_bifurcation",
    "newton_correct",
    "paper7_family",
    "scan_parity",
    "spectral_projectors",
    "switch_branch",
    "tail_mass",
    "transport_frames",
    "truncated_problem",
    "w1",
]
