"""The benchmark's per-layer tracer (perfbench/layertrace.py) against the
library: it imports every module it targets and reads fields of library
results, so a rename it cannot follow must fail here, not in a traced
benchmark run."""
import importlib.util
import math
import sys
from pathlib import Path

import homcont as hc
from homcont import bundles, continuation, detect

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_traces_the_pipeline(paper7_perturbed):
    # install, trace index_bundle_invariants, a parity scan with its
    # localization and a short branch, then uninstall: nothing may raise,
    # the hooks that read result fields must have run, and every patched
    # name must be back
    def patched_names():
        return bundles.transport_frames, detect.scan_parity, continuation.continue_branch

    originals = patched_names()
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        grid = hc.CircleGrid.uniform(16)
        bundles.index_bundle_invariants(paper7_perturbed, grid)
        scan = detect.scan_parity(paper7_perturbed, grid, 20)
        (bracket,) = scan.sign_change_intervals
        candidate = detect.locate_bifurcation(paper7_perturbed, bracket, 20, 1e-6)
        assert abs(candidate.theta_star - math.pi) <= 1e-6
        start = continuation.switch_branch(paper7_perturbed, candidate, 1e-3, 20)
        branch = continuation.continue_branch(start, hc.ContinuationControls(max_steps=5))
        counters = tracer.end_op()
    finally:
        tracer.uninstall()
    assert patched_names() == originals
    assert counters["bundles.transport_frames.calls"] == 4
    assert counters["detect.scan_nodes"] == grid.m + 1
    assert counters["continuation.points"] == len(branch.points) > 1
    assert counters["truncation.banded_jacobian_lu.calls"] > 0
