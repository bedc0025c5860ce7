"""Per-layer trace of homcont, installed from outside the library.

The tracer replaces the boundary functions of each homcont module, and the
third-party linear-algebra entry points homcont reaches through module
attributes, with wrappers that record spans (name, start, end, parent) in
memory.  Every reference a homcont module holds to a target is replaced,
including functions imported by name and values stored in module-level
dicts such as cli.BUILTIN_SYSTEMS.  A target that does not exist is
reported as absent.  uninstall() puts every original back.

Span names are "<layer>.<function>"; third-party calls are named by the
bucket their matrix size puts them in.  A window-size matrix has at least
2*N*d rows, N and d taken from the window problem assembled most recently
in the op; smaller ones are frame-size ("linalg.small").
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# Boundary functions per homcont module.  Private names are the solver
# paths a later change may rename or delete; they then show up as absent.
HOMCONT_TARGETS = {
    "spectral": ["hyperbolic_splitting", "spectral_projectors", "halfline_green_solve",
                 "analytic_kernel_basis"],
    "bundles": ["transport_frames", "transport_along_path", "index_bundle_invariants", "w1"],
    "systems": ["paper7_family", "linear_family", "direct_sum", "linearization_at_zero",
                "check_hypotheses"],
    "truncation": ["truncated_problem", "complement_families", "assemble_residual",
                   "assemble_jacobian", "assemble_dresidual_dtheta", "banded_jacobian_lu",
                   "adapt_window", "tail_mass", "embed_window"],
    "detect": ["scan_parity", "locate_bifurcation", "kernel_vector", "det_sign"],
    "continuation": ["newton_correct", "switch_branch", "continue_branch", "_newton",
                     "_solve_fixed", "_solve_augmented", "_augmented_dense",
                     "_augmented_sparse", "_augmented_det_sign", "_initial_tangent"],
    "_linalg": ["spectral_norm", "det_sign_dense", "smallest_singular_pair",
                "orth_complement", "polar_orthonormalize"],
    "cli": ["main", "build_config", "load_config_file", "cmd_bundles", "cmd_detect",
            "cmd_branch", "_emit_json", "_emit_csv"],
}

# Factories whose SystemFamily results are handed back instrumented, so that
# f, dfdx and the limit maps are counted wherever the family is used.
FAMILY_FACTORIES = {"paper7_family", "linear_family"}

# Third-party entry points: (module, attribute) -> classifier key.
EXTERNAL_TARGETS = {
    ("numpy.linalg", "svd"): "svd",
    ("numpy.linalg", "solve"): "solve",
    ("scipy.linalg", "schur"): "schur",
    ("scipy.linalg", "lu_factor"): "lu_factor",
    ("scipy.linalg.lapack", "dgbtrf"): "dgbtrf",
    ("scipy.linalg.lapack", "dgbtrs"): "dgbtrs",
    ("scipy.sparse.linalg", "splu"): "splu",
}

# Reported per op.  "<span>.calls" and "<span>.s" are read from the spans,
# "<layer>.self_s" from their self times, "trace.*" by the caller, the rest
# from counters.
PER_LAYER_UNITS = {
    "linalg.svd_window.calls": "count",
    "linalg.svd_window.s": "s",
    "linalg.spectral_norm.calls": "count",
    "linalg.spectral_norm.s": "s",
    "linalg.lu_window.calls": "count",
    "linalg.lu_window.s": "s",
    "linalg.banded_lu.calls": "count",
    "linalg.banded_lu.s": "s",
    "linalg.sparse_lu.calls": "count",
    "linalg.window_flops_computed": "flop",
    "linalg.small.calls": "count",
    "linalg.small.s": "s",
    "linalg.self_s": "s",
    "systems.f.calls": "count",
    "systems.dfdx.calls": "count",
    "systems.limit.calls": "count",
    "systems.self_s": "s",
    "truncation.assemble_residual.calls": "count",
    "truncation.assemble_jacobian.calls": "count",
    "truncation.assemble_dresidual_dtheta.calls": "count",
    "truncation.banded_jacobian_lu.calls": "count",
    "truncation.self_s": "s",
    "spectral.hyperbolic_splitting.calls": "count",
    "spectral.self_s": "s",
    "bundles.transport_frames.calls": "count",
    "bundles.transport_along_path.calls": "count",
    "bundles.refined_nodes": "count",
    "bundles.self_s": "s",
    "detect.scan_nodes": "count",
    "detect.jacobians": "count",
    "detect.self_s": "s",
    "continuation.points": "count",
    "continuation.window_enlargements": "count",
    "continuation.residuals_per_point": "count",
    "continuation.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_targets": "count",
}


# Standard LAPACK operation counts (Golub & Van Loan), labelled as computed.
def _svd_flops(m: int, n: int, compute_uv: bool, full_matrices: bool = True) -> float:
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    if not full_matrices:
        return 14.0 * m * n * n + 8.0 * n ** 3
    return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3


def _lu_flops(m: int, n: int) -> float:
    m, n = max(m, n), min(m, n)
    return float(m) * n * n - n ** 3 / 3.0


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.absent: list[str] = []
        self._patches: list[tuple] = []
        self.active = False
        self._reset()

    # -- span recording --------------------------------------------------

    def _reset(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._window_rows = float("inf")
        self.counters: Counter = Counter()

    def _call(self, name, fn, args, kwargs):
        spans = self.spans
        parent = self._stack[-1] if self._stack else -1
        idx = len(spans)
        span = [name, 0.0, 0.0, parent]
        spans.append(span)
        self._stack.append(idx)
        self._open[name] += 1
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._open[name] -= 1

    def begin_op(self):
        self._reset()
        self.active = True

    def end_op(self) -> dict:
        """Stop recording and reduce the op's spans to per-layer sums."""
        self.active = False
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for i, (name, t0, t1, _) in enumerate(spans):
            calls[name] += 1
            inclusive[name] += t1 - t0
            self_time[name.split(".", 1)[0]] += (t1 - t0) - child[i]
        out = dict(self.counters)
        for key in PER_LAYER_UNITS:
            if key.endswith(".self_s"):
                out[key] = self_time[key.split(".", 1)[0]]
            elif key.endswith(".calls"):
                out[key] = calls[key[:-len(".calls")]]
            elif key.endswith(".s"):
                out[key] = inclusive[key[:-len(".s")]]
        return out

    # -- patching -----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper, extra_modules=()):
        """Point every reference to original at wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "homcont" or n.startswith("homcont."))]
        for mod in list(extra_modules) + modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is original:
                            self._patches.append((value, key, item))
                            value[key] = wrapper
                        elif isinstance(item, tuple) and any(x is original for x in item):
                            self._patches.append((value, key, item))
                            value[key] = tuple(wrapper if x is original else x for x in item)

    def install(self):
        for modname, names in HOMCONT_TARGETS.items():
            mod = importlib.import_module(f"homcont.{modname}")
            layer = modname.lstrip("_")
            for attr in names:
                original = getattr(mod, attr, None)
                if not callable(original):
                    self.absent.append(f"{modname}.{attr}")
                    continue
                self._replace_everywhere(original, self._wrap_homcont(layer, attr, original))
        for (modname, attr), kind in EXTERNAL_TARGETS.items():
            mod = importlib.import_module(modname)
            original = getattr(mod, attr, None)
            if not callable(original):
                self.absent.append(f"{modname}.{attr}")
                continue
            self._replace_everywhere(original, self._wrap_external(kind, original), [mod])

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap_homcont(self, layer, attr, fn):
        name = f"{layer}.{attr}"
        hook = getattr(self, f"_after_{layer}_{attr.lstrip('_')}", None)
        notes_window = attr.startswith("assemble_") or attr == "banded_jacobian_lu"
        makes_family = attr in FAMILY_FACTORIES
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if notes_window:
                p = args[0] if args else kwargs["p"]
                tracer._window_rows = 2 * p.N * p.d
            result = tracer._call(name, fn, args, kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            if makes_family:
                result = tracer.instrument_family(result)
            return result

        return wrapper

    def _wrap_external(self, kind, fn):
        tracer = self
        classify = getattr(self, f"_classify_{kind}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name, flops = classify(args, kwargs)
            tracer.counters["linalg.window_flops_computed"] += flops
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    def _is_window(self, shape) -> bool:
        return len(shape) == 2 and shape[0] >= self._window_rows

    def _classify_svd(self, args, kwargs):
        shape = _shape(args[0] if args else kwargs["a"])
        if not self._is_window(shape):
            return "linalg.small", 0.0
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        return "linalg.svd_window", _svd_flops(shape[0], shape[1], compute_uv, full)

    def _classify_solve(self, args, kwargs):
        shape = _shape(args[0] if args else kwargs["a"])
        if not self._is_window(shape):
            return "linalg.small", 0.0
        b = _shape(args[1] if len(args) > 1 else kwargs["b"])
        nrhs = b[1] if len(b) > 1 else 1
        return "linalg.lu_window", _lu_flops(*shape) + 2.0 * shape[0] ** 2 * nrhs

    def _classify_schur(self, args, kwargs):
        return "linalg.small", 0.0

    def _classify_lu_factor(self, args, kwargs):
        shape = _shape(args[0] if args else kwargs["a"])
        if not self._is_window(shape):
            return "linalg.small", 0.0
        return "linalg.lu_window", _lu_flops(*shape)

    def _classify_dgbtrf(self, args, kwargs):
        n = _shape(args[0] if args else kwargs["ab"])[1]
        kl = kwargs.get("kl", args[1] if len(args) > 1 else 0)
        ku = kwargs.get("ku", args[2] if len(args) > 2 else 0)
        return "linalg.banded_lu", 2.0 * n * kl * ku

    def _classify_dgbtrs(self, args, kwargs):
        return "linalg.banded_solve", 0.0

    def _classify_splu(self, args, kwargs):
        return "linalg.sparse_lu", 0.0

    # -- counters read from arguments and results ----------------------------

    def _after_linalg_spectral_norm(self, args, kwargs, result):
        shape = _shape(args[0] if args else kwargs["a"])
        if self._is_window(shape):
            self.counters["linalg.window_flops_computed"] += _svd_flops(*shape, False)

    def _after_bundles_transport_frames(self, args, kwargs, result):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        self.counters["bundles.refined_nodes"] += result.grid.m - grid.m

    def _after_detect_scan_parity(self, args, kwargs, result):
        self.counters["detect.scan_nodes"] += len(result.grid.nodes)

    def _after_truncation_assemble_jacobian(self, args, kwargs, result):
        if self._open["detect.scan_parity"] or self._open["detect.locate_bifurcation"]:
            self.counters["detect.jacobians"] += 1

    def _after_truncation_assemble_residual(self, args, kwargs, result):
        if self._open["continuation.continue_branch"]:
            self.counters["continuation.residuals"] += 1

    def _after_truncation_adapt_window(self, args, kwargs, result):
        p = args[0] if args else kwargs["p"]
        if self._open["continuation.continue_branch"] and result[0].N > p.N:
            self.counters["continuation.window_enlargements"] += 1

    def _after_continuation_continue_branch(self, args, kwargs, result):
        self.counters["continuation.points"] += len(result.points)

    # -- system families ----------------------------------------------------

    def instrument_family(self, family):
        """Copy of a SystemFamily whose f, dfdx and limit maps record spans."""
        return dataclasses.replace(
            family,
            f=self._wrap_callable("systems.f", family.f),
            dfdx=self._wrap_callable("systems.dfdx", family.dfdx),
            a_plus=self._wrap_callable("systems.limit", family.a_plus),
            a_minus=self._wrap_callable("systems.limit", family.a_minus),
        )

    def _wrap_callable(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs)

        return wrapper


def _shape(a) -> tuple:
    return tuple(getattr(a, "shape", ()))
