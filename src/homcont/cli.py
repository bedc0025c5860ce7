"""Command-line front end.

Subcommands: bundles (asymptotic invariants and bifurcation prediction),
detect (parity scan and candidate localization), branch (switching and
continuation from a kernel crossing), check (assumption diagnostics) and
verify-paper (the built-in family acceptance table).

Structured results are JSON (printed to stdout, and written under --out
when given); per-node and per-step series are CSV with a header row and
floats at 17 significant digits.  All randomized trials draw from the
configured seed, so identical config + seed gives byte-identical outputs.

Exit codes: 0 success, 2 configuration error, 3 spectral failure,
4 detection inconsistency, 5 degenerate branch, 6 hypothesis failure.
Codes 2-5 follow the class of the library error (EXIT_CODES), whichever
command raised it; verify-paper exits 1 when a row fails.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bundles import CircleGrid, index_bundle_invariants
from .continuation import ContinuationControls, continue_branch, switch_branch
from .detect import locate_bifurcation, scan_parity
from .errors import (
    AlignmentFailure,
    DegenerateClosure,
    DegenerateKernel,
    HomcontError,
    InconsistentParity,
    IndexMismatch,
    InvalidConfig,
    MaxIterations,
    NoConvergence,
    NoSignChange,
    NotHyperbolic,
    RankDrop,
    Singular,
    SingularJacobian,
    StartInvalid,
    WindowOverflow,
)
from .spectral import analytic_kernel_basis
from .systems import Paper7Config, SystemFamily, check_hypotheses, paper7_family

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SPECTRAL = 3
EXIT_DETECT = 4
EXIT_BRANCH = 5
EXIT_HYPOTHESES = 6

# Exit code -> the library errors that end a command with it.  Errors of
# other classes propagate.
EXIT_CODES = {
    EXIT_CONFIG: (InvalidConfig,),
    EXIT_SPECTRAL: (NotHyperbolic, RankDrop, IndexMismatch, DegenerateClosure, Singular),
    EXIT_DETECT: (InconsistentParity, AlignmentFailure, NoSignChange, MaxIterations),
    EXIT_BRANCH: (DegenerateKernel, NoConvergence, SingularJacobian, StartInvalid, WindowOverflow),
}


@dataclass
class RunConfig:
    """Resolved run configuration (file values overridden by CLI flags)."""

    system: SystemFamily
    system_name: str = "paper7"
    params: Paper7Config | None = None
    grid_m: int = 64
    window_n: int = 40
    gap_tol: float = 1e-6
    kernel_tol: float = 1e-8
    newton_tol: float = 1e-10
    tail_tol: float = 1e-8
    tol_theta: float = 1e-6
    seed: int = 0
    s0: float = 5e-4
    ds0: float = 1e-3
    ds_min: float = 1e-8
    ds_max: float = 0.01
    max_steps: int = 400
    amplitude_cap: float = 0.5
    check_radius: float = 2.0
    out_dir: str | None = None

    def __post_init__(self):
        if self.grid_m < 8:
            raise InvalidConfig("grid_m: must be at least 8")
        if self.window_n < 10:
            raise InvalidConfig("window_n: must be at least 10")
        for name in ("gap_tol", "kernel_tol", "newton_tol", "tail_tol", "tol_theta", "s0"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise InvalidConfig(f"tolerances.{name}: must be a positive number, got {v!r}")
        if not (isinstance(self.check_radius, (int, float)) and math.isfinite(self.check_radius)
                and self.check_radius > 0):
            raise InvalidConfig(f"check_radius: must be a positive number, got {self.check_radius!r}")
        self.continuation_controls()

    def continuation_controls(self) -> ContinuationControls:
        try:
            return ContinuationControls(
                ds0=self.ds0,
                ds_min=self.ds_min,
                ds_max=self.ds_max,
                max_steps=self.max_steps,
                amplitude_cap=self.amplitude_cap,
                tail_tol=self.tail_tol,
                min_norm=0.5 * self.s0,
            )
        except InvalidConfig as exc:
            raise InvalidConfig(f"continuation.{exc}") from exc


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------

BUILTIN_SYSTEMS = {"paper7": (Paper7Config, paper7_family)}

_TOLERANCE_KEYS = ("gap_tol", "kernel_tol", "newton_tol", "tail_tol", "tol_theta")
_CONTINUATION_KEYS = ("s0", "ds0", "ds_min", "ds_max", "max_steps", "amplitude_cap")


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        raise InvalidConfig(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"{path}: expected a number, got {value!r}")
    return float(value)


def _expect_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"{path}: expected an integer, got {value!r}")
    return value


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidConfig(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfig(
            f"config: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return _expect_mapping(raw, "config")


def build_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a raw config mapping and apply CLI overrides.

    Raises InvalidConfig with a path-qualified message on the first
    violation encountered.
    """
    known = {"system", "grid_m", "window_n", "tolerances", "seed", "continuation",
             "check_radius", "out"}
    for key in raw:
        if key not in known:
            raise InvalidConfig(f"config: unknown field {key!r}")

    fields: dict = {}
    system_raw = _expect_mapping(raw.get("system", {"builtin": "paper7"}), "system")
    for key in system_raw:
        if key not in ("builtin", "params"):
            raise InvalidConfig(f"system: unknown field {key!r}")
    name = system_raw.get("builtin", "paper7")
    if name not in BUILTIN_SYSTEMS:
        raise InvalidConfig(
            f"system.builtin: unknown system {name!r}; available: {sorted(BUILTIN_SYSTEMS)}"
        )
    cfg_cls, factory = BUILTIN_SYSTEMS[name]
    params_raw = _expect_mapping(system_raw.get("params", {}), "system.params")
    valid_params = {f.name for f in dataclasses.fields(cfg_cls)}
    for key, value in params_raw.items():
        if key not in valid_params:
            raise InvalidConfig(f"system.params.{key}: unknown parameter")
        _expect_number(value, f"system.params.{key}")
    try:
        params = cfg_cls(**{k: float(v) for k, v in params_raw.items()})
    except InvalidConfig as exc:
        raise InvalidConfig(f"system.params: {exc}") from exc

    if "grid_m" in raw:
        fields["grid_m"] = _expect_int(raw["grid_m"], "grid_m")
    if "window_n" in raw:
        fields["window_n"] = _expect_int(raw["window_n"], "window_n")
    if "seed" in raw:
        fields["seed"] = _expect_int(raw["seed"], "seed")
    if "check_radius" in raw:
        fields["check_radius"] = _expect_number(raw["check_radius"], "check_radius")
    if "out" in raw:
        if not isinstance(raw["out"], str):
            raise InvalidConfig("out: expected a string path")
        fields["out_dir"] = raw["out"]

    tol_raw = _expect_mapping(raw.get("tolerances", {}), "tolerances")
    for key, value in tol_raw.items():
        if key not in _TOLERANCE_KEYS:
            raise InvalidConfig(f"tolerances.{key}: unknown tolerance")
        fields[key] = _expect_number(value, f"tolerances.{key}")

    cont_raw = _expect_mapping(raw.get("continuation", {}), "continuation")
    for key, value in cont_raw.items():
        if key not in _CONTINUATION_KEYS:
            raise InvalidConfig(f"continuation.{key}: unknown field")
        if key == "max_steps":
            fields[key] = _expect_int(value, "continuation.max_steps")
        else:
            fields[key] = _expect_number(value, f"continuation.{key}")

    for key, value in (overrides or {}).items():
        if value is not None:
            fields[key] = value

    return RunConfig(system=factory(params), system_name=name, params=params, **fields)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _emit_json(config: RunConfig, filename: str, payload: dict):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(text)


def _emit_csv(config: RunConfig, filename: str, header: list[str], rows: list[list]):
    if not config.out_dir:
        log.info("no --out directory; skipping %s", filename)
        return
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt17(v) if isinstance(v, float) else str(v) for v in row))
    (out / filename).write_text("\n".join(lines) + "\n")


def _report_error(exc: Exception) -> None:
    sys.stderr.write(f"error: {exc}\n")


def _exits(command):
    """Run command; a library error listed in EXIT_CODES is reported on
    stderr and its exit code returned."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except HomcontError as exc:
            for code, classes in EXIT_CODES.items():
                if isinstance(exc, classes):
                    _report_error(exc)
                    return code
            raise

    return run


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@_exits
def cmd_bundles(config: RunConfig) -> int:
    """Asymptotic ranks, orientation signs and the bifurcation prediction."""
    grid = CircleGrid.uniform(config.grid_m)
    inv = index_bundle_invariants(config.system, grid, config.gap_tol)
    payload = {
        "rank_plus": inv.rank_plus,
        "rank_minus": inv.rank_minus,
        "index": inv.index,
        "w1_plus": inv.w1_plus,
        "w1_minus": inv.w1_minus,
        "w1_index": inv.w1_index,
        "predicted_bifurcation": inv.w1_plus != inv.w1_minus,
    }
    _emit_json(config, "bundles.json", payload)
    return EXIT_OK


@_exits
def cmd_detect(config: RunConfig) -> int:
    """Parity scan plus localization of every sign-change interval."""
    grid = CircleGrid.uniform(config.grid_m)
    scan = scan_parity(
        config.system, grid, config.window_n,
        gap_tol=config.gap_tol, kernel_tol=config.kernel_tol,
    )
    candidates = []
    for kind, intervals in (
        ("sign_change", scan.sign_change_intervals),
        ("smin_dip", scan.dip_intervals),
    ):
        for interval in intervals:
            cand = locate_bifurcation(
                config.system, interval, config.window_n, config.tol_theta,
                gap_tol=config.gap_tol, kernel_tol=config.kernel_tol,
            )
            candidates.append((kind, cand))

    _emit_csv(
        config, "detect_nodes.csv", ["theta", "det_sign", "smin"],
        [[float(t), int(s), float(sm)] for t, s, sm in
         zip(scan.grid.nodes, scan.det_signs, scan.smin)],
    )
    payload = {
        "loop_parity": scan.loop_parity,
        "nodes": scan.grid.m,
        "sign_change_intervals": [list(iv) for iv in scan.sign_change_intervals],
        "dip_intervals": [list(iv) for iv in scan.dip_intervals],
        "candidates": [
            {
                "kind": kind,
                "theta_star": c.theta_star,
                "smin_at_star": c.smin_at_star,
                "bracket": list(c.bracket),
            }
            for kind, c in candidates
        ],
    }
    _emit_json(config, "detect.json", payload)
    return EXIT_OK


@_exits
def cmd_branch(config: RunConfig, theta_star: float) -> int:
    """Switch to and continue the nontrivial branch near theta_star."""
    if config.params is not None and config.params.coupling == 0.0:
        _report_error(
            HomcontError("linear family: no nonlinear branch (the kernel line is "
                         "not an isolated homoclinic)")
        )
        return EXIT_BRANCH

    bracket = (theta_star - 0.5, theta_star + 0.5)
    try:
        cand = locate_bifurcation(
            config.system, bracket, config.window_n, config.tol_theta,
            gap_tol=config.gap_tol, kernel_tol=config.kernel_tol,
        )
    except EXIT_CODES[EXIT_DETECT] as exc:
        _report_error(HomcontError(f"no bifurcation candidate near theta={theta_star}: {exc}"))
        return EXIT_DETECT

    start = switch_branch(
        config.system, cand, config.s0, config.window_n,
        newton_tol=config.newton_tol, gap_tol=config.gap_tol,
    )
    branch = continue_branch(
        config.system, start, config.continuation_controls(), origin=cand,
        amplitude_ref=cand.kernel_vector,
        newton_tol=config.newton_tol, gap_tol=config.gap_tol,
    )

    rows = [
        [step, pt.theta, pt.l2_norm, pt.sup_norm, pt.amplitude,
         pt.residual_norm, pt.det_sign, pt.N]
        for step, pt in enumerate(branch.points)
    ]
    _emit_csv(
        config, "branch.csv",
        ["step", "theta", "l2_norm", "sup_norm", "amplitude", "residual", "det_sign", "N"],
        rows,
    )
    payload = {"points": len(branch.points), "stop_reason": branch.stop_reason}
    _emit_json(config, "branch.json", payload)
    return EXIT_OK if branch.points else EXIT_BRANCH


@_exits
def cmd_check(config: RunConfig) -> int:
    """Assumption diagnostics report."""
    grid = CircleGrid.uniform(config.grid_m)
    report = check_hypotheses(
        config.system, grid, config.window_n, config.check_radius,
        seed=config.seed, gap_tol=config.gap_tol,
    )
    payload = {
        c.name.lower(): {"status": c.status, "evidence": c.evidence}
        for c in report.checks()
    }
    _emit_json(config, "check.json", payload)
    return EXIT_HYPOTHESES if report.any_fail else EXIT_OK


@_exits
def cmd_verify_paper(config: RunConfig) -> int:
    """Acceptance table for the built-in family."""
    rows: list[tuple[str, bool, str]] = []
    system = config.system

    t0 = time.perf_counter()
    inv64 = index_bundle_invariants(system, CircleGrid.uniform(64), config.gap_tol)
    elapsed = time.perf_counter() - t0
    stable = all(
        index_bundle_invariants(system, CircleGrid.uniform(m), config.gap_tol) == inv64
        for m in (128, 256)
    )
    ok1 = (
        inv64.index == 0 and inv64.w1_plus == -1 and inv64.w1_minus == 1
        and inv64.w1_index == -1 and stable and elapsed < 1.0
    )
    rows.append(
        ("bundle invariants (index 0, w1 = -1/+1/-1, m=64/128/256)", ok1,
         f"index={inv64.index} w1=({inv64.w1_plus},{inv64.w1_minus}) "
         f"t={elapsed:.3f}s stable={stable}")
    )

    try:
        scan = scan_parity(
            system, CircleGrid.uniform(config.grid_m), config.window_n,
            gap_tol=config.gap_tol, kernel_tol=config.kernel_tol,
        )
        ok2 = scan.loop_parity == inv64.w1_index
        detail2 = f"loop_parity={scan.loop_parity} w1_index={inv64.w1_index}"
    except HomcontError as exc:
        ok2, detail2 = False, str(exc)
    rows.append(("loop parity equals orientation product", ok2, detail2))

    params = config.params if config.params is not None else Paper7Config()
    linear_cfg = Paper7Config(
        alpha=params.alpha, beta=params.beta,
        coupling=0.0, envelope_scale=params.envelope_scale,
    )
    linear_system = paper7_family(linear_cfg)
    try:
        cand = locate_bifurcation(
            linear_system, (math.pi - 0.5, math.pi + 0.5),
            config.window_n, config.tol_theta,
            gap_tol=config.gap_tol, kernel_tol=config.kernel_tol,
        )
        seqs = analytic_kernel_basis(
            linear_system.a_plus(math.pi), linear_system.a_minus(math.pi), config.window_n
        )
        oracle = seqs[0].ravel()
        oracle = oracle / np.linalg.norm(oracle)
        cosine = abs(float(oracle @ cand.kernel_vector))
        ok3 = abs(cand.theta_star - math.pi) <= config.tol_theta and cosine >= 1.0 - 1e-8
        detail3 = f"|theta*-pi|={abs(cand.theta_star - math.pi):.2e} |cos|={cosine:.12f}"
    except HomcontError as exc:
        ok3, detail3 = False, str(exc)
    rows.append(("kernel crossing at theta=pi with analytic kernel match", ok3, detail3))

    width = max(len(r[0]) for r in rows)
    for name, ok, detail in rows:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}\n")
    return EXIT_OK if all(r[1] for r in rows) else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _setup_logging():
    name = os.environ.get("HOMOCLINIC_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(level)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcont",
        description="Bifurcation invariants and continuation of homoclinic trajectories",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--out", dest="out_dir", metavar="DIR",
                        help="output directory for JSON/CSV files")
    common.add_argument("--grid-m", type=int, help="circle sample count (>= 8)")
    common.add_argument("--window-n", type=int, help="window half-width (>= 10)")
    common.add_argument("--seed", type=int, help="seed for randomized trials")
    common.add_argument("--gap-tol", type=float, help="hyperbolicity gap tolerance")
    common.add_argument("--kernel-tol", type=float, help="relative kernel threshold")
    common.add_argument("--newton-tol", type=float, help="Newton residual tolerance")
    common.add_argument("--tail-tol", type=float, help="window tail tolerance")
    common.add_argument("--tol-theta", type=float, help="bifurcation bracket tolerance")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bundles", parents=[common],
                   help="asymptotic bundle invariants and bifurcation prediction")
    sub.add_parser("detect", parents=[common],
                   help="parity scan and bifurcation candidates")
    branch = sub.add_parser("branch", parents=[common],
                            help="switch and continue the nontrivial branch")
    branch.add_argument("--theta-star", type=float, required=True,
                        help="parameter angle near the bifurcation")
    branch.add_argument("--s0", type=float, help="branch-switching amplitude")
    sub.add_parser("check", parents=[common], help="assumption diagnostics")
    sub.add_parser("verify-paper", parents=[common],
                   help="acceptance table for the built-in family")
    return parser


@_exits
def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields}
    raw = load_config_file(args.config) if args.config else {}
    config = build_config(raw, overrides)

    if args.command == "bundles":
        return cmd_bundles(config)
    if args.command == "detect":
        return cmd_detect(config)
    if args.command == "branch":
        return cmd_branch(config, args.theta_star)
    if args.command == "check":
        return cmd_check(config)
    if args.command == "verify-paper":
        return cmd_verify_paper(config)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
