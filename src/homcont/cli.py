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
from .continuation import DEFAULT_NEWTON_TOL, ContinuationControls, continue_branch, switch_branch
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
from .spectral import DEFAULT_GAP_TOL, analytic_kernel_basis
from .systems import Paper7Config, SystemFamily, check_hypotheses, paper7_family
from .truncation import DEFAULT_KERNEL_TOL

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
    """Resolved run configuration (file values overridden by CLI flags);
    the defaults of the continuation settings are the library's."""

    system: SystemFamily
    params: Paper7Config | None = None
    grid_m: int = 64
    window_n: int = 40
    gap_tol: float = DEFAULT_GAP_TOL
    kernel_tol: float = DEFAULT_KERNEL_TOL
    newton_tol: float = DEFAULT_NEWTON_TOL
    tail_tol: float = ContinuationControls.tail_tol
    tol_theta: float = 1e-6
    seed: int = 0
    s0: float = 5e-4
    ds0: float = ContinuationControls.ds0
    ds_min: float = ContinuationControls.ds_min
    ds_max: float = ContinuationControls.ds_max
    max_steps: int = ContinuationControls.max_steps
    amplitude_cap: float = ContinuationControls.amplitude_cap
    check_radius: float = 2.0
    out_dir: str | None = None

    def __post_init__(self):
        for path, (name, kind, least) in _SCHEMA.items():
            if name is None or kind is str:
                continue
            value = _expect(getattr(self, name), kind, path)
            if kind is int and value < least:
                raise InvalidConfig(f"{path}: must be at least {least}, got {value!r}")
            if kind is float and not (math.isfinite(value) and value > 0):
                raise InvalidConfig(f"{path}: must be finite and positive, got {value!r}")
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

# The config schema: JSON path -> (RunConfig field, kind, least value).
# Ingestion accepts exactly these paths, each holding a value of its kind.
# RunConfig checks the range of every int and float field: an int must be
# at least its least value, a float finite and positive.  The system rows
# have no RunConfig field: build_config turns them into the family and its
# config, whose class checks the parameter ranges.
_SCHEMA = {
    "system.builtin": (None, str, None),
    **{
        f"system.params.{f.name}": (None, float, None)
        for cfg_cls, _ in BUILTIN_SYSTEMS.values() for f in dataclasses.fields(cfg_cls)
    },
    "grid_m": ("grid_m", int, 8),
    "window_n": ("window_n", int, 10),
    "tolerances.gap_tol": ("gap_tol", float, None),
    "tolerances.kernel_tol": ("kernel_tol", float, None),
    "tolerances.newton_tol": ("newton_tol", float, None),
    "tolerances.tail_tol": ("tail_tol", float, None),
    "tolerances.tol_theta": ("tol_theta", float, None),
    "seed": ("seed", int, 0),
    "continuation.s0": ("s0", float, None),
    "continuation.ds0": ("ds0", float, None),
    "continuation.ds_min": ("ds_min", float, None),
    "continuation.ds_max": ("ds_max", float, None),
    "continuation.max_steps": ("max_steps", int, 0),
    "continuation.amplitude_cap": ("amplitude_cap", float, None),
    "check_radius": ("check_radius", float, None),
    "out": ("out_dir", str, None),
}

_KIND_NAMES = {dict: "an object", str: "a string", int: "an integer", float: "a number"}


def _expect(value, kind, path):
    """value as kind (an int is also a number), or InvalidConfig."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise InvalidConfig(f"{path}: expected {_KIND_NAMES[kind]}, got {value!r}")
    return float(value) if kind is float else value


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
    return _expect(raw, dict, "config")


def _ingest(raw: dict, prefix: str, values: dict) -> None:
    """Check the object raw at prefix against _SCHEMA; collect its leaves
    into values by JSON path."""
    for key, value in raw.items():
        path = prefix + key
        if "." in key or not any(p == path or p.startswith(path + ".") for p in _SCHEMA):
            raise InvalidConfig(f"{path}: unknown field")
        if path in _SCHEMA:
            values[path] = _expect(value, _SCHEMA[path][1], path)
        else:
            _ingest(_expect(value, dict, path), path + ".", values)


def build_config(raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate a raw config mapping and apply CLI overrides.

    Raises InvalidConfig with a path-qualified message on the first
    violation encountered.
    """
    values: dict = {}
    _ingest(raw, "", values)
    name = values.pop("system.builtin", "paper7")
    if name not in BUILTIN_SYSTEMS:
        raise InvalidConfig(
            f"system.builtin: must be one of {sorted(BUILTIN_SYSTEMS)}, got {name!r}"
        )
    cfg_cls, factory = BUILTIN_SYSTEMS[name]

    given = {p.rpartition(".")[2]: v for p, v in values.items() if _SCHEMA[p][0] is None}
    fields = {_SCHEMA[p][0]: v for p, v in values.items() if _SCHEMA[p][0] is not None}
    try:
        params = cfg_cls(**given)
    except InvalidConfig as exc:
        raise InvalidConfig(f"system.params.{exc}") from exc

    fields.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return RunConfig(system=factory(params), params=params, **fields)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _write_out(out_dir: str, filename: str, text: str):
    """Write text to out_dir/filename; InvalidConfig if it cannot."""
    path = Path(out_dir) / filename
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise InvalidConfig(f"out: cannot write {path}: {exc}") from exc


def _emit_json(config: RunConfig, filename: str, payload: dict):
    """Write payload under --out first, so a failed write prints nothing."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if config.out_dir:
        _write_out(config.out_dir, filename, text)
    sys.stdout.write(text)


def _emit_csv(config: RunConfig, filename: str, header: list[str], rows: list[list]):
    if not config.out_dir:
        log.info("no --out directory; skipping %s", filename)
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt17(v) if isinstance(v, float) else str(v) for v in row))
    _write_out(config.out_dir, filename, "\n".join(lines) + "\n")


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
    bracket = (theta_star - 0.5, theta_star + 0.5)
    if not bracket[0] < bracket[1]:
        raise InvalidConfig("theta_star: must be finite and small enough that theta_star - 0.5 < "
                            f"theta_star + 0.5, got {theta_star!r}")
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
    branch = continue_branch(start, config.continuation_controls(), newton_tol=config.newton_tol)

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
    return EXIT_OK


@_exits
def cmd_check(config: RunConfig) -> int:
    """Assumption diagnostics report."""
    grid = CircleGrid.uniform(config.grid_m)
    report = check_hypotheses(
        config.system, grid, config.window_n, config.check_radius,
        seed=config.seed, gap_tol=config.gap_tol, kernel_tol=config.kernel_tol,
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
            linear_system.a_plus(math.pi), linear_system.a_minus(math.pi), config.window_n,
            config.gap_tol,
        )
        oracle = seqs[0].ravel()
        oracle = oracle / np.linalg.norm(oracle)
        cosine = abs(float(oracle @ cand.kernel_vector))
        ok3 = abs(cand.theta_star - math.pi) <= config.tol_theta and cosine >= 1.0 - 1e-8
        detail3 = f"|theta*-pi|={abs(cand.theta_star - math.pi):.2e} |cos|={cosine:.12f}"
    except HomcontError as exc:
        ok3, detail3 = False, str(exc)
    rows.append(("kernel crossing at theta=pi with analytic kernel match", ok3, detail3))

    # The main theorem on the configured family: both halves of the branch
    # (kernel vector +phi and -phi) reach the amplitude cap without coming
    # back to the trivial solution, and theta leaves theta* both ways.
    try:
        cand = locate_bifurcation(
            system, (math.pi - 0.5, math.pi + 0.5), config.window_n, config.tol_theta,
            gap_tol=config.gap_tol, kernel_tol=config.kernel_tol,
        )
        halves = []
        for sign in (1.0, -1.0):
            start = switch_branch(
                system, dataclasses.replace(cand, kernel_vector=sign * cand.kernel_vector),
                config.s0, config.window_n, newton_tol=config.newton_tol, gap_tol=config.gap_tol,
            )
            halves.append(continue_branch(start, config.continuation_controls(),
                                          newton_tol=config.newton_tol))
        moves = [half.points[-1].theta - cand.theta_star for half in halves]
        signs = [sorted({pt.det_sign for pt in half.points}) for half in halves]
        ok4 = moves[0] * moves[1] < 0 and all(
            half.stop_reason == "amplitude_cap" and len(det) == 1
            and all(pt.amplitude > 0 and pt.l2_norm >= config.s0 for pt in half.points)
            for half, det in zip(halves, signs)
        )
        detail4 = (f"points={len(halves[0].points)}/{len(halves[1].points)} "
                   f"stop={halves[0].stop_reason}/{halves[1].stop_reason} "
                   f"det_sign={'/'.join(','.join(map(str, det)) for det in signs)} "
                   f"theta-theta*={moves[0]:+.4f}/{moves[1]:+.4f}")
    except HomcontError as exc:
        ok4, detail4 = False, str(exc)
    rows.append(("main theorem: both halves reach the amplitude cap", ok4, detail4))

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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
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
    common.add_argument("--kernel-tol", type=float, help="kernel threshold on smin (absolute)")
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
