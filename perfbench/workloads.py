"""The three benchmark workloads: predict, detect and branch.

Each workload turns a seed into a deck of cases (the inputs homcont sees),
runs one case per op through a public entry point, and checks the op's
outputs against what the inputs imply.  An op returns its outputs as a
mapping of name -> bytes so that traced and untraced runs of the same case
can be compared byte for byte.  homcont entry points are called through
their modules, so that a tracer installed on those modules sees the call.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from homcont import bundles, cli
from homcont.bundles import CircleGrid
from homcont.systems import linear_family, rotating_matrix

# Parameter ranges of the paper7 draws (detect and branch).
PAPER7_RANGES = {
    "alpha": (0.4, 0.6),
    "beta": (1.7, 2.5),
    "coupling": (0.05, 0.2),
    "envelope_scale": (3.0, 8.0),
}
BRANCH_S0 = 5e-4


class CheckFailed(Exception):
    """An op returned, but its output contradicts the construction."""


@dataclass
class Case:
    """One op's input plus the reference its output is checked against."""

    label: str
    args: dict
    expected: dict = field(default_factory=dict)


def _read_outputs(outdir: Path, stdout: str, rc: int) -> dict[str, bytes]:
    outputs = {"exit": str(rc).encode(), "stdout": stdout.encode()}
    for path in sorted(outdir.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def _run_cli(argv: list[str], outdir: Path) -> dict[str, bytes]:
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--out", str(outdir)])
    return _read_outputs(outdir, buf.getvalue(), rc)


def _expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _exit_code(outputs: dict[str, bytes]) -> int:
    return int(outputs["exit"].decode())


# ---------------------------------------------------------------------------
# predict: index_bundle_invariants on block-diagonal rotating families
# ---------------------------------------------------------------------------

class Predict:
    """Orientation invariants of seeded loop families with known w1.

    A family is a direct sum of 2x2 rotating_matrix blocks, block i turning
    at integer speed k_i, conjugated by one fixed orthogonal matrix.  Each
    block's stable line turns k_i half-turns per circuit, so
    w1 = (-1)^(sum k_i) at each end and the index is 0.
    """

    name = "predict"
    reference = "small"  # speedprobe kernel: many small LAPACK calls

    def __init__(self, grid_m: int = 256, dims=(2, 4, 6), max_speed: int = 3):
        self.grid = CircleGrid.uniform(grid_m)
        self.dims = dims
        self.max_speed = max_speed

    def build(self, rng: np.random.Generator, workdir: Path) -> list[Case]:
        # One case per (d, fastest plus-speed) pair, so every deck has the
        # same mix of sizes and windings; the seed draws everything else.
        cases = []
        for d in self.dims:
            blocks = d // 2
            for kmax in range(self.max_speed + 1):
                kp = rng.integers(0, kmax + 1, size=blocks)
                kp[rng.integers(blocks)] = kmax
                km = rng.integers(0, self.max_speed + 1, size=blocks)
                alphas = rng.uniform(0.3, 0.7, size=blocks)
                betas = rng.uniform(1.5, 3.0, size=blocks)
                q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                family = linear_family(
                    d, _rotating_loop(kp, alphas, betas, q), _rotating_loop(km, alphas, betas, q)
                )
                w1_plus = -1 if int(kp.sum()) % 2 else 1
                w1_minus = -1 if int(km.sum()) % 2 else 1
                expected = {
                    "rank_plus": blocks,
                    "rank_minus": blocks,
                    "w1_plus": w1_plus,
                    "w1_minus": w1_minus,
                    "w1_index": w1_plus * w1_minus,
                    "index": 0,
                }
                label = f"d={d} k+={kp.tolist()} k-={km.tolist()}"
                cases.append(Case(label, {"family": family}, expected))
        order = rng.permutation(len(cases))
        return [cases[i] for i in order]

    def op(self, case: Case, outdir: Path, tracer=None) -> dict[str, bytes]:
        family = case.args["family"]
        if tracer is not None:
            family = tracer.instrument_family(family)
        inv = bundles.index_bundle_invariants(family, self.grid)
        fields = {k: getattr(inv, k) for k in case.expected}
        return {"invariants": json.dumps(fields, sort_keys=True).encode()}

    def check(self, case: Case, outputs: dict[str, bytes]):
        got = json.loads(outputs["invariants"])
        for key, want in case.expected.items():
            _expect(got[key] == want, f"{case.label}: {key} = {got[key]}, expected {want}")


def _rotating_loop(speeds, alphas, betas, q):
    d = q.shape[0]

    def a(theta: float) -> np.ndarray:
        m = np.zeros((d, d))
        for i, (k, al, be) in enumerate(zip(speeds, alphas, betas)):
            m[2 * i:2 * i + 2, 2 * i:2 * i + 2] = rotating_matrix(int(k) * theta, al, be)
        return q @ m @ q.T

    return a


# ---------------------------------------------------------------------------
# detect and branch: the CLI on paper7 with seeded parameters
# ---------------------------------------------------------------------------

def _write_config(path: Path, params: dict, extra: dict | None = None) -> Path:
    raw = {"system": {"builtin": "paper7", "params": params}}
    raw.update(extra or {})
    path.write_text(json.dumps(raw, sort_keys=True))
    return path


def _uniform_params(rng: np.random.Generator) -> dict:
    return {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in PAPER7_RANGES.items()}


def _strata(rng: np.random.Generator, count: int) -> np.ndarray:
    """count points of [0, 1), one in each of count equal strata, shuffled."""
    return (rng.permutation(count) + rng.random(count)) / count


def _decay_stratified_params(rng: np.random.Generator, count: int) -> list[dict]:
    """count paper7 draws, stratified in what sets the branch's window.

    The branch decays like rho^|n| with rho = max(alpha, 1/beta), the slower
    side, and needs N = 80 rather than 40 once rho exceeds about 0.55.  rho
    takes one stratum of its range per draw, so every deck holds the same
    share of slow-decaying cases; coupling and envelope_scale take one
    stratum each of theirs.
    """
    (a_lo, a_hi), (b_lo, b_hi) = PAPER7_RANGES["alpha"], PAPER7_RANGES["beta"]
    rho_lo, rho_hi = max(a_lo, 1.0 / b_hi), max(a_hi, 1.0 / b_lo)
    rhos = rho_lo + _strata(rng, count) * (rho_hi - rho_lo)
    columns = {
        key: lo + _strata(rng, count) * (hi - lo)
        for key, (lo, hi) in PAPER7_RANGES.items() if key in ("coupling", "envelope_scale")
    }
    draws = []
    for i, rho in enumerate(rhos):
        if rho > 1.0 / b_lo or rng.random() < 0.5:  # the +inf side decays slower
            alpha, inv_beta = rho, rng.uniform(1.0 / b_hi, min(rho, 1.0 / b_lo))
        else:
            alpha, inv_beta = rng.uniform(a_lo, rho), rho
        draw = {"alpha": float(alpha), "beta": float(1.0 / inv_beta)}
        draw.update({k: float(v[i]) for k, v in columns.items()})
        draws.append(draw)
    return draws


class Detect:
    """homcont detect on paper7: parity scan plus localization of theta* = pi."""

    name = "detect"
    reference = "dense"  # speedprobe kernel: window-size dense SVDs dominate

    def __init__(self, window_n: int = 160, grid_m: int = 64):
        self.window_n = window_n
        self.grid_m = grid_m

    def build(self, rng: np.random.Generator, workdir: Path) -> list[Case]:
        params = _uniform_params(rng)
        config = _write_config(workdir / "detect_0.json", params)
        return [Case(f"params={params}", {"config": str(config)}, {"theta_star": math.pi})]

    def op(self, case: Case, outdir: Path, tracer=None) -> dict[str, bytes]:
        argv = ["detect", "--config", case.args["config"],
                "--window-n", str(self.window_n), "--grid-m", str(self.grid_m)]
        return _run_cli(argv, outdir)

    def check(self, case: Case, outputs: dict[str, bytes]):
        rc = _exit_code(outputs)
        _expect(rc == 0, f"{case.label}: exit {rc}")
        report = json.loads(outputs["detect.json"])
        _expect(report["loop_parity"] == -1, f"loop_parity {report['loop_parity']}, expected -1")
        intervals = report["sign_change_intervals"]
        _expect(len(intervals) == 1, f"{len(intervals)} sign-change intervals, expected 1")
        stars = [c["theta_star"] for c in report["candidates"] if c["kind"] == "sign_change"]
        _expect(len(stars) == 1, f"{len(stars)} sign-change candidates, expected 1")
        want = case.expected["theta_star"]
        _expect(abs(stars[0] - want) <= 1e-6, f"theta* = {stars[0]!r}, expected {want!r} +- 1e-6")


class Branch:
    """homcont branch on paper7 from theta* = pi up to the amplitude cap."""

    name = "branch"
    reference = "small"  # speedprobe kernel: per-n calls and small solves

    def __init__(self, window_n: int = 20, deck_size: int = 8):
        self.window_n = window_n
        self.deck_size = deck_size

    def build(self, rng: np.random.Generator, workdir: Path) -> list[Case]:
        cases = []
        for i, params in enumerate(_decay_stratified_params(rng, self.deck_size)):
            config = _write_config(
                workdir / f"branch_{i}.json", params, {"continuation": {"s0": BRANCH_S0}}
            )
            expected = {"min_points": 50, "max_residual": 1e-9,
                        "min_l2": 0.5 * BRANCH_S0, "max_n": 160}
            cases.append(Case(f"params={params}", {"config": str(config)}, expected))
        return cases

    def op(self, case: Case, outdir: Path, tracer=None) -> dict[str, bytes]:
        argv = ["branch", "--config", case.args["config"],
                "--theta-star", repr(math.pi), "--window-n", str(self.window_n)]
        return _run_cli(argv, outdir)

    def check(self, case: Case, outputs: dict[str, bytes]):
        rc = _exit_code(outputs)
        _expect(rc == 0, f"{case.label}: exit {rc}")
        want = case.expected
        report = json.loads(outputs["branch.json"])
        _expect(report["stop_reason"] == "amplitude_cap",
                f"stop_reason {report['stop_reason']!r}, expected 'amplitude_cap'")
        rows = list(csv.DictReader(io.StringIO(outputs["branch.csv"].decode())))
        _expect(len(rows) == report["points"], "branch.csv and branch.json disagree on points")
        _expect(len(rows) >= want["min_points"], f"{len(rows)} points, expected >= {want['min_points']}")
        worst = max(float(r["residual"]) for r in rows)
        _expect(worst <= want["max_residual"], f"residual {worst:.3e} above {want['max_residual']:.0e}")
        smallest = min(float(r["l2_norm"]) for r in rows)
        _expect(smallest >= want["min_l2"], f"min l2 {smallest:.3e} below {want['min_l2']:.3e}")
        widest = max(int(r["N"]) for r in rows)
        _expect(widest <= want["max_n"], f"window N = {widest} above {want['max_n']}")


WORKLOADS = {"predict": Predict, "detect": Detect, "branch": Branch}
