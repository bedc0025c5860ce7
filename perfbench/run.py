"""Benchmark of the homcont pipeline on three seeded workloads.

    python3 perfbench/run.py --workload {predict,detect,branch} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One process, one thread, one client in a
closed loop: each op starts when the previous one returns.  The seed fixes
a deck of cases; ops cycle through the deck in whole passes for about S
seconds, and every op's output is checked.

--trace 0 prints the end-to-end metrics: setup_s (median wall time of
fresh interpreters that import homcont.cli and build the deck), op_ref_p50
(median op time in units of a reference kernel timed during the op, see
perfbench/speedprobe.py) and peak_rss_mb; the op median and tail in
seconds and the error rate are printed alongside.
--trace 1 runs the deck untraced, then under the per-layer tracer
(perfbench/layertrace.py), and prints per-op layer metrics; traced outputs
must be byte-identical to untraced ones.  The last line of stdout is the
JSON result.  Exit code 2 means the benchmark could not run here.
"""
import os

# Pin BLAS/OpenMP threads before anything can import numpy.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
SETUP_LAUNCHES = 5
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to an op failing)."""


def load_homcont():
    """Import homcont from this checkout's src/, never from elsewhere."""
    if not (SRC / "homcont" / "__init__.py").is_file():
        raise BenchError(f"no homcont sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import homcont

    if Path(homcont.__file__).resolve().parent != (SRC / "homcont").resolve():
        raise BenchError(f"imported homcont from {homcont.__file__}, not from {SRC}")
    import workloads

    return workloads


def build_deck(workloads, name: str, seed: int, workdir: Path):
    import numpy as np

    workload = workloads.WORKLOADS[name]()
    return workload, workload.build(np.random.default_rng(seed), workdir)


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

@dataclass
class OpRecord:
    case: int
    start: float
    seconds: float
    outputs: dict | None
    error: str | None
    layers: dict | None = None


def run_op(workload, case, index, outdir, tracer=None) -> OpRecord:
    outputs, error, layers = None, None, None
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        outputs = workload.op(case, outdir, tracer)
    except Exception:  # an op that raises is a failed op; keep measuring
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        layers = tracer.end_op()
    if outputs is not None:
        try:
            workload.check(case, outputs)
        except Exception as exc:  # CheckFailed, or output missing/garbled
            error = f"check failed: {type(exc).__name__}: {exc}"
    return OpRecord(index, t0, seconds, outputs, error, layers)


def run_passes(workload, deck, budget_s, workdir, tracer=None) -> list[OpRecord]:
    """Whole passes over the deck; stop before a pass that would overrun."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for i, case in enumerate(deck):
            records.append(run_op(workload, case, i, workdir / "out", tracer))
        now = time.perf_counter()
        if now - start + (now - t_pass) > budget_s:
            return records


def compare_outputs(records, reference) -> int:
    """Count ops whose outputs differ from the reference outputs of their case."""
    mismatches = 0
    for r in records:
        if r.outputs is None or reference.get(r.case) is None:
            continue
        if r.outputs != reference[r.case]:
            mismatches += 1
            if r.error is None:
                r.error = f"outputs of case {r.case} differ from its reference run"
    return mismatches


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_percentile(times: list[float]):
    """Highest whole percentile with at least ten ops beyond it, or None."""
    n = len(times)
    if n < 20:
        return None
    ordered = sorted(times)
    pct = int(100 * (n - 10) / n)
    # nearest-rank percentile: ops at ranks above it number n - rank >= 10
    rank = max(1, -(-pct * n // 100))
    return pct, ordered[rank - 1]


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters from launch to a built deck."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        if launch > 0:  # the first launch warms the file and bytecode caches
            times.append(elapsed)
    return times


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "homcont").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_errors(records):
    for r in records:
        if r.error is not None:
            sys.stderr.write(f"op on case {r.case} failed:\n{r.error}\n")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_untraced(args, workloads, workdir) -> dict:
    from speedprobe import SpeedProbe

    setup = measure_setup(args.workload, args.seed)
    workload, deck = build_deck(workloads, args.workload, args.seed, workdir)
    with SpeedProbe(workload.reference) as probe:
        records = run_passes(workload, deck, args.seconds, workdir)
    relative = [probe.relative(r.start, r.start + r.seconds) for r in records]
    reference = {r.case: r.outputs for r in records[:len(deck)]}
    compare_outputs(records[len(deck):], reference)
    failed = sum(r.error is not None for r in records)
    times = [r.seconds for r in records]
    _report_errors(records)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {args.workload}  seed {args.seed}  deck {len(deck)}  "
          f"ops {len(records)}  failed {failed}  error_rate {failed / len(records):.4f}")
    print(f"  setup_s      {statistics.median(setup):.4f} s   (median of {len(setup)} launches)")
    print(f"  op_ref_p50   {statistics.median(relative):.2f} ref   (n = {len(relative)}; "
          f"{workload.reference!r} reference kernel median {probe.median_s() * 1e3:.3f} ms over "
          f"{len(probe.samples)} samples)")
    print(f"  op_s_p50     {statistics.median(times):.4f} s   (n = {len(times)})")
    tail = tail_percentile(times)
    if tail is None:
        print("  op_s_tail    omitted: fewer than 20 ops")
    else:
        print(f"  op_s_tail    p{tail[0]} = {tail[1]:.4f} s   (n = {len(times)})")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            "setup_s": _metric(statistics.median(setup), "s"),
            "op_ref_p50": _metric(statistics.median(relative), "ref"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        },
    }


def run_traced(args, workloads, workdir) -> dict:
    from layertrace import PER_LAYER_UNITS, Tracer

    workload, deck = build_deck(workloads, args.workload, args.seed, workdir)
    plain = run_passes(workload, deck, args.seconds / 2.0, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, deck, args.seconds / 2.0, workdir, tracer)
    finally:
        tracer.uninstall()
    reference = {r.case: r.outputs for r in plain[:len(deck)]}
    mismatches = compare_outputs(plain[len(deck):] + traced, reference)
    records = plain + traced
    failed = sum(r.error is not None for r in records)
    _report_errors(records)

    totals: dict[str, float] = {}
    for r in traced:
        for key, value in r.layers.items():
            totals[key] = totals.get(key, 0) + value
    per_op = {key: value / len(traced) for key, value in totals.items()}
    points = totals.get("continuation.points", 0)
    per_op["continuation.residuals_per_point"] = (
        totals.get("continuation.residuals", 0) / points if points else 0.0
    )
    untraced_p50 = statistics.median(r.seconds for r in plain)
    traced_p50 = statistics.median(r.seconds for r in traced)
    per_op["trace.overhead_s"] = traced_p50 - untraced_p50
    per_op["trace.absent_targets"] = len(tracer.absent)

    print(f"workload {args.workload}  seed {args.seed}  deck {len(deck)}  "
          f"untraced ops {len(plain)}  traced ops {len(traced)}  failed {failed}  "
          f"output mismatches {mismatches}")
    print(f"  op_s_p50 untraced {untraced_p50:.4f} s  traced {traced_p50:.4f} s")
    print(f"  absent targets: {', '.join(tracer.absent) or 'none'}")
    for key in PER_LAYER_UNITS:
        print(f"  {key:45s} {per_op.get(key, 0):.6g} {PER_LAYER_UNITS[key]}")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: _metric(per_op.get(k, 0), u) for k, u in PER_LAYER_UNITS.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["predict", "detect", "branch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = load_homcont()
        WORK_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
        try:
            if args.setup_probe:
                build_deck(workloads, args.workload, args.seed, workdir)
                return 0
            print("env " + json.dumps(environment(), sort_keys=True))
            run = run_traced if args.trace else run_untraced
            result = run(args, workloads, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if not any(WORK_DIR.iterdir()):
                WORK_DIR.rmdir()
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
