"""Self-check of the benchmark's output checks, at tiny sizes.

    python3 perfbench/selfcheck.py

Runs one small op per workload and requires its check to pass, then hands
each check a wrong answer (a wrong expectation or a doctored output) and
requires it to fail.  Then traces a small branch op with one tracer target
deleted, and requires byte-identical outputs, the target reported absent and
every original restored afterwards.  Takes a few seconds.  Exits 0 when every check
behaves, 1 otherwise.
"""
import copy
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported


def _edit_json(outputs, name, **changes):
    data = json.loads(outputs[name])
    data.update(changes)
    return {**outputs, name: json.dumps(data).encode()}


def _edit_csv(outputs, edit):
    rows = list(csv.DictReader(io.StringIO(outputs["branch.csv"].decode())))
    header = list(rows[0])
    rows = edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    out = {**outputs, "branch.csv": buf.getvalue().encode()}
    return _edit_json(out, "branch.json", points=len(rows))


def _set(rows, index, key, value):
    rows[index][key] = value
    return rows


def wrong_answers(workloads, workdir):
    """Yield (workload, label, case, outputs, should_pass) to check."""
    import numpy as np

    rng = np.random.default_rng(0)

    predict = workloads.Predict(grid_m=32, dims=(2, 4))
    case = predict.build(rng, workdir)[0]
    good = predict.op(case, workdir / "out")
    yield predict, "construction", case, good, True
    for key in ("w1_plus", "w1_minus", "w1_index"):
        flipped = copy.deepcopy(case)
        flipped.expected[key] *= -1
        yield predict, f"expected {key} flipped", flipped, good, False
    yield predict, "index reported as 1", case, _edit_json(good, "invariants", index=1), False

    detect = workloads.Detect(window_n=20, grid_m=16)
    case = detect.build(rng, workdir)[0]
    good = detect.op(case, workdir / "out")
    yield detect, "theta* = pi", case, good, True
    moved = copy.deepcopy(case)
    moved.expected["theta_star"] += 1e-3
    yield detect, "reference theta* moved by 1e-3", moved, good, False
    yield detect, "loop parity +1", case, _edit_json(good, "detect.json", loop_parity=1), False
    yield detect, "two sign changes", case, _edit_json(
        good, "detect.json", sign_change_intervals=[[2.7, 3.5], [5.0, 5.5]]), False
    yield detect, "exit code 4", case, {**good, "exit": b"4"}, False

    branch = workloads.Branch(window_n=20, deck_size=1)
    case = branch.build(rng, workdir)[0]
    good = branch.op(case, workdir / "out")
    yield branch, "amplitude cap reached", case, good, True
    yield branch, "stopped at max_steps", case, _edit_json(
        good, "branch.json", stop_reason="max_steps"), False
    yield branch, "residual 1e-8", case, _edit_csv(
        good, lambda rows: _set(rows, 5, "residual", "1e-08")), False
    yield branch, "l2 norm below s0 / 2", case, _edit_csv(
        good, lambda rows: _set(rows, 0, "l2_norm", "1e-05")), False
    yield branch, "window N = 320", case, _edit_csv(
        good, lambda rows: _set(rows, -1, "N", "320")), False
    yield branch, "only 40 points", case, _edit_csv(good, lambda rows: rows[:40]), False
    yield branch, "exit code 5", case, {**good, "exit": b"5"}, False


def tracer_faults(workloads, workdir) -> list[str]:
    """Trace a tiny branch op with one target deleted; list what went wrong."""
    import numpy as np
    from homcont import cli, continuation, systems

    from layertrace import Tracer

    branch = workloads.Branch(window_n=20, deck_size=1)
    case = branch.build(np.random.default_rng(1), workdir)[0]
    plain = branch.op(case, workdir / "out")
    factory = systems.paper7_family
    removed = continuation._augmented_sparse
    del continuation._augmented_sparse  # as if a later change deleted it
    tracer = Tracer()
    try:
        tracer.install()
        tracer.begin_op()
        traced = branch.op(case, workdir / "out", tracer)
        layers = tracer.end_op()
    finally:
        tracer.uninstall()
        continuation._augmented_sparse = removed
    faults = []
    if traced != plain:
        faults.append("traced outputs differ from untraced ones")
    if tracer.absent != ["continuation._augmented_sparse"]:
        faults.append(f"absent targets {tracer.absent}")
    if not layers.get("systems.f.calls") or not layers.get("detect.jacobians"):
        faults.append("f calls or detect Jacobians not counted")
    if cli.BUILTIN_SYSTEMS["paper7"][1] is not factory or systems.paper7_family is not factory:
        faults.append("uninstall left a wrapper in place")
    return faults


def main() -> int:
    workloads = run.load_homcont()
    run.WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK_DIR))
    bad = 0
    try:
        for workload, label, case, outputs, should_pass in wrong_answers(workloads, workdir):
            try:
                workload.check(case, outputs)
                passed, reason = True, ""
            except workloads.CheckFailed as exc:
                passed, reason = False, str(exc)
            ok = passed == should_pass
            bad += not ok
            verdict = "passes" if passed else "fails"
            print(f"{'ok  ' if ok else 'BAD '} {workload.name:8s} {label}: check {verdict}"
                  + (f" ({reason})" if reason else ""))
        faults = tracer_faults(workloads, workdir)
        for fault in faults:
            print(f"BAD  tracer   {fault}")
        if not faults:
            print("ok   tracer   byte-identical outputs, absent target reported, originals restored")
        bad += len(faults)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{bad} check(s) misbehaved" if bad else "every check behaves")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
