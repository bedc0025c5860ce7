import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homcont as hc
from homcont import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bundles_builtin_values(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["bundles", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "rank_plus": 1,
        "rank_minus": 1,
        "index": 0,
        "w1_plus": -1,
        "w1_minus": 1,
        "w1_index": -1,
        "predicted_bifurcation": True,
    }
    assert json.loads((tmp_path / "bundles.json").read_text()) == payload


def test_bundles_constant_system_predicts_nothing(capsys):
    system = hc.linear_family(2, lambda t: np.diag([0.5, 2.0]), lambda t: np.diag([0.5, 2.0]))
    config = cli.RunConfig(system=system, params=None)
    code = cli.cmd_bundles(config)
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["predicted_bifurcation"] is False
    assert payload["w1_index"] == 1


def test_detect_outputs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["detect", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["loop_parity"] == -1
    assert len(payload["candidates"]) == 1
    assert abs(payload["candidates"][0]["theta_star"] - math.pi) <= 1e-6

    lines = (tmp_path / "detect_nodes.csv").read_text().splitlines()
    assert lines[0] == "theta,det_sign,smin"
    assert len(lines) == 1 + payload["nodes"] + 1  # header + m+1 nodes
    # floats carry 17 significant digits
    theta_cell = lines[2].split(",")[0]
    assert theta_cell == format(float(theta_cell), ".17g")


def test_detect_alignment_failure_exits_4(capsys):
    def a_plus(theta):
        if math.pi / 2 < theta < 3 * math.pi / 2:
            return np.diag([2.0, 0.5])
        return np.diag([0.5, 2.0])

    jumpy = hc.linear_family(2, a_plus, lambda t: np.diag([0.5, 2.0]))
    config = cli.RunConfig(system=jumpy, params=None, grid_m=8)
    code = cli.cmd_detect(config)
    capsys.readouterr()
    assert code == 4


def test_branch_run(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, ["branch", "--theta-star", "3.14", "--out", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stop_reason"] == "amplitude_cap"
    assert payload["points"] >= 50

    lines = (tmp_path / "branch.csv").read_text().splitlines()
    assert lines[0] == "step,theta,l2_norm,sup_norm,amplitude,residual,det_sign,N"
    assert len(lines) == 1 + payload["points"]
    residuals = [float(line.split(",")[5]) for line in lines[1:]]
    assert max(residuals) <= 1e-9


@pytest.mark.parametrize("theta_star", ["3.0", "3.14"])
def test_branch_det_sign_matches_start(tmp_path, capsys, theta_star):
    # The rows of every point, the start point's included, are carried from
    # theta*, so the augmented det sign does not flip between steps 0 and 1
    # on a branch without folds.
    code, _, _ = run_cli(capsys, ["branch", "--theta-star", theta_star, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "branch.csv").read_text().splitlines()[1:]
    signs = [int(line.split(",")[6]) for line in lines]
    assert len(signs) >= 50
    assert set(signs) == {signs[0]} != {0}


def test_branch_linear_family_exits_5(tmp_path, capsys):
    cfg = tmp_path / "linear.json"
    cfg.write_text(json.dumps({"system": {"builtin": "paper7", "params": {"coupling": 0.0}}}))
    code, _, err = run_cli(capsys, ["branch", "--config", str(cfg), "--theta-star", "3.14"])
    assert code == 5
    assert "linear family" in err


def test_branch_bad_theta_star_exits_4(capsys):
    code, _, err = run_cli(capsys, ["branch", "--theta-star", "1.0"])
    assert code == 4
    assert "no bifurcation candidate" in err


def test_detect_max_iterations_exits_4(capsys):
    # no window smin clears a relative threshold of 1e-300
    code, _, err = run_cli(capsys, ["detect", "--kernel-tol", "1e-300"])
    assert code == 4
    assert "bisection did not converge within 200 iterations" in err


def test_check_passes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, ["check", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads(out)
    assert {payload[k]["status"] for k in ("a1", "a2", "a3", "a4")} == {"pass"}


def test_check_failure_exits_6(capsys):
    system = hc.linear_family(2, lambda t: np.diag([0.5, 2.0]), lambda t: np.diag([0.5, 0.4]))
    config = cli.RunConfig(system=system, params=None, window_n=20)
    code = cli.cmd_check(config)
    payload = json.loads(capsys.readouterr().out)
    assert code == 6
    assert payload["a2"]["status"] == "fail"


def test_check_kernel_tol_gates_a3_and_a4(capsys):
    # kernel_tol 1.0 puts every window's smin (0.5) below kernel_tol *
    # ||J||_1, while A3's Newton probes still return to zero: only the
    # singular-value criterion fails A3
    code, out, _ = run_cli(capsys, ["check", "--kernel-tol", "1.0"])
    payload = json.loads(out)
    assert code == 6
    assert payload["a3"]["status"] == "fail"
    assert payload["a4"]["status"] == "fail"
    assert payload["a3"]["evidence"]["largest_converged_norm"] < 1e-8


def test_check_overflowing_radius_exits_3(tmp_path, capsys):
    # the radius passes the schema, but A4's finite-difference matrices
    # overflow to non-finite entries, which the splitting rejects
    cfg = tmp_path / "radius.json"
    cfg.write_text('{"check_radius": 1e300}')
    code, _, err = run_cli(capsys, ["check", "--config", str(cfg)])
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"grid_m": 64,,}')
    code, _, err = run_cli(capsys, ["bundles", "--config", str(cfg)])
    assert code == 2
    assert "line 1" in err


def test_invalid_beta_exits_2_with_field(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"system": {"builtin": "paper7", "params": {"beta": 0.5}}}))
    code, _, err = run_cli(capsys, ["bundles", "--config", str(cfg)])
    assert code == 2
    assert "system.params" in err and "beta" in err


def test_unknown_field_exits_2(tmp_path, capsys):
    cfg = tmp_path / "extra.json"
    cfg.write_text(json.dumps({"grid": 64}))
    code, _, err = run_cli(capsys, ["bundles", "--config", str(cfg)])
    assert code == 2
    assert "grid" in err


def run_python(args):
    """Run a fresh interpreter with homcont importable."""
    src = str(Path(hc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )


@pytest.mark.parametrize(
    "raw, field",
    [
        ('{"continuation": {"ds0": NaN}}', "continuation.ds0"),
        ('{"continuation": {"ds0": -0.001}}', "continuation.ds0"),
        ('{"continuation": {"ds_max": Infinity}}', "continuation.ds_max"),
        ('{"continuation": {"ds_min": 0.1, "ds_max": 0.01}}', "continuation.ds_min"),
        ('{"continuation": {"max_steps": -1}}', "continuation.max_steps"),
        ('{"continuation": {"amplitude_cap": 0}}', "continuation.amplitude_cap"),
        ('{"check_radius": -1}', "check_radius"),
    ],
)
def test_invalid_continuation_input_exits_2(tmp_path, raw, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(raw)
    done = run_python(["-m", "homcont.cli", "branch", "--theta-star", "3.14", "--config", str(cfg)])
    assert done.returncode == 2
    assert field in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "raw, argv, field",
    [
        ('{"continuation": {"s0": -1}}', ["bundles"], "continuation.s0"),
        ('{"system": {"builtin": []}}', ["bundles"], "system.builtin"),
        ('{"system": {"builtin": "paper8"}}', ["bundles"], "system.builtin"),
        ('{"system": {"params": {"beta": Infinity}}}', ["bundles"], "system.params.beta"),
        ('{"system": {"params": {"envelope_scale": Infinity}}}', ["bundles"],
         "system.params.envelope_scale"),
        ('{"system": {"params": {"gamma": 1}}}', ["bundles"], "system.params.gamma"),
        ('{"tolerances": {"gap": 1e-6}}', ["bundles"], "tolerances.gap"),
        ('{"tolerances.gap_tol": 1e-6}', ["bundles"], "tolerances.gap_tol: unknown field"),
        ('{"tolerances": 1e-6}', ["bundles"], "tolerances: expected an object"),
        ('{"grid_m": 64.0}', ["bundles"], "grid_m: expected an integer"),
        ('{"out": 5}', ["bundles"], "out: expected a string"),
        ('[]', ["bundles"], "config: expected an object"),
        (None, ["check", "--seed", "-1"], "seed"),
        (None, ["branch", "--theta-star", "nan"], "theta_star"),
        (None, ["branch", "--theta-star", "inf"], "theta_star"),
        (None, ["branch", "--theta-star", "1e300"], "theta_star"),
    ],
)
def test_invalid_outside_input_exits_2(tmp_path, capsys, raw, argv, field):
    if raw is not None:
        cfg = tmp_path / "bad.json"
        cfg.write_text(raw)
        argv = argv + ["--config", str(cfg)]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error: " + field)


def test_cli_import_skips_scipy_sparse():
    done = run_python(["-c", "import sys, homcont.cli; print('scipy.sparse' in sys.modules)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_invalid_grid_exits_2(capsys):
    code, _, err = run_cli(capsys, ["bundles", "--grid-m", "4"])
    assert code == 2
    assert "grid_m" in err


@pytest.mark.parametrize(
    "argv",
    [["bundles"], ["detect"], ["check"], ["branch", "--theta-star", "3.14"], ["verify-paper"]],
    ids=lambda argv: argv[0],
)
def test_spectral_failure_exits_3(capsys, argv):
    # a huge hyperbolicity gap tolerance rejects the builtin eigenvalues
    code, _, err = run_cli(capsys, argv + ["--gap-tol", "0.6"])
    assert code == 3
    assert "unit circle" in err
    assert "Traceback" not in err


def test_outputs_are_deterministic(tmp_path, capsys):
    for sub in ("one", "two"):
        assert run_cli(capsys, ["bundles", "--seed", "7", "--out", str(tmp_path / sub)])[0] == 0
        assert run_cli(capsys, ["detect", "--seed", "7", "--out", str(tmp_path / sub)])[0] == 0
        assert run_cli(
            capsys,
            ["branch", "--theta-star", "3.14", "--seed", "7", "--out", str(tmp_path / sub)],
        )[0] == 0
        assert run_cli(capsys, ["check", "--seed", "7", "--out", str(tmp_path / sub)])[0] == 0
    for name in ("bundles.json", "detect.json", "detect_nodes.csv", "branch.json", "branch.csv",
                 "check.json"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name


def test_branch_s0_flag_sets_first_amplitude(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        ["branch", "--theta-star", "3.14", "--s0", "2e-4", "--out", str(tmp_path)],
    )
    assert code == 0
    first = (tmp_path / "branch.csv").read_text().splitlines()[1]
    assert float(first.split(",")[4]) == pytest.approx(2e-4, abs=1e-12)


def test_log_env_sets_level(monkeypatch):
    import logging

    monkeypatch.setenv("HOMOCLINIC_LOG", "debug")
    cli._setup_logging()
    assert logging.getLogger().level == logging.DEBUG
    monkeypatch.setenv("HOMOCLINIC_LOG", "error")
    cli._setup_logging()
    assert logging.getLogger().level == logging.ERROR
    monkeypatch.delenv("HOMOCLINIC_LOG")
    cli._setup_logging()
    assert logging.getLogger().level == logging.WARNING


def test_verify_paper(capsys):
    code, out, _ = run_cli(capsys, ["verify-paper"])
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 3
    assert all(line.startswith("PASS") for line in lines)
