import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import homcont as hc
from homcont import cli, truncation
from homcont.spectral import symbol_smin


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


def test_detect_max_iterations_exits_4(capsys, monkeypatch):
    # with no window near-singular, localization narrows the bracket until
    # it holds no float strictly inside and gives up
    monkeypatch.setattr(truncation, "near_singular", lambda smin, scale, kernel_tol: False)
    code, _, err = run_cli(capsys, ["detect"])
    assert code == 4
    assert "holds no float strictly inside and no probe was near-singular" in err


def beta_config(tmp_path, beta):
    cfg = tmp_path / "beta.json"
    cfg.write_text(json.dumps({"system": {"params": {"beta": beta}}}))
    return str(cfg)


@pytest.mark.parametrize("beta", [1e8, 1e12])
def test_detect_finds_pi_at_large_beta(tmp_path, capsys, beta):
    # ||J||_1 grows like beta while the regular windows' smin stays near the
    # symbol floor 0.5: the absolute kernel_tol keeps them regular, and the
    # crossing at pi is found with its parity
    code, out, err = run_cli(capsys, ["detect", "--config", beta_config(tmp_path, beta)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["loop_parity"] == -1
    (cand,) = payload["candidates"]
    assert cand["kind"] == "sign_change"
    assert abs(cand["theta_star"] - math.pi) <= cli.RunConfig.tol_theta


def test_check_passes_at_large_beta(tmp_path, capsys):
    # beta = 1e8: A3's window smin and A4's symbol smin stay near 0.5
    code, out, err = run_cli(capsys, ["check", "--config", beta_config(tmp_path, 1e8)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["a3"]["status"] == payload["a4"]["status"] == "pass"
    assert payload["a3"]["evidence"]["smin_theta0"] == pytest.approx(0.5, abs=1e-2)


def test_check_passes_at_beta_1e12(tmp_path, capsys):
    # beta = 1e12: A4 differences only the limit maps' nonlinear remainder
    # (here 0) and adds the exact limit matrix back, so its splitting sees
    # a itself instead of a finite-difference copy rounded at ||a|| ~ 1e12
    code, out, err = run_cli(capsys, ["check", "--config", beta_config(tmp_path, 1e12)])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["a4"]["status"] == "pass"
    assert payload["a4"]["evidence"]["min_symbol_smin"] == pytest.approx(0.5, abs=1e-3)


def test_branch_reaches_amplitude_cap_at_large_beta(tmp_path, capsys, monkeypatch):
    # beta = 1e8: the residual's rounding floor ROUNDING_FLOOR * ||J||_1 *
    # max|X| is above newton_tol from amplitude ~0.01 on, and the corrector
    # stops there instead of failing the step
    branches, real = [], cli.continue_branch

    def recorded(*args, **kwargs):
        branches.append(real(*args, **kwargs))
        return branches[-1]

    monkeypatch.setattr(cli, "continue_branch", recorded)
    code, out, err = run_cli(capsys, ["branch", "--config", beta_config(tmp_path, 1e8),
                                      "--theta-star", repr(math.pi), "--out", str(tmp_path)])
    assert code == 0, err
    assert json.loads(out)["stop_reason"] == "amplitude_cap"
    (branch,) = branches
    floors = [truncation.ROUNDING_FLOOR * truncation.banded_jacobian_lu(pt.problem, pt.X).norm_1
              * np.max(np.abs(pt.X)) for pt in branch.points]
    assert max(floors) > cli.RunConfig.newton_tol
    for pt, floor in zip(branch.points, floors):
        assert pt.residual_norm <= max(cli.RunConfig.newton_tol, floor)


@pytest.mark.parametrize("argv", [["detect"], ["branch", "--theta-star", "3.14"]],
                         ids=lambda argv: argv[0])
def test_kernel_tol_below_rounding_floor_succeeds(capsys, argv):
    # kernel_tol 5e-324 leaves the rounding floor 64 eps ||J||_1 to call the
    # crossing's windows near-singular, so the crossing is still located
    code, _, err = run_cli(capsys, argv + ["--kernel-tol", "5e-324"])
    assert code == 0, err


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
    # kernel_tol 1.0 puts every window's smin (0.5) below kernel_tol, while
    # A3's Newton probes still return to zero: only the singular-value
    # criterion fails A3
    code, out, _ = run_cli(capsys, ["check", "--kernel-tol", "1.0"])
    payload = json.loads(out)
    assert code == 6
    assert payload["a3"]["status"] == "fail"
    assert payload["a4"]["status"] == "fail"
    assert payload["a3"]["evidence"]["largest_converged_norm"] < 1e-8


def test_check_non_finite_dfdx_fails_a1(tmp_path, capsys):
    # a coupling of 1e308 overflows dfdx away from x = 0: A1 records its
    # moduli as null and fails instead of crashing in the norm's SVD
    cfg = tmp_path / "coupling.json"
    cfg.write_text('{"system": {"params": {"coupling": 1e308}}}')
    code, out, err = run_cli(capsys, ["check", "--config", str(cfg)])
    assert code == 6
    a1 = json.loads(out)["a1"]
    assert a1["status"] == "fail"
    assert None in a1["evidence"]["moduli"]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [["detect"], ["branch", "--theta-star", "3.14159"], ["check"]],
    ids=lambda argv: argv[0],
)
def test_tiny_envelope_scale_prints_no_warning(tmp_path, argv):
    # (n / envelope_scale)^2 overflows to inf for every n != 0, the exact
    # limit 0 of the envelope, without a numpy warning on stderr
    cfg = tmp_path / "tiny.json"
    cfg.write_text('{"system": {"params": {"envelope_scale": 1e-300}}}')
    done = run_python(["-W", "always", "-m", "homcont.cli", *argv, "--config", str(cfg)])
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_check_overflowing_radius_exits_3(tmp_path, capsys):
    # the radius passes the schema, but A4's finite-difference matrices
    # overflow to non-finite entries, which the splitting rejects
    cfg = tmp_path / "radius.json"
    cfg.write_text('{"check_radius": 1e300}')
    code, _, err = run_cli(capsys, ["check", "--config", str(cfg)])
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_check_a4_is_independent_of_window_n(tmp_path, capsys):
    # A4 reads each limit operator's smin from its d x d symbol: no window
    blocks = []
    for n in ("40", "160"):
        code, _, _ = run_cli(capsys, ["check", "--window-n", n, "--out", str(tmp_path / n)])
        assert code == 0
        text = (tmp_path / n / "check.json").read_text()
        blocks.append(text[text.index('"a4"'):])
    assert blocks[0] == blocks[1]
    assert json.loads((tmp_path / "40" / "check.json").read_text())["a4"]["evidence"][
        "min_symbol_smin"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("a, code", [([[0.5, 1e5], [0.0, 2.0]], 6), ([[0.5, 0.0], [0.0, 2.0]], 0)])
def test_check_non_normal_limit_fails_a4(capsys, a, code):
    # symbol_smin of the strongly non-normal limit is about 5e-6 (A4 reads
    # it off a itself, the limit map being linear), below kernel_tol 1e-5; the
    # truncated window A4 once built for it is near-singular too.  (A larger
    # corner entry cannot take the default 1e-8: with eigenvalues 0.5 and 2,
    # symbol_smin is at least 5e-8 while the splitting still accepts a.)
    a = np.array(a)
    system = hc.linear_family(2, lambda t: a, lambda t: a)
    assert cli.cmd_check(cli.RunConfig(system=system, params=None, kernel_tol=1e-5)) == code
    a4 = json.loads(capsys.readouterr().out)["a4"]
    assert a4["status"] == ("fail" if code else "pass")
    assert a4["evidence"]["min_symbol_smin"] == symbol_smin(a)
    window = truncation.truncated_problem(system, 0.0, 40)
    assert (truncation.classify_window(window, 1e-5)[2] == 0) == bool(code)


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"grid_m": 64,,}')
    code, _, err = run_cli(capsys, ["bundles", "--config", str(cfg)])
    assert code == 2
    assert "line 1" in err


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, ["bundles", "--config", str(missing)])
    assert code == 2
    assert f"config: cannot read {missing}" in err


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


# The ends of every documented range (README, "Ranges"), each run by every
# subcommand that reads the value.  The sweep's base is the lower end of
# grid_m and window_n, which keeps it fast; their upper ends are unbounded.
_TINY, _HUGE = 5e-324, sys.float_info.max
_ALL = ("bundles", "detect", "branch", "check")
_RANGE_ENDS = [
    *[({"system": {"params": {name: value}}}, _ALL) for name, value in (
        ("alpha", _TINY), ("alpha", 1.0 - 2.0 ** -53), ("beta", 1.0 + 2.0 ** -52),
        ("beta", _HUGE), ("coupling", 0.0), ("coupling", 1e300), ("coupling", _HUGE),
        ("envelope_scale", _TINY), ("envelope_scale", _HUGE))],
    *[({"tolerances": {name: value}}, commands)
      for name, commands in (("gap_tol", _ALL), ("kernel_tol", ("detect", "branch", "check")),
                             ("newton_tol", ("branch", "check")), ("tail_tol", ("branch",)),
                             ("tol_theta", ("detect", "branch")))
      for value in (_TINY, _HUGE)],
    *[({"continuation": {name: value}}, ("branch",))
      for name in ("s0", "ds0", "ds_min", "ds_max", "amplitude_cap") for value in (_TINY, _HUGE)
      if (name, value) != ("ds_min", _HUGE)],
    ({"continuation": {"s0": 1e300}}, ("branch",)),
    ({"continuation": {"ds0": _HUGE, "ds_max": _HUGE}}, ("branch",)),
    ({"continuation": {"max_steps": 0}}, ("branch",)),
    *[({"check_radius": value}, ("check",)) for value in (_TINY, _HUGE)],
    *[({"seed": value}, ("check",)) for value in (0, 2 ** 64)],
]
_ARGV = {"bundles": ["bundles"], "detect": ["detect"], "check": ["check"],
         "branch": ["branch", "--theta-star", "3.14"]}


@pytest.mark.parametrize("raw, commands", _RANGE_ENDS,
                         ids=lambda v: json.dumps(v) if isinstance(v, dict) else "+".join(v))
def test_range_ends_exit_cleanly(tmp_path, capsys, raw, commands):
    # valid but extreme input ends in a documented exit code (6 or one of
    # EXIT_CODES), never in 1, a traceback or a numpy warning
    cfg = tmp_path / "ends.json"
    cfg.write_text(json.dumps({"grid_m": 8, "window_n": 10, **raw}))
    allowed = {0, cli.EXIT_HYPOTHESES, *cli.EXIT_CODES}
    for command in commands:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, _ARGV[command] + ["--config", str(cfg)])
        assert code in allowed, (command, code, err)
        assert "Traceback" not in err and "Warning" not in err, (command, err)
        assert [w for w in caught if w.category is not UserWarning] == [], command


@pytest.mark.parametrize("raw", ['{"system": {"params": {"coupling": 1e300}}}',
                                 '{"continuation": {"s0": 1e300}}'])
def test_branch_overflow_is_a_step_failure(tmp_path, raw):
    # the first Newton residual overflows: a named step failure, exit 5,
    # with no numpy warning on stderr
    cfg = tmp_path / "overflow.json"
    cfg.write_text(raw)
    done = run_python(["-W", "always", "-m", "homcont.cli", "branch", "--theta-star", "3.14",
                       "--config", str(cfg)])
    assert done.returncode == cli.EXIT_BRANCH
    assert done.stderr == ("error: residual at the Newton guess is not finite (inf); "
                           "try a smaller s0\n")


@pytest.mark.parametrize("argv, out", [
    (["bundles"], "file"),
    (["detect", "--grid-m", "8", "--window-n", "10"], "file/sub"),
], ids=["existing-file", "under-a-file"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, out):
    # a path --out cannot write is a config error, and no result is printed
    (tmp_path / "file").write_text("")
    code, stdout, err = run_cli(capsys, argv + ["--out", str(tmp_path / out)])
    assert code == 2
    assert err.startswith("error: out: cannot write")
    assert "Traceback" not in err
    assert stdout == ""


def test_cli_import_skips_scipy_sparse():
    done = run_python(["-c", "import sys, homcont.cli; print('scipy.sparse' in sys.modules)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_import_skips_scipy_linalg_python_layer():
    # LAPACK is loaded from scipy's compiled module alone
    heavy = ["scipy.linalg._basic", "scipy.linalg._decomp", "numpy.f2py", "numpy.testing"]
    done = run_python(["-c", f"import sys, homcont.cli; print([m for m in {heavy} if m in sys.modules])"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-first", "homcont-first"])
def test_lapack_handle_is_scipys_routine(scipy_first):
    # one _flapack module whichever is imported first, so scipy.linalg.lapack
    # hands out the very routines the library calls
    imports = ["import sys, scipy.linalg", "from homcont import _linalg"]
    check = ("print(sys.modules['scipy.linalg._flapack'] is _linalg._flapack,"
             " all(getattr(scipy.linalg.lapack, name) is getattr(_linalg, name)"
             " for name in ('dgbtrf', 'dgbtrs', 'dgees', 'dgesdd', 'dggev', 'dpbtrf',"
             " 'dpbtrs', 'dstebz', 'dstein', 'dtrsen')))")
    done = run_python(["-c", "; ".join((imports if scipy_first else imports[::-1]) + [check])])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True True"


LAPACK_RUN = """
import importlib.util, sys
out, fallback = sys.argv[1], sys.argv[2] == "fallback"
if fallback:
    importlib.util.spec_from_file_location = lambda *args, **kwargs: None
from homcont import _linalg, cli
loaded = "scipy.linalg.lapack" if fallback else "scipy.linalg._flapack"
assert _linalg._flapack.__name__ == loaded, _linalg._flapack
sys.exit(max(cli.main([cmd, "--seed", "7", "--out", out]) for cmd in ("bundles", "detect")))
"""


def test_lapack_fallback_gives_the_same_outputs(tmp_path):
    # when _flapack cannot be loaded from its file, the routines come from
    # scipy.linalg.lapack, with byte-identical outputs
    for how in ("file", "fallback"):
        done = run_python(["-c", LAPACK_RUN, str(tmp_path / how), how])
        assert done.returncode == 0, done.stderr
    for name in ("bundles.json", "detect.json", "detect_nodes.csv"):
        assert (tmp_path / "fallback" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


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
    assert len(lines) == 4
    assert all(line.startswith("PASS") for line in lines)


def test_verify_paper_main_theorem_row_fails_short_of_the_cap(tmp_path, capsys):
    # five steps do not reach the amplitude cap: only the main-theorem row
    # fails, and verify-paper exits 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"continuation": {"max_steps": 5}}))
    code, out, _ = run_cli(capsys, ["verify-paper", "--config", str(cfg)])
    assert code == 1
    lines = [line for line in out.splitlines() if line]
    assert [line[:4] for line in lines] == ["PASS", "PASS", "PASS", "FAIL"]
    assert "points=6/6" in lines[3]


def _fuzz_config(rng):
    """A seeded paper7 run configuration: parameters inside and beyond the
    ranges the deck families use, small grids and windows, and tolerances
    from strict to loose enough to fail the hyperbolicity gap."""
    return {
        "system": {"params": {
            "alpha": float(rng.uniform(0.05, 0.95)),
            "beta": float(np.exp(rng.uniform(np.log(1.05), np.log(1e3)))),
            "coupling": float(rng.choice([0.0, rng.uniform(0.0, 1.0)])),
            "envelope_scale": float(np.exp(rng.uniform(np.log(0.1), np.log(50.0)))),
        }},
        "grid_m": int(rng.integers(8, 65)),
        "window_n": int(rng.integers(10, 41)),
        "seed": int(rng.integers(0, 1000)),
        "tolerances": {"gap_tol": float(10.0 ** rng.uniform(-9.0, -0.3)),
                       "kernel_tol": float(10.0 ** rng.uniform(-12.0, -4.0))},
        "continuation": {"max_steps": int(rng.integers(0, 80))},
    }


def test_seeded_configs_exit_cleanly_and_rerun_identically(tmp_path, capsys, caplog):
    # ten seeded paper7 configs through all five commands: every exit code
    # is documented (0, one of EXIT_CODES, check's 6, verify-paper's 1), no
    # traceback, numpy warning or logged warning, and a rerun gives the same
    # exit code, stdout, stderr and files byte for byte (verify-paper's
    # timing masked)
    rng = np.random.default_rng(32)
    allowed = {"bundles": {0}, "detect": {0}, "branch": {0}, "check": {0, cli.EXIT_HYPOTHESES},
               "verify-paper": {0, 1}}
    codes = []
    for k in range(10):
        cfg = tmp_path / f"fuzz{k}.json"
        cfg.write_text(json.dumps(_fuzz_config(rng)))
        theta_star = repr(float(rng.uniform(2.0, 4.5)))
        for command in allowed:
            argv = [command, "--config", str(cfg)]
            if command == "branch":
                argv += ["--theta-star", theta_star]
            runs = []
            for rerun in ("a", "b"):
                out = tmp_path / f"{k}{command}{rerun}"
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code, stdout, err = run_cli(capsys, argv + ["--out", str(out)])
                assert code in allowed[command] | set(cli.EXIT_CODES), (k, command, code, err)
                assert "Traceback" not in err and "Warning" not in err, (k, command, err)
                assert caught == [], (k, command, [str(w.message) for w in caught])
                files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
                runs.append((code, re.sub(r"t=[0-9.]+s", "t=*", stdout), err, files))
            assert runs[0] == runs[1], (k, command)
            codes.append(runs[0][0])
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert len(set(codes)) >= 3, codes
