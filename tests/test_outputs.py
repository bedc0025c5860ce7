"""CLI outputs pinned by SHA-256 digest.

Each command runs in-process through cli.main at the default config; the
digests of its stdout and of every file it writes under --out must equal
the recorded ones.  verify-paper's timing (t=...s) is masked.  A change
that moves the last bits of any output fails here: if the move is
intended, record the new digests (print command_digests for each
command) and say so in CHANGES.md.
"""
import contextlib
import hashlib
import io
import re

import pytest

from homcont import cli

RECORDED_WITH = "Python 3.11.7, numpy 2.4.6, scipy 1.17.1"

COMMANDS = {
    "bundles": ["bundles"],
    "detect": ["detect", "--window-n", "40"],
    "branch": ["branch", "--theta-star", "3.14"],
    "check": ["check"],
    "verify-paper": ["verify-paper"],
}

DIGESTS = {
    "bundles": {
        "exit": 0,
        "stdout": "e6df618423b5858c77bd8953a3a7b4e60a28d893ce8540df87feaef950265ed8",
        "bundles.json": "e6df618423b5858c77bd8953a3a7b4e60a28d893ce8540df87feaef950265ed8",
    },
    "detect": {
        "exit": 0,
        "stdout": "940fddc2dc1640f0158f19a107d0f1ac4646b65267f9e82a26888ba4eb8e726c",
        "detect.json": "940fddc2dc1640f0158f19a107d0f1ac4646b65267f9e82a26888ba4eb8e726c",
        "detect_nodes.csv": "62fff9d2d7d95b534dd6a1bbecad52f7296731e808305a7aaf32397b7cd5123a",
    },
    "branch": {
        "exit": 0,
        "stdout": "71539857960ed65bf2874b9867cb8202674a9bd2c0d556edf442b78909104279",
        "branch.csv": "63db3ac05628793c044afed62766af158014ed2d5a8930a3235b0db00811f19a",
        "branch.json": "71539857960ed65bf2874b9867cb8202674a9bd2c0d556edf442b78909104279",
    },
    "check": {
        "exit": 0,
        "stdout": "1f2eda53944948c8fccc4f3be559f540ed39bc04cdc41da0e59ca20451bc4799",
        "check.json": "1f2eda53944948c8fccc4f3be559f540ed39bc04cdc41da0e59ca20451bc4799",
    },
    "verify-paper": {
        "exit": 0,
        "stdout": "c42bbc04369533d1831fcb7f5732be9218913509d8e67990c83d107e230d4e85",
    },
}


def command_digests(argv, out_dir):
    """Exit code and SHA-256 digests of stdout and of each --out file."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv + ["--out", str(out_dir)])
    text = re.sub(r"t=[0-9.]+s", "t=*", stdout.getvalue())
    digests = {"exit": code, "stdout": hashlib.sha256(text.encode()).hexdigest()}
    for path in sorted(out_dir.glob("*")):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_outputs_match_recorded_digests(tmp_path, command):
    got = command_digests(COMMANDS[command], tmp_path)
    want = DIGESTS[command]
    changed = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
    assert not changed, (f"{command}: {', '.join(changed)} changed against the digests "
                         f"recorded with {RECORDED_WITH}")
