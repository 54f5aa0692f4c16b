"""The scripts run to completion: the surveys on a few terms, and the
output digest to the pinned line whatever the hash seed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "8c681e08c822e96e44808e3503532c5dd9808a7bc5ebdae6408ad500554dc27d"


@pytest.mark.parametrize("script", ["survey_laws.py", "survey_modes.py"])
def test_survey_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--count", "5"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def test_output_digest_does_not_depend_on_the_hash_seed():
    lines = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        run = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "output_digest.py")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert run.stderr == ""
        assert re.fullmatch(r"[0-9a-f]{64}\n", run.stdout)
        lines.add(run.stdout)
    # Pinned: a change meant to alter outputs updates this digest and
    # says so in CHANGES.md.
    assert lines == {DIGEST + "\n"}
