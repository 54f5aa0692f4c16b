"""The benchmark's counters must not depend on string hashing.

Runs one reduced round of every workload under two PYTHONHASHSEED
values and requires identical counters: states, edges, rounds,
certificate entries, relation sizes and verdict digests.  A state
numbering that followed `hash()` order would show up here.

    python3 -m pytest perfbench/test_determinism.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def counters(hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--small"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout)


def test_counters_do_not_depend_on_hash_seed():
    first, second = counters(0), counters(4242)
    assert sorted(first) == ["chain", "pairs", "pool", "ring"]
    for name in first:
        assert first[name] == second[name], name
