"""The scripts run to completion: the surveys on a few terms, and the
output digest to the pinned line whatever the hash seed.  The benchmark
recorder's summary is checked on canned result lines."""

import importlib.util
import json
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


def _bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_run(qps, p50, failed=0):
    metrics = {
        "queries_per_s": {"value": qps, "unit": "1/s"},
        "query_p50_ms": {"value": p50, "unit": "ms"},
        "undeclared": {"value": 1.0, "unit": "count"},
    }
    return (
        "workload ring, seed 1, 20 s, trace 0\n"
        "metric queries_per_s = %g 1/s\n" % qps
        + json.dumps({"correct": not failed, "attempted": 10, "failed": failed,
                      "metrics": metrics})
        + "\n"
    )


def test_bench_record_summarises_alternating_runs():
    bench = _bench_record()
    parent = [dict(bench.last_json(_canned_run(q, p)), run_wall_s=w)
              for q, p, w in ((50, 20.0, 37.0), (52, 19.0, 36.0),
                              (54, 18.0, 38.0), (56, 17.0, 40.0))]
    change = [dict(bench.last_json(_canned_run(q, p, f)), run_wall_s=w)
              for q, p, f, w in ((70, 14.0, 0, 29.0), (51, 19.0, 2, 30.0),
                                 (80, 12.0, 0, 28.0), (75, 13.0, 0, 29.0))]
    got = bench.summarise(
        parent, change, {"queries_per_s": "higher", "query_p50_ms": "lower"}
    )
    assert got["pairs"] == 4
    assert got["run_wall_s"] == {
        "parent": {"median": 37.5, "q1": 36.25, "q3": 39.5},
        "change": {"median": 29.0, "q1": 28.25, "q3": 29.75},
    }
    assert got["failed"] == {"parent": 0, "change": 2}
    assert got["attempted"] == {"parent": 40, "change": 40}
    qps = got["metrics"]["queries_per_s"]
    assert qps["parent"] == {"median": 53, "q1": 50.5, "q3": 55.5}
    assert qps["change"]["median"] == 72.5
    assert (qps["unit"], qps["better"], qps["won"]) == ("1/s", "higher", 3)
    # a tie counts for neither side
    assert got["metrics"]["query_p50_ms"]["won"] == 3
    assert "won" not in got["metrics"]["undeclared"]
    one = bench.summarise(parent[:1], change[:1], {})
    assert one["metrics"]["queries_per_s"]["change"] == {
        "median": 70, "q1": 70, "q3": 70
    }


def test_bench_record_times_each_run_around_its_process(tmp_path):
    # a tree whose benchmark sleeps, as untimed work between queries
    # would, and then prints a canned result line
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    (bench_dir / "run.py").write_text(
        "import sys, time\ntime.sleep(0.3)\nsys.stdout.write(%r)\n"
        % _canned_run(50, 20.0)
    )
    bench = _bench_record()
    args = bench.argparse.Namespace(workload="ring", seed=1, seconds=1, trace=0)
    got = bench.run(tmp_path, args)
    assert got["metrics"]["queries_per_s"]["value"] == 50
    assert 0.3 <= got["run_wall_s"] < 30


def test_bench_record_reads_the_tier1_wall_time_off_pytest():
    bench = _bench_record()
    assert bench.pytest_seconds("....\n201 passed in 38.14s\n") == 38.14
    assert bench.pytest_seconds(
        "F..\n= 1 failed, 200 passed, 3 warnings in 75.23s (0:01:15) =\n"
    ) == 75.23
    assert bench.pytest_seconds("ERROR: file or directory not found\n") is None
