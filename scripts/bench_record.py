"""Record a change's benchmark numbers against its parent's.

    python3 scripts/bench_record.py PARENT_TREE CHANGE_TREE --workload ring --pairs 10

Runs `perfbench/run.py` of each source tree, in pairs whose order
alternates (parent first in even pairs, change first in odd ones), and
reads the JSON object on each run's last line.  For every metric it
gives each side's median and quartiles and the pairs the change won,
ties counting for neither side, by the direction `BENCHMARK.json`
declares for it.  The record also holds each side's wall time per
run, timed around the `perfbench/run.py` process (`run_wall_s`, median
and quartiles), which counts the untimed work between queries that
the run's own metrics leave out, each tree's `src/tccs` line count and
the wall time of one tier-1 run in each tree, as pytest reports it,
taken before the pairs.  It goes into
`BENCH_<workload>.json` at the root of this repository, under the
parent's commit: the entry for the change that sits on that commit.  A
second record with the same seed, length and trace setting replaces
the first.  PARENT_TREE must be a git checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json(output: str) -> dict:
    """The result object a run prints on its last line."""
    return json.loads(output.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles, as `statistics.quantiles` gives them."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """Per metric, each side's spread and the pairs the change won.

    `parent[k]` and `change[k]` are the result objects of pair k, and
    `better` maps a metric to "higher" or "lower"; a metric it does not
    name gets no count of pairs won.  `run_wall_s` of each result
    object is the wall time of its run; each side's spread of it is
    recorded beside the metrics.
    """
    metrics = {}
    for name in parent[0]["metrics"]:
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        entry = {
            "unit": parent[0]["metrics"][name]["unit"],
            "parent": spread(before),
            "change": spread(after),
        }
        way = better.get(name)
        if way is not None:
            sign = 1 if way == "higher" else -1
            entry["better"] = way
            entry["won"] = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        metrics[name] = entry
    return {
        "pairs": len(parent),
        "run_wall_s": {
            "parent": spread([run["run_wall_s"] for run in parent]),
            "change": spread([run["run_wall_s"] for run in change]),
        },
        "failed": {
            "parent": sum(run["failed"] for run in parent),
            "change": sum(run["failed"] for run in change),
        },
        "attempted": {
            "parent": sum(run["attempted"] for run in parent),
            "change": sum(run["attempted"] for run in change),
        },
        "metrics": metrics,
    }


def src_lines(tree: Path) -> int:
    return sum(
        len(path.read_text().splitlines())
        for path in sorted((tree / "src" / "tccs").glob("*.py"))
    )


def pytest_seconds(output: str) -> float | None:
    """The wall time on the summary line of a pytest run's output."""
    found = re.findall(r" in ([0-9.]+)s\b", output)
    return float(found[-1]) if found else None


def tier1_seconds(tree: Path) -> float:
    """The wall time of one tier-1 run of the tree's own tests."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=tree, capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")),
    )
    seconds = pytest_seconds(out.stdout)
    if seconds is None:
        raise SystemExit("tier-1 in %s printed no summary:\n%s" % (tree, out.stderr))
    return seconds


def run(tree: Path, args: argparse.Namespace) -> dict:
    """One run's result object, with its wall time as `run_wall_s`."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    wall = time.perf_counter() - start
    if out.returncode not in (0, 1):
        raise SystemExit("perfbench in %s exited %d:\n%s"
                         % (tree, out.returncode, out.stderr))
    return dict(last_json(out.stdout), run_wall_s=round(wall, 3))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    commit = subprocess.run(
        ["git", "-C", str(args.parent), "rev-parse", "--short", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    if commit.returncode != 0:
        ap.error("%s is not a git checkout" % args.parent)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {
        m["name"]: m["better"]
        for m in declared["end_to_end"] + declared["per_layer"]
    }

    tier1 = {"parent": tier1_seconds(args.parent), "change": tier1_seconds(args.change)}
    parent, change = [], []
    for k in range(args.pairs):
        sides = [(args.parent, parent), (args.change, change)]
        for tree, runs in sides if k % 2 == 0 else sides[::-1]:
            runs.append(run(tree, args))
        print("pair %d: %s run_wall_s %.4g -> %.4g" % (k + 1, " ".join(
            "%s %.4g -> %.4g" % (name, parent[-1]["metrics"][name]["value"],
                                 change[-1]["metrics"][name]["value"])
            for name in list(parent[-1]["metrics"])[:4]),
            parent[-1]["run_wall_s"], change[-1]["run_wall_s"]), flush=True)

    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_tccs_lines": {
            "parent": src_lines(args.parent),
            "change": src_lines(args.change),
        },
        "tier1_s": tier1,
        **summarise(parent, change, better),
    }
    path = ROOT / ("BENCH_%s.json" % args.workload)
    doc = json.loads(path.read_text()) if path.exists() else {}
    same = ("seed", "seconds", "trace")
    records = [
        r for r in doc.get(commit.stdout.strip(), [])
        if any(r[f] != record[f] for f in same)
    ]
    doc[commit.stdout.strip()] = records + [record]
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, m in record["metrics"].items():
        print("%-28s parent %-10.4g change %-10.4g won %s/%d" % (
            name, m["parent"]["median"], m["change"]["median"],
            m.get("won", "-"), record["pairs"]))
    wall = record["run_wall_s"]
    print("%-28s parent %-10.4g change %-10.4g" % (
        "run_wall_s", wall["parent"]["median"], wall["change"]["median"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
