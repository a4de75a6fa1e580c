"""Paired perfbench runs of a parent tree against a change tree.

    python3 tools/ab.py PARENT CHANGE --workload exch-topic-backlog \\
        --pairs 10 --seconds 30 --first-seed 601 [--trace] [--record TEXT]

PARENT and CHANGE are source checkouts; each run is
`python3 perfbench/run.py` inside one of them, so each side measures its own
`src/`.  Pair i runs seed `first-seed + i` on both sides, the parent first
in even pairs and the change first in odd ones.  Each run's last standard
output line is perfbench's JSON result.

For every gated metric of `BENCHMARK.json` (with `--trace`, every per-layer
metric, each time scaled by its run's `driver.host_speed`, and beside each
of those its unscaled value as `<name>.raw`) the tool prints
each side's quartiles, the parent's interquartile range as a share of its
median, the change's median over the parent's, and the pairs the change won.
A metric is flagged as a claim when there are at least ten pairs, the
change won at least nine pairs in ten, its median moved by more than the
parent's interquartile range and, if `BENCH_<workload>.json` holds an A/A
entry (one whose description starts with `A/A:`), by more than the median
move that the latest such entry recorded for the metric, which is printed
beside it; it is flagged as worse when its median is worse by more than
the metric's bound.  Beside each median ratio stands its 95% interval from
a seeded paired bootstrap: the pairs resampled with replacement, the ratio
of medians taken per resample, and the 2.5th and 97.5th percentiles of
those ratios.

Running a tree against itself (an A/A run) gives each metric's noise floor.
`--record TEXT` appends the comparison, with TEXT as the change's
description, to `BENCH_<workload>.json` beside this tool's `tools/`.  An
entry names the parent's commit, which perfbench reads from the tree's
`.git`, so `--record` refuses, before any pair runs, a PARENT or CHANGE
that has none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIME_UNITS = ("us", "ms")  # per-layer units scaled by host speed
RAW = ".raw"  # suffix of a scaled metric's unscaled twin
RESAMPLES = 2000  # bootstrap resamples per metric
SEED = 0  # of the bootstrap's generator, so the same pairs give the same interval
AA = "A/A:"  # how the description of a tree-against-itself entry starts
MIN_CLAIM_PAIRS = 10  # fewer pairs cannot tell a move from the noise


def last_result(stdout: str) -> dict:
    """perfbench's result, the last line of `stdout`, with the commit its
    `record` line names as `git_sha`."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("the run's output does not end in a JSON result line")
    result = json.loads(lines[-1])
    record = next((line for line in lines if line.startswith("record ")), None)
    result["git_sha"] = json.loads(record[7:]).get("git_sha") if record else None
    return result


def scaled(name: str, unit: str) -> bool:
    """Whether a traced run's metric is scaled by host speed."""
    return unit in TIME_UNITS and not name.startswith("driver.")


def values(result: dict, units: dict) -> dict:
    """Metric name -> value of one run.  A traced run's per-layer metrics
    are raw, so those in `TIME_UNITS`, except the driver's own, are scaled
    by the run's `driver.host_speed` to the reference host speed, and keep
    their raw value under `<name>.raw`."""
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    speed = metrics.get("driver.host_speed")
    if speed:
        for name, v in list(metrics.items()):
            if scaled(name, units.get(name)):
                metrics[name] = v * speed
                metrics[name + RAW] = v
    return metrics


def quartiles(xs: list) -> dict:
    """Inclusive quartiles and the median."""
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def bootstrap_ratio(pairs: list) -> tuple:
    """95% percentile interval of median(change) / median(parent) - 1 over
    `RESAMPLES` paired resamples of `pairs`, drawn from a generator seeded
    with `SEED`.  A resample whose parent median is 0 has no ratio and is
    skipped."""
    rng = random.Random(SEED)
    n = len(pairs)
    ratios = []
    for _ in range(RESAMPLES):
        sample = [pairs[rng.randrange(n)] for _ in range(n)]
        parent = statistics.median(p for p, _ in sample)
        if parent:
            ratios.append(statistics.median(c for _, c in sample) / parent - 1)
    if not ratios:
        return (0.0, 0.0)
    ratios.sort()
    return (ratios[int(0.025 * (len(ratios) - 1))], ratios[math.ceil(0.975 * (len(ratios) - 1))])


def aa_moves(path: Path) -> dict:
    """Metric name -> median move (change over parent, less 1) of the latest
    A/A entry of the trajectory file `path`; empty if it has none."""
    trajectory = json.loads(path.read_text())["trajectory"] if path.exists() else []
    entries = [e for e in trajectory if e["change"].startswith(AA)]
    if not entries:
        return {}
    return {name: m["change_vs_parent_median"] for name, m in entries[-1]["metrics"].items()}


def compare(pairs: list, better: str, bound: float | None = None,
            aa: float | None = None) -> dict:
    """Statistics of one metric over (parent, change) value pairs; `aa` is
    the metric's A/A median move, which a claim must also exceed."""
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    spread = parent["q3"] - parent["q1"]
    moved = change["median"] - parent["median"]
    ratio = moved / parent["median"] if parent["median"] else 0.0
    return {
        "parent": parent,
        "change": change,
        "parent_iqr_share": spread / parent["median"] if parent["median"] else 0.0,
        "change_vs_parent_median": ratio,
        "ratio_ci95": bootstrap_ratio(pairs),
        "change_better_pairs": wins,
        "aa": aa,
        "claim": (len(pairs) >= MIN_CLAIM_PAIRS and wins >= math.ceil(0.9 * len(pairs))
                  and sign * moved > spread
                  and (aa is None or sign * ratio > abs(aa))),
        "worse": bound is not None and -sign * ratio > bound,
    }


def gated(benchmark: dict, trace: bool) -> dict:
    """Name -> (better, bound, unit) of the metrics a comparison reads:
    with `trace`, each scaled per-layer metric and then its raw twin."""
    rows = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    out = {}
    for m in rows:
        out[m["name"]] = (m["better"], m.get("bound"), m["unit"])
        if trace and scaled(m["name"], m["unit"]):
            out[m["name"] + RAW] = out[m["name"]]
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return last_result(proc.stdout)
    except ValueError:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise


def report(name: str, stats: dict) -> str:
    p, c = stats["parent"], stats["change"]
    lo, hi = stats["ratio_ci95"]
    flags = (" CLAIM" if stats["claim"] else "") + (" WORSE-THAN-BOUND" if stats["worse"] else "")
    aa = "-" if stats["aa"] is None else f"{stats['aa']:+.1%}"
    return (f"  {name:<44} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f" iqr {stats['parent_iqr_share']:+.1%}  change {c['median']:.6g}"
            f" [{c['q1']:.6g}, {c['q3']:.6g}]  median {stats['change_vs_parent_median']:+.1%}"
            f" a/a {aa} ci95 [{lo:+.1%}, {hi:+.1%}]  wins {stats['change_better_pairs']}{flags}")


def entry(text: str, parent: str, workload: str, args, seeds: list, stats: dict,
          failed: dict) -> dict:
    """One `BENCH_<workload>.json` trajectory entry."""
    first = ", ".join(str(i + 1) for i in range(0, len(seeds), 2))
    return {
        "change": text,
        "parent": parent,
        "command": f"python3 perfbench/run.py --workload {workload} --seed SEED"
                   f" --seconds {args.seconds:g} --trace {int(args.trace)}",
        "procedure": f"each tree in its own checkout, run by tools/ab.py; {len(seeds)} pairs,"
                     f" seeds {seeds[0]}-{seeds[-1]}, parent first in pairs {first}"
                     " and change first in the others",
        "host": f"{os.cpu_count()} vCPU, Python {platform.python_version()},"
                f" {platform.machine()}",
        "pairs": len(seeds),
        "quartiles": f"inclusive method over the {len(seeds)} runs of each side",
        "failed": failed,
        "metrics": {
            name: {
                "parent": {k: round(v, 5) for k, v in s["parent"].items()},
                "change": {k: round(v, 5) for k, v in s["change"].items()},
                "parent_iqr_share": round(s["parent_iqr_share"], 5),
                "change_vs_parent_median": round(s["change_vs_parent_median"], 5),
                "ratio_ci95": [round(x, 5) for x in s["ratio_ci95"]],
                "change_better_pairs": s["change_better_pairs"],
            }
            for name, s in stats.items()
        },
    }


def append_entry(path: Path, workload: str, item: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"workload": workload, "trajectory": []}
    doc["trajectory"].append(item)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", metavar="TEXT")
    args = ap.parse_args(argv)
    if args.record:
        for tree in (args.parent, args.change):
            if not (tree / ".git").exists():
                ap.error(f"--record needs each tree's commit, and {tree} has no .git")

    metrics = gated(json.loads((ROOT / "BENCHMARK.json").read_text()), args.trace)
    units = {name: unit for name, (_, _, unit) in metrics.items()}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs: dict = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    parent_sha = None
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = args.parent if side == "parent" else args.change
            result = run_once(tree, args.workload, seed, args.seconds, args.trace)
            failed[side] += result["failed"]
            if side == "parent":
                parent_sha = result["git_sha"]
            runs[side].append(values(result, units))
        p, c = runs["parent"][-1], runs["change"][-1]
        print(f"pair {i + 1} seed {seed} ({order[0]} first): " + "  ".join(
            f"{name} {p.get(name, 0):.4g}/{c.get(name, 0):.4g}" for name in list(metrics)[:4]
        ), flush=True)

    pairs = {name: [(p.get(name, 0.0), c.get(name, 0.0))
                    for p, c in zip(runs["parent"], runs["change"])] for name in metrics}
    path = ROOT / f"BENCH_{args.workload}.json"
    aa = aa_moves(path)
    # a metric that reads 0 in every run is one this workload does not measure
    stats = {
        name: compare(pairs[name], better, bound, aa.get(name))
        for name, (better, bound, _) in metrics.items() if any(map(any, pairs[name]))
    }
    print(f"{args.workload}: {args.pairs} pairs, failed parent {failed['parent']}"
          f" change {failed['change']}")
    for name, s in stats.items():
        print(report(name, s))
    if args.record:
        parent = (parent_sha or "unknown")[:7]
        append_entry(path, args.workload,
                     entry(args.record, parent, args.workload, args, seeds, stats, failed))
        print(f"recorded in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
