"""Pair benchmark runs of two checkouts and summarize them as one BENCH file.

    python3 tools/bench_summary.py PARENT_DIR CHANGE_DIR [--out BENCH_<n>.json]

Each directory is a source checkout in which ``bench/run.py`` has written
its detail files, ``.bench_out/<workload>-seed<n>-trace<t>.json``. Runs are
paired by workload, seed and trace flag; a run without a partner is left
out. For every end-to-end metric that ``BENCHMARK.json`` (next to this
script's parent directory) lists, and for every workload, the summary gives
each side's untraced values, median and quartiles, and the pairs the change
won, lost and tied (lower or higher is better as the metric says). It also
gives each side's failed and attempted operation counts and failures by
type. From the traced runs (``--trace 1``) it gives, for every per-layer
metric, each side's value per seed and median. The summary is printed as
JSON, and written to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETAIL = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace[01]\.json")


def load_runs(checkout, trace: int = 0) -> dict:
    """{(workload, seed): detail document} of a checkout's runs with this
    trace flag."""
    runs = {}
    for path in sorted((Path(checkout) / ".bench_out").glob(f"*-trace{trace}.json")):
        match = DETAIL.fullmatch(path.name)
        if match:
            runs[match["workload"], int(match["seed"])] = json.loads(path.read_text())
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0] if values else None
    median = statistics.median(values) if values else None
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "values": values}


def failures(docs: list[dict]) -> dict:
    """Failed and attempted operations over the runs, and failures by type."""
    by_type = {}
    for doc in docs:
        for key, count in doc["failures"].items():
            by_type[key] = by_type.get(key, 0) + count
    return {
        "failed": sum(not s["ok"] for doc in docs for s in doc["samples"]),
        "attempted": sum(len(doc["samples"]) for doc in docs),
        "by_type": by_type,
    }


def per_layer(parent: list[dict], change: list[dict], benchmark: dict) -> dict:
    """Each side's value per traced run and median, per per-layer metric."""
    out = {}
    for spec in benchmark.get("per_layer", []):
        metric = spec["name"]
        out[metric] = {"unit": spec["unit"], "better": spec["better"]}
        for side, docs in (("parent", parent), ("change", change)):
            out[metric][side] = spread([doc["metrics"][metric]["value"] for doc in docs])
    return out


def summarize(parent_dir, change_dir, benchmark: dict) -> dict:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    pairs = sorted(parent.keys() & change.keys())
    parent_t, change_t = load_runs(parent_dir, 1), load_runs(change_dir, 1)
    traced_pairs = sorted(parent_t.keys() & change_t.keys())
    workloads = {}
    for name in [w["name"] for w in benchmark["workloads"]]:
        seeds = [seed for workload, seed in pairs if workload == name]
        traced = [seed for workload, seed in traced_pairs if workload == name]
        if not seeds and not traced:
            continue
        sides = {"parent": [parent[name, s] for s in seeds],
                 "change": [change[name, s] for s in seeds]}
        metrics = {}
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            vals = {side: [doc["report"][metric]["value"] for doc in docs]
                    for side, docs in sides.items()}
            sign = 1.0 if spec["better"] == "lower" else -1.0
            wins = losses = ties = 0
            for p, c in zip(vals["parent"], vals["change"]):
                if p is None or c is None:
                    continue
                gain = sign * (p - c)
                wins, losses, ties = wins + (gain > 0), losses + (gain < 0), ties + (gain == 0)
            stats = {side: spread([v for v in vs if v is not None]) for side, vs in vals.items()}
            p, c = stats["parent"], stats["change"]
            gap = None
            if p["n"] and c["n"]:
                gap = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
            metrics[metric] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                **stats, "wins": wins, "losses": losses, "ties": ties,
                "median_gap_exceeds_parent_iqr": gap,
            }
        workloads[name] = {
            "seeds": seeds,
            "metrics": metrics,
            "operations": {side: failures(docs) for side, docs in sides.items()},
        }
        if traced:
            workloads[name]["traced_seeds"] = traced
            workloads[name]["per_layer"] = per_layer(
                [parent_t[name, s] for s in traced], [change_t[name, s] for s in traced],
                benchmark)
    docs = [*change.values(), *change_t.values()]
    env = docs[0]["env"] if docs else None
    return {"env": env, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit, with .bench_out/")
    parser.add_argument("change", help="checkout of the change, with .bench_out/")
    parser.add_argument("--out", help="also write the summary to this file")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    text = json.dumps(summarize(args.parent, args.change, benchmark), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
