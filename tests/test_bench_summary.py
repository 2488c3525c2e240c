"""tools/bench_summary.py pairs two checkouts' benchmark detail files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
BENCHMARK = {
    "workloads": [{"name": "geodesic-pullback"}, {"name": "land-grid"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "ok_frac", "unit": "1", "better": "higher", "bound": 0.05},
    ],
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(checkout, seed, wall_s, ok_frac, oks, trace=0, workload="geodesic-pullback"):
    out = checkout / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    failed = [ok for ok in oks if not ok]
    doc = {
        "env": {"nproc": 2},
        "report": {"wall_s": {"value": wall_s}, "ok_frac": {"value": ok_frac}},
        "failures": {"exp_map:SingularMetric": len(failed)} if failed else {},
        "samples": [{"ok": ok} for ok in oks],
    }
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(doc))


def test_runs_pair_by_workload_and_seed(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_run(parent, 1, 1.0, 1.0, [True, True])
    write_run(change, 1, 0.75, 1.0, [True, True, True])
    write_run(parent, 2, 1.2, 1.0, [True, True])
    write_run(change, 2, 1.35, 0.5, [True, False])
    write_run(parent, 3, 1.1, 1.0, [True])  # no partner: left out
    write_run(change, 3, 9.0, 1.0, [True], trace=1)  # traced: not a detail file
    write_run(change, 4, 0.5, 1.0, [True], workload="land-grid")  # no partner

    summary = tool.summarize(parent, change, BENCHMARK)

    assert list(summary["workloads"]) == ["geodesic-pullback"]
    run = summary["workloads"]["geodesic-pullback"]
    assert run["seeds"] == [1, 2]
    wall = run["metrics"]["wall_s"]
    assert wall["parent"]["values"] == [1.0, 1.2] and wall["change"]["values"] == [0.75, 1.35]
    assert wall["parent"]["median"] == pytest.approx(1.1)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((1.05, 1.15))
    assert (wall["wins"], wall["losses"], wall["ties"]) == (1, 1, 0)
    assert wall["median_gap_exceeds_parent_iqr"] is False
    ok = run["metrics"]["ok_frac"]
    assert (ok["wins"], ok["losses"], ok["ties"]) == (0, 1, 1)
    assert run["operations"]["parent"] == {"failed": 0, "attempted": 4, "by_type": {}}
    assert run["operations"]["change"] == {
        "failed": 1, "attempted": 5, "by_type": {"exp_map:SingularMetric": 1}}


def write_traced(checkout, seed, values, workload="geodesic-pullback"):
    out = checkout / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    doc = {"env": {"nproc": 2}, "metrics": {
        name: {"value": value, "unit": "count"} for name, value in values.items()}}
    (out / f"{workload}-seed{seed}-trace1.json").write_text(json.dumps(doc))


def test_traced_runs_give_per_layer_values_per_seed(tool, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_traced(parent, 5, {"families.kl.calls": 500.0, "geodesic.iterations": 120.0})
    write_traced(change, 5, {"families.kl.calls": 240.0, "geodesic.iterations": 100.0})
    write_traced(parent, 6, {"families.kl.calls": 520.0, "geodesic.iterations": 130.0})
    write_traced(change, 6, {"families.kl.calls": 260.0, "geodesic.iterations": 104.0})
    write_traced(parent, 7, {"families.kl.calls": 1.0, "geodesic.iterations": 1.0})  # no partner
    benchmark = {**BENCHMARK, "per_layer": [
        {"name": "families.kl.calls", "unit": "count", "better": "lower"},
        {"name": "geodesic.iterations", "unit": "count", "better": "lower"},
    ]}

    summary = tool.summarize(parent, change, benchmark)

    run = summary["workloads"]["geodesic-pullback"]
    assert run["seeds"] == [] and run["traced_seeds"] == [5, 6]
    kl = run["per_layer"]["families.kl.calls"]
    assert kl["unit"] == "count" and kl["better"] == "lower"
    assert kl["parent"]["values"] == [500.0, 520.0] and kl["parent"]["median"] == 510.0
    assert kl["change"]["values"] == [240.0, 260.0] and kl["change"]["median"] == 250.0
    assert run["per_layer"]["geodesic.iterations"]["change"]["median"] == 102.0
    assert summary["env"] == {"nproc": 2}
