"""Self-test of the benchmark itself; run from the root of a source checkout:

    python3 bench/selftest.py

It checks that
  * BENCHMARK.json names exactly the metrics and workloads the runner prints;
  * installing the tracer leaves no statgeo module or class holding an
    unwrapped original of a traced function, and uninstalling restores all;
  * a short traced run of each workload succeeds, which includes the
    runner's own check that traced and untraced passes give identical
    outputs;
  * each per-layer function records at least one span on the workload(s)
    the per-layer table in bench/README.md names for it.
Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GP, LG, CLI = "geodesic-pullback", "land-grid", "cli-toy"
# function -> workloads on which it must record spans
EXPECTED = {
    "families.kl": [GP], "families.kl_grad": [GP], "families.fisher": [GP],
    "decoder.forward_stacked": [GP, CLI], "decoder.jacobian_stacked": [GP, CLI],
    "metric.PullbackMetric.eval": [GP], "metric.PullbackMetric.eval_batch": [CLI],
    "metric.GridMetric.eval_batch": [LG, CLI], "metric.KlProbeMetric.eval": [CLI],
    "metric.grid_build": [CLI],
    "geodesic.minimize_energy_detailed": [GP, CLI], "geodesic.curve_length": [GP],
    "geodesic.exp_map": [GP, CLI], "geodesic.exp_map_batch": [LG],
    "geodesic.log_map": [CLI], "geodesic.log_map_batch": [LG],
    "land.land_normalizer_stats": [LG], "land.land_logpdf_batch": [LG],
    "land.land_fit": [LG],
    "io.save_grid": [CLI], "io.load_grid": [CLI], "io.load_decoder": [CLI],
    "io.save_codes": [CLI], "io.load_codes": [CLI],
}
EXPECTED.update({f"cli.{sub}": [CLI] for sub in tracing.CLI_SUBCOMMANDS})
NAME_IMPORTS = ("statgeo.land.exp_map_batch", "statgeo.land.log_map",
                "statgeo.land.log_map_batch")


def check_benchmark_json(errors):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    if e2e != list(run.E2E):
        errors.append(f"BENCHMARK.json end_to_end {e2e} != runner {list(run.E2E)}")
    layers = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    if layers != list(tracing.PER_LAYER):
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    names = [w["name"] for w in doc["workloads"]]
    if names != list(workloads.WORKLOADS):
        errors.append(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    missing = set(EXPECTED) - {n.rsplit(".", 1)[0] for n, _, _ in tracing.PER_LAYER}
    if missing:
        errors.append(f"per-layer metrics missing for {sorted(missing)}")


def check_patching(errors):
    sg = run.import_statgeo()
    tracer = tracing.Tracer(sg)
    names = {t.name for t in tracer.targets}
    if names != set(tracing.FUNCTIONS):
        errors.append(f"traced functions {sorted(names ^ set(tracing.FUNCTIONS))} "
                      "differ from tracing.FUNCTIONS")
    originals = {id(vars(t.owner)[t.attr]): t.name for t in tracer.targets}
    tracer.install()
    try:
        for mod_name, mod in sorted(sys.modules.items()):
            if not (mod_name == "statgeo" or mod_name.startswith("statgeo.")):
                continue
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    errors.append(f"{mod_name}.{attr} still holds unwrapped "
                                  f"{originals[id(value)]}")
        for target in tracer.targets:
            if id(vars(target.owner)[target.attr]) in originals:
                errors.append(f"{target.name} is not wrapped")
        aliases = {path for paths in tracer.aliases.values() for path in paths}
        for name in NAME_IMPORTS:
            if name not in aliases:
                errors.append(f"{name} was not patched")
    finally:
        tracer.uninstall()
    for target in tracer.targets:
        if id(vars(target.owner)[target.attr]) not in originals:
            errors.append(f"{target.name} was not restored")


def check_traced_runs(errors):
    for wl in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", wl, "--seed", "1",
             "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            errors.append(f"{wl}: traced run exited {proc.returncode}: {proc.stdout[-2000:]}"
                          f"{proc.stderr[-2000:]}")
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            errors.append(f"{wl}: traced run reported correct=false")
        values = {k: v["value"] for k, v in last["metrics"].items()}
        if set(values) != {n for n, _, _ in tracing.PER_LAYER}:
            errors.append(f"{wl}: traced run metrics differ from PER_LAYER")
        for fn, expected_on in EXPECTED.items():
            calls = values.get(f"{fn}.calls", values.get(f"{fn}.s"))
            if wl in expected_on and not calls:
                errors.append(f"{wl}: no span recorded for {fn}")
        print(f"{wl}: traced run ok", flush=True)


def main() -> int:
    errors: list[str] = []
    check_benchmark_json(errors)
    check_patching(errors)
    check_traced_runs(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest passed" if not errors else f"selftest failed: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
