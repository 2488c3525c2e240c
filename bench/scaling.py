"""Measures each reduced size the workloads use against the full size it
stands for. Run from the root of a source checkout:

    python3 bench/scaling.py

It takes about three minutes on a 2-core machine. Each row times the
benchmark's setting and the full setting once, on the same inputs, and
prints the time per unit of work (iteration, lattice node, target) for
both, so one can judge whether the reduced mix does the same kind of work:

  * `log --grid`: the benchmark caps the iterations (N=200, S=4 as the CLI
    defaults); the full setting is the CLI default of 200 iterations;
  * KL-probe `metric-grid`: 20x20 (the ROADMAP baseline's probe grid)
    against the toy workflow's 40x40 lattice;
  * the land-grid Exp-Log round trip: 8 angle-stratified codes against all
    200 codes, for time per target and the median round-trip error;
  * the capped land_fit: the benchmark's 4 codes against the 16-code,
    one-iteration fit that first showed the SingularMetric failure.

The last stdout line is one JSON object with every row.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def row(name, unit, bench, full):
    """bench and full are (setting, work units, seconds, extra dict)."""
    out = {"name": name, "unit": unit}
    for key, (setting, units, seconds, extra) in (("bench", bench), ("full", full)):
        out[key] = {"setting": setting, "seconds": seconds, "units": units,
                    "s_per_unit": seconds / units, **extra}
    out["per_unit_ratio"] = out["bench"]["s_per_unit"] / out["full"]["s_per_unit"]
    return out


def log_grid(ctx, grid_path):
    z, y = ctx.state["codes"][[3, 117]]
    rows = []
    for args in (wl.LOG_GRID_ARGS, ["--max-iters", "200"]):
        argv = ["log", "--grid", grid_path, f"--z={wl._vec(z)}", f"--y={wl._vec(y)}",
                "--seed", "7", *args]
        out, seconds = timed(lambda: wl._run_cli(ctx, argv))
        iters = int(args[args.index("--max-iters") + 1])
        rows.append((" ".join(args), iters, seconds, {"v": json.loads(out)["v"]}))
    return row("log --grid", "iteration", *rows)


def kl_probe(ctx):
    rows = []
    for res in (wl.KL_PROBE_RESOLUTION, wl.RESOLUTION):
        argv = ["metric-grid", "--decoder", ctx.state["dec_path"], "--mode", "kl-probe",
                f"--bounds={wl.BOUNDS}", "--resolution", res, "--out", ctx.path("probe.json")]
        _, seconds = timed(lambda: wl._run_cli(ctx, argv))
        nodes = int(np.prod([int(v) for v in res.split(",")]))
        rows.append((res, nodes, seconds, {}))
    return row("metric-grid kl-probe", "node", *rows)


def round_trip(ctx, gm):
    sg, codes = ctx.sg, ctx.state["codes"]
    mean = codes.mean(axis=0)
    cfg = sg.land.LandFitConfig().logmap_cfg
    rows = []
    for targets in (wl._stratified(ctx.rng(0), codes, mean, wl.ROUNDTRIP_TARGETS), codes):
        (vs, _, _), t_log = timed(lambda: sg.geodesic.log_map_batch(
            gm, mean, targets, cfg, sg.rng.RngStream(3)))
        starts = np.tile(mean, (len(targets), 1))
        ends, t_exp = timed(lambda: sg.geodesic.exp_map_batch(gm, starts, vs))
        err = np.linalg.norm(ends - targets, axis=1) / np.linalg.norm(targets - mean, axis=1)
        rows.append((f"{len(targets)} codes", len(targets), t_log + t_exp,
                     {"log_map_batch_s": t_log, "exp_map_batch_s": t_exp,
                      "roundtrip_err": float(np.median(err))}))
    return row("Exp-Log round trip", "target", *rows)


def land_fit(ctx, gm):
    sg, codes = ctx.sg, ctx.state["codes"]
    gen = ctx.rng(wl.ONCE_KEY)
    bench_cfg = sg.land.LandFitConfig(
        **wl.LAND_FIT_CAP,
        logmap_cfg=replace(sg.land.LandFitConfig().logmap_cfg, max_iters=wl.LAND_FIT_LOGMAP_ITERS))
    full_cfg = sg.land.LandFitConfig(max_iters=1)
    rows = []
    for n, cfg in ((wl.LAND_FIT_CODES, bench_cfg), (16, full_cfg)):
        subset = codes[gen.choice(len(codes), n, replace=False)]
        t0 = time.perf_counter()
        try:
            sg.land.land_fit(subset, gm, cfg=cfg, rng=sg.rng.RngStream(11))
            status = "ok"
        except Exception as exc:  # the outcome is part of the row
            status = type(exc).__name__
        rows.append((f"{n} codes", n, time.perf_counter() - t0, {"status": status}))
    return row("land_fit, one capped call", "code", *rows)


def main() -> int:
    os.environ.pop("STATGEO_THREADS", None)  # measure the default threads=1 program
    sg = run.import_statgeo()
    workdir = run.OUT / "scaling"
    ctx = wl.Context(1, run.ROOT, workdir, sg)
    try:
        wl.CliToy().setup(ctx)
        grid_path = ctx.path("grid.json")
        wl._run_cli(ctx, ["metric-grid", "--decoder", ctx.state["dec_path"], "--mode",
                          "pullback", f"--bounds={wl.BOUNDS}", "--resolution", wl.RESOLUTION,
                          "--out", grid_path])
        gm = sg.metric.GridMetric(sg.io.load_grid(grid_path))
        rows = [log_grid(ctx, grid_path), kl_probe(ctx), round_trip(ctx, gm), land_fit(ctx, gm)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for r in rows:
        b, f = r["bench"], r["full"]
        print(f"{r['name']}: bench [{b['setting']}] {b['seconds']:.3g} s, "
              f"{b['s_per_unit']:.3g} s/{r['unit']}; full [{f['setting']}] {f['seconds']:.3g} s, "
              f"{f['s_per_unit']:.3g} s/{r['unit']}; per-unit ratio {r['per_unit_ratio']:.3g}")
    print(json.dumps({"rows": rows, "env": run.environment(None)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
