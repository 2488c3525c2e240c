"""Runtime tracing of statgeo's public functions, from outside the package.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span, operation id) plus item
counts; ``uninstall()`` puts the originals back, so untraced passes run the
unmodified program. A function that another statgeo module imported by name
(``from .geodesic import log_map_batch`` in ``statgeo.land``) is replaced in
every module that holds it, found by identity. Spans stay in memory until
``write()``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np


def _rows(a) -> int:
    """Leading-dimension count of a stacked array (1 for a single vector)."""
    a = np.asarray(a)
    return 1 if a.ndim <= 1 else int(np.prod(a.shape[:-1]))


def _first(args, kwargs, name, pos):
    return kwargs[name] if name in kwargs else args[pos]


@dataclass
class Target:
    """One traced callable: where it lives and how to count its work."""

    name: str  # span name, "<layer>.<function>"
    owner: object  # module or class that defines it
    attr: str
    items: callable  # (args, kwargs, result) -> int
    extras: callable = None  # (args, kwargs, result, before) -> dict
    before: callable = None  # (args, kwargs) -> state read before the call


METRIC_EVALS = (
    "metric.PullbackMetric.eval",
    "metric.PullbackMetric.eval_batch",
    "metric.GridMetric.eval_batch",
    "metric.KlProbeMetric.eval",
)


def targets(statgeo) -> list[Target]:
    """Every function the traced run wraps, grouped by statgeo module."""
    fam, dec, met = statgeo.families, statgeo.decoder, statgeo.metric
    geo, land, sio = statgeo.geodesic, statgeo.land, statgeo.io

    batch_rows = lambda a, k, r: _rows(a[1])  # noqa: E731  (fn(self_or_dec, zs))
    out = []
    family_classes = [
        c for c in vars(fam).values()
        if isinstance(c, type) and issubclass(c, fam.Family) and c is not fam.Family
    ]
    for cls in family_classes:
        for attr in ("kl", "kl_grad", "fisher"):
            if attr in vars(cls):
                out.append(Target(f"families.{attr}", cls, attr, batch_rows))
    out += [
        Target("decoder.forward_stacked", dec, "forward_stacked", batch_rows),
        Target("decoder.jacobian_stacked", dec, "jacobian_stacked", batch_rows),
        Target("metric.PullbackMetric.eval", met.PullbackMetric, "eval", lambda a, k, r: 1),
        Target("metric.PullbackMetric.eval_batch", met.PullbackMetric, "eval_batch", batch_rows),
        Target(
            "metric.GridMetric.eval_batch", met.GridMetric, "eval_batch", batch_rows,
            before=lambda a, k: a[0].fallback_count,
            extras=lambda a, k, r, b: {"fallbacks": a[0].fallback_count - b},
        ),
        Target(
            "metric.KlProbeMetric.eval", met.KlProbeMetric, "eval", lambda a, k, r: 1,
            before=lambda a, k: a[0].clamp_count,
            extras=lambda a, k, r, b: {"clamps": a[0].clamp_count - b},
        ),
        Target("metric.grid_build", met, "grid_build", lambda a, k, r: len(r.points)),
        Target(
            "geodesic.minimize_energy_detailed", geo, "minimize_energy_detailed",
            lambda a, k, r: 1,
            extras=lambda a, k, r, b: {
                "iterations": r.iterations, "converged": int(r.converged)
            },
        ),
        Target("geodesic.curve_length", geo, "curve_length", lambda a, k, r: _first(a, k, "n", 2)),
        Target("geodesic.exp_map", geo, "exp_map", lambda a, k, r: 1),
        Target("geodesic.exp_map_batch", geo, "exp_map_batch", lambda a, k, r: _rows(a[1])),
        Target("geodesic.log_map", geo, "log_map", lambda a, k, r: 1),
        Target("geodesic.log_map_batch", geo, "log_map_batch", lambda a, k, r: _rows(a[2])),
        Target(
            "land.land_normalizer_stats", land, "land_normalizer_stats",
            lambda a, k, r: _first(a, k, "n", 4),
            extras=lambda a, k, r, b: {"ess": float(r[2])},
        ),
        Target("land.land_logpdf_batch", land, "land_logpdf_batch", lambda a, k, r: _rows(a[1])),
        Target(
            "land.land_fit", land, "land_fit", lambda a, k, r: _rows(a[0]),
            extras=lambda a, k, r, b: {"ok": 1},
        ),
        Target(
            "io.save_grid", sio, "save_grid", lambda a, k, r: len(a[0].points),
            extras=lambda a, k, r, b: {"bytes": os.path.getsize(a[1])},
        ),
        Target("io.load_grid", sio, "load_grid", lambda a, k, r: len(r.points)),
        Target("io.load_decoder", sio, "load_decoder", lambda a, k, r: 1),
        Target("io.save_codes", sio, "save_codes", lambda a, k, r: _rows(a[0])),
        Target("io.load_codes", sio, "load_codes", lambda a, k, r: len(r)),
    ]
    return out


def _items_from_args(target: Target, args, kwargs) -> int:
    """Item count of a call that raised, when the arguments alone give it."""
    try:
        return target.items(args, kwargs, None)
    except (AttributeError, TypeError):
        return 0


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    items: int = 0
    child_s: float = 0.0
    metric_points: int = 0  # metric evaluations made inside this span
    extras: dict = field(default_factory=dict)
    error: str | None = None


class Tracer:
    """Span recorder; one instance per traced run, single-threaded."""

    def __init__(self, statgeo):
        self.targets = targets(statgeo)
        self.paused = False  # set while the benchmark checks outputs
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self._installed: list[tuple[object, str, object]] = []
        self.aliases: dict[str, list[str]] = {}

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int, items: int = 0, extras=None, error=None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.items = int(items)
        span.extras = extras or {}
        span.error = error
        self.stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start
        if span.name in METRIC_EVALS:
            for open_idx in self.stack:
                self.spans[open_idx].metric_points += span.items

    def _wrap(self, target: Target, original):
        name = target.name

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            state = target.before(args, kwargs) if target.before else None
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, _items_from_args(target, args, kwargs),
                           error=type(exc).__name__)
                raise
            extras = target.extras(args, kwargs, result, state) if target.extras else None
            self.close(idx, target.items(args, kwargs, result), extras)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target where it is defined and wherever it was imported."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "statgeo" or n.startswith("statgeo."))
        ]
        for target in self.targets:
            original = vars(target.owner)[target.attr]
            wrapper = self._wrap(target, original)
            self._installed.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, wrapper)
            if isinstance(target.owner, type):
                continue
            for mod in modules:
                if mod is target.owner:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        self.aliases.setdefault(target.name, []).append(
                            f"{mod.__name__}.{attr}"
                        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Totals per span name over every recorded span."""
        by_name: dict[str, dict] = {}
        for span in self.spans:
            agg = by_name.setdefault(span.name, {
                "calls": 0, "items": 0, "self_s": 0.0, "total_s": 0.0,
                "metric_points": 0, "errors": {}, "extras": {}, "ess_min": None,
            })
            agg["calls"] += 1
            agg["total_s"] += span.end - span.start
            agg["items"] += span.items
            agg["self_s"] += (span.end - span.start) - span.child_s
            agg["metric_points"] += span.metric_points
            if span.error:
                agg["errors"][span.error] = agg["errors"].get(span.error, 0) + 1
            for key, value in span.extras.items():
                if key == "ess":
                    cur = agg["ess_min"]
                    agg["ess_min"] = value if cur is None else min(cur, value)
                else:
                    agg["extras"][key] = agg["extras"].get(key, 0) + value
        return by_name

    def write(self, path) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "name": [index[s.name] for s in self.spans],
            "start": [s.start for s in self.spans],
            "end": [s.end for s in self.spans],
            "parent": [s.parent for s in self.spans],
            "op": [s.op for s in self.spans],
            "items": [s.items for s in self.spans],
            "error": {i: s.error for i, s in enumerate(self.spans) if s.error},
            "aliases": self.aliases,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


FUNCTIONS = (
    "families.kl", "families.kl_grad", "families.fisher",
    "decoder.forward_stacked", "decoder.jacobian_stacked",
    "metric.PullbackMetric.eval", "metric.PullbackMetric.eval_batch",
    "metric.GridMetric.eval_batch", "metric.KlProbeMetric.eval", "metric.grid_build",
    "geodesic.minimize_energy_detailed", "geodesic.curve_length", "geodesic.exp_map",
    "geodesic.exp_map_batch", "geodesic.log_map", "geodesic.log_map_batch",
    "land.land_normalizer_stats", "land.land_logpdf_batch", "land.land_fit",
    "io.save_grid", "io.load_grid", "io.load_decoder", "io.save_codes", "io.load_codes",
)
CLI_SUBCOMMANDS = ("toygen", "metric-grid", "geodesic", "kl", "exp", "log")

# (name, unit, better) of every per-layer metric a traced run prints
PER_LAYER = (
    [(f"{fn}.{stat}", unit, "lower")
     for fn in FUNCTIONS
     for stat, unit in (("calls", "count"), ("items", "count"), ("self_s", "s"))]
    + [
        ("decoder.forward_stacked.rows_per_call", "count", "higher"),
        ("metric.KlProbeMetric.clamps", "count", "lower"),
        ("metric.GridMetric.fallbacks", "count", "lower"),
        ("geodesic.minimize_energy_detailed.iterations", "count", "lower"),
        ("geodesic.minimize_energy_detailed.converged_frac", "1", "higher"),
        ("geodesic.log_map_batch.metric_points_per_target", "count", "lower"),
        ("land.land_normalizer_stats.ess_min", "count", "higher"),
        ("land.land_fit.ok", "count", "higher"),
        ("land.land_fit.failed", "count", "lower"),
        ("io.save_grid.bytes", "bytes", "lower"),
    ]
    + [(f"cli.{sub}.{stat}", unit, "lower")
       for sub in CLI_SUBCOMMANDS for stat, unit in (("s", "s"), ("exit", "count"))]
    + [("trace.overhead_s", "s", "lower"), ("trace.overhead_frac", "1", "lower")]
)


def per_layer_values(agg: dict, passes: int, overhead_s: float, overhead_frac: float) -> dict:
    """Every PER_LAYER metric from ``Tracer.aggregate`` output.

    Counts and times are per traced pass; ratios are per call. A function
    the workload never reached reads 0.
    """
    empty = {"calls": 0, "items": 0, "self_s": 0.0, "metric_points": 0,
             "errors": {}, "extras": {}, "ess_min": None, "total_s": 0.0}

    def get(name):
        return agg.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for fn in FUNCTIONS:
        a = get(fn)
        out[f"{fn}.calls"] = a["calls"] / passes
        out[f"{fn}.items"] = a["items"] / passes
        out[f"{fn}.self_s"] = a["self_s"] / passes
    fwd, med = get("decoder.forward_stacked"), get("geodesic.minimize_energy_detailed")
    lmb, fit = get("geodesic.log_map_batch"), get("land.land_fit")
    save = get("io.save_grid")
    out["decoder.forward_stacked.rows_per_call"] = ratio(fwd["items"], fwd["calls"])
    out["metric.KlProbeMetric.clamps"] = (
        get("metric.KlProbeMetric.eval")["extras"].get("clamps", 0) / passes)
    out["metric.GridMetric.fallbacks"] = (
        get("metric.GridMetric.eval_batch")["extras"].get("fallbacks", 0) / passes)
    out["geodesic.minimize_energy_detailed.iterations"] = ratio(
        med["extras"].get("iterations", 0), med["calls"])
    out["geodesic.minimize_energy_detailed.converged_frac"] = ratio(
        med["extras"].get("converged", 0), med["calls"])
    out["geodesic.log_map_batch.metric_points_per_target"] = ratio(
        lmb["metric_points"], lmb["items"])
    out["land.land_normalizer_stats.ess_min"] = (
        get("land.land_normalizer_stats")["ess_min"] or 0.0)
    out["land.land_fit.ok"] = fit["extras"].get("ok", 0) / passes
    out["land.land_fit.failed"] = sum(fit["errors"].values()) / passes
    out["io.save_grid.bytes"] = ratio(save["extras"].get("bytes", 0), save["calls"])
    for sub in CLI_SUBCOMMANDS:
        a = get(f"cli.{sub}")
        out[f"cli.{sub}.s"] = a["total_s"] / passes
        out[f"cli.{sub}.exit"] = a["extras"].get("exit", 0) / passes
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_frac"] = overhead_frac
    return out
