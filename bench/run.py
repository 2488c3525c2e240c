"""statgeo benchmark runner: one workload, one seed, one run.

Run from the root of a statgeo source checkout:

    python3 bench/run.py --workload land-grid --seed 1 --seconds 25 --trace 0

The runner is a closed loop in one process: it issues one operation at a
time and waits for it, with no threads of its own (BLAS keeps its default
pool). It imports statgeo from ``src/`` of the checkout and fails without
printing a result when that is missing.

A run sets the workload up ``SETUP_REPEATS`` times (``setup_s`` is the
median), then measures for ``--seconds``: the workload's once-per-run
operations, then rounds until the time is up. Round 0 runs twice, so the
two copies can be compared byte for byte, unless the workload opts out.
With ``--trace 1`` it instead alternates an untraced and a traced pass of
the same inputs, checks that both give identical outputs, and prints
per-layer metrics per traced pass plus the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Details, the
environment and the spans go to ``.bench_out/``.
The exit code is 0 when every output check passed, 1 otherwise. Reported
times are scaled to a nominal machine speed (see ``SpeedProbe``); the raw
seconds are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
PROBE_EVERY_S = 0.5  # speed samples taken while one operation runs
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# end-to-end metrics every workload reports; BENCHMARK.json lists these
E2E = (("setup_s", "s"), ("wall_s", "s"), ("expmap_s", "s"), ("ok_frac", "1"))


class SpeedProbe:
    """A fixed computation that stands in for the machine's current speed.

    On the shared 2-core VM the bounds were tuned on, the same fixed-work
    operation ran up to 2x slower for seconds to minutes at a time, with CPU
    time tracking wall time: the machine itself changes speed. The runner
    times this probe before every setup and operation and after the last,
    and every PROBE_EVERY_S while an untraced operation runs, from a
    SIGALRM handler; the time spent in those probes is taken off the
    operation's time. It scales each setup's and operation's time by
    NOMINAL_S / (mean of the probes around and inside it), so it reads as
    seconds on that machine at its usual speed. Speed changes cancel out;
    changes to statgeo do not, because the probe runs no statgeo code. It mirrors statgeo's hot paths:
    single-point work dominated by interpreter overhead, then a softplus
    layer, Beta-KL special functions, batched 2x2 solves, a Gaussian kernel
    against a 1600-node lattice and small einsums.
    """

    NOMINAL_S = 0.010  # usual in-run probe time on that machine
    REPS = 8

    def __init__(self):
        gen = np.random.default_rng(0)
        self.z = gen.standard_normal((200, 2))
        self.w = gen.standard_normal((2, 6))
        self.ab = gen.uniform(0.5, 3.0, (2, 200, 3, 2))
        m = gen.standard_normal((200, 2, 2))
        self.m = m @ np.swapaxes(m, 1, 2) + np.eye(2)
        self.nodes = gen.uniform(-2.0, 2.0, (1600, 2))
        self.tensors = gen.standard_normal((1600, 4))

    def __call__(self) -> float:
        from scipy.special import digamma, gammaln

        t0 = time.perf_counter()
        for z in self.z[:150]:
            h = np.logaddexp(0.0, z @ self.w)
            np.einsum("i,i->", h, h)
            np.linalg.solve(self.m[0], z)
        for _ in range(self.REPS):
            np.logaddexp(0.0, self.z @ self.w)
            a, b = self.ab
            (gammaln(a.sum(-1)) - gammaln(a).sum(-1) + (digamma(a) * (a - b)).sum(-1)).sum()
            np.linalg.solve(self.m, self.z[..., None])
            q = self.z[:32]
            d2 = (q * q).sum(1)[:, None] + (self.nodes**2).sum(1)[None] - 2.0 * q @ self.nodes.T
            w = np.exp(-d2 / 0.125)
            (w / w.sum(1, keepdims=True)) @ self.tensors
            np.einsum("nij,nj->ni", self.m, self.z)
        return time.perf_counter() - t0


def import_statgeo():
    src = ROOT / "src"
    if not (src / "statgeo" / "__init__.py").is_file():
        sys.exit(f"bench: no statgeo source under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import statgeo
    import statgeo.cli  # noqa: F401  (imports every module the workloads use)
    import statgeo.toy  # noqa: F401

    if Path(statgeo.__file__).resolve().parent != (src / "statgeo").resolve():
        sys.exit(f"bench: imported statgeo from {statgeo.__file__}, not from {src}")
    return statgeo


def environment(statgeo_threads) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "STATGEO_THREADS_removed": statgeo_threads,
        "machine": platform.machine(),
    }


@dataclass
class Sample:
    kind: str
    group: str  # "once", "round<k>" or "traced<k>"
    seconds: float  # raw
    scaled: float  # at the probe's nominal speed
    ok: bool
    error: str | None = None
    values: dict = field(default_factory=dict)


class Runner:
    """Executes a workload's operation generators and keeps every sample."""

    def __init__(self, workload, ctx, errors):
        self.workload = workload
        self.ctx = ctx
        self.errors = errors  # workloads.CheckFailed, workloads.CliFailure
        self.samples: list[Sample] = []
        self.problems: list[str] = []
        self.speed = SpeedProbe()
        self.probe_s: list[float] = []
        self.inside: list[float] = []  # probes taken while the current operation runs
        signal.signal(signal.SIGALRM, self.probe_inside)

    def probe_inside(self, signum, frame) -> None:
        with np.errstate(all="ignore"):  # whatever state the program set
            self.inside.append(self.speed())

    def probe(self) -> float:
        t = self.speed()
        self.probe_s.append(t)
        return t

    def scaled(self, seconds: float, *probes: float) -> float:
        return seconds * SpeedProbe.NOMINAL_S / statistics.fmean(probes)

    def setup(self, repeats: int) -> list[tuple[float, float]]:
        """(raw, scaled) seconds of each of ``repeats`` setups."""
        out = []
        before = self.probe()
        for _ in range(repeats):
            self.ctx.state.clear()
            t0 = time.perf_counter()
            self.workload.setup(self.ctx)
            seconds = time.perf_counter() - t0
            after = self.probe()
            out.append((seconds, self.scaled(seconds, before, after)))
            before = after
        return out

    def scale(self) -> float:
        """Run-wide factor from raw to nominal-speed seconds."""
        return SpeedProbe.NOMINAL_S / statistics.median(self.probe_s)

    def execute(self, ops, group: str) -> tuple[float, list[bytes]]:
        """Run one generator to the end; returns (scaled seconds, output digests)."""
        check_failed, cli_failure = self.errors
        tracer = self.ctx.tracer
        total, digests, result = 0.0, [], None
        before = self.probe()
        while True:
            try:
                op = ops.send(result)
            except StopIteration:
                break
            if tracer:
                tracer.op = len(self.samples)
            error = None
            self.inside = []
            if tracer is None:  # in a traced pass the probes would land inside spans
                signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
            t0 = time.perf_counter()
            try:
                result = op.call()
            except cli_failure as exc:
                result, error = None, f"nonzero_exit({exc.error or exc.code})"
            except Exception as exc:  # every failure is counted, none stops the run
                result, error = None, type(exc).__name__
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            inside = self.inside
            seconds = time.perf_counter() - t0 - sum(inside)
            after = self.probe()
            self.probe_s += inside
            nominal = self.scaled(seconds, before, *inside, after)
            before = after
            total += nominal
            values = {}
            if error is None:
                if tracer:
                    tracer.paused = True
                try:
                    values, digest = op.check(result)
                    digests.append(digest)
                except check_failed as exc:
                    self.problems.append(f"{op.kind}: {exc}")
                finally:
                    if tracer:
                        tracer.paused = False
            else:
                digests.append(error.encode())
            self.samples.append(
                Sample(op.kind, group, seconds, nominal, error is None, error, values))
        return total, digests

    def run_pass(self, r: int, group: str):
        t_once, d_once = self.execute(self.workload.once(self.ctx), "once")
        t_round, d_round = self.execute(self.workload.round(self.ctx, r), group)
        return t_once + t_round, d_once + d_round


def measure(runner: Runner, seconds: float) -> None:
    """Once-ops, then rounds until ``seconds`` pass."""
    t_start = time.perf_counter()
    runner.execute(runner.workload.once(runner.ctx), "once")
    replay = runner.workload.replay_round0
    digests = []
    k = 0
    while k < 1 + replay or time.perf_counter() - t_start < seconds:
        r = max(k - 1, 0) if replay else k  # with replay, round 0 runs twice
        digests.append(runner.execute(runner.workload.round(runner.ctx, r), f"round{k}")[1])
        k += 1
    if replay and digests[0] != digests[1]:
        runner.problems.append("two runs of round 0 with the same seed gave different outputs")


def measure_traced(runner: Runner, tracer, seconds: float):
    """Alternate untraced and traced passes over the same inputs; returns
    the times of both kinds of pass."""
    t_start = time.perf_counter()
    plain, traced = [], []
    k = 0
    while k < 1 or time.perf_counter() - t_start < seconds:
        t, d_plain = runner.run_pass(k, f"round{k}")
        plain.append(t)
        tracer.install()
        runner.ctx.tracer = tracer
        try:
            t, d_traced = runner.run_pass(k, f"traced{k}")
        finally:
            runner.ctx.tracer = None
            tracer.uninstall()
        traced.append(t)
        if d_plain != d_traced:
            runner.problems.append(f"pass {k}: traced and untraced outputs differ")
        k += 1
    return plain, traced


def reduce(samples: list[Sample], spec, attr: str = "scaled"):
    """(median, sample count) of one report metric; None if no sample.

    ``spec`` is ("time", kind), ("value", kind, key), ("round_sum", kinds...):
    the summed time of the listed kinds' calls per round in which each kind
    ran and all its calls succeeded, or
    ("wall", None): the summed time of every operation per round in which
    all succeeded, so an operation that fails fast cannot read as a speedup.
    """
    how, kind, *rest = spec
    rounds = [s for s in samples if s.group.startswith("round")]
    if how == "time":
        xs = [getattr(s, attr) for s in samples if s.ok and s.kind == kind]
    elif how == "value":
        xs = [s.values[rest[0]] for s in samples
              if s.ok and s.kind == kind and rest[0] in s.values]
    elif how == "round_sum":
        kinds = (kind, *rest)
        groups = {}
        for s in rounds:
            if s.kind in kinds:
                groups.setdefault(s.group, []).append(s)
        xs = [sum(getattr(s, attr) for s in g) for g in groups.values()
              if {s.kind for s in g} == set(kinds) and all(s.ok for s in g)]
    else:  # wall
        groups = {}
        for s in rounds:
            groups.setdefault(s.group, []).append(s)
        xs = [sum(getattr(s, attr) for s in g) for g in groups.values()
              if all(s.ok for s in g)]
    return (statistics.median(xs), len(xs)) if xs else (None, 0)


def ok_frac(samples: list[Sample]) -> float:
    """Mean over operation kinds of the share of calls that succeeded."""
    kinds = sorted({s.kind for s in samples})
    shares = [
        sum(s.ok for s in samples if s.kind == k) / sum(s.kind == k for s in samples)
        for k in kinds
    ]
    return statistics.fmean(shares)


def failure_counts(samples: list[Sample]) -> dict:
    out = {}
    for s in samples:
        if not s.ok:
            key = f"{s.kind}:{s.error}"
            out[key] = out.get(key, 0) + 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the program's own pool stays at its default of one thread
    statgeo_threads = os.environ.pop("STATGEO_THREADS", None)
    sg = import_statgeo()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    ctx = workloads.Context(args.seed, ROOT, workdir, sg)
    runner = Runner(wl, ctx, (workloads.CheckFailed, workloads.CliFailure))
    try:
        setups = runner.setup(SETUP_REPEATS)
        if args.trace:
            tracer = tracing.Tracer(sg)
            plain, traced = measure_traced(runner, tracer, args.seconds)
        else:
            measure(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = runner.samples
    failed = sum(not s.ok for s in samples)
    doc = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(statgeo_threads),
        "setup_s_samples": setups,
        "failures": failure_counts(samples), "problems": runner.problems,
        "probe_s": runner.probe_s,
        "samples": [asdict(s) for s in samples],
    }
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {len(samples)} operations, "
          f"{failed} failed")
    for key, count in sorted(doc["failures"].items()):
        print(f"  failure {key} x{count}")

    metrics = {}
    if args.trace:
        overhead = statistics.median(traced) - statistics.median(plain)
        agg = tracer.aggregate()
        values = tracing.per_layer_values(
            agg, len(traced), overhead, overhead / statistics.median(plain))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        scale = runner.scale()
        metrics = {k: {"value": v * scale if units[k] == "s" else v, "unit": units[k]}
                   for k, v in values.items()}
        print(f"  traced passes {len(traced)}; per traced pass, times x {scale:.6g}:")
        for name, m in metrics.items():
            print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
        doc["aliases"] = tracer.aliases
        doc["span_errors"] = {n: a["errors"] for n, a in agg.items() if a["errors"]}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{tag}-spans.json")
    else:
        specs = [("wall_s", "s", ("wall", None))] + wl.report
        report = [("setup_s", "s", (statistics.median(s for _, s in setups), len(setups)),
                   statistics.median(r for r, _ in setups))]
        for name, unit, spec in specs:
            raw = reduce(samples, spec, "seconds")[0] if unit == "s" else None
            report.append((name, unit, reduce(samples, spec), raw))
        report.append(("fail_frac", "1", (failed / len(samples), len(samples)), None))
        report.append(("ok_frac", "1", (ok_frac(samples), len({s.kind for s in samples})),
                       None))
        print(f"  speed probe: median {statistics.median(runner.probe_s):.6g} s of "
              f"{len(runner.probe_s)}; times are at its nominal speed, raw in brackets")
        doc["report"] = {}
        for name, unit, (value, n), raw in report:
            doc["report"][name] = {"value": value, "unit": unit, "n": n, "raw": raw}
            shown = "failed (no successful sample)" if value is None else f"{value:.6g} {unit}"
            if raw is not None:
                shown += f" (raw {raw:.6g} s)"
            print(f"  {name:24s} {shown}  n={n}")
        for name, unit in E2E:
            value = doc["report"][name]["value"]
            if value is None:
                runner.problems.append(f"{name} has no successful sample")
            else:
                metrics[name] = {"value": value, "unit": unit}

    for problem in runner.problems:
        print(f"  CHECK FAILED {problem}")
    print(f"  env {json.dumps(doc['env'])}")
    doc["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")
    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
