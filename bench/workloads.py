"""The three benchmark workloads, built on the ROADMAP toy workflow.

Every workload uses the same fixed toy workflow: ``toy_decoder("beta",
seed=5)`` with uncertainty regularization, the 200 circle codes of
``statgeo toygen --seed 1`` and, where a grid is needed, a 40x40 pullback
lattice over [-2, 2]^2 at the CLI default bandwidth 0.25. The workload seed
draws only the queries: code pairs, shooting directions, round-trip targets,
normalizer samples, Normal-chart endpoints and the land_fit subset. Round
``r`` of seed ``s`` draws from ``numpy.random.default_rng([s, r])``, so a
round can be replayed exactly, and the once-per-run land_fit subset from
``[s, ONCE_KEY]``.

A workload is a ``setup``, a ``report`` list of the metrics it prints
(name, unit, how to reduce its samples) and two generators of operations:
``once`` (run once per run, first in the measured window) and ``round``
(replayed until the run's time is up). Each generator yields ``Op``
objects and receives the result of the timed call back (``None`` when it
raised), so a later operation can use an earlier one's output. ``Op.check``
validates a result outside the timed region and returns the values the
report needs plus the bytes that go into the round's output digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

TOY_FAMILY = "beta"
TOY_DECODER_SEED = 5
TOY_CODES_SEED = 1
TOY_CODES_N = 200
TOY_NOISE = 0.1
BOUNDS = "-2,2,-2,2"
RESOLUTION = "40,40"
SIGMA = 0.25  # CLI default bandwidth
ONCE_KEY = 1_000_000

# geodesic-pullback
KL_PAIRS = 2  # KL shortest paths per round
NORMAL_PAIRS = 2  # Normal identity-chart geodesics per round
EXP_SHOTS = 2  # exp_map shots per round
SHOT_NORM = 0.5  # metric length of each exp_map shot
SHOT_DIRECTIONS = 8  # a shot points in one of these equally spaced directions
EXP_STEPS = 100
# (code index, direction) shots whose geodesic runs into the region where the
# regularized decoder's pullback metric is singular, so that exp_map raises
# SingularMetric. `python3 bench/singular_shots.py` finds them among all
# 200 x 8 shots; the rounds of geodesic-pullback and cli-toy draw from the rest.
SINGULAR_SHOTS = frozenset({(57, 2), (92, 5), (111, 1), (130, 4), (130, 5), (152, 4),
                            (185, 4), (197, 3), (197, 4)})
SHOTS = [(i, k) for i in range(TOY_CODES_N) for k in range(SHOT_DIRECTIONS)
         if (i, k) not in SINGULAR_SHOTS]

# land-grid
ROUNDTRIP_TARGETS = 8  # accuracy sample; land_logpdf_batch covers all codes
ROUNDTRIPS = 4  # per round, so expmap_s has more than one sample per run
NORMALIZER_SAMPLES = 256  # the LandFitConfig and CLI `land` default
LAND_FIT_CODES = 4
LAND_FIT_CAP = dict(max_iters=1, mc_samples=32, exp_steps=10)
LAND_FIT_LOGMAP_ITERS = 10

# cli-toy
KL_PROBE_RESOLUTION = "20,20"  # the ROADMAP baseline's KL-probe grid
CLI_EXP_SHOTS = 2  # exp --decoder calls per round
# CLI defaults (N=200, S=4) except the iteration cap: 200 iterations take
# about 80 s, and every iteration does the same work (bench/scaling.py)
LOG_GRID_ARGS = ["--max-iters", "10"]


class CheckFailed(Exception):
    """An output invariant does not hold."""


class CliFailure(Exception):
    """A CLI subcommand exited non-zero."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()}")
        self.code = code
        try:
            self.error = json.loads(stderr.strip().splitlines()[-1])["error"]
        except (ValueError, IndexError, KeyError, TypeError):
            self.error = None


@dataclass
class Op:
    kind: str
    call: callable
    check: callable  # result -> (values dict, digest bytes)


@dataclass
class Context:
    """Everything a workload's setup builds; one per run."""

    seed: int
    root: Path  # checkout root
    workdir: Path  # scratch files of this run, inside the checkout
    sg: object  # the imported statgeo package
    tracer: object = None  # set during traced passes
    state: dict = field(default_factory=dict)

    def rng(self, key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, key])

    def path(self, name: str) -> str:
        return str(self.workdir / name)


def _digest(*parts) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.digest()


def _finite(x, what: str):
    if not np.all(np.isfinite(x)):
        raise CheckFailed(f"{what} is not finite")


def _vec(x) -> str:
    return ",".join(repr(float(v)) for v in x)


def _stratified(gen, codes, center, k: int) -> np.ndarray:
    """One code from each of k equal-count angular sectors around center.

    Every draw then spans the whole circle, so the cost of a batch of log
    maps depends less on which codes the seed picked.
    """
    offsets = codes - center
    order = np.argsort(np.arctan2(offsets[:, 1], offsets[:, 0]))
    return codes[[gen.choice(sector) for sector in np.array_split(order, k)]]


def _unit(gen) -> np.ndarray:
    u = gen.standard_normal(2)
    return u / np.linalg.norm(u)


def shot_velocity(k: int) -> np.ndarray:
    """Initial velocity of an exp_map shot in direction k."""
    angle = 2 * np.pi * k / SHOT_DIRECTIONS
    return SHOT_NORM * np.array([np.cos(angle), np.sin(angle)])


def _shot(gen, codes) -> tuple[np.ndarray, np.ndarray]:
    """Start code and initial velocity of one shot drawn from SHOTS."""
    i, k = SHOTS[int(gen.integers(len(SHOTS)))]
    return codes[i], shot_velocity(k)


def _cli_energy_config(sg, **overrides):
    """EnergyConfig at the statgeo CLI defaults (N=200, S=4, analytic)."""
    cfg = sg.geodesic.EnergyConfig(
        n_disc=200, segments=4, max_iters=200, grad_tol=1e-6,
        gradient_mode="analytic", jitter=1e-4, objective="kl",
    )
    return replace(cfg, **overrides)


def _subprocess_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("STATGEO_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _common_setup(ctx: Context) -> None:
    """toygen in a fresh interpreter, then the toy decoder and codes.

    The subprocess puts interpreter start-up, imports and argument handling
    into setup time, and produces the codes every workload uses.
    """
    sg = ctx.sg
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    codes_path = ctx.path("codes.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "statgeo.cli", "toygen", "--n", str(TOY_CODES_N),
         "--noise", str(TOY_NOISE), "--seed", str(TOY_CODES_SEED), "--out", codes_path],
        env=_subprocess_env(ctx.root), cwd=ctx.root, capture_output=True,
        text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"toygen subprocess failed: {proc.stderr.strip()}")
    json.loads(proc.stdout)
    codes = sg.io.load_codes(codes_path)
    expected = sg.toy.toy_circle_codes(TOY_CODES_N, TOY_NOISE, sg.rng.RngStream(TOY_CODES_SEED))
    if not np.array_equal(codes, expected):
        raise RuntimeError("toygen subprocess codes differ from toy_circle_codes")
    ctx.state["codes"] = codes
    ctx.state["dec"] = sg.toy.toy_decoder(TOY_FAMILY, seed=TOY_DECODER_SEED)
    ctx.state["pb"] = sg.metric.PullbackMetric(ctx.state["dec"])


def _grid_rel_err(grid_metric, exact, codes) -> float:
    """Median relative Frobenius error of the grid against the exact metric."""
    g = grid_metric.eval_batch(codes)
    m = exact.eval_batch(codes)
    return float(np.median(np.linalg.norm(g - m, axis=(1, 2)) / np.linalg.norm(m, axis=(1, 2))))


def normal_fisher_rao(a, b) -> float:
    """Closed-form Fisher-Rao distance between N(mu, var) points (mu, var)."""
    s1, s2 = np.sqrt(a[1]), np.sqrt(b[1])
    arg = 1.0 + ((a[0] - b[0]) ** 2 / 2.0 + (s1 - s2) ** 2) / (2.0 * s1 * s2)
    return float(np.sqrt(2.0) * np.arccosh(arg))


def _check_geodesic(res):
    if not (np.isfinite(res.energy) and np.isfinite(res.straight_energy)):
        raise CheckFailed("geodesic energy is not finite")
    if res.energy > res.straight_energy:
        raise CheckFailed(
            f"geodesic energy {res.energy} exceeds the straight chord's {res.straight_energy}"
        )
    ratio = res.energy / res.straight_energy
    return {"energy_ratio": ratio}, _digest(res.curve.coeffs, res.energy, res.iterations)


# ---------------------------------------------------------------------------


class Workload:
    name: str
    report: list  # (metric name, unit, reduction spec) the run prints
    replay_round0 = True  # run round 0 twice and compare the outputs byte for byte

    def once(self, ctx: Context):
        """Operations run once per run, before the rounds; none by default."""
        return
        yield


class GeodesicPullback(Workload):
    """Decoder-side work with no grid: KL shortest paths, Normal-chart
    geodesics against the closed form, exp_map shots on the exact pullback."""

    name = "geodesic-pullback"
    report = [
        ("geodesic_s", "s", ("time", "geodesic")),
        ("geodesic_energy_ratio", "1", ("value", "geodesic", "energy_ratio")),
        ("geodesic_len_err", "1", ("value", "normal_length", "len_err")),
        ("expmap_s", "s", ("time", "exp_map")),
    ]

    def setup(self, ctx: Context) -> None:
        sg = ctx.sg
        _common_setup(ctx)
        ctx.state["normal"] = sg.toy.identity_parameter_decoder("normal")
        ctx.state["cfg"] = _cli_energy_config(sg)
        # first-call warm-up of every path the rounds use
        codes, dec = ctx.state["codes"], ctx.state["dec"]
        short = _cli_energy_config(sg, max_iters=2)
        res = sg.geodesic.minimize_energy_detailed(codes[0], codes[1], dec, short)
        sg.geodesic.curve_length(res.curve, dec, short.n_disc)
        sg.geodesic.minimize_energy_detailed([0.0, 1.0], [0.5, 1.5], ctx.state["normal"], short)
        sg.geodesic.exp_map(ctx.state["pb"], codes[0], [0.1, 0.0], steps=2)

    def round(self, ctx: Context, r: int):
        sg, st = ctx.sg, ctx.state
        geo, codes, dec, cfg = sg.geodesic, st["codes"], st["dec"], st["cfg"]
        gen = ctx.rng(r)
        for _ in range(KL_PAIRS):
            i, j = gen.choice(len(codes), 2, replace=False)
            stream = sg.rng.RngStream(int(gen.integers(2**31)))
            res = yield Op(
                "geodesic",
                lambda: geo.minimize_energy_detailed(codes[i], codes[j], dec, cfg, stream),
                _check_geodesic,
            )
            if res is not None:
                yield Op(
                    "curve_length",
                    lambda: geo.curve_length(res.curve, dec, cfg.n_disc),
                    _check_length,
                )
        normal = st["normal"]
        for _ in range(NORMAL_PAIRS):
            a = np.array([gen.uniform(-1.0, 1.0), gen.uniform(0.5, 2.0)])
            b = np.array([gen.uniform(-1.0, 1.0), gen.uniform(0.5, 2.0)])
            stream = sg.rng.RngStream(int(gen.integers(2**31)))
            res = yield Op(
                "normal_geodesic",
                lambda: geo.minimize_energy_detailed(a, b, normal, cfg, stream),
                _check_geodesic,
            )
            if res is not None:
                exact = normal_fisher_rao(a, b)
                yield Op(
                    "normal_length",
                    lambda: geo.curve_length(res.curve, normal, cfg.n_disc),
                    lambda length: _check_length(length, exact),
                )
        for _ in range(EXP_SHOTS):
            z, v = _shot(gen, codes)
            yield Op(
                "exp_map",
                lambda: geo.exp_map(st["pb"], z, v, steps=EXP_STEPS),
                _check_endpoint,
            )


def _check_length(length, exact=None):
    _finite(length, "curve length")
    values = {}
    if exact is not None:
        values["len_err"] = abs(length - exact) / exact
        _finite(values["len_err"], "geodesic_len_err")
    return values, _digest(length)


def _check_endpoint(end):
    _finite(end, "exp_map endpoint")
    return {}, _digest(end)


# ---------------------------------------------------------------------------


class LandGrid(Workload):
    """The grid-side LAND path: grid accuracy, batched log maps, the
    normalizer, the Exp-Log round trip and one capped land_fit."""

    name = "land-grid"
    # one round takes about 30 s; the traced run's untraced and traced
    # passes over the same inputs check that its outputs repeat instead
    replay_round0 = False
    report = [
        ("logmap_s", "s", ("time", "logpdf")),
        ("expmap_s", "s", ("time", "exp_map_batch")),
        ("roundtrip_err", "1", ("value", "exp_map_batch", "roundtrip_err")),
        ("grid_rel_err", "1", ("value", "grid_rel_err", "grid_rel_err")),
        ("normalizer_s", "s", ("time", "normalizer")),
        ("land_fit_s", "s", ("time", "land_fit")),
    ]

    def setup(self, ctx: Context) -> None:
        sg = ctx.sg
        _common_setup(ctx)
        st = ctx.state
        codes = st["codes"]
        bounds = np.array([float(v) for v in BOUNDS.split(",")]).reshape(-1, 2)
        res = tuple(int(v) for v in RESOLUTION.split(","))
        st["gm"] = sg.metric.GridMetric(sg.metric.grid_build(st["pb"], bounds, res, SIGMA))
        # moment initialization, as land_fit does it
        st["mean"] = codes.mean(axis=0)
        st["precision"] = np.linalg.inv(np.cov(codes.T) + 1e-6 * np.eye(2))
        st["logmap_cfg"] = sg.land.LandFitConfig().logmap_cfg
        # first-call warm-up
        short = replace(st["logmap_cfg"], max_iters=2)
        vs, _, _ = sg.geodesic.log_map_batch(st["gm"], st["mean"], codes[:2], short)
        sg.geodesic.exp_map_batch(st["gm"], np.tile(st["mean"], (2, 1)), vs, steps=2)
        sg.land.land_normalizer_stats(
            st["mean"], st["precision"], st["gm"], sg.rng.RngStream(0), 16, exp_steps=2
        )

    def once(self, ctx: Context):
        sg, st = ctx.sg, ctx.state
        gen = ctx.rng(ONCE_KEY)
        subset = st["codes"][gen.choice(len(st["codes"]), LAND_FIT_CODES, replace=False)]
        logmap_cfg = replace(st["logmap_cfg"], max_iters=LAND_FIT_LOGMAP_ITERS)
        cfg = sg.land.LandFitConfig(**LAND_FIT_CAP, logmap_cfg=logmap_cfg)
        stream = sg.rng.RngStream(int(gen.integers(2**31)))
        yield Op(
            "land_fit",
            lambda: sg.land.land_fit(subset, st["gm"], cfg=cfg, rng=stream),
            lambda model: _check_model_io(ctx, model, "land_fit_model.json"),
        )

    def round(self, ctx: Context, r: int):
        sg, st = ctx.sg, ctx.state
        geo, land, gm, codes = sg.geodesic, sg.land, st["gm"], st["codes"]
        mean, precision = st["mean"], st["precision"]
        gen = ctx.rng(r)

        yield Op("grid_rel_err", lambda: _grid_rel_err(gm, st["pb"], codes), _check_grid_err)

        stream = sg.rng.RngStream(int(gen.integers(2**31)))
        stats = yield Op(
            "normalizer",
            lambda: land.land_normalizer_stats(
                mean, precision, gm, stream, NORMALIZER_SAMPLES
            ),
            _check_normalizer,
        )

        seed = int(gen.integers(2**31))
        if stats is not None:
            model = land.LandModel(
                mean=mean, precision=precision, norm_const=float(stats[0]), metric=gm,
                mc_samples=NORMALIZER_SAMPLES, seed=seed, logmap_cfg=st["logmap_cfg"],
            )
            yield Op(
                "logpdf",
                lambda: land.land_logpdf_batch(model, codes),
                lambda logpdf: _check_logpdf(ctx, model, logpdf),
            )

        for _ in range(ROUNDTRIPS):
            targets = _stratified(gen, codes, mean, ROUNDTRIP_TARGETS)
            stream = sg.rng.RngStream(int(gen.integers(2**31)))
            logs = yield Op(
                "log_map_batch",
                lambda: geo.log_map_batch(gm, mean, targets, st["logmap_cfg"], stream),
                _check_log_maps,
            )
            if logs is not None:
                starts = np.tile(mean, (len(targets), 1))
                yield Op(
                    "exp_map_batch",
                    lambda: geo.exp_map_batch(gm, starts, logs[0]),
                    lambda ends: _check_roundtrip(ends, targets, mean),
                )


def _check_grid_err(err):
    _finite(err, "grid_rel_err")
    return {"grid_rel_err": err}, _digest(err)


def _check_logpdf(ctx: Context, model, logpdf):
    _finite(logpdf, "land_logpdf_batch")
    _, model_digest = _check_model_io(ctx, model, "moment_model.json")
    return {}, _digest(logpdf, model_digest)


def _check_log_maps(out):
    vs, lengths, _ = out
    _finite(vs, "log_map_batch tangents")
    return {}, _digest(vs, lengths)


def _check_normalizer(stats):
    c, se, ess = stats
    if not (np.isfinite(c) and c > 0 and np.isfinite(se) and ess > 0):
        raise CheckFailed(f"normalizer stats out of range: C={c}, se={se}, ess={ess}")
    return {}, _digest(c, se, ess)


def _check_roundtrip(ends, targets, base):
    _finite(ends, "exp_map_batch endpoints")
    err = np.linalg.norm(ends - targets, axis=1) / np.linalg.norm(targets - base, axis=1)
    value = float(np.median(err))
    _finite(value, "roundtrip_err")
    return {"roundtrip_err": value}, _digest(ends)


def _check_model_io(ctx: Context, model, name: str):
    """Write a LandModel through io and read it back with land_from_dict."""
    sio = ctx.sg.io
    path = ctx.path(name)
    sio.save_json(sio.land_to_dict(model, metric_ref="grid"), path)
    back = sio.land_from_dict(sio.load_json(path), model.metric)
    if not (np.array_equal(back.mean, model.mean)
            and np.array_equal(back.precision, model.precision)
            and back.norm_const == model.norm_const):
        raise CheckFailed(f"{name} does not re-load through land_from_dict")
    return {}, _digest(Path(path).read_bytes())


# ---------------------------------------------------------------------------


class CliToy(Workload):
    """The toy workflow through statgeo.cli.main, in process."""

    name = "cli-toy"
    report = [
        ("geodesic_s", "s", ("time", "cli.geodesic")),
        ("expmap_s", "s", ("round_sum", "cli.exp.grid", "cli.exp.decoder")),
        ("logmap_s", "s", ("round_sum", "cli.log.grid", "cli.log.decoder")),
        ("grid_build_s", "s",
         ("round_sum", "cli.metric-grid.pullback", "cli.metric-grid.kl-probe")),
        ("geodesic_energy_ratio", "1", ("value", "cli.geodesic", "energy_ratio")),
        ("roundtrip_err", "1", ("value", "cli.exp.grid", "roundtrip_err")),
        ("grid_rel_err", "1", ("value", "cli.metric-grid.pullback", "grid_rel_err")),
    ]

    def setup(self, ctx: Context) -> None:
        sg = ctx.sg
        _common_setup(ctx)
        st = ctx.state
        dec_path = ctx.path("decoder.json")
        sg.io.save_decoder(st["dec"], dec_path)
        back = sg.io.load_decoder(dec_path)
        if sg.io.decoder_to_dict(back) != sg.io.decoder_to_dict(st["dec"]):
            raise RuntimeError("decoder JSON does not re-load through io")
        st["dec_path"] = dec_path
        codes = st["codes"]
        _run_cli(ctx, ["kl", "--decoder", dec_path, f"--z1={_vec(codes[0])}",
                       f"--z2={_vec(codes[1])}"])

    def round(self, ctx: Context, r: int):
        sg, st = ctx.sg, ctx.state
        sio, codes, dec = sg.io, st["codes"], st["dec_path"]
        gen = ctx.rng(r)
        codes_path, grid_path = ctx.path("toy_codes.csv"), ctx.path("grid.json")
        probe_path = ctx.path("probe.json")

        def files(*paths):
            return [Path(p).read_bytes() for p in paths]

        def check_codes(out):
            doc = json.loads(out)
            back = sio.load_codes(codes_path)
            if not np.array_equal(back, codes):
                raise CheckFailed("toygen codes differ from the set-up codes")
            return {}, _digest(out, *files(codes_path), doc["n"])

        yield Op("cli.toygen", lambda: _run_cli(ctx, [
            "toygen", "--n", str(TOY_CODES_N), "--noise", str(TOY_NOISE),
            "--seed", str(TOY_CODES_SEED), "--out", codes_path]), check_codes)

        def check_grid(out):
            json.loads(out)
            grid = sio.load_grid(grid_path)
            err = _grid_rel_err(sg.metric.GridMetric(grid), st["pb"], codes)
            _finite(err, "grid_rel_err")
            return {"grid_rel_err": err}, _digest(out, *files(grid_path))

        yield Op("cli.metric-grid.pullback", lambda: _run_cli(ctx, [
            "metric-grid", "--decoder", dec, "--mode", "pullback", f"--bounds={BOUNDS}",
            "--resolution", RESOLUTION, "--out", grid_path]), check_grid)

        def check_probe(out):
            json.loads(out)
            sio.load_grid(probe_path)
            return {}, _digest(out, *files(probe_path))

        yield Op("cli.metric-grid.kl-probe", lambda: _run_cli(ctx, [
            "metric-grid", "--decoder", dec, "--mode", "kl-probe", f"--bounds={BOUNDS}",
            "--resolution", KL_PROBE_RESOLUTION, "--out", probe_path]), check_probe)

        i0, i1 = (int(k) for k in gen.choice(len(codes), 2, replace=False))
        geo_path = ctx.path("geodesic.csv")

        def check_geodesic(out):
            doc = json.loads(out)
            if doc["energy"] > doc["straight_energy"]:
                raise CheckFailed("CLI geodesic energy exceeds the straight chord's")
            ratio = doc["energy"] / doc["straight_energy"]
            _finite(ratio, "CLI geodesic energy ratio")
            return {"energy_ratio": ratio}, _digest(out, *files(geo_path))

        yield Op("cli.geodesic", lambda: _run_cli(ctx, [
            "geodesic", "--decoder", dec, "--codes", codes_path, "--i0", str(i0),
            "--i1", str(i1), "--seed", str(int(gen.integers(2**31))),
            "--out", geo_path]), check_geodesic)

        z = codes[int(gen.integers(len(codes)))]
        z2 = z + 0.05 * _unit(gen)
        yield Op("cli.kl", lambda: _run_cli(ctx, [
            "kl", "--decoder", dec, f"--z1={_vec(z)}", f"--z2={_vec(z2)}"]), _check_json)

        # Exp(Log) on the grid: log --grid runs the single-curve FD optimizer
        z, y = codes[gen.choice(len(codes), 2, replace=False)]
        out = yield Op("cli.log.grid", lambda: _run_cli(ctx, [
            "log", "--grid", grid_path, f"--z={_vec(z)}", f"--y={_vec(y)}",
            "--seed", str(int(gen.integers(2**31))), *LOG_GRID_ARGS]), _check_json)
        if out is not None:
            v = json.loads(out)["v"]
            exp_path = ctx.path("exp_grid.csv")

            def check_roundtrip(out):
                end = np.array(json.loads(out)["endpoint"])
                _finite(end, "CLI exp endpoint")
                err = float(np.linalg.norm(end - y) / np.linalg.norm(y - z))
                return {"roundtrip_err": err}, _digest(out, *files(exp_path))

            yield Op("cli.exp.grid", lambda: _run_cli(ctx, [
                "exp", "--grid", grid_path, f"--z={_vec(z)}", f"--v={_vec(v)}",
                "--out", exp_path]), check_roundtrip)

        z, y = codes[gen.choice(len(codes), 2, replace=False)]
        yield Op("cli.log.decoder", lambda: _run_cli(ctx, [
            "log", "--decoder", dec, f"--z={_vec(z)}", f"--y={_vec(y)}",
            "--seed", str(int(gen.integers(2**31)))]), _check_json)

        for _ in range(CLI_EXP_SHOTS):
            z, v = _shot(gen, codes)
            yield Op("cli.exp.decoder", lambda: _run_cli(ctx, [
                "exp", "--decoder", dec, f"--z={_vec(z)}", f"--v={_vec(v)}",
                "--steps", str(EXP_STEPS)]), _check_json)


def _check_json(out):
    try:
        json.loads(out)
    except ValueError as exc:
        raise CheckFailed(f"CLI stdout is not JSON: {exc}") from exc
    return {}, _digest(out)


def _run_cli(ctx: Context, argv: list[str]) -> str:
    """statgeo.cli.main in process; returns stdout, raises CliFailure."""
    out, err = stdio.StringIO(), stdio.StringIO()
    tracer = ctx.tracer
    idx = tracer.open(f"cli.{argv[0]}") if tracer else None
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx.sg.cli.main(argv)
    finally:
        if idx is not None:
            tracer.close(idx, 1, {"exit": int(code != 0)},
                         error=None if code is not None else "exception")
    if code != 0:
        raise CliFailure(code, err.getvalue())
    return out.getvalue()


WORKLOADS = {w.name: w for w in (GeodesicPullback(), LandGrid(), CliToy())}
