"""Command-line surface: toygen, geodesic, metric-grid, land, kl, exp, log.

Every subcommand is deterministic given its seed and writes one JSON
document, stamped with the package version, on stdout. stderr carries at
most two JSON lines:

- Exit codes: 0 success, 1 usage or input error (bad options, a missing or
  unreadable file), 2 numerical failure.
- A failure writes ``{"error": name, "message": text}``, plus ``"t"`` when
  the error carries the curve parameter where it happened.
- ``--profile`` writes ``{"profile": {phase: seconds}, ...notes}``, the
  phases in the order they ran. It is written only when a command returns
  (exit 0, or ``land``'s exit 2 on NonConvergence, after its error line),
  never after a raised error, and it leaves stdout byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
import time

import numpy as np

from . import __version__, io, special
from . import decoder as dec_mod
from . import geodesic as geo
from . import land as land_mod
from . import metric as met
from .errors import NonConvergence, ShapeError, StatGeoError
from .decoder import DecoderMap
from .families import FamilyKind, McKl
from .metric import GridMetric, KlProbeMetric, PullbackMetric
from .rng import RngStream
from .toy import toy_circle_codes


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # read "-0.5,1" and "-2,2,-2,2" as values, not as options; argparse
        # only does so for a single negative number
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise _UsageError(message)


class _Profile:
    """The ``--profile`` record of one command: the seconds of each phase,
    in the order the phases ran, and the command's notes."""

    def __init__(self):
        self.phases: dict[str, float] = {}
        self.notes: dict = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        yield
        self.phases[name] = time.perf_counter() - t0

    def record(self) -> str:
        """The record as one JSON line; a float note that is not finite is
        written as null."""
        notes = {k: None if isinstance(v, float) and not np.isfinite(v) else v
                 for k, v in self.notes.items()}
        return json.dumps({"profile": self.phases, **notes})


def _vector(text: str, dim: int | None = None) -> np.ndarray:
    """The comma-separated finite floats of ``text``; with ``dim``, exactly
    that many."""
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise _UsageError(f"cannot parse vector {text!r}") from exc
    if not np.all(np.isfinite(vec)):
        raise _UsageError(f"{text!r} has a coordinate that is not finite")
    if dim is not None and vec.size != dim:
        raise _UsageError(f"{text!r} has {vec.size} coordinates, expected {dim}")
    return vec


def _finite_float(text: str) -> float:
    value = float(text)  # argparse reports the ValueError as a usage error
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports the ValueError as a usage error
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _lattice(bounds_text: str, resolution_text: str, dim: int):
    """(bounds (dim, 2), resolution) of a lattice given as "lo,hi,lo,hi,..."
    and "n0,n1,...": one lo,hi pair and one count >= 2 per latent axis."""
    bounds = _vector(bounds_text, 2 * dim).reshape(dim, 2)
    try:
        resolution = tuple(int(v) for v in resolution_text.split(","))
    except ValueError as exc:
        raise _UsageError(f"cannot parse integers {resolution_text!r}") from exc
    if len(resolution) != dim or min(resolution) < 2:
        raise _UsageError(
            f"resolution {resolution_text!r} needs {dim} counts >= 2, one per latent axis"
        )
    return bounds, resolution


def _energy_config(args, target) -> geo.EnergyConfig:
    """The optimizer flags as an EnergyConfig for fitting curves on ``target``."""
    if args.objective == "categorical" and not (
        isinstance(target, DecoderMap) and target.family.kind == FamilyKind.CATEGORICAL
    ):
        raise _UsageError("--objective categorical needs a categorical --decoder")
    try:
        return geo.EnergyConfig(
            n_disc=args.n_disc,
            segments=args.segments,
            max_iters=args.max_iters,
            grad_tol=args.grad_tol,
            jitter=args.jitter,
            objective=args.objective,
        )
    except ShapeError as exc:  # settings the optimizer rejects, such as --n-disc 1
        raise _UsageError(str(exc)) from exc


def _add_optimizer_args(p):
    p.add_argument("--n-disc", type=int, default=200, help="energy discretization N")
    p.add_argument("--segments", type=_positive_int, default=4, help="spline segments")
    p.add_argument("--max-iters", type=_positive_int, default=200)
    p.add_argument("--grad-tol", type=float, default=1e-6,
                   help="stop when max|g| < tol*(1 + energy)")
    p.add_argument("--jitter", type=float, default=1e-4)
    p.add_argument("--objective", choices=["kl", "categorical"], default="kl")


def _add_metric_source(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--decoder")
    source.add_argument("--grid")


def _load_decoder(path) -> DecoderMap:
    """The decoder in ``path``, with ``scipy.special`` bound: decoder walks
    and the Gamma, Beta and Dirichlet divergences call it, so its one-time
    import (about 0.3 s) is timed in the command's load phase instead of in
    its first compute phase."""
    dec = io.load_decoder(path)
    special._bind_scipy()
    return dec


def _load_target(args):
    """The --grid file's GridMetric, else the --decoder file's decoder."""
    if args.grid is not None:
        return GridMetric(io.load_grid(args.grid))
    return _load_decoder(args.decoder)


def _load_metric(args):
    target = _load_target(args)
    return target if isinstance(target, GridMetric) else PullbackMetric(target)


def _print_json(doc: dict) -> None:
    """Write a command's result document to stdout, stamped with the version."""
    sys.stdout.write(json.dumps({"version": __version__, **doc}, indent=1) + "\n")


def _print_error(name: str, message: str, **extra) -> None:
    sys.stderr.write(json.dumps({"error": name, "message": message, **extra}) + "\n")


# ---------------------------------------------------------------------------
# subcommands: each names its phases and notes in ``prof`` and returns its
# exit code


def _cmd_toygen(args, prof) -> int:
    with prof.phase("generate"):
        codes = toy_circle_codes(args.n, args.noise, RngStream(args.seed))
    with prof.phase("write"):
        io.save_codes(codes, args.out)
    _print_json({"n": args.n, "out": args.out})
    return 0


def _resolve_endpoints(args, dim: int):
    if args.z0 is not None and args.z1 is not None:
        return _vector(args.z0, dim), _vector(args.z1, dim)
    if args.codes is not None and args.i0 is not None and args.i1 is not None:
        codes = io.load_codes(args.codes)
        for i in (args.i0, args.i1):
            if not 0 <= i < len(codes):
                raise _UsageError(f"code index {i} is outside 0..{len(codes) - 1}")
        return codes[args.i0], codes[args.i1]
    raise _UsageError("give either --z0/--z1 or --codes with --i0/--i1")


def _cmd_geodesic(args, prof) -> int:
    with prof.phase("load"):
        dec = _load_decoder(args.decoder)
        z0, z1 = _resolve_endpoints(args, dec.latent_dim)
    cfg = _energy_config(args, dec)
    with prof.phase("optimize"):
        result = geo.minimize_energy_detailed(z0, z1, dec, cfg, RngStream(args.seed))
    prof.notes.update(iterations=result.iterations, stop_reason=result.stop_reason,
                      grad_norm=result.grad_norm)

    with prof.phase("write"):
        ts = np.linspace(0.0, 1.0, args.samples + 1)
        zs, _ = result.curve.eval(ts)
        params = dec_mod.forward_stacked(dec, zs)
        fam = dec.family
        per_feature = params.reshape(len(ts), dec.feature_count, fam.param_dim)
        seg_kl = np.concatenate(
            [[0.0], fam.kl(per_feature[:-1], per_feature[1:]).sum(axis=-1)]
        )
        if args.out:
            header = (
                ["t"]
                + [f"z{i}" for i in range(dec.latent_dim)]
                + [f"eta{i}" for i in range(dec.param_dim)]
                + ["segment_kl"]
            )
            rows = np.column_stack([ts, zs, params, seg_kl])
            io.save_csv(args.out, header, rows)

    length = geo.curve_length(result.curve, dec, cfg.n_disc)
    _print_json(
        {
            "energy": result.energy,
            "length": length,
            "straight_energy": result.straight_energy,
            "iterations": result.iterations,
            "converged": result.converged,
        }
    )
    return 0


def _probe_validation_errors(dec, points, tensors, radius=0.1, directions=8) -> np.ndarray:
    """Per node, the mean over offsets delta of |KL - delta^T M delta / 2|.

    The offsets are ``directions`` equally spaced directions of length
    ``radius`` in the plane of latent axes 0 and 1 (zero on the others), or
    +-radius on a 1-latent decoder.
    """
    if dec.latent_dim == 1:
        offsets = radius * np.array([[1.0], [-1.0]])
    else:
        angles = 2.0 * np.pi * np.arange(directions) / directions
        offsets = np.zeros((directions, dec.latent_dim))
        offsets[:, 0], offsets[:, 1] = radius * np.cos(angles), radius * np.sin(angles)
    kls = met._decoded_kls(dec, points, points[:, None, :] + offsets)
    quad = 0.5 * np.einsum("ki,nij,kj->nk", offsets, tensors, offsets)
    return np.abs(kls - quad).mean(axis=1)


def _cmd_metric_grid(args, prof) -> int:
    with prof.phase("load"):
        dec = _load_decoder(args.decoder)
        bounds, resolution = _lattice(args.bounds, args.resolution, dec.latent_dim)
    if args.mode == "pullback":
        source = PullbackMetric(dec)
    else:
        source = KlProbeMetric(dec, eps=args.eps)
    with prof.phase("evaluate"):
        grid = met.grid_build(source, bounds, resolution, args.sigma)

    extra = {}
    if args.mode == "kl-probe":
        with prof.phase("validate"):
            errors = _probe_validation_errors(dec, grid.points, grid.tensors)
            extra["validation_error"] = [float(e) for e in errors]
            extra["epsilon"] = args.eps
            extra["clamped"] = int(source.clamp_count)

    io.save_grid(grid, args.out, mode=args.mode, extra=extra)
    _print_json({"points": int(np.prod(resolution)), "mode": args.mode, "out": args.out})
    return 0


def _cmd_land(args, prof) -> int:
    with prof.phase("load"):
        rng = RngStream(args.seed)
        metric = _load_metric(args)
        codes = io.load_codes(args.codes)
        if args.out_density:
            bounds, res = _lattice(args.density_bounds, args.density_resolution,
                                   metric.latent_dim)
        cfg = land_mod.LandFitConfig(
            max_iters=args.max_iters, mc_samples=args.mc_samples, exp_steps=args.exp_steps
        )

    exit_code = 0
    with prof.phase("fit"):
        try:
            model = land_mod.land_fit(codes, metric, cfg=cfg, rng=rng)
        except NonConvergence as exc:
            model, exit_code = exc.last, 2
            _print_error("NonConvergence", str(exc))
    prof.notes.update(iterations=len(model.nll_trace) - 1, converged=bool(model.converged),
                      stop_reason=model.stop_reason, mc_samples=int(model.mc_samples))

    with prof.phase("write"):
        io.save_json(io.land_to_dict(model, metric_ref=args.grid or args.decoder),
                     args.out_model)

    if args.out_density:
        with prof.phase("density"):
            pts = met.lattice_points(bounds, res)
            logpdf = land_mod.land_logpdf_batch(model, pts, rng.child(5))
            # density against Lebesgue via the relative volume element
            dens = np.exp(logpdf + land_mod._log_volume_ratio(model.metric, model.mean, pts))
            header = [f"z{i}" for i in range(pts.shape[1])] + ["density"]
            io.save_csv(args.out_density, header, np.column_stack([pts, dens]))

    _print_json(
        {
            "mean": [float(v) for v in model.mean],
            "norm_const": float(model.norm_const),
            "converged": bool(model.converged),
            "out_model": args.out_model,
        }
    )
    return exit_code


def _cmd_kl(args, prof) -> int:
    with prof.phase("load"):
        dec = _load_decoder(args.decoder)
        z1, z2 = _vector(args.z1, dec.latent_dim), _vector(args.z2, dec.latent_dim)
        mc = None
        if args.mc_samples is not None:
            if args.seed is None:
                raise _UsageError("--seed is required with --mc-samples")
            mc = McKl(RngStream(args.seed), args.mc_samples)

    with prof.phase("evaluate"):
        kl_val = met._decoded_kl(dec, z1, z2, mc)
        m = met.pullback(dec, z1)
        delta = z2 - z1
        quad = float(0.5 * delta @ m @ delta)
    _print_json({"kl": kl_val, "quadratic_approx": quad, "gap": abs(kl_val - quad)})
    return 0


def _cmd_exp(args, prof) -> int:
    with prof.phase("load"):
        metric = _load_metric(args)
        z, v = _vector(args.z, metric.latent_dim), _vector(args.v, metric.latent_dim)
    with prof.phase("shoot"):
        endpoint, ts, path = geo.exp_map(metric, z, v, steps=args.steps, return_path=True)
    prof.notes["steps"] = args.steps
    with prof.phase("write"):
        if args.out:
            header = ["t"] + [f"z{i}" for i in range(z.size)]
            io.save_csv(args.out, header, np.column_stack([ts, path]))
    _print_json({"endpoint": [float(x) for x in endpoint]})
    return 0


def _cmd_log(args, prof) -> int:
    with prof.phase("load"):
        target = _load_target(args)
        z, y = _vector(args.z, target.latent_dim), _vector(args.y, target.latent_dim)
        cfg = _energy_config(args, target)
    with prof.phase("optimize"):
        v = geo.log_map(target, z, y, cfg, RngStream(args.seed), stop=prof.notes)
    _print_json({"v": [float(x) for x in v], "length": float(np.linalg.norm(v))})
    return 0


# ---------------------------------------------------------------------------


@functools.cache  # parsing does not change the parser, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="statgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--profile", action="store_true")
        p.set_defaults(fn=fn)
        return p

    p = command("toygen", _cmd_toygen, "noisy circle latent codes")
    p.add_argument("--n", type=_positive_int, default=200)
    p.add_argument("--noise", type=_nonnegative_float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = command("geodesic", _cmd_geodesic, "shortest path between two latent points")
    p.add_argument("--decoder", required=True)
    p.add_argument("--z0")
    p.add_argument("--z1")
    p.add_argument("--codes")
    p.add_argument("--i0", type=int)
    p.add_argument("--i1", type=int)
    p.add_argument("--samples", type=_positive_int, default=64)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    _add_optimizer_args(p)

    p = command("metric-grid", _cmd_metric_grid, "tensor lattice over a latent box")
    p.add_argument("--decoder", required=True)
    p.add_argument("--mode", choices=["pullback", "kl-probe"], default="pullback")
    p.add_argument("--bounds", required=True, help="x0,x1,y0,y1 per axis pairs")
    p.add_argument("--resolution", required=True, help="nx,ny")
    p.add_argument("--sigma", type=_positive_float, default=0.25)
    p.add_argument("--eps", type=_positive_float, default=1e-2)
    p.add_argument("--out", required=True)

    p = command("land", _cmd_land, "fit a Riemannian normal density")
    _add_metric_source(p)
    p.add_argument("--codes", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-iters", type=_positive_int, default=40)
    p.add_argument("--mc-samples", type=_positive_int, default=256)
    p.add_argument("--exp-steps", type=_positive_int, default=land_mod.EXP_STEPS,
                   help="Runge-Kutta-Nystrom steps per normalizer shot, 3 metric "
                   "evaluations each (default %(default)s: on the toy grid C is within "
                   "0.01 standard errors of a 100-step C)")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-density")
    p.add_argument("--density-bounds", default="-2,2,-2,2")
    p.add_argument("--density-resolution", default="40,40")

    p = command("kl", _cmd_kl, "divergence and its quadratic approximation")
    p.add_argument("--decoder", required=True)
    p.add_argument("--z1", required=True)
    p.add_argument("--z2", required=True)
    p.add_argument("--mc-samples", type=_positive_int, default=None)
    p.add_argument("--seed", type=int)

    p = command("exp", _cmd_exp, "exponential map (geodesic shooting)")
    _add_metric_source(p)
    p.add_argument("--z", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--steps", type=_positive_int, default=100,
                   help="Runge-Kutta-Nystrom steps over the shot, 3 metric evaluations "
                   "each (default %(default)s)")
    p.add_argument("--out")

    p = command("log", _cmd_log, "logarithmic map (shortest-path velocity)")
    _add_metric_source(p)
    p.add_argument("--z", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_optimizer_args(p)

    return parser


def main(argv=None) -> int:
    prof = _Profile()
    try:
        args = _build_parser().parse_args(argv)
        exit_code = args.fn(args, prof)
    except _UsageError as exc:
        _print_error("usage", str(exc))
        return 1
    except (FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        _print_error(type(exc).__name__, str(exc))
        return 1
    except (StatGeoError, np.linalg.LinAlgError) as exc:
        t = getattr(exc, "t", None)
        _print_error(type(exc).__name__, str(exc), **({} if t is None else {"t": t}))
        return 2
    if args.profile:
        sys.stderr.write(prof.record() + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
