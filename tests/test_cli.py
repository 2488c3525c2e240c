import json

import numpy as np
import pytest

import statgeo.geodesic as G
import statgeo.metric as M
from statgeo import cli, io
from statgeo import land as land_mod
from statgeo.errors import SingularMetric
from statgeo.rng import RngStream
from statgeo.toy import identity_parameter_decoder, toy_decoder

from conftest import lifted_decoder

BOUNDS, RESOLUTION, SIGMA = "-2,2,-2,2", "5,5", 0.25


@pytest.fixture
def decoder_path(tmp_path):
    path = tmp_path / "decoder.json"
    io.save_decoder(toy_decoder("beta", seed=5), path)
    return path


def run_metric_grid(decoder_path, out, mode):
    return cli.main([
        "metric-grid", "--decoder", str(decoder_path), "--mode", mode,
        f"--bounds={BOUNDS}", "--resolution", RESOLUTION, "--sigma", str(SIGMA),
        "--out", str(out),
    ])


@pytest.mark.parametrize("mode", ["pullback", "kl-probe"])
def test_metric_grid_writes_the_in_process_grid(decoder_path, tmp_path, mode, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run_metric_grid(decoder_path, first, mode) == 0
    assert json.loads(capsys.readouterr().out)["points"] == 25
    assert run_metric_grid(decoder_path, second, mode) == 0
    assert first.read_bytes() == second.read_bytes()

    dec = io.load_decoder(decoder_path)
    source = M.PullbackMetric(dec) if mode == "pullback" else M.KlProbeMetric(dec)
    want = M.grid_build(source, [[-2, 2], [-2, 2]], (5, 5), SIGMA)
    got = io.load_grid(first)
    assert got.resolution == (5, 5)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.tensors, want.tensors)


def validation_error_reference(dec, z, m, radius=0.1, directions=8) -> float:
    """The per-node validation loop: one KL per offset in the plane of latent
    axes 0 and 1."""
    angles = 2.0 * np.pi * np.arange(directions) / directions
    total = 0.0
    for ang in angles:
        delta = np.zeros(dec.latent_dim)
        delta[:2] = radius * np.array([np.cos(ang), np.sin(ang)])
        kl_val = M._decoded_kl(dec, z, z + delta, None)
        total += abs(kl_val - 0.5 * delta @ m @ delta)
    return total / directions


# the 3-latent decoder is nearly quadratic at radius 0.1: its validation
# errors (<= 2.4e-5) are ~1e-3 of its KLs, so the KLs' last-ulp rounding is
# ~1e-10 of the largest error
@pytest.mark.parametrize("latent_dim,tol", [(2, 1e-10), (3, 1e-8)])
def test_validation_errors_match_the_per_node_loop(latent_dim, tol):
    if latent_dim == 2:
        dec, bounds, resolution = toy_decoder("beta", seed=5), [[-2, 2], [-2, 2]], (20, 20)
    else:
        dec, bounds, resolution = lifted_decoder(3), [[-1.5, 1.5]] * 3, (4, 4, 4)
    grid = M.grid_build(M.KlProbeMetric(dec), bounds, resolution, SIGMA)
    got = cli._probe_validation_errors(dec, grid.points, grid.tensors)
    want = np.array([
        validation_error_reference(dec, z, m) for z, m in zip(grid.points, grid.tensors)
    ])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(want)


@pytest.mark.parametrize("latent_dim,bounds,resolution", [
    (1, "-2,2", "7"),
    (3, "-1,1,-1,1,-1,1", "3,3,3"),
])
def test_kl_probe_grid_on_other_latent_dims(latent_dim, bounds, resolution, tmp_path, capsys):
    dec_path, out = tmp_path / "dec.json", tmp_path / "grid.json"
    io.save_decoder(lifted_decoder(latent_dim), dec_path)
    assert cli.main([
        "metric-grid", "--decoder", str(dec_path), "--mode", "kl-probe",
        f"--bounds={bounds}", "--resolution", resolution, "--out", str(out),
    ]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    doc = json.loads(out.read_text())
    assert doc["latent_dim"] == latent_dim and len(doc["validation_error"]) == points
    assert np.all(np.isfinite(doc["validation_error"]))


@pytest.mark.parametrize("command", ["metric-grid", "geodesic", "exp"])
def test_profile_leaves_stdout_unchanged(command, decoder_path, tmp_path, capsys):
    if command == "metric-grid":
        argv = ["metric-grid", "--decoder", str(decoder_path), "--mode", "kl-probe",
                f"--bounds={BOUNDS}", "--resolution", RESOLUTION, "--out", str(tmp_path / "g.json")]
        stages = {"load", "evaluate", "validate"}
    elif command == "exp":
        argv = ["exp", "--decoder", str(decoder_path), "--z=0.6,0.2", "--v=0.3,-0.2",
                "--steps", "20", "--out", str(tmp_path / "path.csv")]
        stages = {"load", "shoot", "write"}
    else:
        argv = ["geodesic", "--decoder", str(decoder_path), "--z0=0.6,0.2", "--z1=-0.4,0.8",
                "--seed", "1", "--n-disc", "16", "--segments", "2", "--max-iters", "20"]
        stages = {"load", "optimize", "write"}
    assert cli.main(argv) == 0
    plain = capsys.readouterr()
    assert cli.main([*argv, "--profile"]) == 0
    profiled = capsys.readouterr()
    assert profiled.out == plain.out and plain.err == ""
    profile = json.loads(profiled.err.splitlines()[-1])["profile"]
    assert set(profile) == stages
    assert all(v >= 0 for v in profile.values())


def test_geodesic_profile_reports_why_the_fit_stopped(decoder_path, capsys):
    argv = ["geodesic", "--decoder", str(decoder_path), "--z0=1,0", "--z1=0,1",
            "--seed", "1", "--n-disc", "16", "--segments", "2"]
    for cap, reason in (("200", "converged"), ("2", "max_iters")):
        assert cli.main([*argv, "--max-iters", cap]) == 0
        plain = capsys.readouterr()
        assert cli.main([*argv, "--max-iters", cap, "--profile"]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain.out
        doc, out = json.loads(profiled.err.splitlines()[-1]), json.loads(plain.out)
        assert doc["stop_reason"] == reason and out["converged"] == (reason == "converged")
        assert doc["iterations"] == out["iterations"] and doc["grad_norm"] > 0
        if reason == "converged":
            assert doc["grad_norm"] < 1e-6 * (1.0 + out["energy"])


def test_threads_option_is_a_usage_error(decoder_path, tmp_path, capsys):
    code = cli.main([
        "--threads", "2", "metric-grid", "--decoder", str(decoder_path),
        f"--bounds={BOUNDS}", "--resolution", RESOLUTION, "--out", str(tmp_path / "g.json"),
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "g.json").exists()


@pytest.fixture
def grid_path(decoder_path, tmp_path):
    path = tmp_path / "grid.json"
    source = M.PullbackMetric(io.load_decoder(decoder_path))
    io.save_grid(M.grid_build(source, [[-2, 2], [-2, 2]], (5, 5), SIGMA), path)
    return path


EXP_ARGS = ["--z", "-0.5,1", "--v", "0.3,-0.1", "--steps", "10"]
LOG_ARGS = ["--z", "0.5,-1", "--y", "-0.2,0.3", "--seed", "1", "--n-disc", "16",
            "--segments", "2", "--max-iters", "20"]


@pytest.mark.parametrize("command", ["exp", "log"])
@pytest.mark.parametrize("source", ["--decoder", "--grid"])
def test_exp_and_log_print_repeatable_json(command, source, decoder_path, grid_path, capsys):
    path = decoder_path if source == "--decoder" else grid_path
    argv = [command, source, str(path), *(EXP_ARGS if command == "exp" else LOG_ARGS)]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    if command == "exp":
        assert np.all(np.isfinite(doc["endpoint"]))
    else:
        assert doc["length"] == np.linalg.norm(doc["v"]) > 0


def test_exp_out_writes_the_path(decoder_path, tmp_path, capsys):
    out = tmp_path / "path.csv"
    assert cli.main(["exp", "--decoder", str(decoder_path), *EXP_ARGS, "--out", str(out)]) == 0
    endpoint = json.loads(capsys.readouterr().out)["endpoint"]
    lines = out.read_text().splitlines()
    assert lines[:2] == [io.CSV_HEADER, "t,z0,z1"]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert rows.shape == (11, 3)
    assert np.array_equal(rows[0], [0.0, -0.5, 1.0])
    assert np.array_equal(rows[-1], [1.0, *endpoint])


def test_exp_where_the_metric_vanishes_is_singular(decoder_path, capsys):
    # the regularized decoder saturates far from the data: its pullback
    # metric is exactly 0 there, so no direction has a positive length
    assert not np.any(M.PullbackMetric(io.load_decoder(decoder_path)).eval([10.0, 10.0]))
    code = cli.main(["exp", "--decoder", str(decoder_path), "--z=10,10", "--v=0.3,0.1"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "SingularMetric"


def test_negative_vector_values_need_no_equals_sign(decoder_path, tmp_path, capsys):
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    assert cli.main([
        "metric-grid", "--decoder", str(decoder_path), "--bounds", BOUNDS,
        "--resolution", RESOLUTION, "--out", str(spaced),
    ]) == 0
    assert run_metric_grid(decoder_path, joined, "pullback") == 0
    assert spaced.read_bytes() == joined.read_bytes()
    capsys.readouterr()
    assert cli.main(["exp", "--decoder", str(decoder_path), *EXP_ARGS]) == 0
    assert cli.main(["exp", "--decoder", str(decoder_path), "--z=-0.5,1", "--v=0.3,-0.1",
                     "--steps", "10"]) == 0
    first, second = capsys.readouterr().out.split("}\n")[:2]
    assert first == second


@pytest.mark.parametrize("command", ["exp", "log", "land"])
def test_metric_source_is_required(command, tmp_path, capsys):
    codes, model = tmp_path / "codes.csv", tmp_path / "model.json"
    assert cli.main(["toygen", "--n", "8", "--seed", "1", "--out", str(codes)]) == 0
    capsys.readouterr()
    rest = {
        "exp": EXP_ARGS,
        "log": LOG_ARGS,
        "land": ["--codes", str(codes), "--seed", "1", "--out-model", str(model)],
    }[command]
    assert cli.main([command, *rest]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"
    assert not model.exists()


def test_geodesic_writes_a_curve_no_longer_than_the_chord(decoder_path, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert cli.main([
        "geodesic", "--decoder", str(decoder_path), "--z0=0.6,0.2", "--z1=-0.4,0.8",
        "--seed", "1", "--n-disc", "16", "--segments", "2", "--max-iters", "20",
        "--samples", "8", "--out", str(out),
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["energy"] <= doc["straight_energy"] and doc["length"] > 0
    lines = out.read_text().splitlines()
    assert lines[0] == io.CSV_HEADER
    assert lines[1].startswith("t,z0,z1,eta0,") and lines[1].endswith(",segment_kl")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    assert rows.shape[0] == 9 and np.all(np.isfinite(rows))
    assert np.array_equal(rows[0, :3], [0.0, 0.6, 0.2]) and rows[0, -1] == 0.0
    assert np.allclose(rows[-1, :3], [1.0, -0.4, 0.8], rtol=0, atol=1e-15)


def test_geodesic_with_overflowing_energy_reports_its_t(tmp_path, capsys):
    path = tmp_path / "normal.json"
    io.save_decoder(identity_parameter_decoder("normal"), path)
    with np.errstate(over="ignore"):
        code = cli.main(["geodesic", "--decoder", str(path), "--z0=0,1", "--z1=1e200,1",
                         "--seed", "1", "--n-disc", "16"])
    assert code == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert captured.out == "" and err["error"] == "NonFiniteEnergy"
    assert isinstance(err["t"], float) and 0.0 <= err["t"] <= 1.0


def test_log_decoder_is_the_batched_log_map(decoder_path, capsys):
    assert cli.main(["log", "--decoder", str(decoder_path), *LOG_ARGS]) == 0
    v = json.loads(capsys.readouterr().out)["v"]
    cfg = G.EnergyConfig(n_disc=16, segments=2, max_iters=20)  # the CLI's other defaults
    dec = io.load_decoder(decoder_path)
    want = G.log_map_batch(dec, [0.5, -1.0], [[-0.2, 0.3]], cfg, RngStream(1))[0][0]
    assert v == [float(x) for x in want]


def test_land_whose_final_normalizer_fails_writes_its_model(monkeypatch, tmp_path, capsys):
    # the final normalizer of `land` raises: the fit exits 2 with
    # NonConvergence and still writes a model that loads
    grid_file, codes, model = tmp_path / "grid.json", tmp_path / "codes.csv", tmp_path / "m.json"
    grid = M.MetricGrid(np.tile(np.eye(2), (25, 1, 1)), SIGMA, [[-2, 2], [-2, 2]], (5, 5))
    io.save_grid(grid, grid_file)
    assert cli.main(["toygen", "--n", "12", "--seed", "1", "--out", str(codes)]) == 0
    capsys.readouterr()
    real = land_mod.land_normalizer_stats
    final = RngStream(3).child(99_999).generator.bit_generator.state

    def stub(mean, precision, metric, rng, n, **kw):
        if rng.generator.bit_generator.state == final:
            raise SingularMetric("stub")
        return real(mean, precision, metric, rng, n, **kw)

    monkeypatch.setattr(land_mod, "land_normalizer_stats", stub)
    argv = ["land", "--grid", str(grid_file), "--codes", str(codes), "--seed", "3",
            "--max-iters", "2", "--mc-samples", "64", "--exp-steps", "5", "--out-model", str(model)]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "NonConvergence"
    loaded = io.land_from_dict(json.loads(model.read_text()), M.GridMetric(grid))
    assert not loaded.converged and loaded.norm_const > 0 and loaded.mc_samples == 64


@pytest.mark.parametrize("argv", [
    ["exp", "--decoder", "{dec}", "--z=0,0", "--v=0.1,0", "--steps", "0"],
    ["land", "--decoder", "{dec}", "--codes", "{codes}", "--seed", "1",
     "--out-model", "{model}", "--exp-steps", "0"],
    ["land", "--decoder", "{dec}", "--codes", "{codes}", "--seed", "1",
     "--out-model", "{model}", "--mc-samples", "0"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0", "--z1=1,1", "--seed", "1", "--segments", "0"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0", "--z1=1,1", "--seed", "1", "--mc-samples", "8"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0", "--z1=1,1", "--seed", "1",
     "--gradient-mode", "fd"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0", "--z1=1,1", "--seed", "1", "--samples", "-1"],
    ["geodesic", "--decoder", "{dec}", "--codes", "{codes}", "--i0", "0", "--i1", "99",
     "--seed", "1"],
    ["geodesic", "--decoder", "{dec}", "--codes", "{codes}", "--i0", "-1", "--i1", "3",
     "--seed", "1"],
    ["toygen", "--n", "-3", "--seed", "1", "--out", "{model}"],
    ["kl", "--decoder", "{dec}", "--z1=0,0", "--z2=1,1", "--mc-samples", "-4", "--seed", "1"],
    ["kl", "--decoder", "{dec}", "--z1=0,0", "--z2=1,1", "--mc-samples", "0", "--seed", "1"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0", "--z1=1,1", "--seed", "1", "--n-disc", "1"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0", "--z1=1,1", "--seed", "1", "--max-iters", "-3"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0,0", "--z1=1,1", "--seed", "1"],
    ["metric-grid", "--decoder", "{dec}", "--bounds=-2,2,-2,2", "--resolution", "0,3",
     "--out", "{model}"],
    ["metric-grid", "--decoder", "{dec}", "--bounds=-2,2,-2", "--resolution", "3,3",
     "--out", "{model}"],
    ["land", "--decoder", "{dec}", "--codes", "{codes}", "--seed", "1",
     "--out-model", "{model}", "--out-density", "{codes}", "--density-resolution", "4"],
    ["exp", "--decoder", "{dec}", "--z=0,0,0", "--v=0.1,0"],
    ["log", "--decoder", "{dec}", "--z=0,0", "--y=1,1,1", "--seed", "1"],
    ["kl", "--decoder", "{dec}", "--z1=0,0,0", "--z2=1,1"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0", "--z1=1,1", "--seed", "1", "--grad-tol", "-1"],
    ["log", "--decoder", "{dec}", "--z=0,0", "--y=1,1", "--seed", "1", "--grad-tol", "nan"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0", "--z1=1,1", "--seed", "1", "--grad-tol", "inf"],
    ["land", "--decoder", "{dec}", "--codes", "{codes}", "--seed", "1",
     "--out-model", "{model}", "--max-iters", "0"],
    ["land", "--decoder", "{dec}", "--codes", "{codes}", "--seed", "1",
     "--out-model", "{model}", "--max-iters", "-3"],
    ["log", "--decoder", "{dec}", "--z=0,0", "--y=1,1", "--seed", "1", "--mc-samples", "8"],
    ["log", "--decoder", "{dec}", "--z=0,0", "--y=1,1", "--seed", "1", "--gradient-mode", "fd"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0", "--z1=1,1", "--seed", "1",
     "--objective", "categorical"],
    ["log", "--decoder", "{dec}", "--z=0,0", "--y=1,1", "--seed", "1",
     "--objective", "categorical"],
    ["log", "--grid", "{grid}", "--z=0,0", "--y=1,1", "--seed", "1",
     "--objective", "categorical"],
    ["geodesic", "--decoder", "{dec}", "--z0=0,0", "--z1=1,1", "--seed", "1", "--jitter=nan"],
    ["exp", "--decoder", "{dec}", "--z=0,0", "--v=nan,0"],
    ["exp", "--decoder", "{dec}", "--z=0,0", "--v=inf,0"],
    ["log", "--decoder", "{dec}", "--z=0,0", "--y=nan,0", "--seed", "1"],
    ["kl", "--decoder", "{dec}", "--z1=0,0", "--z2=nan,0"],
])
def test_counts_and_code_indices_out_of_range_are_usage_errors(argv, decoder_path, grid_path,
                                                               tmp_path, capsys):
    codes, model = tmp_path / "codes.csv", tmp_path / "model.json"
    assert cli.main(["toygen", "--n", "12", "--seed", "1", "--out", str(codes)]) == 0
    capsys.readouterr()
    paths = {"dec": decoder_path, "grid": grid_path, "codes": codes, "model": model}
    assert cli.main([a.format(**paths) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[-1])["error"] == "usage"
    assert not model.exists()
