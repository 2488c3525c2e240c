import json

import numpy as np
import pytest

import statgeo.metric as M
from statgeo import cli, io
from statgeo.toy import toy_decoder

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


def test_threads_option_is_a_usage_error(decoder_path, tmp_path, capsys):
    code = cli.main([
        "--threads", "2", "metric-grid", "--decoder", str(decoder_path),
        f"--bounds={BOUNDS}", "--resolution", RESOLUTION, "--out", str(tmp_path / "g.json"),
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "usage"
    assert not (tmp_path / "g.json").exists()
