import json

import numpy as np
import pytest

from statgeo import cli, io
from statgeo import decoder as D
from statgeo.errors import ShapeError
from statgeo.land import LandModel
from statgeo.metric import ConstantMetric, grid_build
from statgeo.toy import toy_decoder


def test_codes_round_trip_bit_exactly(gen, tmp_path):
    codes = gen.standard_normal((17, 3)) * 10.0 ** gen.integers(-300, 300, size=(17, 3))
    codes[0] = [1.0 / 3.0, -0.0, 5e-324]
    path = tmp_path / "codes.csv"
    io.save_codes(codes, path)
    back = io.load_codes(path)
    assert back.shape == codes.shape
    assert np.array_equal(back, codes) and np.array_equal(np.signbit(back), np.signbit(codes))


@pytest.mark.parametrize("body", [
    "x,y\n0.5,1.0\n",  # not the z0, z1, ... header
    "z0,z1\n0.5,1.0\n2.0\n",  # a short row
    "z0,z1\n0.5,1.0,3.0\n0.5,1.0\n",  # a long row
    "z0,z1\n0.5,1.0,3.0\n0.5,1.0,3.0\n",  # every row wider than the header
    "z0,z1\n0.5,1.0\n0.5,abc\n",  # a value that is not a number
])
def test_codes_with_a_wrong_header_or_ragged_rows_are_shape_errors(body, tmp_path):
    path = tmp_path / "codes.csv"
    path.write_text(io.CSV_HEADER + "\n" + body)
    with pytest.raises(ShapeError):
        io.load_codes(path)


def test_land_model_round_trips_through_its_file(tmp_path):
    metric = ConstantMetric(np.eye(2))
    model = LandModel(
        mean=np.array([0.1, -1.0 / 3.0]), precision=np.array([[2.0, 0.3], [0.3, 1.0 / 7.0]]),
        norm_const=0.123456789012345, metric=metric, mc_samples=77, seed=9, converged=False,
    )
    path = tmp_path / "model.json"
    io.save_json(io.land_to_dict(model, metric_ref="grid.json"), path)
    doc = io.load_json(path)
    assert doc["kind"] == "land_model" and doc["metric_ref"] == "grid.json"
    back = io.land_from_dict(doc, metric)
    assert np.array_equal(back.mean, model.mean)
    assert np.array_equal(back.precision, model.precision)
    assert back.norm_const == model.norm_const
    assert (back.seed, back.mc_samples, back.converged) == (9, 77, False)
    assert back.metric is metric


def _set_weight(doc, value):
    doc["heads"][0]["layers"][0]["weight"][0] = value


@pytest.mark.parametrize("kind,corrupt", [
    ("grid", lambda doc: doc["tensors"].__setitem__(0, [1.0, 0.0, 1.0])),
    ("grid", lambda doc: doc.update(bandwidth="abc")),
    ("grid", lambda doc: doc.update(bandwidth=None)),
    ("grid", lambda doc: doc.update(bandwidth=float("nan"))),
    ("grid", lambda doc: doc["tensors"][0].__setitem__(1, "x")),
    ("decoder", lambda doc: _set_weight(doc, "x")),
    ("decoder", lambda doc: doc.update(family="poisson")),
    ("decoder", lambda doc: doc["regularization"].update(extrapolation=[[1.0, 1.0]] * 3)),
    ("decoder", lambda doc: doc.update(pre_transform={"a": [1.0, 0.0, 0.0], "b": [0.0, 0.0]})),
], ids=[
    "three-value-tensor", "text-bandwidth", "null-bandwidth", "nan-bandwidth", "text-tensor-entry",
    "text-layer-weight", "unknown-family", "extrapolation-override", "three-value-pre-transform",
])
def test_malformed_grid_or_decoder_file_is_a_shape_error(kind, corrupt, tmp_path, capsys):
    if kind == "grid":
        grid = grid_build(ConstantMetric(np.eye(2)), [[-1, 1], [-1, 1]], (3, 3), 0.5)
        doc, load = io.grid_to_dict(grid, "pullback"), io.load_grid
    else:
        doc, load = io.decoder_to_dict(toy_decoder("beta", seed=5)), io.load_decoder
    corrupt(doc)
    path = tmp_path / f"{kind}.json"
    io.save_json(doc, path)
    with pytest.raises(ShapeError):
        load(path)
    assert cli.main(["exp", f"--{kind}", str(path), "--z", "0,0", "--v", "0.1,0"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ShapeError"


def test_composed_decoder_round_trips_through_its_file(gen, tmp_path):
    dec = toy_decoder("beta", seed=5)
    composed = D.compose_linear(dec, np.diag([2.0, 1.0]), np.array([0.1, 0.0]))
    path = tmp_path / "decoder.json"
    io.save_decoder(composed, path)
    back = io.load_decoder(path)
    zs = gen.normal(size=(16, 2))
    assert not np.array_equal(D.forward_stacked(back, zs), D.forward_stacked(dec, zs))
    assert np.array_equal(D.forward_stacked(back, zs), D.forward_stacked(composed, zs))
    assert np.array_equal(D.jacobian_stacked(back, zs), D.jacobian_stacked(composed, zs))
    io.save_decoder(dec, path)
    assert "pre_transform" not in io.load_json(path)


@pytest.mark.parametrize("latent_dim", [3, 1])
def test_grid_file_whose_latent_dim_disagrees_with_its_bounds_names_both(latent_dim, tmp_path):
    grid = grid_build(ConstantMetric(np.eye(2)), [[-1, 1], [-1, 1]], (3, 3), 0.5)
    doc = io.grid_to_dict(grid, "pullback")
    doc["latent_dim"] = latent_dim
    path = tmp_path / "grid.json"
    io.save_json(doc, path)
    with pytest.raises(ShapeError, match=f"latent_dim {latent_dim}.*bounds have 2 rows"):
        io.load_grid(path)


def test_grid_file_keeps_latent_dim_and_loads_without_it(tmp_path):
    grid = grid_build(ConstantMetric(np.diag([1.0, 2.0, 3.0])), [[-1, 1], [0, 2], [1, 3]],
                      (2, 3, 2), 0.5)
    doc = io.grid_to_dict(grid, "pullback")
    assert doc["latent_dim"] == 3
    del doc["latent_dim"]
    back = io.grid_from_dict(doc)
    assert np.array_equal(back.tensors, grid.tensors) and np.array_equal(back.bounds, grid.bounds)
    assert (back.resolution, back.bandwidth) == (grid.resolution, grid.bandwidth)
