import numpy as np
import pytest

from statgeo import io
from statgeo.errors import ShapeError
from statgeo.land import LandModel
from statgeo.metric import ConstantMetric


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
