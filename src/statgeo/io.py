"""File formats: decoder weights (JSON), latent codes (CSV), metric grids
and fitted density models (JSON).

Floats are written with Python's shortest round-trip repr (at most 17
significant digits), so load(save(x)) == x and seeded runs are
byte-reproducible. CSV payloads start with a version header line.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__
from .decoder import DecoderMap, Head, LayerSpec, UncertaintyReg
from .errors import ShapeError
from .families import FamilyKind, get_family
from .land import LandModel
from .metric import LatentMetric, MetricGrid

CSV_HEADER = f"# statgeo {__version__}"


def _floats(a) -> list:
    """Nested lists of Python floats (json renders them via repr)."""
    arr = np.asarray(a, dtype=float)
    return arr.tolist()


def decoder_to_dict(dec: DecoderMap) -> dict:
    doc = {
        "version": __version__,
        "kind": "decoder",
        "latent_dim": dec.latent_dim,
        "feature_count": dec.feature_count,
        "family": dec.family.kind.value,
        "heads": [
            {
                "name": head.name,
                "layers": [
                    {
                        "rows": int(layer.weight.shape[0]),
                        "cols": int(layer.weight.shape[1]),
                        "weight": _floats(layer.weight.reshape(-1)),
                        "bias": _floats(layer.bias),
                        "activation": layer.activation,
                    }
                    for layer in head.layers
                ],
            }
            for head in dec.heads
        ],
    }
    if dec.regularization is not None:
        reg = dec.regularization
        reg_doc = {
            "centers": _floats(reg.centers),
            "beta": float(reg.beta),
            "c": float(reg.c),
        }
        if reg.extrapolation is not None:
            reg_doc["extrapolation"] = _floats(reg.extrapolation)
        doc["regularization"] = reg_doc
    return doc


def decoder_from_dict(doc: dict) -> DecoderMap:
    family_kind = FamilyKind(doc["family"])
    feature_count = int(doc["feature_count"])
    heads = []
    for head_doc in doc["heads"]:
        layers = []
        for ldoc in head_doc["layers"]:
            rows, cols = int(ldoc["rows"]), int(ldoc["cols"])
            weight = np.asarray(ldoc["weight"], dtype=float)
            if weight.size != rows * cols:
                raise ShapeError(
                    f"layer weight length {weight.size} != rows*cols {rows * cols}"
                )
            layers.append(
                LayerSpec(
                    weight.reshape(rows, cols),
                    np.asarray(ldoc["bias"], dtype=float),
                    ldoc.get("activation", "identity"),
                )
            )
        heads.append(Head(head_doc["name"], tuple(layers)))
    if family_kind in (FamilyKind.CATEGORICAL, FamilyKind.DIRICHLET):
        k = heads[0].out_dim // feature_count
        family = get_family(family_kind, k)
    else:
        family = get_family(family_kind)
    reg = None
    if "regularization" in doc and doc["regularization"] is not None:
        rdoc = doc["regularization"]
        extrap = rdoc.get("extrapolation")
        reg = UncertaintyReg(
            centers=np.asarray(rdoc["centers"], dtype=float),
            beta=float(rdoc["beta"]),
            c=float(rdoc.get("c", 7.0)),
            extrapolation=None if extrap is None else np.asarray(extrap, dtype=float),
        )
    return DecoderMap(
        latent_dim=int(doc["latent_dim"]),
        feature_count=feature_count,
        family=family,
        heads=tuple(heads),
        regularization=reg,
    )


def save_json(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_decoder(dec: DecoderMap, path) -> None:
    save_json(decoder_to_dict(dec), path)


def load_decoder(path) -> DecoderMap:
    return decoder_from_dict(load_json(path))


def save_codes(codes: np.ndarray, path) -> None:
    codes = np.atleast_2d(np.asarray(codes, dtype=float))
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        writer = csv.writer(fh)
        writer.writerow([f"z{i}" for i in range(codes.shape[1])])
        for row in codes:
            writer.writerow([repr(float(v)) for v in row])


def load_codes(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    if not all(name == f"z{i}" for i, name in enumerate(header)):
        raise ShapeError(f"unexpected codes header {header}")
    if any(len(row) != len(header) for row in data):
        raise ShapeError("codes file is not rectangular")
    return np.array([[float(v) for v in row] for row in data])


def grid_to_dict(grid: MetricGrid, mode: str, extra: dict | None = None) -> dict:
    doc = {
        "version": __version__,
        "kind": "metric_grid",
        "mode": mode,
        "latent_dim": int(grid.points.shape[1]),
        "bounds": _floats(grid.bounds),
        "resolution": [int(r) for r in grid.resolution],
        "bandwidth": float(grid.bandwidth),
        "points": _floats(grid.points),
        "tensors": [_floats(t.reshape(-1)) for t in grid.tensors],
    }
    if extra:
        doc.update(extra)
    return doc


def grid_from_dict(doc: dict) -> MetricGrid:
    d = int(doc["latent_dim"])
    points = np.asarray(doc["points"], dtype=float)
    tensors = np.stack(
        [np.asarray(t, dtype=float).reshape(d, d) for t in doc["tensors"]]
    )
    return MetricGrid(
        points=points,
        tensors=tensors,
        bandwidth=float(doc["bandwidth"]),
        bounds=np.asarray(doc["bounds"], dtype=float),
        resolution=tuple(int(r) for r in doc["resolution"]),
    )


def save_grid(grid: MetricGrid, path, mode: str = "pullback", extra=None) -> None:
    save_json(grid_to_dict(grid, mode, extra), path)


def load_grid(path) -> MetricGrid:
    return grid_from_dict(load_json(path))


def land_to_dict(model: LandModel, metric_ref: str = "") -> dict:
    return {
        "version": __version__,
        "kind": "land_model",
        "mean": _floats(model.mean),
        "precision": _floats(model.precision.reshape(-1)),
        "norm_const": float(model.norm_const),
        "seed": int(model.seed),
        "metric_ref": metric_ref,
        "mc_samples": int(model.mc_samples),
        "converged": bool(model.converged),
    }


def land_from_dict(doc: dict, metric: LatentMetric) -> LandModel:
    mean = np.asarray(doc["mean"], dtype=float)
    d = mean.size
    return LandModel(
        mean=mean,
        precision=np.asarray(doc["precision"], dtype=float).reshape(d, d),
        norm_const=float(doc["norm_const"]),
        metric=metric,
        mc_samples=int(doc.get("mc_samples", 256)),
        seed=int(doc.get("seed", 0)),
        converged=bool(doc.get("converged", True)),
    )
