"""The names and metrics that the benchmark pins: a change that renames or
deletes a function the benchmark's tracer wraps fails here."""

import importlib.util
from pathlib import Path

import pytest

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


@pytest.fixture(scope="module")
def selftest():
    spec = importlib.util.spec_from_file_location("bench_selftest", SELFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("check", ["check_benchmark_json", "check_patching"])
def test_benchmark_pins_hold(selftest, check):
    errors = []
    getattr(selftest, check)(errors)
    assert errors == []
