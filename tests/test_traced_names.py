"""The benchmark's tracer wraps package functions by name.  Each name in
``bench/tracer.py``'s ``LAYERS`` must resolve in its module, or a traced
run fails; some of these functions (``linalg.inverse``, ``solve_gauss``,
``det``, ``monomial``, ``sqrt_posdef``) have no caller inside the package,
so only this test keeps them from being deleted as unused."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in _layers().items() for name in names]
)
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"nhsiegel.{layer}"), name))
