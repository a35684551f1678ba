"""The benchmark's tracer wraps package functions by name.  Each name in
``bench/tracer.py``'s ``LAYERS`` must resolve in its module, or a traced
run fails; some of these functions (``linalg.inverse``, ``solve_gauss``,
``det``, ``sqrt_posdef``) have no caller inside the package, so only this
test keeps them from being deleted as unused.  The sweeps and the
invariance check must also run their kernels under the traced names, or the
traced layers record no calls.  Every name the package exports must be
named in ``LAYERS`` or used by another module of the package."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nhsiegel.forms import check_invariance
from nhsiegel.growth import SweepConfig, verify_growth_bound, verify_moderate_growth
from nhsiegel.sampling import CHECK_BOX, random_siegel_points

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = ROOT / "src" / "nhsiegel"

# The group and growth kernels of the sweeps and of ``check_invariance``.
KERNELS = (
    "growth.sturm_rhs",
    "growth.corollary_rhs",
    "growth.lift",
    "symplectic.act",
    "symplectic.automorphy_factor",
    "symplectic.from_point",
)


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize(
    "layer, name", [(layer, name) for layer, names in _tracer().LAYERS.items() for name in names]
)
def test_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"nhsiegel.{layer}"), name))


def _referenced(path: Path) -> set[str]:
    """Every name a module's code mentions: its ``Name`` nodes, attribute
    names and the names it imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_reached():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exports = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    reached = {name for names in _tracer().LAYERS.values() for name in names}
    for module in PACKAGE.glob("*.py"):
        if module.name != "__init__.py":
            reached |= _referenced(module)
    assert sorted(exports - reached) == []


@pytest.mark.parametrize("form", ["e4_package", "sym2_package"])
def test_sweeps_and_check_run_the_traced_kernels(form, request):
    package = request.getfixturevalue(form)
    config = SweepConfig(samples=20, seed=3)
    samples = random_siegel_points(package.n, np.random.default_rng(3), 5, *CHECK_BOX)
    tracer = _tracer()
    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    try:
        for kind in ("theorem", "corollary"):
            verify_growth_bound(package, 1.0, kind, config)
        verify_moderate_growth(package, 1.0, config=config)
        check_invariance(package, [samples])
    finally:
        uninstall()
    calls = Counter(span[0] for span in spans.spans)
    assert {name: calls[name] for name in KERNELS if not calls[name]} == {}
