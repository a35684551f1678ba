"""The reduction's step budget at its boundary, at both degrees: a point that
stops on its k-th step raises ReductionBudgetError under a budget of k - 1
steps, and under a budget of k returns what the default budget returns,
byte for byte."""

import numpy as np
import pytest

from nhsiegel import symplectic
from nhsiegel.errors import ReductionBudgetError
from nhsiegel.symplectic import PointBatch, reduce_batch

# (X, Y, k): a point and the number of steps its reduction takes.
POINTS = {
    1: ([[0.4]], [[3e-4]], 4),
    2: ([[0.4, 0.1], [0.1, -0.3]], [[1e-3, 2e-4], [2e-4, 3e-3]], 4),
}


@pytest.mark.parametrize("n", [1, 2])
def test_budget_boundary(n, monkeypatch):
    x, y, k = POINTS[n]
    points = PointBatch(np.array([x]), np.array([y]))
    gamma, reduced = reduce_batch(points)
    monkeypatch.setattr(symplectic, "REDUCTION_BUDGET", k - 1)
    with pytest.raises(ReductionBudgetError) as exc:
        reduce_batch(points)
    assert str(exc.value) == f"reduction did not stabilise within {k - 1} steps"
    monkeypatch.setattr(symplectic, "REDUCTION_BUDGET", k)
    got_gamma, got = reduce_batch(points)
    for have, want in ((got_gamma, gamma), (got.X, reduced.X), (got.Y, reduced.Y)):
        assert have.dtype == want.dtype and have.shape == want.shape
        assert have.tobytes() == want.tobytes()
