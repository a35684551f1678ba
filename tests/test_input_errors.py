"""Bad input to the library raises ValueError, which the CLI maps to exit 2.

NhsiegelError and its subclasses are kept for numerical failures (exit 1),
so no input check may raise one.  FormDataError, which names the record of
a malformed form or points file, is a ValueError.
"""

import math
import re
import time

import numpy as np
import pytest

import nhsiegel
from nhsiegel.errors import FormDataError, NhsiegelError, SingularMatrixError
from nhsiegel.forms import FourierExpansion, tail_bound
from nhsiegel.growth import corollary_rhs, sturm_rhs
from nhsiegel.linalg import MultiIndex, sqrt_posdef
from nhsiegel.reps import Rep, RepVector, apply, inner, rep_matrix
from nhsiegel.samples import SAMPLE_BUILDERS, build_sample, divisor_power_sum
from nhsiegel.symplectic import (
    PointBatch,
    SiegelPoint,
    SymplecticMatrix,
    act,
    delta_for_degree,
    embedded_inversion,
)

E4_REP, OTHER_REP = Rep(1, 0, 4), Rep(1, 0, 6)
MISMATCH = f"vectors from different representations: {E4_REP} vs {OTHER_REP}"
INDEFINITE = np.diag([1.0, -1.0])
NOT_POSDEF_Y = "imaginary part is not positive definite (min eigenvalue -1.000e+00)"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda pkg: Rep(1, -1, 0), "Sym^j det^k needs integers j, k >= 0, got j=-1, k=0"),
        (
            lambda pkg: apply(E4_REP, np.eye(1), RepVector(OTHER_REP, [1.0])),
            "vector does not belong to this representation",
        ),
        (lambda pkg: inner(RepVector(E4_REP, [1.0]), RepVector(OTHER_REP, [1.0])), MISMATCH),
        (lambda pkg: SiegelPoint(np.zeros((2, 2)), INDEFINITE), NOT_POSDEF_Y),
        (lambda pkg: SiegelPoint(np.zeros((1, 1)), np.array([[math.nan]])), "Y has non-finite entries"),
        (
            lambda pkg: sqrt_posdef(INDEFINITE),
            "matrix is not positive definite (min eigenvalue -1.000e+00)",
        ),
        (lambda pkg: sturm_rhs(INDEFINITE, 2), NOT_POSDEF_Y),
        (lambda pkg: corollary_rhs(INDEFINITE, 2), NOT_POSDEF_Y),
        (
            lambda pkg: tail_bound(pkg, [[-1.0]]),
            "tail estimate requires positive definite Y (min eigenvalue -1.000e+00)",
        ),
        (lambda pkg: tail_bound(pkg, [[math.nan]]), "Y has non-finite entries"),
    ],
    ids=[
        "rep-weight", "apply", "inner",
        "point-indefinite-Y", "point-nan-Y", "sqrt-posdef", "sturm-rhs", "corollary-rhs",
        "tail-bound", "tail-bound-nan-Y",
    ],
)
def test_input_check_raises_value_error(e4_package, call, message):
    assert e4_package.rep == E4_REP
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(e4_package)


def _terms(beta=MultiIndex(1, ()), s=((0,),), value=(1.0,)):
    """A weight-4 degree-1 expansion of the one record (beta, N*S, value)."""
    return FourierExpansion.from_terms(1, 0, 1, E4_REP, 20.0, [(beta, s, value)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _terms(beta={}), FormDataError, "coefficients[0]: beta must be a MultiIndex"),
        (
            lambda: _terms(beta=MultiIndex(2, ())),
            FormDataError,
            "coefficients[0]: beta has dimension 2, expected 1",
        ),
        (lambda: _terms(s=((0.5,),)), FormDataError, "coefficients[0]: 1*S is not integral"),
        (
            lambda: _terms(value=(1.0, 2.0)),
            FormDataError,
            "coefficients[0]: value has length (2,), expected 1",
        ),
        (
            lambda: FourierExpansion(1, 0, 1, Rep(2, 0, 4), 20.0),
            FormDataError,
            "representation rank 2 does not match degree 1",
        ),
        (
            lambda: rep_matrix(E4_REP, np.zeros((1, 2))),
            ValueError,
            "representation argument must be square, got shape (1, 2)",
        ),
        (lambda: MultiIndex(0, ()), ValueError, "dimension 0 outside supported range"),
        (
            lambda: MultiIndex(2, ((1, 1, 1), (1, 1, 2))),
            ValueError,
            "duplicate index pair (1,1)",
        ),
        (
            lambda: RepVector(Rep(2, 2, 0), np.ones(2)),
            ValueError,
            "coordinate length (2,) does not match dimension 3",
        ),
        (
            lambda: rep_matrix(Rep(2, 0, 4), np.eye(1)),
            ValueError,
            "matrix rank 1 does not match representation rank 2",
        ),
        (
            lambda: delta_for_degree(3),
            ValueError,
            "no fundamental-domain floor configured for degree 3",
        ),
        (
            lambda: PointBatch(np.zeros((1, 1, 1)), np.eye(2)[None]),
            ValueError,
            "X and Y must have the same shape",
        ),
        (lambda: embedded_inversion(2, 3), ValueError, "slot 3 outside 1..2"),
        (lambda: divisor_power_sum(0, 3), ValueError, "divisor sums need a positive argument"),
        (
            lambda: build_sample("e8"),
            ValueError,
            f"unknown sample 'e8'; choose from {sorted(SAMPLE_BUILDERS)}",
        ),
    ],
    ids=[
        "forms-beta-not-a-multiindex", "forms-beta-dimension", "forms-S-not-integral",
        "forms-value-length", "forms-rep-rank", "linalg-not-square",
        "linalg-multiindex-dimension", "linalg-duplicate-pair", "reps-coordinate-length",
        "reps-matrix-rank", "symplectic-no-floor-for-degree", "symplectic-X-Y-shapes",
        "symplectic-slot-outside", "samples-divisor-sum-of-zero", "samples-unknown-name",
    ],
)
def test_library_guard_raises(call, error, message):
    # Guards of the library's own arguments, each called directly.
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_form_data_error_is_an_input_error():
    assert issubclass(FormDataError, ValueError)
    assert not issubclass(FormDataError, NhsiegelError)
    # The package exports these error types and no other.
    assert {name for name in dir(nhsiegel) if name.endswith("Error")} == {
        "EigenIterationError",
        "FormDataError",
        "NhsiegelError",
        "ReductionBudgetError",
        "SingularMatrixError",
        "TailDivergenceError",
    }


def test_computed_point_is_a_numerical_failure():
    # gamma = (1 0; 10^7 1) sends i to a point with Y = 1/(10^14 + 1), under
    # the positive-definite floor.  The library computed that point, so the
    # failure is numerical; the same check on a given point is an input error.
    g = SymplecticMatrix(np.array([[1.0, 0.0], [1e7, 1.0]]))
    with pytest.raises(SingularMatrixError, match="^computed point's imaginary part is not positive"):
        act(g, SiegelPoint.base_point(1))
    with pytest.raises(ValueError, match=f"^{re.escape(NOT_POSDEF_Y)}$"):
        SiegelPoint([[0.0]], [[-1.0]])


@pytest.mark.parametrize(
    "name, y",
    [("e4_package", [[1e-13]]), ("sym2_package", [[1.0, 1.0], [1.0, 1.0 + 1e-13]])],
    ids=["e4", "sym2"],
)
def test_tail_bound_rejects_y_under_the_floor_at_once(request, name, y):
    # Y is positive definite in exact arithmetic but under the package's
    # floor, by which SiegelPoint and sqrt_posdef reject it as input; the
    # tail series is not started, so no iteration budget is spent.
    package = request.getfixturevalue(name)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^tail estimate requires positive definite Y \(min eigenvalue "):
        tail_bound(package, y)
    assert time.perf_counter() - start < 0.05
