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
from nhsiegel.forms import tail_bound
from nhsiegel.growth import corollary_rhs, sturm_rhs, verify_moderate_growth
from nhsiegel.linalg import sqrt_posdef
from nhsiegel.reps import Rep, apply, basis_vector, inner, make_rep
from nhsiegel.symplectic import SiegelPoint, SymplecticMatrix, act

E4_REP, OTHER_REP = make_rep(1, 0, 4), make_rep(1, 0, 6)
MISMATCH = f"vectors from different representations: {E4_REP} vs {OTHER_REP}"
INDEFINITE = np.diag([1.0, -1.0])
NOT_POSDEF_Y = "imaginary part is not positive definite (min eigenvalue -1.000e+00)"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda pkg: Rep(1, -1, 0), "Sym^j det^k needs integers j, k >= 0, got j=-1, k=0"),
        (
            lambda pkg: apply(E4_REP, np.eye(1), basis_vector(OTHER_REP, 0)),
            "vector does not belong to this representation",
        ),
        (lambda pkg: inner(basis_vector(E4_REP, 0), basis_vector(OTHER_REP, 0)), MISMATCH),
        (lambda pkg: basis_vector(E4_REP, 0) + basis_vector(OTHER_REP, 0), MISMATCH),
        (lambda pkg: basis_vector(E4_REP, 0) - basis_vector(OTHER_REP, 0), MISMATCH),
        (
            lambda pkg: verify_moderate_growth(pkg, basis_vector(OTHER_REP, 0), 1.0),
            f"w0 is in {OTHER_REP}, the form in {E4_REP}",
        ),
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
        "rep-weight", "apply", "inner", "add", "sub", "moderate-w0",
        "point-indefinite-Y", "point-nan-Y", "sqrt-posdef", "sturm-rhs", "corollary-rhs",
        "tail-bound", "tail-bound-nan-Y",
    ],
)
def test_input_check_raises_value_error(e4_package, call, message):
    assert e4_package.rep == E4_REP
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(e4_package)


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
