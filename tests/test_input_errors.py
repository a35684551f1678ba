"""Bad input to the library raises ValueError, which the CLI maps to exit 2.

NhsiegelError and its subclasses other than FormDataError are kept for
numerical failures (exit 1), so no input check may raise one.
"""

import re

import numpy as np
import pytest

from nhsiegel.growth import verify_moderate_growth
from nhsiegel.reps import Rep, apply, basis_vector, inner, make_rep

E4_REP, OTHER_REP = make_rep(1, 0, 4), make_rep(1, 0, 6)
MISMATCH = f"vectors from different representations: {E4_REP} vs {OTHER_REP}"


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
            lambda pkg: verify_moderate_growth(pkg, basis_vector(OTHER_REP, 0), 2.0, 1.0),
            f"w0 is in {OTHER_REP}, the form in {E4_REP}",
        ),
        (
            lambda pkg: verify_moderate_growth(pkg, basis_vector(E4_REP, 0), 0.5, 1.0),
            "exponent 0.5 below the certified threshold 2.0",
        ),
    ],
    ids=["rep-weight", "apply", "inner", "add", "sub", "moderate-w0", "moderate-r"],
)
def test_input_check_raises_value_error(e4_package, call, message):
    assert e4_package.rep == E4_REP
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(e4_package)
