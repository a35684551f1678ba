"""Bundled sample forms.

Degree 1: the classical level-one Eisenstein series of weight 4 and 6
(holomorphic), the weight-2 completed series with its 1/y correction term
(genuinely nearly holomorphic, degree 1 in 1/y), a constant form, and the
zero form.  Degree 2: a synthetic Sym^2 x det^2 coefficient set used for
structural tests of evaluation, slashing, and reduction; it satisfies no
transformation law.  A sample carries no group elements to test: ``check``
takes them from ``forms.invariance_gammas`` (J alone at level 1).
"""

from __future__ import annotations

import math

from .forms import FormPackage, FourierExpansion, last_level
from .linalg import MultiIndex
from .reps import Rep


def divisor_power_sum(m: int, k: int) -> int:
    """Sum of k-th powers of the positive divisors of m."""
    if m < 1:
        raise ValueError("divisor sums need a positive argument")
    total = 0
    for d in range(1, int(math.isqrt(m)) + 1):
        if m % d == 0:
            total += d**k
            e = m // d
            if e != d:
                total += e**k
    return total


def _beta0(n: int) -> MultiIndex:
    return MultiIndex.from_dict(n, {})


def _level_one(k, p, c, t_max, growth_a, growth_kappa, extra=()) -> FormPackage:
    """The level-one weight-k package with a(0) = 1, the ``extra`` terms,
    and a(m) = c sigma_{k-1}(m) at every level m the truncation keeps."""
    b0 = _beta0(1)
    terms = [(b0, [[0]], [1.0 + 0.0j]), *extra]
    for m in range(1, last_level(1, t_max) + 1):
        terms.append((b0, [[m]], [c * divisor_power_sum(m, k - 1) + 0.0j]))
    exp_ = FourierExpansion.from_terms(1, p, 1, Rep(1, 0, k), t_max, terms)
    return FormPackage(exp_, growth_a=growth_a, growth_kappa=growth_kappa)


def eisenstein4(t_max: float = 20.0) -> FormPackage:
    """Weight-4 level-one Eisenstein series, truncated at Tr(S) <= t_max.

    Coefficients: a(0) = 1, a(m) = 240 sigma_3(m).  Declared growth
    A = 300, kappa = 3 (sigma_3(m) <= zeta(3) m^3 and 240 zeta(3) < 300).
    """
    return _level_one(4, 0, 240.0, t_max, 300.0, 3.0)


def eisenstein6() -> FormPackage:
    """Weight-6 level-one Eisenstein series, truncated at Tr(S) <= 20.

    Coefficients: a(0) = 1, a(m) = -504 sigma_5(m).  Declared growth
    A = 550, kappa = 5 (504 zeta(5) < 523).
    """
    return _level_one(6, 0, -504.0, 20.0, 550.0, 5.0)


def e2_star() -> FormPackage:
    """The weight-2 series 1 - 3/(pi y) - 24 sum sigma_1(m) q^m, to Tr(S) <= 20.

    The 1/y term is stored with multi-index {b_11 = 1} at S = 0, making this
    the canonical genuinely nearly holomorphic sample (degree 1 in 1/y).
    Declared growth A = 30, kappa = 2 (24 sigma_1(m) <= 24 m^2 and the 1/y
    coefficient has magnitude 3/pi < 1).
    """
    b11 = MultiIndex.from_dict(1, {(1, 1): 1})
    return _level_one(2, 1, -24.0, 20.0, 30.0, 2.0, [(b11, [[0]], [-3.0 / math.pi + 0.0j])])


def constant_form(value: complex = 1.0) -> FormPackage:
    """Degree-1 constant form with trivial weight: F(Z) = value (T_max 20)."""
    rep = Rep(1, 0, 0)
    exp_ = FourierExpansion.from_terms(1, 0, 1, rep, 20.0, [(_beta0(1), [[0]], [complex(value)])])
    return FormPackage(exp_, growth_a=abs(complex(value)), growth_kappa=0.0)


def zero_form() -> FormPackage:
    """Degree-1 form with no coefficients at all (T_max 20)."""
    rep = Rep(1, 0, 0)
    exp_ = FourierExpansion.from_terms(1, 0, 1, rep, 20.0, [])
    return FormPackage(exp_, growth_a=0.0, growth_kappa=0.0)


def synthetic_sym2() -> FormPackage:
    """Synthetic degree-2 coefficient set in Sym^2 x det^2, near-holomorphy
    degree 1, truncated at Tr(S) <= 4.  Exercises vector-valued evaluation,
    slashing, and tail machinery; it is not modular, so it is unsuitable for
    invariance or growth certification.
    """
    rep = Rep(2, 2, 2)
    b0 = _beta0(2)
    b12 = MultiIndex.from_dict(2, {(1, 2): 1})
    terms = [
        (b0, [[0, 0], [0, 0]], [0.3, 0.1 - 0.2j, -0.25]),
        (b0, [[1, 0], [0, 0]], [1.0, 0.5j, 0.2]),
        (b0, [[0, 0], [0, 1]], [0.2, -0.5j, 1.0]),
        (b0, [[1, 1], [1, 1]], [0.1, 0.2, 0.3]),
        (b0, [[2, 1], [1, 1]], [-0.4, 0.6, 1.0j]),
        (b12, [[1, 0], [0, 1]], [0.05, -0.15, 0.08]),
    ]
    exp_ = FourierExpansion.from_terms(2, 1, 1, rep, 4.0, terms)
    return FormPackage(exp_, growth_a=2.0, growth_kappa=0.0)


SAMPLE_BUILDERS = {
    "e4": eisenstein4,
    "e6": eisenstein6,
    "e2star": e2_star,
    "constant": constant_form,
    "zero": zero_form,
    "sym2": synthetic_sym2,
}


def build_sample(name: str) -> FormPackage:
    if name not in SAMPLE_BUILDERS:
        raise ValueError(f"unknown sample {name!r}; choose from {sorted(SAMPLE_BUILDERS)}")
    return SAMPLE_BUILDERS[name]()
