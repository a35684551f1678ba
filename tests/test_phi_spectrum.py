"""phi read off the eigendecomposition of Y, the accumulation of ``evaluate``
and the series-tail sum, each against a copy of the form it replaced."""

import math

import numpy as np
import pytest

import nhsiegel.forms as forms
from nhsiegel.errors import TailDivergenceError
from nhsiegel.forms import FormPackage, FourierExpansion, _tail_series, evaluate, magnitudes, phi
from nhsiegel.linalg import MultiIndex, monomial, multi_index_count
from nhsiegel.reps import make_rep, norms, rep_matrix
from nhsiegel.samples import _beta0, divisor_power_sum
from nhsiegel.sampling import random_siegel_point, random_siegel_points
from nhsiegel.symplectic import PointBatch, SiegelPoint

_TWO_PI = 2.0 * math.pi


def magnitudes_reference(rep, points, values):
    """||rho(Y^{1/2}) v|| through the matrix square root and the full rho."""
    return norms(rep, (rep_matrix(rep, points.y_sqrt) @ values[..., None])[..., 0])


def magnitudes_without_inf(rep, points, values):
    """``magnitudes`` before an overflowed weight factor gave +inf: a NaN
    stayed NaN."""
    q_t = points.eigvecs.swapaxes(-1, -2)
    values = (rep_matrix(forms._sym_part(rep), q_t) @ values[..., None])[..., 0]
    return norms(rep, np.exp(np.log(points.eigvals) @ rep.half_weights) * values)


def evaluate_zeros_plus_add(f, points):
    """``evaluate`` summed from a zero array with one in-place add per beta,
    the S and value stacks built here from the coefficient map."""
    by_beta = {}
    for (beta, skey), vec in f.coefficients.items():
        by_beta.setdefault(beta, []).append((skey, vec))
    total = np.zeros((len(points), f.rep.dim), dtype=complex)
    zc = points.mat.reshape(len(points), -1)
    for beta, items in by_beta.items():
        items.sort(key=lambda kv: kv[0])
        s_stack = np.array([k for k, _ in items], dtype=float) / float(f.level)
        s_flat = s_stack.reshape(len(items), -1)
        v_stack = np.array([v for _, v in items], dtype=complex)
        part = np.exp(2j * math.pi * (zc @ s_flat.T)) @ v_stack
        if beta.degree:
            part *= monomial(points.y_inv, beta)[:, None]
        total += part
    return total


def series_float_stacks(f, points):
    """``forms._series`` as written before its S stacks were stored complex:
    the float (K, n*n) stack of each beta, cast by the product on each call."""
    zc, y_inv, total = points.mat.reshape(len(points), -1), None, None
    for flat, powers, s_t, v_stack in f._stacks:
        s_flat = np.ascontiguousarray(s_t.real.T)
        part = np.exp(2j * math.pi * (zc @ s_flat.T)) @ v_stack
        if flat.size:
            y_inv = points.y_inv.reshape(len(points), -1) if y_inv is None else y_inv
            part *= np.multiply.reduce(y_inv.take(flat, axis=1) ** powers, axis=1)[:, None]
        total = part if total is None else total + part
    return total


def tail_series_closures(package, delta):
    """The series-tail sum written with a term and a ratio closure."""
    if delta <= 0.0:
        raise TailDivergenceError(
            f"tail estimate requires positive definite Y (min eigenvalue {delta:.3e})"
        )
    a_const = package.growth_a
    if a_const == 0.0:
        return 0.0
    exp_ = package.expansion
    n, p, level = exp_.n, exp_.p, exp_.level
    kappa = package.growth_kappa
    r_slots = n * (n + 1) // 2
    count_beta = multi_index_count(n, p)
    mono = max(1.0, delta ** (-p))
    c = _TWO_PI * delta / level
    m = forms.last_level(level, exp_.t_max) + 1

    def term(mm):
        return (2.0 * mm + 1.0) ** r_slots * a_const * (1.0 + mm / level) ** kappa * math.exp(-c * mm)

    def ratio_majorant(mm):
        poly = ((2.0 * mm + 3.0) / (2.0 * mm + 1.0)) ** r_slots
        kfac = ((level + mm + 1.0) / (level + mm)) ** kappa
        return poly * max(1.0, kfac) * math.exp(-c)

    total = 0.0
    closed = False
    for _ in range(200000):
        t = term(m)
        total += t
        r_hat = ratio_majorant(m)
        if r_hat < 1.0:
            rest = t * r_hat / (1.0 - r_hat)
            if rest <= 1e-16 * total:
                total += rest
                closed = True
                break
        m += 1
    if not closed:
        raise TailDivergenceError(
            "tail estimate did not stabilise within the iteration budget "
            f"(min eigenvalue of Y is {delta:.3e}; effectively too small)"
        )
    return count_beta * mono * total


def degree2_scalar_expansion():
    """A degree-2 expansion in the one-dimensional det^3."""
    terms = [
        (_beta0(2), [[0, 0], [0, 0]], [1.0]),
        (_beta0(2), [[1, 0], [0, 1]], [0.5 - 0.25j]),
        (_beta0(2), [[2, 1], [1, 1]], [-0.125]),
    ]
    return FourierExpansion.from_terms(2, 0, 1, make_rep(2, 0, 3), 4.0, terms)


def negative_kappa_package():
    terms = [(_beta0(1), [[m]], [0.5 / (1 + m)]) for m in range(6)]
    exp_ = FourierExpansion.from_terms(1, 0, 1, make_rep(1, 0, 2), 5.0, terms)
    return FormPackage(exp_, growth_a=1.0, growth_kappa=-1.0)


def p2_package():
    b2 = MultiIndex.from_dict(1, {(1, 1): 2})
    terms = [(_beta0(1), [[m]], [1.0]) for m in range(5)] + [(b2, [[0]], [0.25])]
    exp_ = FourierExpansion.from_terms(1, 2, 1, make_rep(1, 0, 2), 4.0, terms)
    return FormPackage(exp_, growth_a=2.0, growth_kappa=1.0)


def level3_package():
    # Level 3: N*S = [[m]], so Tr(S) = m/3 and the kept levels run to 3 * t_max.
    terms = [(_beta0(1), [[m]], [divisor_power_sum(m, 3) if m else 1.0]) for m in range(10)]
    exp_ = FourierExpansion.from_terms(1, 0, 3, make_rep(1, 0, 4), 3.0, terms)
    return FormPackage(exp_, growth_a=300.0, growth_kappa=3.0)


ONE_DIM = ["e4_package", "e6_package", "e2star_package", "constant_package", "degree2_det3"]


def _package(name, request):
    if name == "degree2_det3":
        return degree2_scalar_expansion()
    return request.getfixturevalue(name)


@pytest.fixture
def counted(monkeypatch):
    """Count ``rep_matrix`` calls made by the forms module and reads of
    ``PointBatch.y_sqrt``."""
    counts = {"rep_matrix": 0, "y_sqrt": 0}
    original_rep_matrix, original_y_sqrt = forms.rep_matrix, PointBatch.y_sqrt.fget

    def counting_rep_matrix(*args):
        counts["rep_matrix"] += 1
        return original_rep_matrix(*args)

    def counting_y_sqrt(batch):
        counts["y_sqrt"] += 1
        return original_y_sqrt(batch)

    monkeypatch.setattr(forms, "rep_matrix", counting_rep_matrix)
    monkeypatch.setattr(PointBatch, "y_sqrt", property(counting_y_sqrt))
    return counts


class TestSpectralMagnitudes:
    @pytest.mark.parametrize("name", ONE_DIM)
    def test_one_dimensional_reps_need_no_matrix(self, name, request, rng, counted):
        package = _package(name, request)
        n = package.n
        z = random_siegel_point(n, rng)
        batch = random_siegel_points(n, rng, 7)
        expansion = getattr(package, "expansion", package)
        for arg in (z, batch):
            phi(package, arg)
            phi(expansion, arg)
        values = evaluate(expansion, batch)
        magnitudes(package.rep, batch, values)
        assert counted == {"rep_matrix": 0, "y_sqrt": 0}

    def test_sym2_applies_one_rho_per_call(self, sym2_package, rng, counted):
        batch = random_siegel_points(2, rng, 7)
        phi(sym2_package, batch)
        phi(sym2_package, random_siegel_point(2, rng))
        assert counted == {"rep_matrix": 2, "y_sqrt": 0}

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("eig_range", [(1e-2, 1e2), (0.8, 10.0)])
    def test_matches_square_root_form(self, n, eig_range, rng):
        worst = 0.0
        for j in range(4):
            for k in range(4):
                rep = make_rep(n, j, k)
                batches = [random_siegel_points(n, rng, 500, *eig_range)]
                batches += [random_siegel_point(n, rng, *eig_range).batch for _ in range(5)]
                for points in batches:
                    shape = (len(points), rep.dim)
                    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    got = magnitudes(rep, points, values)
                    want = magnitudes_reference(rep, points, values)
                    worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(1.0, want))))
        assert worst <= 1e-13

    @pytest.mark.parametrize("n,j,k", [(1, 0, 4), (2, 0, 3), (2, 2, 2), (1, 0, 0)])
    def test_rejects_points_of_another_degree(self, n, j, k, rng):
        rep = make_rep(n, j, k)
        points = random_siegel_points(3 - n, rng, 4)
        with pytest.raises(ValueError, match="does not match representation rank"):
            magnitudes(rep, points, np.ones((4, rep.dim), dtype=complex))


class TestEvaluateAccumulation:
    def test_zero_form(self, zero_package, rng):
        batch = random_siegel_points(1, rng, 5)
        values = evaluate(zero_package.expansion, batch)
        assert values.shape == (5, 1) and not values.any()
        assert not phi(zero_package, batch).any()
        assert phi(zero_package, random_siegel_point(1, rng)) == 0.0

    @pytest.mark.parametrize("name", ["e4_package", "e2star_package", "sym2_package"])
    @pytest.mark.parametrize("count", [1, 256])
    def test_bit_identical_to_zeros_plus_add(self, name, count, request, rng):
        package = request.getfixturevalue(name)
        points = random_siegel_points(package.n, rng, count)
        want = evaluate_zeros_plus_add(package.expansion, points)
        assert np.array_equal(evaluate(package.expansion, points), want)
        if count == 1:
            z = points.point(0)
            assert np.array_equal(evaluate(package.expansion, z).coords, want[0])

    @pytest.mark.parametrize("name", ["e2star_package", "sym2_package"])
    @pytest.mark.parametrize("count", [1, 1000])
    def test_complex_stacks_bit_identical_to_float_stacks(self, name, count, request, rng):
        expansion = request.getfixturevalue(name).expansion
        for _, _, s_t, _ in expansion._stacks:
            assert s_t.dtype == complex and s_t.flags.c_contiguous
        points = random_siegel_points(expansion.n, rng, count, 0.05, 5.0)
        got = forms._series(expansion, points)
        assert np.array_equal(got, series_float_stacks(expansion, points))


class TestOverflowingWeightFactor:
    def test_phi_is_inf_not_nan(self, e4_package):
        # Y = 1e300: the factor y^2 overflows, and inf times the zero
        # imaginary part of F = 1 + 0i is NaN; numpy still warns of both.
        z = SiegelPoint(np.zeros((1, 1)), np.array([[1e300]]))
        with pytest.warns(RuntimeWarning):
            assert phi(e4_package, z) == math.inf

    def test_finite_values_unchanged(self, sym2_package, rng):
        points = random_siegel_points(2, rng, 200)
        values = evaluate(sym2_package.expansion, points)
        assert np.array_equal(
            magnitudes(sym2_package.rep, points, values),
            magnitudes_without_inf(sym2_package.rep, points, values),
        )


TAIL_PACKAGES = [
    "e4_package",
    "e6_package",
    "e2star_package",
    "sym2_package",
    "negative_kappa",
    "p2",
    "level3",
]
_BUILT = {"negative_kappa": negative_kappa_package, "p2": p2_package, "level3": level3_package}


class TestTailSeries:
    @pytest.mark.parametrize("name", TAIL_PACKAGES)
    def test_bit_identical_to_closure_form(self, name, request):
        package = _BUILT[name]() if name in _BUILT else request.getfixturevalue(name)
        positive = 0
        for delta in np.geomspace(0.05, 100.0, 41).tolist() + [math.sqrt(3) / 2, 0.5, 1.0]:
            want = tail_series_closures(package, delta)
            assert _tail_series(package, delta) == want, delta
            positive += want > 0.0
        assert positive >= 10  # the grid is not all underflow

    @pytest.mark.parametrize("delta", [0.0, -1.0, 1e-7])
    def test_same_divergence_error(self, e4_package, delta):
        with pytest.raises(TailDivergenceError) as want:
            tail_series_closures(e4_package, delta)
        with pytest.raises(TailDivergenceError) as got:
            _tail_series(e4_package, delta)
        assert str(got.value) == str(want.value)
